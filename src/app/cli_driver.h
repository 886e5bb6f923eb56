#ifndef RANKHOW_APP_CLI_DRIVER_H_
#define RANKHOW_APP_CLI_DRIVER_H_

/// \file cli_driver.h
/// The assembly layer behind the `rankhow_cli` tool: turn a CSV table plus
/// textual options into a solvable OPT instance. Kept out of the binary so
/// the parsing/assembly rules are unit-testable and reusable by downstream
/// embedders who have their own flag handling.

#include <cstdint>
#include <string>
#include <vector>

#include "core/rankhow.h"
#include "core/solve_session.h"
#include "data/dataset.h"
#include "ranking/objective.h"
#include "ranking/ranking.h"
#include "util/csv.h"
#include "util/status.h"

namespace rankhow {

/// How to interpret a CSV table as an OPT instance.
struct CliDataSpec {
  /// Ranking attributes (CSV column names). Empty = every column except the
  /// id and rank columns.
  std::vector<std::string> attributes;
  /// Optional label column (player name, institution, ...). Not used for
  /// scoring.
  std::string id_column;
  /// Optional column holding the given positions. Accepted cell values:
  /// positive integers for ranked tuples; "", "-", "0", "na", "null" or
  /// "unranked" (case-insensitive) for ⊥. When empty, the file's row order
  /// IS the ranking and the first `k` rows get positions 1..k.
  std::string rank_column;
  /// Ranking length when `rank_column` is empty.
  int k = 10;
  /// Attributes where lower is better (turnovers); negated per Sec. I.
  std::vector<std::string> negate;
  /// Min-max rescale all attributes to [0,1] (recommended: the ε settings
  /// assume comparable column scales).
  bool normalize = true;
  /// Accept rankings that do not start at position 1 (mid-ranking windows,
  /// RankingValidation::kOffset).
  bool offset_ranking = false;
  /// Drop tuples that duplicate an earlier row on all ranking attributes
  /// (the paper keeps one of identically-statted players).
  bool drop_duplicates = false;
};

/// A ready-to-solve instance assembled from a CSV.
struct CliProblem {
  Dataset data;
  Ranking given;
  /// One label per tuple: the id column's value, or "row<i>" (1-based).
  std::vector<std::string> labels;
};

/// Validates the spec against the table, selects/parses columns, negates,
/// normalizes, and builds the given ranking.
///
/// Errors: kInvalidArgument (unknown column, non-numeric cell, bad rank
/// value, invalid ranking under Definition 1).
Result<CliProblem> AssembleCliProblem(const CsvTable& csv,
                                      const CliDataSpec& spec);

/// Parses a bound list "PTS:0.1,AST:0.05" and adds one min- (or max-)
/// weight constraint per entry, resolving attribute names against `data`.
/// An empty spec string is a no-op.
Status ApplyWeightBounds(const Dataset& data, const std::string& spec,
                         bool is_min, WeightConstraintSet* constraints);

/// Parses "LABEL_A>LABEL_B[,LABEL_C>LABEL_D...]" into pairwise order
/// constraints ("A must outscore B"), resolving labels against `labels`.
Status ApplyOrderConstraints(const std::vector<std::string>& labels,
                             const std::string& spec,
                             std::vector<PairwiseOrderConstraint>* out);

/// "auto" | "milp" | "spatial" | "sat".
Result<SolveStrategy> ParseStrategy(const std::string& name);

/// "--threads" values: a non-negative integer, or "all" for every hardware
/// thread (the RankHowOptions::num_threads convention: 0 = all, 1 =
/// serial, n = exactly n).
Result<int> ParseThreadCount(const std::string& value);

/// "position" | "topheavy" | "inversions"; `k` sizes the top-heavy penalty
/// ladder.
Result<RankingObjectiveSpec> ParseObjectiveSpec(const std::string& name,
                                                int k);

/// Strict validation for count-like flags ("--seeds"): a positive integer,
/// rejected (not clamped) on anything else. `flag` names the flag in the
/// error message.
Result<int> ParsePositiveCount(const std::string& flag,
                               const std::string& value);

/// "--time-limit": a finite number of seconds >= 0 (0 = unlimited).
Result<double> ParseTimeLimit(const std::string& value);

// ---------------------------------------------------------------------------
// Scripted session mode (`--session edits.txt`): one edit+solve per line.
//
// Script grammar (one command per line; '#' starts a comment):
//   solve                     re-solve with no edit (the cold baseline line)
//   min-weight ATTR VALUE     add the weight floor w_ATTR >= VALUE
//   max-weight ATTR VALUE     add the weight ceiling w_ATTR <= VALUE
//   drop NAME                 remove the constraint named NAME (the names
//                             min-weight/max-weight assign are min_ATTR /
//                             max_ATTR)
//   order LABEL_A>LABEL_B     add "A must outscore B"
//   eps VALUE                 set the tie tolerance ε
//   eps1 VALUE | eps2 VALUE   set the Equation-(2) thresholds
//   objective NAME            position | topheavy | inversions
//   append V1 V2 ... Vm       append an unranked tuple (one value per
//                             ranking attribute; the session server's
//                             structural edit — forks a COW snapshot when
//                             the dataset is shared)
// Every line (including the edit ones) triggers one SolveSession::Solve.
// Re-adding a constraint name that is still present (min-weight PTS twice
// without a drop between) is rejected with kAlreadyExists — scripts and
// wire clients must drop first, so a typo cannot silently stack
// constraints under one name.

/// One parsed script line.
struct SessionCommand {
  enum class Kind {
    kSolve,
    kMinWeight,
    kMaxWeight,
    kDrop,
    kOrder,
    kEps,
    kEps1,
    kEps2,
    kObjective,
    kAppend,
  };
  Kind kind = Kind::kSolve;
  /// Attribute name (min/max-weight), constraint name (drop), "A>B" label
  /// pair (order), objective name, or the space-joined tuple values
  /// (append — validated against the dataset width at execution time).
  std::string arg;
  double value = 0;  // min/max-weight bound or ε value
  int line = 0;      // 1-based source line for error messages
  /// Per-request wall-clock deadline in milliseconds (0 = none). Not part
  /// of the script grammar: the wire layer's stream-scoped `deadline MS`
  /// verb stamps it onto subsequent commands, and ExecuteSessionCommand
  /// caps the solve's time limit at min(configured, deadline). Not
  /// journaled either — replay applies edits only, never solves.
  int64_t deadline_ms = 0;
};

/// Parses a session script. Errors: kInvalidArgument with the line number.
Result<std::vector<SessionCommand>> ParseSessionScript(
    const std::string& text);

/// The inverse of ParseSessionScript for one command: renders the exact
/// script-grammar line that parses back to `cmd` (doubles round-trip via
/// %.17g). The session journal persists commands in this form, so the
/// on-disk format and the wire/script grammar can never drift apart.
std::string FormatSessionCommand(const SessionCommand& cmd);

/// One executed script line: the command and what its solve proved.
struct SessionStepOutcome {
  SessionCommand command;
  RankHowResult result;
};

/// Applies one command's *edit* to the session (no solve). Labels resolve
/// `order` commands. Failed edits leave the session untouched (every edit
/// validates before mutating): kInvalidArgument for malformed arguments,
/// kAlreadyExists for a duplicate min/max-weight name, kNotFound for an
/// unknown drop name — all tagged with the command's line number.
Status ApplySessionCommand(SolveSession* session, const SessionCommand& cmd,
                           const std::vector<std::string>& labels);

/// ExecuteSessionCommand's error when the solve failed after the edit stuck;
/// WireResponseEditApplied (server/wire.h) reads it back.
inline constexpr char kSolveFailedAfterEdit[] =
    "solve failed after edit applied";

/// One script step, exactly as the session server executes it: apply the
/// edit, then solve. A failed edit returns its status (session intact, no
/// solve); a failed solve propagates. The multi-client equivalence harness
/// replays scripts through this same function, so server strands and serial
/// replays execute identical code.
///
/// `edit_applied` (optional) reports whether the edit mutated the session —
/// true even when the subsequent solve failed (kSolveFailedAfterEdit),
/// which is exactly the bit the write-ahead journal needs: a
/// command whose edit stuck must be journaled whether or not its solve
/// finished. A non-zero cmd.deadline_ms caps the solve's wall clock at
/// min(session time limit, deadline); the configured limit is restored
/// afterwards.
Result<SessionStepOutcome> ExecuteSessionCommand(
    SolveSession* session, const SessionCommand& cmd,
    const std::vector<std::string>& labels, bool* edit_applied = nullptr);

/// Applies the script to a session, one edit+solve per line. Labels resolve
/// `order` commands (pass the CliProblem's labels). Stops at the first
/// failing edit or solve, with the line number in the error.
Result<std::vector<SessionStepOutcome>> RunSessionScript(
    SolveSession* session, const std::vector<SessionCommand>& script,
    const std::vector<std::string>& labels);

}  // namespace rankhow

#endif  // RANKHOW_APP_CLI_DRIVER_H_
