#include "app/cli_driver.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace rankhow {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

bool IsUnrankedCell(std::string_view raw) {
  std::string v = ToLower(Trim(raw));
  return v.empty() || v == "-" || v == "0" || v == "na" || v == "null" ||
         v == "unranked" || v == "bot" || v == "\xe2\x8a\xa5" /* ⊥ */;
}

int FindColumn(const CsvTable& csv, const std::string& name) {
  for (size_t c = 0; c < csv.header.size(); ++c) {
    if (csv.header[c] == name) return static_cast<int>(c);
  }
  return -1;
}

}  // namespace

Result<CliProblem> AssembleCliProblem(const CsvTable& csv,
                                      const CliDataSpec& spec) {
  if (csv.rows.empty()) {
    return Status::Invalid("CSV has no data rows");
  }
  const int n = static_cast<int>(csv.rows.size());

  int id_col = -1;
  if (!spec.id_column.empty()) {
    id_col = FindColumn(csv, spec.id_column);
    if (id_col < 0) {
      return Status::Invalid("id column not in CSV: " + spec.id_column);
    }
  }
  int rank_col = -1;
  if (!spec.rank_column.empty()) {
    rank_col = FindColumn(csv, spec.rank_column);
    if (rank_col < 0) {
      return Status::Invalid("rank column not in CSV: " + spec.rank_column);
    }
  }

  // Resolve the ranking attributes.
  std::vector<int> attr_cols;
  std::vector<std::string> attr_names;
  if (!spec.attributes.empty()) {
    for (const std::string& name : spec.attributes) {
      int c = FindColumn(csv, name);
      if (c < 0) return Status::Invalid("attribute not in CSV: " + name);
      if (c == id_col || c == rank_col) {
        return Status::Invalid("attribute overlaps id/rank column: " + name);
      }
      attr_cols.push_back(c);
      attr_names.push_back(name);
    }
  } else {
    for (size_t c = 0; c < csv.header.size(); ++c) {
      if (static_cast<int>(c) == id_col || static_cast<int>(c) == rank_col) {
        continue;
      }
      attr_cols.push_back(static_cast<int>(c));
      attr_names.push_back(csv.header[c]);
    }
  }
  if (attr_cols.empty()) {
    return Status::Invalid("no ranking attributes selected");
  }

  CliProblem out;
  out.data = Dataset(attr_names, n);
  for (int t = 0; t < n; ++t) {
    for (size_t a = 0; a < attr_cols.size(); ++a) {
      const std::string& cell = csv.rows[t][attr_cols[a]];
      auto v = ParseDouble(cell);
      if (!v.ok()) {
        return Status::Invalid(StrFormat(
            "row %d, column '%s': non-numeric cell '%s'", t + 1,
            attr_names[a].c_str(), cell.c_str()));
      }
      out.data.set_value(t, static_cast<int>(a), *v);
    }
  }

  out.labels.reserve(n);
  for (int t = 0; t < n; ++t) {
    out.labels.push_back(id_col >= 0 ? csv.rows[t][id_col]
                                     : "row" + std::to_string(t + 1));
  }

  for (const std::string& name : spec.negate) {
    RH_ASSIGN_OR_RETURN(int attr, out.data.AttributeIndex(name));
    out.data.NegateColumn(attr);
  }

  // The given ranking: explicit column, or row order + k.
  std::vector<int> positions(n, kUnranked);
  if (rank_col >= 0) {
    for (int t = 0; t < n; ++t) {
      const std::string& cell = csv.rows[t][rank_col];
      if (IsUnrankedCell(cell)) continue;
      auto p = ParseInt(Trim(cell));
      if (!p.ok() || *p < 1) {
        return Status::Invalid(StrFormat(
            "row %d: bad rank value '%s' (positive integer or blank/-/na)",
            t + 1, cell.c_str()));
      }
      positions[t] = static_cast<int>(*p);
    }
  } else {
    if (spec.k < 1 || spec.k > n) {
      return Status::Invalid(StrFormat(
          "k=%d out of range for %d rows (no rank column given)", spec.k,
          n));
    }
    for (int t = 0; t < spec.k; ++t) positions[t] = t + 1;
  }

  if (spec.drop_duplicates) {
    std::vector<int> kept = out.data.DropDuplicateTuples();
    if (static_cast<int>(kept.size()) < n) {
      std::vector<int> kept_positions;
      std::vector<std::string> kept_labels;
      kept_positions.reserve(kept.size());
      kept_labels.reserve(kept.size());
      for (int t : kept) {
        kept_positions.push_back(positions[t]);
        kept_labels.push_back(std::move(out.labels[t]));
      }
      positions = std::move(kept_positions);
      out.labels = std::move(kept_labels);
    }
  }

  if (spec.normalize) out.data.NormalizeMinMax();

  RH_ASSIGN_OR_RETURN(
      out.given,
      Ranking::Create(std::move(positions), spec.offset_ranking
                                                ? RankingValidation::kOffset
                                                : RankingValidation::kStrict));
  return out;
}

Status ApplyWeightBounds(const Dataset& data, const std::string& spec,
                         bool is_min, WeightConstraintSet* constraints) {
  if (Trim(spec).empty()) return Status();
  for (const std::string& entry : Split(spec, ',')) {
    std::vector<std::string> parts = Split(entry, ':');
    if (parts.size() != 2) {
      return Status::Invalid("weight bound must be ATTR:VALUE, got: " +
                             entry);
    }
    std::string name(Trim(parts[0]));
    RH_ASSIGN_OR_RETURN(int attr, data.AttributeIndex(name));
    RH_ASSIGN_OR_RETURN(double bound, ParseDouble(Trim(parts[1])));
    // !( >= && <= ) rather than ( < || > ): NaN must fail the range check.
    if (!(bound >= 0 && bound <= 1)) {
      return Status::Invalid(StrFormat(
          "weight bound for %s must lie in [0,1], got %g", name.c_str(),
          bound));
    }
    if (is_min) {
      constraints->AddMinWeight(attr, bound, "min_" + name);
    } else {
      constraints->AddMaxWeight(attr, bound, "max_" + name);
    }
  }
  return Status();
}

Status ApplyOrderConstraints(const std::vector<std::string>& labels,
                             const std::string& spec,
                             std::vector<PairwiseOrderConstraint>* out) {
  if (Trim(spec).empty()) return Status();
  auto find_label = [&labels](std::string_view name) -> int {
    for (size_t i = 0; i < labels.size(); ++i) {
      if (labels[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  for (const std::string& entry : Split(spec, ',')) {
    std::vector<std::string> parts = Split(entry, '>');
    if (parts.size() != 2) {
      return Status::Invalid("order constraint must be LABEL_A>LABEL_B: " +
                             entry);
    }
    std::string above(Trim(parts[0]));
    std::string below(Trim(parts[1]));
    int a = find_label(above);
    int b = find_label(below);
    if (a < 0) return Status::Invalid("unknown label: " + above);
    if (b < 0) return Status::Invalid("unknown label: " + below);
    if (a == b) {
      return Status::Invalid("order constraint needs two distinct tuples: " +
                             entry);
    }
    out->push_back({a, b});
  }
  return Status();
}

Result<SolveStrategy> ParseStrategy(const std::string& name) {
  std::string v = ToLower(Trim(name));
  if (v == "auto") return SolveStrategy::kAuto;
  if (v == "milp" || v == "indicator-milp") {
    return SolveStrategy::kIndicatorMilp;
  }
  if (v == "spatial") return SolveStrategy::kSpatial;
  if (v == "sat" || v == "sat-binary-search") {
    return SolveStrategy::kSatBinarySearch;
  }
  return Status::Invalid("unknown strategy '" + name +
                         "' (auto|milp|spatial|sat)");
}

Result<int> ParseThreadCount(const std::string& value) {
  std::string v = ToLower(Trim(value));
  if (v == "all" || v == "auto") return 0;
  bool numeric = !v.empty() && v.size() <= 5;  // bounds std::stoi too
  for (char c : v) numeric = numeric && c >= '0' && c <= '9';
  if (!numeric) {
    return Status::Invalid("bad --threads value '" + value +
                           "' (a non-negative integer, or 'all')");
  }
  return std::stoi(v);
}

Result<RankingObjectiveSpec> ParseObjectiveSpec(const std::string& name,
                                                int k) {
  std::string v = ToLower(Trim(name));
  if (v == "position") return RankingObjectiveSpec{};
  if (v == "topheavy") return RankingObjectiveSpec::TopHeavy(k);
  if (v == "inversions") return RankingObjectiveSpec::Inversions();
  return Status::Invalid("unknown objective '" + name +
                         "' (position|topheavy|inversions)");
}

Result<int> ParsePositiveCount(const std::string& flag,
                               const std::string& value) {
  auto parsed = ParseInt(Trim(value));
  if (!parsed.ok() || *parsed < 1 ||
      *parsed > std::numeric_limits<int>::max()) {
    return Status::Invalid("bad --" + flag + " value '" + value +
                           "' (a positive integer)");
  }
  return static_cast<int>(*parsed);
}

Result<double> ParseTimeLimit(const std::string& value) {
  auto parsed = ParseDouble(Trim(value));
  if (!parsed.ok() || !std::isfinite(*parsed) || *parsed < 0) {
    return Status::Invalid("bad --time-limit value '" + value +
                           "' (seconds >= 0; 0 = unlimited)");
  }
  return *parsed;
}

Result<std::vector<SessionCommand>> ParseSessionScript(
    const std::string& text) {
  std::vector<SessionCommand> script;
  int line_no = 0;
  for (const std::string& raw : Split(text, '\n')) {
    ++line_no;
    std::string line(Trim(raw));
    if (size_t hash = line.find('#'); hash != std::string::npos) {
      line = std::string(Trim(line.substr(0, hash)));
    }
    if (line.empty()) continue;

    // Tokenize on whitespace (the order argument carries no spaces).
    for (char& ch : line) {
      if (ch == '\t') ch = ' ';
    }
    std::vector<std::string> tokens;
    for (const std::string& t : Split(line, ' ')) {
      if (!Trim(t).empty()) tokens.emplace_back(Trim(t));
    }
    SessionCommand cmd;
    cmd.line = line_no;
    const std::string op = ToLower(tokens[0]);
    auto need_args = [&](size_t n) -> Status {
      if (tokens.size() != n + 1) {
        return Status::Invalid(StrFormat(
            "session script line %d: '%s' takes %d argument(s)", line_no,
            op.c_str(), static_cast<int>(n)));
      }
      return Status();
    };
    if (op == "solve") {
      RH_RETURN_NOT_OK(need_args(0));
      cmd.kind = SessionCommand::Kind::kSolve;
    } else if (op == "min-weight" || op == "max-weight") {
      RH_RETURN_NOT_OK(need_args(2));
      cmd.kind = op == "min-weight" ? SessionCommand::Kind::kMinWeight
                                    : SessionCommand::Kind::kMaxWeight;
      cmd.arg = tokens[1];
      auto v = ParseDouble(tokens[2]);
      // !( >= && <= ) rather than ( < || > ): NaN must fail the range check.
      if (!v.ok() || !(*v >= 0 && *v <= 1)) {
        return Status::Invalid(StrFormat(
            "session script line %d: weight bound must lie in [0,1], got "
            "'%s'",
            line_no, tokens[2].c_str()));
      }
      cmd.value = *v;
    } else if (op == "drop") {
      RH_RETURN_NOT_OK(need_args(1));
      cmd.kind = SessionCommand::Kind::kDrop;
      cmd.arg = tokens[1];
    } else if (op == "order") {
      RH_RETURN_NOT_OK(need_args(1));
      cmd.kind = SessionCommand::Kind::kOrder;
      cmd.arg = tokens[1];
      if (Split(cmd.arg, '>').size() != 2) {
        return Status::Invalid(StrFormat(
            "session script line %d: order needs LABEL_A>LABEL_B", line_no));
      }
    } else if (op == "eps" || op == "eps1" || op == "eps2") {
      RH_RETURN_NOT_OK(need_args(1));
      cmd.kind = op == "eps" ? SessionCommand::Kind::kEps
                 : op == "eps1" ? SessionCommand::Kind::kEps1
                                : SessionCommand::Kind::kEps2;
      auto v = ParseDouble(tokens[1]);
      if (!v.ok()) {
        return Status::Invalid(StrFormat(
            "session script line %d: bad %s value '%s'", line_no, op.c_str(),
            tokens[1].c_str()));
      }
      cmd.value = *v;
    } else if (op == "objective") {
      RH_RETURN_NOT_OK(need_args(1));
      cmd.kind = SessionCommand::Kind::kObjective;
      cmd.arg = tokens[1];
    } else if (op == "append") {
      if (tokens.size() < 2) {
        return Status::Invalid(StrFormat(
            "session script line %d: 'append' needs one value per ranking "
            "attribute",
            line_no));
      }
      cmd.kind = SessionCommand::Kind::kAppend;
      for (size_t i = 1; i < tokens.size(); ++i) {
        if (!ParseDouble(tokens[i]).ok()) {
          return Status::Invalid(StrFormat(
              "session script line %d: bad append value '%s'", line_no,
              tokens[i].c_str()));
        }
        if (i > 1) cmd.arg += ' ';
        cmd.arg += tokens[i];
      }
    } else {
      return Status::Invalid(StrFormat(
          "session script line %d: unknown command '%s'", line_no,
          op.c_str()));
    }
    script.push_back(std::move(cmd));
  }
  return script;
}

std::string FormatSessionCommand(const SessionCommand& cmd) {
  // %.17g renders doubles losslessly, so Parse(Format(cmd)) reproduces the
  // command bit-for-bit — the journal round-trip tests assert this.
  switch (cmd.kind) {
    case SessionCommand::Kind::kSolve:
      return "solve";
    case SessionCommand::Kind::kMinWeight:
      return StrFormat("min-weight %s %.17g", cmd.arg.c_str(), cmd.value);
    case SessionCommand::Kind::kMaxWeight:
      return StrFormat("max-weight %s %.17g", cmd.arg.c_str(), cmd.value);
    case SessionCommand::Kind::kDrop:
      return "drop " + cmd.arg;
    case SessionCommand::Kind::kOrder:
      return "order " + cmd.arg;
    case SessionCommand::Kind::kEps:
      return StrFormat("eps %.17g", cmd.value);
    case SessionCommand::Kind::kEps1:
      return StrFormat("eps1 %.17g", cmd.value);
    case SessionCommand::Kind::kEps2:
      return StrFormat("eps2 %.17g", cmd.value);
    case SessionCommand::Kind::kObjective:
      return "objective " + cmd.arg;
    case SessionCommand::Kind::kAppend:
      return "append " + cmd.arg;
  }
  return "solve";  // unreachable
}

Status ApplySessionCommand(SolveSession* session, const SessionCommand& cmd,
                           const std::vector<std::string>& labels) {
  auto fail = [&cmd](const Status& status) {
    return Status(status.code(),
                  StrFormat("session script line %d: %s", cmd.line,
                            status.message().c_str()));
  };
  Status edit;
  switch (cmd.kind) {
    case SessionCommand::Kind::kSolve:
      break;
    case SessionCommand::Kind::kMinWeight:
    case SessionCommand::Kind::kMaxWeight: {
      auto attr = session->data().AttributeIndex(cmd.arg);
      if (!attr.ok()) return fail(attr.status());
      const bool is_min = cmd.kind == SessionCommand::Kind::kMinWeight;
      WeightConstraint c;
      c.terms = {{*attr, 1.0}};
      c.op = is_min ? RelOp::kGe : RelOp::kLe;
      c.rhs = cmd.value;
      c.name = (is_min ? "min_" : "max_") + cmd.arg;
      // Script/wire traffic must drop before re-adding a name: silently
      // stacking constraints under one name would make the later `drop`
      // remove *both*, which no interactive client ever means.
      if (session->problem().constraints.ContainsName(c.name)) {
        edit = Status::AlreadyExists("constraint " + c.name +
                                     " already exists (drop it first)");
      } else {
        edit = session->AddWeightConstraint(std::move(c));
      }
      break;
    }
    case SessionCommand::Kind::kDrop:
      edit = session->RemoveWeightConstraint(cmd.arg);
      break;
    case SessionCommand::Kind::kOrder: {
      std::vector<PairwiseOrderConstraint> parsed;
      edit = ApplyOrderConstraints(labels, cmd.arg, &parsed);
      if (edit.ok()) {
        for (const PairwiseOrderConstraint& oc : parsed) {
          edit = session->AddOrderConstraint(oc.above, oc.below);
          if (!edit.ok()) break;
        }
      }
      break;
    }
    case SessionCommand::Kind::kEps:
    case SessionCommand::Kind::kEps1:
    case SessionCommand::Kind::kEps2: {
      EpsilonConfig eps = session->problem().eps;
      if (cmd.kind == SessionCommand::Kind::kEps) {
        eps.tie_eps = cmd.value;
      } else if (cmd.kind == SessionCommand::Kind::kEps1) {
        eps.eps1 = cmd.value;
      } else {
        eps.eps2 = cmd.value;
      }
      edit = session->SetEpsilon(eps);
      break;
    }
    case SessionCommand::Kind::kObjective: {
      auto spec = ParseObjectiveSpec(cmd.arg, session->given().k());
      if (!spec.ok()) return fail(spec.status());
      edit = session->SetObjective(*spec);
      break;
    }
    case SessionCommand::Kind::kAppend: {
      std::vector<double> values;
      for (const std::string& tok : Split(cmd.arg, ' ')) {
        auto v = ParseDouble(tok);
        if (!v.ok()) return fail(v.status());
        values.push_back(*v);
      }
      edit = session->AppendTuple(values);
      break;
    }
  }
  return edit.ok() ? edit : fail(edit);
}

namespace {

/// Restores the session's configured time limit when a per-request
/// deadline temporarily narrowed it (exception/early-return safe).
class ScopedTimeLimit {
 public:
  ScopedTimeLimit(SolveSession* session, int64_t deadline_ms)
      : session_(session),
        configured_(session->time_limit_seconds()),
        active_(deadline_ms > 0) {
    if (!active_) return;
    double effective = static_cast<double>(deadline_ms) / 1000.0;
    // 0 = unlimited, so only a configured limit can tighten the deadline.
    if (configured_ > 0) effective = std::min(configured_, effective);
    session_->set_time_limit_seconds(effective);
  }
  ~ScopedTimeLimit() {
    if (active_) session_->set_time_limit_seconds(configured_);
  }

 private:
  SolveSession* session_;
  double configured_;
  bool active_;
};

}  // namespace

Result<SessionStepOutcome> ExecuteSessionCommand(
    SolveSession* session, const SessionCommand& cmd,
    const std::vector<std::string>& labels, bool* edit_applied) {
  if (edit_applied != nullptr) *edit_applied = false;
  RH_RETURN_NOT_OK(ApplySessionCommand(session, cmd, labels));
  // A bare solve edits nothing — recovery rebuilds constraint state, not
  // solve history, so the journal records only state-changing commands.
  if (edit_applied != nullptr) {
    *edit_applied = cmd.kind != SessionCommand::Kind::kSolve;
  }
  ScopedTimeLimit deadline(session, cmd.deadline_ms);
  auto result = session->Solve();
  if (!result.ok()) {
    // Edit failures above leave the session untouched; a *solve* failure
    // arrives after the edit stuck. Say so — a wire client must be able to
    // tell applied-but-unsolved from rejected (it reverses the former with
    // an explicit drop/eps/objective edit).
    return Status(result.status().code(),
                  StrFormat("session script line %d: %s: %s", cmd.line,
                            kSolveFailedAfterEdit,
                            result.status().message().c_str()));
  }
  return SessionStepOutcome{cmd, *std::move(result)};
}

Result<std::vector<SessionStepOutcome>> RunSessionScript(
    SolveSession* session, const std::vector<SessionCommand>& script,
    const std::vector<std::string>& labels) {
  std::vector<SessionStepOutcome> outcomes;
  outcomes.reserve(script.size());
  for (const SessionCommand& cmd : script) {
    RH_ASSIGN_OR_RETURN(SessionStepOutcome outcome,
                        ExecuteSessionCommand(session, cmd, labels));
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace rankhow
