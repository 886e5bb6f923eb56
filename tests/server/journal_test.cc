// SessionJournal suite (satellite of the durability PR): property-style
// round-trip tests of the write-ahead journal's framing and read-back.
//
//  * framing round-trip: every record kind (open/close/cmd over the whole
//    command grammar) reads back byte-identical, across fsync policies and
//    segment rotation;
//  * torn final record: a crash mid-append truncates cleanly (the intact
//    prefix replays, `truncated` counts 1);
//  * CRC corruption: a flipped byte drops exactly that record and the
//    framing resynchronizes on the next line (`skipped` counts it);
//  * empty / missing files are empty readbacks, not errors;
//  * duplicate close records fold to a well-defined live-session set;
//  * FormatSessionCommand is the exact inverse of ParseSessionScript
//    (doubles round-trip bit-exactly via %.17g);
//  * DatasetFingerprint separates different datasets/rankings and is
//    stable across loads of the same one.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "app/cli_driver.h"
#include "core/warm_cache.h"
#include "ranking/ranking.h"
#include "server/journal.h"
#include "util/random.h"

namespace rankhow {
namespace {

/// A self-deleting scratch directory for journal files.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/rankhow_journal_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    // Best-effort cleanup of the handful of files the tests create.
    for (const std::string& name : cleanup) ::remove(name.c_str());
    ::rmdir(path.c_str());
  }
  std::string File(const std::string& name) {
    const std::string full = path + "/" + name;
    cleanup.push_back(full);
    return full;
  }
  std::vector<std::string> cleanup;
};

SessionCommand Cmd(SessionCommand::Kind kind, std::string arg = "",
                   double value = 0) {
  SessionCommand cmd;
  cmd.kind = kind;
  cmd.arg = std::move(arg);
  cmd.value = value;
  return cmd;
}

/// One of each command kind, with awkward values (negative, tiny,
/// non-terminating binary fractions) to stress the %.17g round-trip.
std::vector<SessionCommand> GrammarSamples() {
  return {
      Cmd(SessionCommand::Kind::kSolve),
      Cmd(SessionCommand::Kind::kMinWeight, "PTS", 0.1),
      Cmd(SessionCommand::Kind::kMaxWeight, "REB", 1.0 / 3.0),
      Cmd(SessionCommand::Kind::kDrop, "min_PTS"),
      Cmd(SessionCommand::Kind::kOrder, "t1>t2"),
      Cmd(SessionCommand::Kind::kEps, "", 5e-7),
      Cmd(SessionCommand::Kind::kEps1, "", 1e-6),
      Cmd(SessionCommand::Kind::kEps2, "", 0.0),
      Cmd(SessionCommand::Kind::kObjective, "topheavy"),
      Cmd(SessionCommand::Kind::kAppend, "0.25 -0.5 0.7500000000000001"),
  };
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(FormatSessionCommandTest, IsTheExactInverseOfTheScriptParser) {
  for (const SessionCommand& cmd : GrammarSamples()) {
    const std::string line = FormatSessionCommand(cmd);
    auto parsed = ParseSessionScript(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), 1u) << line;
    const SessionCommand& back = parsed->front();
    EXPECT_EQ(back.kind, cmd.kind) << line;
    EXPECT_EQ(back.arg, cmd.arg) << line;
    // %.17g preserves the exact double bit pattern.
    EXPECT_EQ(back.value, cmd.value) << line;
  }
}

TEST(JournalTest, RoundTripsEveryRecordKind) {
  TempDir dir;
  const std::string path = dir.File("d.journal");
  JournalOptions options;
  options.fsync_every = 1;  // strict mode exercises the fsync path per record
  auto journal = SessionJournal::Open(path, "d", 0xabcdef12u, options);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  (*journal)->LogOpen("alice");
  const std::vector<SessionCommand> commands = GrammarSamples();
  for (const SessionCommand& cmd : commands) {
    (*journal)->LogCommand("alice", cmd);
  }
  (*journal)->LogClose("alice");
  EXPECT_EQ((*journal)->Stats().records_appended,
            static_cast<int64_t>(commands.size()) + 2);
  EXPECT_FALSE((*journal)->Stats().degraded);
  journal->reset();  // close (flushes)

  auto readback = SessionJournal::Read(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback->skipped, 0);
  EXPECT_EQ(readback->truncated, 0);
  ASSERT_EQ(readback->records.size(), commands.size() + 2);
  EXPECT_EQ(readback->records.front().kind, JournalRecord::Kind::kOpen);
  EXPECT_EQ(readback->records.front().client, "alice");
  EXPECT_EQ(readback->records.front().dataset, "d");
  EXPECT_EQ(readback->records.front().fingerprint, 0xabcdef12u);
  for (size_t i = 0; i < commands.size(); ++i) {
    const JournalRecord& rec = readback->records[i + 1];
    EXPECT_EQ(rec.kind, JournalRecord::Kind::kCommand);
    EXPECT_EQ(rec.client, "alice");
    EXPECT_EQ(rec.command, FormatSessionCommand(commands[i]));
  }
  EXPECT_EQ(readback->records.back().kind, JournalRecord::Kind::kClose);
}

TEST(JournalTest, MissingAndEmptyFilesAreEmptyReadbacks) {
  TempDir dir;
  auto missing = SessionJournal::Read(dir.File("never-created.journal"));
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
  EXPECT_EQ(missing->truncated, 0);
  EXPECT_EQ(missing->skipped, 0);

  const std::string empty = dir.File("empty.journal");
  WriteFile(empty, "");
  auto readback = SessionJournal::Read(empty);
  ASSERT_TRUE(readback.ok());
  EXPECT_TRUE(readback->records.empty());
  EXPECT_EQ(readback->truncated, 0);
  EXPECT_EQ(readback->skipped, 0);
}

TEST(JournalTest, TornFinalRecordTruncatesCleanly) {
  TempDir dir;
  const std::string path = dir.File("torn.journal");
  {
    auto journal = SessionJournal::Open(path, "d", 1);
    ASSERT_TRUE(journal.ok());
    (*journal)->LogOpen("a");
    (*journal)->LogCommand("a", Cmd(SessionCommand::Kind::kSolve));
  }
  // Simulate a crash mid-append: chop the trailing newline plus a few
  // bytes off the last record.
  std::string text = ReadFile(path);
  ASSERT_GT(text.size(), 4u);
  WriteFile(path, text.substr(0, text.size() - 4));

  auto readback = SessionJournal::Read(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback->truncated, 1);
  EXPECT_EQ(readback->skipped, 0);
  ASSERT_EQ(readback->records.size(), 1u);  // the intact prefix replays
  EXPECT_EQ(readback->records[0].kind, JournalRecord::Kind::kOpen);
}

TEST(JournalTest, CrcCorruptionDropsOneRecordAndResynchronizes) {
  TempDir dir;
  const std::string path = dir.File("corrupt.journal");
  {
    auto journal = SessionJournal::Open(path, "d", 1);
    ASSERT_TRUE(journal.ok());
    (*journal)->LogOpen("a");
    (*journal)->LogCommand("a", Cmd(SessionCommand::Kind::kMinWeight,
                                    "PTS", 0.1));
    (*journal)->LogClose("a");
  }
  std::string text = ReadFile(path);
  // Flip a payload byte of the middle record (framing is line-based, so
  // records after the corrupt one must still replay).
  const size_t first_nl = text.find('\n');
  const size_t second_nl = text.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  text[second_nl - 2] ^= 0x20;
  WriteFile(path, text);

  auto readback = SessionJournal::Read(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback->skipped, 1);
  EXPECT_EQ(readback->truncated, 0);
  ASSERT_EQ(readback->records.size(), 2u);
  EXPECT_EQ(readback->records[0].kind, JournalRecord::Kind::kOpen);
  EXPECT_EQ(readback->records[1].kind, JournalRecord::Kind::kClose);
}

TEST(JournalTest, GarbageLinesAreSkippedNotFatal) {
  TempDir dir;
  const std::string path = dir.File("garbage.journal");
  {
    auto journal = SessionJournal::Open(path, "d", 1);
    ASSERT_TRUE(journal.ok());
    (*journal)->LogOpen("a");
  }
  std::string text = "not a journal line\nRHJ1 zzzz 3 abc\n" +
                     ReadFile(path) + "RHJ1 deadbeef 5 nope\n";
  WriteFile(path, text);
  auto readback = SessionJournal::Read(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback->skipped, 3);
  ASSERT_EQ(readback->records.size(), 1u);
  EXPECT_EQ(readback->records[0].kind, JournalRecord::Kind::kOpen);
}

TEST(JournalTest, DuplicateCloseRecordsFoldToAWellDefinedLiveSet) {
  TempDir dir;
  const std::string path = dir.File("dupes.journal");
  {
    auto journal = SessionJournal::Open(path, "d", 1);
    ASSERT_TRUE(journal.ok());
    (*journal)->LogOpen("a");
    (*journal)->LogClose("a");
    (*journal)->LogClose("a");  // duplicate: must be a no-op on fold
    (*journal)->LogClose("b");  // close of a never-opened client: no-op
    (*journal)->LogOpen("c");
    (*journal)->LogCommand("c", Cmd(SessionCommand::Kind::kSolve));
    (*journal)->LogOpen("c");  // re-open resets c's edit script
  }
  auto readback = SessionJournal::Read(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback->skipped, 0);
  // Fold exactly the way recovery does.
  std::map<std::string, std::vector<std::string>> live;
  for (const JournalRecord& rec : readback->records) {
    switch (rec.kind) {
      case JournalRecord::Kind::kOpen:
        live[rec.client].clear();
        break;
      case JournalRecord::Kind::kClose:
        live.erase(rec.client);
        break;
      case JournalRecord::Kind::kCommand:
        if (live.count(rec.client) > 0) {
          live[rec.client].push_back(rec.command);
        }
        break;
    }
  }
  ASSERT_EQ(live.size(), 1u);
  ASSERT_EQ(live.count("c"), 1u);
  EXPECT_TRUE(live["c"].empty()) << "re-open must reset the edit script";
}

TEST(JournalTest, RotationSealsSegmentsAndReadsBackInWriteOrder) {
  TempDir dir;
  const std::string path = dir.File("rot.journal");
  dir.File("rot.journal.1");  // register rotated segments for cleanup
  dir.File("rot.journal.2");
  dir.File("rot.journal.3");
  JournalOptions options;
  options.rotate_bytes = 128;  // rotate every couple of records
  const int kRecords = 20;
  {
    auto journal = SessionJournal::Open(path, "d", 1, options);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < kRecords; ++i) {
      (*journal)->LogCommand("c", Cmd(SessionCommand::Kind::kMinWeight,
                                      "A" + std::to_string(i), i * 0.5));
    }
    EXPECT_GT((*journal)->Stats().rotations, 0);
  }
  auto readback = SessionJournal::Read(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback->skipped, 0);
  EXPECT_EQ(readback->truncated, 0);
  ASSERT_EQ(readback->records.size(), static_cast<size_t>(kRecords));
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_EQ(readback->records[i].command,
              FormatSessionCommand(Cmd(SessionCommand::Kind::kMinWeight,
                                       "A" + std::to_string(i), i * 0.5)))
        << "record " << i << " out of order";
  }
}

TEST(JournalTest, ReopenAppendsAfterAnExistingTail) {
  TempDir dir;
  const std::string path = dir.File("reopen.journal");
  {
    auto journal = SessionJournal::Open(path, "d", 1);
    ASSERT_TRUE(journal.ok());
    (*journal)->LogOpen("a");
  }
  {
    auto journal = SessionJournal::Open(path, "d", 1);
    ASSERT_TRUE(journal.ok());
    (*journal)->LogCommand("a", Cmd(SessionCommand::Kind::kSolve));
  }
  auto readback = SessionJournal::Read(path);
  ASSERT_TRUE(readback.ok());
  ASSERT_EQ(readback->records.size(), 2u);
  EXPECT_EQ(readback->records[0].kind, JournalRecord::Kind::kOpen);
  EXPECT_EQ(readback->records[1].kind, JournalRecord::Kind::kCommand);
}

TEST(JournalTest, RecordingGateSuppressesAppends) {
  TempDir dir;
  const std::string path = dir.File("gate.journal");
  auto journal = SessionJournal::Open(path, "d", 1);
  ASSERT_TRUE(journal.ok());
  (*journal)->set_recording(false);
  (*journal)->LogOpen("a");
  (*journal)->LogCommand("a", Cmd(SessionCommand::Kind::kSolve));
  (*journal)->LogClose("a");
  EXPECT_EQ((*journal)->Stats().records_appended, 0);
  (*journal)->set_recording(true);
  (*journal)->LogOpen("b");
  EXPECT_EQ((*journal)->Stats().records_appended, 1);
}

TEST(DatasetFingerprintTest, SeparatesInstancesAndIsStable) {
  Rng rng(7);
  std::vector<std::string> names = {"A0", "A1"};
  Dataset d1(names, 4);
  for (int t = 0; t < 4; ++t) {
    for (int a = 0; a < 2; ++a) d1.set_value(t, a, rng.NextUniform(0, 1));
  }
  Dataset d2(d1);
  auto ranking = Ranking::Create({1, 2, 3, kUnranked});
  ASSERT_TRUE(ranking.ok());
  const uint64_t f1 = DatasetFingerprint(d1, *ranking);
  EXPECT_EQ(f1, DatasetFingerprint(d2, *ranking)) << "same data, same print";

  Dataset d3(d1);
  d3.set_value(2, 1, d3.value(2, 1) + 1e-9);  // any bit flip must show
  EXPECT_NE(f1, DatasetFingerprint(d3, *ranking));

  auto other = Ranking::Create({2, 1, 3, kUnranked});
  ASSERT_TRUE(other.ok());
  EXPECT_NE(f1, DatasetFingerprint(d1, *other)) << "ranking is identity too";
}

}  // namespace
}  // namespace rankhow
