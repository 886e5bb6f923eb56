#include "tests/support/protocol_conformance.h"

#include <string>

#include <gtest/gtest.h>

#include "net/dial.h"

namespace rankhow {
namespace conformance {

void RunProtocolVerbWalk(const ListenAddress& endpoint,
                         const ConformanceOptions& options) {
  LineClient client;
  DialOptions dial;
  dial.recv_timeout_s = 60;  // a dead endpoint must never hang the suite
  Status connected = client.Connect(endpoint, dial);
  ASSERT_TRUE(connected.ok()) << connected.ToString();

  bool binary = false;
  auto roundtrip = [&client,
                    &binary](const std::string& request) -> std::string {
    if (!(binary ? client.SendFrame(request) : client.SendLine(request))) {
      return "<send failed>";
    }
    auto reply = binary ? client.ReadFrame() : client.ReadLine();
    return reply.has_value() ? *reply : "<no response>";
  };

  // open, both forms (dataset-id routing and default-dataset).
  EXPECT_EQ(roundtrip("open alice d1"), "ok open alice d1");
  EXPECT_EQ(roundtrip("open bob"), "ok open bob d0");
  // The full session-command grammar, one verb per request. The line
  // numbers are the per-connection request count — a coordinator must
  // renumber worker acks back into this connection's numbering.
  EXPECT_EQ(roundtrip("alice solve").rfind("ok alice line=3 error=", 0), 0u);
  EXPECT_EQ(roundtrip("alice min-weight A0 0.05")
                .rfind("ok alice line=4 error=", 0),
            0u);
  EXPECT_EQ(roundtrip("alice max-weight A1 0.6")
                .rfind("ok alice line=5 error=", 0),
            0u);
  EXPECT_EQ(roundtrip("alice drop min_A0").rfind("ok alice line=6", 0), 0u);
  EXPECT_EQ(roundtrip("alice order t0>t1").rfind("ok alice line=7", 0), 0u);
  EXPECT_EQ(roundtrip("alice eps 4e-7").rfind("ok alice line=8", 0), 0u);
  EXPECT_EQ(roundtrip("alice eps1 2e-6").rfind("ok alice line=9", 0), 0u);
  EXPECT_EQ(roundtrip("alice eps2 0").rfind("ok alice line=10", 0), 0u);
  EXPECT_EQ(roundtrip("alice objective topheavy")
                .rfind("ok alice line=11", 0),
            0u);
  EXPECT_EQ(roundtrip("alice append 0.5 0.5 0.5")
                .rfind("ok alice line=12", 0),
            0u);
  // stats: the router aggregate plus the transport fields the metered
  // server appends, documented field by field. The session-state counts
  // are exact in both modes — a coordinator proxies sessions, it does
  // not own any.
  const std::string stats = roundtrip("stats");
  EXPECT_EQ(stats.rfind(
                "ok stats registries=2 clients=2 datasets=3 commands=", 0),
            0u)
      << stats << " (datasets=3: alice's append forked a private COW copy)";
  for (const char* field :
       {" connections=", " frames_binary=", " backpressure_closes=",
        " writes_queued_peak=", " writes_retried=", " aborted_idle=",
        " aborted_backpressure=", " aborted_eof="}) {
    EXPECT_NE(stats.find(field), std::string::npos)
        << stats << " missing " << field;
  }
  // deadline: stream-scoped solve budget, 0 restores the default.
  EXPECT_EQ(roundtrip("deadline 30000"), "ok deadline 30000");
  EXPECT_EQ(roundtrip("deadline 0"), "ok deadline 0");
  // metrics: gauges plus per-verb latency histograms — by this point the
  // stream has recorded opens, solves, and edits.
  const std::string metrics = roundtrip("metrics");
  if (options.exact_transport_gauges) {
    EXPECT_EQ(metrics.rfind("ok metrics connections=1 ", 0), 0u) << metrics;
  } else {
    EXPECT_EQ(metrics.rfind("ok metrics connections=", 0), 0u) << metrics;
  }
  // Presence, not exact counts: a verb's latency is recorded just *after*
  // its response is emitted, so a fast client can land `metrics` before
  // the previous verb's sample does.
  for (const char* field :
       {" open.count=", " solve.count=", " edit.count=",
        " solve.p50_us=", " solve.p99_us=", " stats.count="}) {
    EXPECT_NE(metrics.find(field), std::string::npos)
        << metrics << " missing " << field;
  }
  // frame: a text->text "switch" round-trips without disturbing the
  // stream; a switch to binary acks as the last text line, and every
  // later request and response is a frame.
  if (options.binary_framing) {
    EXPECT_EQ(roundtrip("frame binary"), "ok frame binary");
    binary = true;
    EXPECT_EQ(roundtrip("bob solve").rfind("ok bob line=18 error=", 0), 0u);
  } else {
    EXPECT_EQ(roundtrip("frame text"), "ok frame text");
  }
  // Documented error replies: unknown verb, unknown client, bad dataset,
  // duplicate open.
  EXPECT_EQ(roundtrip("alice frobnicate 1").rfind("err - wire line", 0), 0u);
  EXPECT_EQ(roundtrip("ghost solve"),
            "err ghost no client named ghost on this connection");
  EXPECT_EQ(roundtrip("open carol nope"),
            "err carol unknown dataset id: nope");
  EXPECT_EQ(roundtrip("open alice d1"),
            "err alice client already open: alice");
  // close, then quit.
  EXPECT_EQ(roundtrip("close alice"), "ok close alice");
  EXPECT_EQ(roundtrip("quit"), "ok quit");
  client.Close();
}

}  // namespace conformance
}  // namespace rankhow
