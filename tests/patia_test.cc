#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fault/log.h"
#include "obs/metrics.h"
#include "patia/patia.h"

namespace dbm::patia {
namespace {

struct Rig {
  EventLoop loop;
  net::Network net{&loop};
  adapt::MetricBus bus;
  PatiaServer server{&net, &bus};

  Rig() {
    net.AddDevice({"node1", net::DeviceClass::kServer, 1.0, -1, 0, 0});
    net.AddDevice({"node2", net::DeviceClass::kServer, 1.0, -1, 10, 0});
    net.AddDevice({"client", net::DeviceClass::kPda, 0.2, 50, 5, 5});
    net.Connect("node1", "client", {8000, Millis(2), "wired"});
    net.Connect("node2", "client", {8000, Millis(2), "wired"});
    EXPECT_TRUE(server.AddNode("node1", {4, Millis(2)}).ok());
    EXPECT_TRUE(server.AddNode("node2", {4, Millis(2)}).ok());
  }

  Atom Page(int id = 123, const std::string& name = "Page1.html") {
    Atom a;
    a.id = id;
    a.name = name;
    a.type = "html";
    a.variants = {{name, 20000}};
    return a;
  }
};

TEST(PatiaTest, RegisterAndServeAtom) {
  Rig rig;
  ASSERT_TRUE(rig.server.RegisterAtom(rig.Page(), {"node1", "node2"}).ok());
  bool done = false;
  ASSERT_TRUE(rig.server
                  .Request("client", "Page1.html",
                           [&](const ServedRequest& r) {
                             done = true;
                             EXPECT_EQ(r.served_by, "node1");  // agent home
                             EXPECT_GT(r.Latency(), 0);
                           })
                  .ok());
  rig.loop.RunUntil();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.server.stats().completed, 1u);
}

TEST(PatiaTest, RegistrationValidation) {
  Rig rig;
  Atom a = rig.Page();
  EXPECT_TRUE(rig.server.RegisterAtom(a, {}).IsInvalidArgument());
  EXPECT_TRUE(rig.server.RegisterAtom(a, {"ghost"}).IsNotFound());
  Atom empty = a;
  empty.variants.clear();
  EXPECT_TRUE(
      rig.server.RegisterAtom(empty, {"node1"}).IsInvalidArgument());
  ASSERT_TRUE(rig.server.RegisterAtom(a, {"node1"}).ok());
  EXPECT_TRUE(rig.server.RegisterAtom(a, {"node1"}).code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(rig.server.Request("client", "ghost").IsNotFound());
}

TEST(PatiaTest, BestConstraintPicksIdleReplica) {
  Rig rig;
  ASSERT_TRUE(rig.server.RegisterAtom(rig.Page(), {"node1", "node2"}).ok());
  // Constraint 450, verbatim shape from Table 2.
  ASSERT_TRUE(rig.server
                  .AddConstraint(450, 123,
                                 "Select BEST (node1.Page1.html, "
                                 "node2.Page1.html)")
                  .ok());
  // node1 busy, node2 idle → BEST routes to node2.
  (*rig.net.GetDevice("node1"))->set_load(0.95);
  bool done = false;
  ASSERT_TRUE(rig.server
                  .Request("client", "Page1.html",
                           [&](const ServedRequest& r) {
                             done = true;
                             EXPECT_EQ(r.served_by, "node2");
                           })
                  .ok());
  rig.loop.RunUntil();
  EXPECT_TRUE(done);
}

TEST(PatiaTest, SwitchConstraintMigratesAgentUnderLoad) {
  // The second pass adds an atom that stays on node1: each agent's node
  // utilisation must be judged against its own atom's constraints only,
  // or node1's load flips Page1's agent straight back every tick.
  for (bool second_atom : {false, true}) {
    SCOPED_TRACE(second_atom ? "with a second atom on node1" : "one atom");
    Rig rig;
    ASSERT_TRUE(rig.server.RegisterAtom(rig.Page(), {"node1", "node2"}).ok());
    if (second_atom) {
      ASSERT_TRUE(
          rig.server.RegisterAtom(rig.Page(124, "Page2.html"), {"node1"}).ok());
    }
    // Constraint 455 (flash-crowd fail-over), verbatim from Table 2
    // including the doubled paren.
    ASSERT_TRUE(rig.server
                    .AddConstraint(455, 123,
                                   "If processor-util > 90% then SWITCH "
                                   "((node1.Page1.html, node2.Page1.html)")
                    .ok());
    auto agent = rig.server.AgentFor(123);
    ASSERT_TRUE(agent.ok());
    EXPECT_EQ((*agent)->node(), "node1");

    // Drive node1 past 90% and tick the adaptation pipeline a few times
    // (the EWMA gauge needs a couple of samples to cross the threshold).
    (*rig.net.GetDevice("node1"))->set_load(0.98);
    for (int i = 0; i < 5; ++i) {
      rig.loop.ScheduleAfter(Millis(10), [] {});
      rig.loop.RunUntil();
      ASSERT_TRUE(rig.server.Tick().ok());
    }
    EXPECT_EQ((*agent)->node(), "node2");
    EXPECT_EQ((*agent)->migrations(), 1u);
    EXPECT_GE(rig.server.adaptivity().enacted(), 1u);

    // Subsequent requests are served from node2.
    bool done = false;
    ASSERT_TRUE(rig.server
                    .Request("client", "Page1.html",
                             [&](const ServedRequest& r) {
                               done = true;
                               EXPECT_EQ(r.served_by, "node2");
                             })
                    .ok());
    rig.loop.RunUntil();
    EXPECT_TRUE(done);
  }
}

TEST(PatiaTest, BandwidthBandedVariantSelection) {
  Rig rig;
  Atom video;
  video.id = 153;
  video.name = "video";
  video.type = "stream";
  video.variants = {{"videohalf.ram", 50000}, {"videosmall.ram", 8000}};
  ASSERT_TRUE(rig.server.RegisterAtom(video, {"node1"}).ok());
  // Constraint 595 shape: mid-band → half-size stream, else small.
  ASSERT_TRUE(
      rig.server
          .AddConstraint(595, 153,
                         "If bandwidth > 30 < 100 Kbps then BEST("
                         "node1.videohalf.ram(time parms)) else "
                         "node1.videosmall.ram(time parms).")
          .ok());
  rig.bus.Publish("bandwidth", 65, 0);
  bool done = false;
  ASSERT_TRUE(rig.server
                  .Request("client", "video",
                           [&](const ServedRequest& r) {
                             done = true;
                             EXPECT_EQ(r.resource, "videohalf.ram");
                           })
                  .ok());
  rig.loop.RunUntil();
  ASSERT_TRUE(done);

  rig.bus.Publish("bandwidth", 10, 0);  // below band → else branch
  done = false;
  ASSERT_TRUE(rig.server
                  .Request("client", "video",
                           [&](const ServedRequest& r) {
                             done = true;
                             EXPECT_EQ(r.resource, "videosmall.ram");
                           })
                  .ok());
  rig.loop.RunUntil();
  EXPECT_TRUE(done);
}

TEST(PatiaTest, QueueingRaisesUtilisation) {
  Rig rig;
  ASSERT_TRUE(rig.server.RegisterAtom(rig.Page(), {"node1"}).ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(rig.server.Request("client", "Page1.html").ok());
  }
  // 4 slots, 12 requests: node fully utilised with a queue.
  EXPECT_DOUBLE_EQ(rig.server.NodeUtilisation("node1"), 1.0);
  EXPECT_GE(rig.server.stats().queued_peak, 8u);
  rig.loop.RunUntil();
  EXPECT_EQ(rig.server.stats().completed, 12u);
  EXPECT_DOUBLE_EQ(rig.server.NodeUtilisation("node1"), 0.0);
}

TEST(PatiaTest, FlashCrowdWithAdaptationServesFromBothNodes) {
  Rig rig;
  ASSERT_TRUE(rig.server.RegisterAtom(rig.Page(), {"node1", "node2"}).ok());
  ASSERT_TRUE(rig.server
                  .AddConstraint(455, 123,
                                 "If processor-util > 90 then SWITCH("
                                 "node1.Page1.html, node2.Page1.html)")
                  .ok());
  rig.server.StartTicking(Millis(50));
  FlashCrowd::Options fc;
  fc.base_rate_per_s = 10;
  fc.flash_multiplier = 40;
  fc.flash_start = Seconds(1);
  fc.flash_end = Seconds(4);
  fc.horizon = Seconds(6);
  FlashCrowd crowd(&rig.server, &rig.net, fc);
  ASSERT_TRUE(crowd.Run("client", "Page1.html").ok());
  rig.loop.RunUntil(Seconds(12));
  EXPECT_GT(crowd.issued(), 100u);
  auto agent = rig.server.AgentFor(123);
  ASSERT_TRUE(agent.ok());
  EXPECT_GE((*agent)->migrations(), 1u);  // the SWITCH fired
  // After the switch, node2 actually served traffic.
  EXPECT_GT(rig.server.stats().served_by_node.at("node2"), 0u);
}

TEST(PatiaDegradationTest, OpenBreakerShedsToSmallestVariant) {
  Rig rig;
  Atom stream;
  stream.id = 595;
  stream.name = "video.ram";
  stream.type = "stream";
  stream.variants = {{"videohalf.ram", 60000}, {"videosmall.ram", 8000}};
  ASSERT_TRUE(rig.server.RegisterAtom(stream, {"node1"}).ok());

  PatiaServer::DegradationOptions opts;
  opts.breaker_metric = "ingest-breaker";
  rig.server.EnableDegradation(opts);
  EXPECT_FALSE(rig.server.Degraded("node1"));

  // Breaker open (state gauge 2) → the smallest variant goes out and the
  // shed lands in both the counter and the fault log.
  rig.bus.Publish("ingest-breaker", 2.0, rig.loop.Now());
  EXPECT_TRUE(rig.server.Degraded("node1"));
  uint64_t shed_before =
      obs::Registry::Default().GetCounter("patia.degraded").value();
  size_t log_before = fault::FaultLog::Default().Snapshot().size();
  bool done = false;
  ASSERT_TRUE(rig.server
                  .Request("client", "video.ram",
                           [&](const ServedRequest& r) {
                             done = true;
                             EXPECT_EQ(r.resource, "videosmall.ram");
                           })
                  .ok());
  rig.loop.RunUntil();
  EXPECT_TRUE(done);
  EXPECT_EQ(
      obs::Registry::Default().GetCounter("patia.degraded").value(),
      shed_before + 1);
  std::vector<fault::FaultEvent> events =
      fault::FaultLog::Default().Snapshot();
  ASSERT_GT(events.size(), log_before);
  bool shed_logged = false;
  for (size_t i = log_before; i < events.size(); ++i) {
    if (events[i].kind == fault::FaultEventKind::kDegraded &&
        std::string(events[i].point) == "patia.node1") {
      shed_logged = true;
    }
  }
  EXPECT_TRUE(shed_logged);

  // Breaker closes again → the default (first) variant is restored.
  rig.bus.Publish("ingest-breaker", 0.0, rig.loop.Now());
  EXPECT_FALSE(rig.server.Degraded("node1"));
  done = false;
  ASSERT_TRUE(rig.server
                  .Request("client", "video.ram",
                           [&](const ServedRequest& r) {
                             done = true;
                             EXPECT_EQ(r.resource, "videohalf.ram");
                           })
                  .ok());
  rig.loop.RunUntil();
  EXPECT_TRUE(done);
}

TEST(PatiaDegradationTest, NodeOverloadShedsWithoutABreaker) {
  Rig rig;
  Atom stream;
  stream.id = 596;
  stream.name = "clip.ram";
  stream.type = "stream";
  stream.variants = {{"cliphalf.ram", 40000}, {"clipsmall.ram", 4000}};
  ASSERT_TRUE(rig.server.RegisterAtom(stream, {"node1"}).ok());

  PatiaServer::DegradationOptions opts;  // overload-only: no metric
  opts.overload_utilisation = 0.2;
  rig.server.EnableDegradation(opts);

  // First request finds an idle node (full variant); it occupies a slot,
  // so the second — issued before the loop drains — sheds on overload.
  std::vector<std::string> served;
  auto record = [&](const ServedRequest& r) { served.push_back(r.resource); };
  ASSERT_TRUE(rig.server.Request("client", "clip.ram", record).ok());
  EXPECT_TRUE(rig.server.Degraded("node1"));
  ASSERT_TRUE(rig.server.Request("client", "clip.ram", record).ok());
  rig.loop.RunUntil();
  // The shed variant is smaller so it finishes its transfer first —
  // compare as a set, not by completion order.
  std::sort(served.begin(), served.end());
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[0], "cliphalf.ram");
  EXPECT_EQ(served[1], "clipsmall.ram");
}

TEST(ServiceAgentTest, CheckpointRestoreRoundTrip) {
  ServiceAgent a("agent", 7, "node1");
  a.RecordServe();
  a.RecordServe();
  component::StateBlob blob;
  ASSERT_TRUE(a.Checkpoint(&blob).ok());
  ServiceAgent b("agent-b", 0, "elsewhere");
  ASSERT_TRUE(b.Restore(blob).ok());
  EXPECT_EQ(b.atom_id(), 7);
  EXPECT_EQ(b.node(), "node1");
  EXPECT_EQ(b.served(), 2u);
  component::StateBlob bad;
  bad.type = "other";
  EXPECT_FALSE(b.Restore(bad).ok());
}

}  // namespace
}  // namespace dbm::patia
