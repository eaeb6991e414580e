// Patia under a flash crowd: the §5.2 web-data server with Table 2's
// constraints live. Prints a timeline of utilisation, SWITCH decisions
// and latency as the crowd arrives and the service agent migrates. node1
// also serves the machine's own observability endpoints (/obs/*), and the
// run ends by asking /obs/query for the SWITCH decisions it logged.

#include <cstdio>
#include <string>

#include "patia/observatory.h"
#include "patia/patia.h"

int main() {
  using namespace dbm;
  using namespace dbm::patia;

  EventLoop loop;
  net::Network net(&loop);
  adapt::MetricBus bus;
  net.AddDevice({"node1", net::DeviceClass::kServer, 1.0, -1, 0, 0});
  // node2: "an under-utilised machine in the typing pool".
  net.AddDevice({"node2", net::DeviceClass::kServer, 1.0, -1, 10, 0});
  net.AddDevice({"client", net::DeviceClass::kPda, 0.2, 50, 5, 5});
  net.Connect("node1", "client", {20000, Millis(2), "wired"});
  net.Connect("node2", "client", {20000, Millis(2), "wired"});

  PatiaServer server(&net, &bus);
  (void)server.AddNode("node1", {6, Millis(3)});
  (void)server.AddNode("node2", {6, Millis(3)});

  Atom page;
  page.id = 123;
  page.name = "Page1.html";
  page.type = "html";
  page.variants = {{"Page1.html", 30000}};
  (void)server.RegisterAtom(page, {"node1", "node2"});
  // The Observatory, served as dynamic atoms from node1.
  (void)RegisterObservatory(&server, {"node1"});

  // Constraint 455 of Table 2, verbatim.
  Status s = server.AddConstraint(
      455, 123,
      "If processor-util > 90% then SWITCH ((node1.Page1.html, "
      "node2.Page1.html)");
  std::printf("constraint 455 installed: %s\n", s.ToString().c_str());
  server.StartTicking(Millis(50));

  FlashCrowd::Options fc;
  fc.base_rate_per_s = 25;
  fc.flash_multiplier = 15;
  fc.flash_start = Seconds(2);
  fc.flash_end = Seconds(6);
  fc.horizon = Seconds(9);
  FlashCrowd crowd(&server, &net, fc);
  (void)crowd.Run("client", "Page1.html");

  // Timeline probe every 500 simulated ms.
  for (int t = 1; t <= 18; ++t) {
    loop.ScheduleAt(Millis(500) * t, [&, t] {
      auto agent = server.AgentFor(123);
      std::printf("t=%4.1fs  util(node1)=%4.0f%%  util(node2)=%4.0f%%  "
                  "agent@%-5s  completed=%llu\n",
                  0.5 * t, server.NodeUtilisation("node1") * 100,
                  server.NodeUtilisation("node2") * 100,
                  agent.ok() ? (*agent)->node().c_str() : "?",
                  static_cast<unsigned long long>(server.stats().completed));
    });
  }
  loop.RunUntil(Seconds(30));

  auto agent = server.AgentFor(123);
  std::printf("\nfinal: issued=%llu completed=%llu migrations=%llu "
              "served-by-node2=%llu\n",
              static_cast<unsigned long long>(crowd.issued()),
              static_cast<unsigned long long>(server.stats().completed),
              static_cast<unsigned long long>(
                  agent.ok() ? (*agent)->migrations() : 0),
              static_cast<unsigned long long>(
                  server.stats().served_by_node.count("node2")
                      ? server.stats().served_by_node.at("node2")
                      : 0));

  // The decision log, read back through the machine's own query path.
  const std::string path = "/obs/query?q=decisions limit 2";
  std::string body;
  (void)server.Request("client", path,
                       [&](const ServedRequest& r) { body = r.body; });
  loop.RunUntil(loop.Now() + Seconds(1));
  std::printf("\nGET %s\n%s\n", path.c_str(), body.c_str());
  return 0;
}
