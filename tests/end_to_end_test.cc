// Flagship integration: the whole stack in one test — paged storage
// under the query layer, the optimiser's plan run over pages, and a
// buffer replacement policy swapped mid-session, all inside the
// component registry of a DatabaseMachine. "At that instant the system
// becomes effectively a Database Machine" (§6).

#include <gtest/gtest.h>

#include "dbmachine/machine.h"
#include "query/executor.h"
#include "query/paged_source.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

namespace dbm {
namespace {

TEST(EndToEndTest, FullStackQueryWithAdaptationAndPaging) {
  // --- environment ---
  EventLoop loop;
  net::Network net(&loop);
  net.AddDevice({"laptop", net::DeviceClass::kLaptop, 1.0, 90, 0, 0});
  net.AddDevice({"pda", net::DeviceClass::kPda, 0.2, 60, 1, 1});
  net.Connect("pda", "laptop", {2000, Millis(2), "wireless"});
  machine::DatabaseMachine machine(&net);
  ASSERT_TRUE(machine.InstrumentDevice("laptop").ok());

  // --- storage plane: data lives on pages behind the getpage component ---
  auto disk = std::make_shared<storage::DiskComponent>("disk");
  auto policy = std::make_shared<storage::LruPolicy>("policy");
  auto buffer = std::make_shared<storage::BufferManager>("buffer", 16);
  ASSERT_TRUE(machine.registry().Add(disk).ok());
  ASSERT_TRUE(machine.registry().Add(policy).ok());
  ASSERT_TRUE(machine.registry().Add(buffer).ok());
  ASSERT_TRUE(machine.registry().Bind("buffer", "disk", "disk").ok());
  ASSERT_TRUE(machine.registry().Bind("buffer", "policy", "policy").ok());

  data::Relation orders = data::gen::Orders(5000, 150, 0.4, 31);
  data::Relation people = data::gen::People(150, 32);
  auto paged_orders =
      storage::PagedRelation::Load(orders, buffer.get(), disk.get());
  ASSERT_TRUE(paged_orders.ok());

  // --- query plane: the optimiser plans orders ⋈ people ---
  data::RelationStats orders_stats = orders.ComputeStatistics();
  data::RelationStats people_stats = people.ComputeStatistics();
  query::JoinQuery q;
  q.left = query::TableInput{&orders, &orders_stats};
  q.right = query::TableInput{&people, &people_stats};
  q.spec = query::JoinSpec{1, 0};
  q.left_join_column = "person_id";
  q.right_join_column = "id";
  auto plan = query::Optimizer().Plan(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->algorithm, query::JoinAlgorithm::kHashBuildRight);

  // Run the plan with the PAGED orders as the probe side: build the
  // operator tree by hand so the scan goes through the buffer manager.
  auto run_join = [&]() -> size_t {
    query::OperatorPtr root = std::make_unique<query::HashJoin>(
        std::make_unique<query::MemSource>(&people),
        std::make_unique<query::PagedSource>(paged_orders->get()),
        query::JoinSpec{q.spec.right_col, q.spec.left_col});
    std::vector<query::Tuple> out;
    auto stats = query::Execute(root.get(), &out, {});
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return out.size();
  };
  EXPECT_EQ(run_join(), 5000u);               // FK join preserves orders
  const uint64_t gets_before = buffer->stats().gets;
  EXPECT_GT(gets_before, 50u);                // scan really paged

  // --- adaptation: mid-session, the buffer's replacement policy is
  // swapped from LRU to CLOCK through the transactional reconfigurer;
  // the same query keeps running over the same pages. ---
  component::ReconfigurationPlan swap;
  swap.Swap("policy", std::make_shared<storage::ClockPolicy>("policy"));
  ASSERT_TRUE(machine.reconfigurer().Execute(swap).ok());
  EXPECT_EQ(run_join(), 5000u);
  EXPECT_GT(buffer->stats().gets, gets_before);
  ASSERT_TRUE(buffer->CheckInvariants().ok());

  // The machine's registry still passes structural sanity: every bound
  // port targets a live component.
  for (const std::string& name : machine.registry().Names()) {
    auto c = machine.registry().Get(name);
    ASSERT_TRUE(c.ok());
    for (component::Port* p : (*c)->Ports()) {
      if (p->Peek() != nullptr) {
        EXPECT_TRUE(machine.registry().Contains(p->Peek()->name()));
      }
    }
  }
}

TEST(EndToEndTest, DataComponentOverPagedStorageWithVersions) {
  // A data component whose primary lives in memory publishes versions;
  // the same rows round-trip through paged storage; statistics agree.
  auto disk = std::make_shared<storage::DiskComponent>();
  auto policy = std::make_shared<storage::ClockPolicy>();
  storage::BufferManager buffer("buf", 8);
  buffer.FindPort("disk")->SetTarget(disk);
  buffer.FindPort("policy")->SetTarget(policy);

  data::DataComponent dc("readings",
                         data::gen::SensorReadings(1000, 9), "sensor");
  ASSERT_TRUE(
      dc.PublishVersion(data::VersionKind::kCompressed, "laptop", 0, 1.0,
                        "lz")
          .ok());
  auto paged =
      storage::PagedRelation::Load(dc.relation(), &buffer, disk.get());
  ASSERT_TRUE(paged.ok());
  auto back = (*paged)->ToRelation();
  ASSERT_TRUE(back.ok());
  auto paged_stats = back->ComputeStatistics();
  EXPECT_EQ(paged_stats.row_count, dc.statistics().row_count);
  auto version = dc.versions().Get("readings@laptop#compressed");
  ASSERT_TRUE(version.ok());
  auto opened = (*version)->Open();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->size(), 1000u);
}

}  // namespace
}  // namespace dbm
