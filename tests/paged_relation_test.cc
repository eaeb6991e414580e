#include <gtest/gtest.h>

#include "query/executor.h"
#include "query/join.h"
#include "query/paged_source.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"

namespace dbm::storage {
namespace {

struct Rig {
  std::shared_ptr<DiskComponent> disk = std::make_shared<DiskComponent>();
  std::shared_ptr<ReplacementPolicy> policy = std::make_shared<LruPolicy>();
  std::shared_ptr<BufferManager> buffer;

  explicit Rig(size_t frames = 4) {
    buffer = std::make_shared<BufferManager>("buf", frames);
    buffer->FindPort("disk")->SetTarget(disk);
    buffer->FindPort("policy")->SetTarget(policy);
  }
};

TEST(TupleCodecTest, RoundTripAllTypes) {
  data::Tuple t({data::Value{}, int64_t{-42}, 3.25, std::string("hello")});
  auto back = DecodeTuple(EncodeTuple(t), 4);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == t);
  // Wrong arity / truncation rejected.
  EXPECT_FALSE(DecodeTuple(EncodeTuple(t), 3).ok());  // trailing bytes
  auto bytes = EncodeTuple(t);
  bytes.pop_back();
  EXPECT_FALSE(DecodeTuple(bytes, 4).ok());
}

TEST(TupleCodecTest, RejectsUnknownTypeTag) {
  // A type byte outside the four ValueTypes is corrupt data: skipping it
  // would decode fewer values than the arity promises.
  auto lone = DecodeTuple({7}, 1);
  ASSERT_FALSE(lone.ok());
  EXPECT_TRUE(lone.status().IsIoError()) << lone.status().ToString();

  std::vector<uint8_t> bytes = {9, 1};  // unknown tag, then an int
  bytes.resize(10, 0);
  auto mixed = DecodeTuple(bytes, 2);
  ASSERT_FALSE(mixed.ok());
  EXPECT_TRUE(mixed.status().IsIoError()) << mixed.status().ToString();
}

TEST(PagedRelationTest, LoadScanRoundTrip) {
  Rig rig;
  data::Relation people = data::gen::People(500, 3);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_EQ((*paged)->rows(), 500u);
  EXPECT_GT((*paged)->pages(), 3u);

  auto back = (*paged)->ToRelation();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), people.size());
  for (size_t i = 0; i < people.size(); ++i) {
    EXPECT_TRUE(back->rows()[i] == people.rows()[i]) << i;
  }
  // With a 4-frame pool the scan genuinely paged.
  EXPECT_GT(rig.buffer->stats().evictions, 0u);
}

TEST(PagedRelationTest, AppendTypeChecked) {
  Rig rig;
  data::Relation empty("t", data::Schema({{"x", data::ValueType::kInt}}));
  auto paged = PagedRelation::Load(empty, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE((*paged)->Append(data::Tuple({int64_t{1}})).ok());
  EXPECT_FALSE((*paged)->Append(data::Tuple({std::string("no")})).ok());
  EXPECT_EQ((*paged)->rows(), 1u);
}

TEST(PagedRelationTest, ReadAtCursorSemantics) {
  Rig rig;
  data::Relation people = data::gen::People(50, 5);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  auto first = (*paged)->ReadAt(0, 0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_TRUE(**first == people.rows()[0]);
  // Past-the-end slot signals page exhaustion, not an error.
  auto past = (*paged)->ReadAt(0, 9999);
  ASSERT_TRUE(past.ok());
  EXPECT_FALSE(past->has_value());
  auto no_page = (*paged)->ReadAt(9999, 0);
  ASSERT_TRUE(no_page.ok());
  EXPECT_FALSE(no_page->has_value());

  // DecodePage reads a whole page, values in column order row after row.
  // Unlike the cursor, it treats an ordinal past the relation as a caller
  // error rather than page exhaustion.
  const size_t arity = people.schema().size();
  size_t values = 0;
  auto records = (*paged)->DecodePage(0, [&](size_t c, const FieldView&) {
    EXPECT_EQ(c, values % arity);
    ++values;
  });
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_GT(*records, 0u);
  EXPECT_EQ(values, *records * arity);
  auto past_end = (*paged)->DecodePage((*paged)->pages(),
                                       [](size_t, const FieldView&) {});
  EXPECT_TRUE(past_end.status().IsInvalidArgument())
      << past_end.status().ToString();
}

TEST(PagedSourceTest, QueryOverPagedDataMatchesMemSource) {
  Rig rig(3);  // tiny pool: the join must page
  data::Relation orders = data::gen::Orders(800, 60, 0.4, 7);
  data::Relation people = data::gen::People(60, 8);
  auto paged_orders =
      PagedRelation::Load(orders, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged_orders.ok());

  query::HashJoin paged_join(
      std::make_unique<query::PagedSource>(paged_orders->get()),
      std::make_unique<query::MemSource>(&people), query::JoinSpec{1, 0});
  std::vector<query::Tuple> via_paged;
  ASSERT_TRUE(query::Execute(&paged_join, &via_paged, {}).ok());

  query::HashJoin mem_join(std::make_unique<query::MemSource>(&orders),
                           std::make_unique<query::MemSource>(&people),
                           query::JoinSpec{1, 0});
  std::vector<query::Tuple> via_mem;
  ASSERT_TRUE(query::Execute(&mem_join, &via_mem, {}).ok());

  ASSERT_EQ(via_paged.size(), via_mem.size());
  std::multiset<std::string> a, b;
  for (const auto& t : via_paged) a.insert(t.ToString());
  for (const auto& t : via_mem) b.insert(t.ToString());
  EXPECT_EQ(a, b);
  EXPECT_GT(rig.buffer->stats().misses, 10u);  // real page traffic
}

}  // namespace
}  // namespace dbm::storage
