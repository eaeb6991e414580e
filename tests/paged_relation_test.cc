#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "common/rng.h"
#include "fault/injector.h"
#include "query/batch.h"
#include "query/executor.h"
#include "query/join.h"
#include "query/paged_source.h"
#include "storage/durable_disk.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"
#include "storage/wal.h"

namespace dbm::storage {
namespace {

using data::DecodeTuple;
using data::FieldView;

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

// ---------------------------------------------------------------------
// The one append path: Load, AppendBatch and Append share it
// ---------------------------------------------------------------------

/// Every page on `disk`, as the buffer sees it (dirty frames included).
std::vector<Page> PageImages(BufferManager* buffer, DiskComponent* disk) {
  std::vector<Page> images;
  for (PageId id = 0; id < disk->page_count(); ++id) {
    auto page = buffer->GetPage(id);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) break;
    images.push_back(**page);
    EXPECT_TRUE(buffer->Unpin(id, false).ok());
  }
  return images;
}

bool SameBytes(const std::vector<Page>& a, const std::vector<Page>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].bytes != b[i].bytes) return false;
  }
  return true;
}

/// (id:int, s:string, d:double) rows whose records take 23 + n bytes for
/// an n-byte string: four that exactly fill a page, nulls, long strings,
/// one record of exactly kMaxRecord bytes, then small rows.
data::Relation AppendShapes() {
  data::Relation rel("shapes", data::Schema({{"id", data::ValueType::kInt},
                                             {"s", data::ValueType::kString},
                                             {"d", data::ValueType::kDouble}}));
  auto row = [](int64_t id, size_t n) {
    return data::Tuple({id, std::string(n, static_cast<char>('a' + id % 26)),
                        static_cast<double>(id) / 4});
  };
  // Four 1,021-byte records plus their slots fill the 4,092-byte payload.
  for (int64_t i = 0; i < 4; ++i) EXPECT_TRUE(rel.Insert(row(i, 998)).ok());
  EXPECT_TRUE(rel.Insert(data::Tuple({data::Value{}, data::Value{},
                                      data::Value{}}))
                  .ok());
  EXPECT_TRUE(
      rel.Insert(data::Tuple({int64_t{5}, data::Value{}, 2.5})).ok());
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(rel.Insert(row(10 + i, 1500 + 300 * i)).ok());
  }
  EXPECT_TRUE(rel.Insert(row(20, RecordFile::kMaxRecord - 23)).ok());
  for (int64_t i = 0; i < 300; ++i) {
    EXPECT_TRUE(rel.Insert(row(100 + i, i % 40)).ok());
  }
  return rel;
}

TEST(AppendPathTest, LoadAndRowByRowAppendLeaveIdenticalPages) {
  const data::Relation rel = AppendShapes();
  EXPECT_EQ(data::EncodedSize(rel.rows()[0]) * 4 + 2 * 4, kPageSize - 4);
  EXPECT_EQ(data::EncodedSize(rel.rows()[12]), RecordFile::kMaxRecord);

  Rig bulk, rows;
  auto loaded = PagedRelation::Load(rel, bulk.buffer.get(), bulk.disk.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto appended =
      PagedRelation::Load(data::Relation(rel.name(), rel.schema()),
                          rows.buffer.get(), rows.disk.get());
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  for (const data::Tuple& t : rel.rows()) {
    ASSERT_TRUE((*appended)->Append(t).ok());
  }
  EXPECT_EQ((*loaded)->rows(), rel.size());
  EXPECT_EQ((*appended)->rows(), rel.size());
  EXPECT_EQ((*loaded)->pages(), (*appended)->pages());

  const std::vector<Page> a = PageImages(bulk.buffer.get(), bulk.disk.get());
  const std::vector<Page> b = PageImages(rows.buffer.get(), rows.disk.get());
  ASSERT_EQ(a.size(), (*loaded)->pages());
  EXPECT_TRUE(SameBytes(a, b));
  // The four fill rows own page 0 to its last byte; the kMaxRecord row
  // owns a page alone.
  EXPECT_EQ(a[0].bytes[0] | (a[0].bytes[1] << 8), 4);
  EXPECT_EQ(a[0].bytes[2] | (a[0].bytes[3] << 8), static_cast<int>(kPageSize));
  bool max_alone = false;
  for (const Page& p : a) {
    max_alone |= (p.bytes[0] | (p.bytes[1] << 8)) == 1 &&
                  (p.bytes[4] | (p.bytes[5] << 8)) ==
                      static_cast<int>(RecordFile::kMaxRecord);
  }
  EXPECT_TRUE(max_alone);
  auto back = (*loaded)->ToRelation();
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    EXPECT_TRUE(back->rows()[i] == rel.rows()[i]) << i;
  }
}

TEST(AppendPathTest, RejectedBatchAppendsNothing) {
  Rig rig;
  data::Relation people = data::gen::People(300, 9);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  const std::vector<Page> before =
      PageImages(rig.buffer.get(), rig.disk.get());
  const size_t rows = (*paged)->rows();
  const size_t pages = (*paged)->pages();

  const data::Tuple& good = people.rows()[0];
  const data::Tuple mistyped(
      {std::string("seven"), std::string("x"), int64_t{1}, std::string("y")});
  const data::Tuple oversize({int64_t{1}, std::string(kPageSize, 'o'),
                              int64_t{2}, std::string("z")});
  const std::vector<std::vector<data::Tuple>> batches = {
      {good, good, mistyped}, {mistyped}, {good, oversize, good}, {oversize}};
  for (const auto& batch : batches) {
    Status s = (*paged)->AppendBatch(batch);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_EQ((*paged)->rows(), rows);
    EXPECT_EQ((*paged)->pages(), pages);
    EXPECT_TRUE(SameBytes(PageImages(rig.buffer.get(), rig.disk.get()), before));
  }
  EXPECT_TRUE((*paged)->Append(oversize).IsInvalidArgument());
  EXPECT_EQ((*paged)->rows(), rows);
}

TEST(AppendPathTest, OneGetpagePerPageTouched) {
  Rig rig;
  const data::Relation orders = data::gen::Orders(3000, 50, 0.5, 3);
  auto paged = PagedRelation::Load(data::Relation("orders", orders.schema()),
                                   rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok());
  auto gets = [&] { return rig.buffer->stats().gets; };
  std::span<const data::Tuple> rows(orders.rows());

  // Row by row: one getpage per Append (the tail), two when it opens a
  // page — the first Append, with no tail yet, only opens one.
  size_t next = 0;
  for (; next < 500; ++next) {
    const size_t pages = (*paged)->pages();
    const uint64_t before = gets();
    ASSERT_TRUE((*paged)->Append(rows[next]).ok());
    const size_t opened = (*paged)->pages() - pages;
    EXPECT_LE(opened, 1u);
    EXPECT_EQ(gets() - before, (pages > 0 ? 1u : 0u) + opened) << next;
  }
  // Batches: the tail plus every page opened.
  for (size_t n : {1, 2, 107, 108, 333, 1000}) {
    const size_t pages = (*paged)->pages();
    const uint64_t before = gets();
    ASSERT_TRUE((*paged)->AppendBatch(rows.subspan(next, n)).ok());
    next += n;
    EXPECT_EQ(gets() - before, 1 + (*paged)->pages() - pages) << n;
  }
  EXPECT_EQ((*paged)->rows(), next);

  // A bulk load: one getpage per page.
  Rig fresh;
  auto loaded =
      PagedRelation::Load(orders, fresh.buffer.get(), fresh.disk.get());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(fresh.buffer->stats().gets, (*loaded)->pages());
}

TEST(AppendPathTest, ConcurrentFlushAndCheckpointKeepEveryAckedRow) {
  // One thread appends single rows and batches and acknowledges each
  // with its own FlushAll; another loops FlushAll and CheckpointWal. The
  // pool then dies unflushed: recovery must give back an exact prefix of
  // the appended rows that holds every acknowledged one.
  ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "paged_relation_append_race";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string page_path = (dir / "pages.dbm").string();
  const std::string wal_dir = (dir / "log.wal").string();
  const data::Relation orders = data::gen::Orders(3000, 50, 0.5, 11);
  std::span<const data::Tuple> rows(orders.rows());

  size_t acked = 0;
  {
    auto disk = FileDiskComponent::Open(page_path);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    std::shared_ptr<FileDiskComponent> fdisk = std::move(*disk);
    WalOptions options;
    options.dir = wal_dir;
    options.fsync = WalFsyncPolicy::kCommit;
    options.segment_bytes = 64 * 1024;  // checkpoints truncate segments
    auto wal = Wal::Open(options);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    auto buffer = std::make_shared<BufferManager>("buf", 8, /*shards=*/4);
    buffer->FindPort("disk")->SetTarget(fdisk);
    buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
    buffer->SetWal(wal->get());
    auto paged = PagedRelation::Load(data::Relation("orders", orders.schema()),
                                     buffer.get(), fdisk.get());
    ASSERT_TRUE(paged.ok());

    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};
    std::thread background([&] {
      while (!done) {
        if (!buffer->FlushAll().ok()) failed = true;
        if (!buffer->CheckpointWal().ok()) failed = true;
      }
    });
    Rng rng(5);
    size_t next = 0;
    const size_t last_batch = 40;
    while (next + last_batch < rows.size()) {
      const size_t n =
          rng.Bernoulli(0.5) ? 1
                             : std::min<size_t>(1 + rng.Uniform(150),
                                                rows.size() - last_batch - next);
      Status s = n == 1 ? (*paged)->Append(rows[next])
                        : (*paged)->AppendBatch(rows.subspan(next, n));
      if (!s.ok() || !buffer->FlushAll().ok()) {
        failed = true;
        break;
      }
      next += n;
      acked = (*paged)->rows();
    }
    // One more batch, never acknowledged.
    if (!(*paged)->AppendBatch(rows.subspan(next, last_batch)).ok()) {
      failed = true;
    }
    done = true;
    background.join();
    ASSERT_FALSE(failed);
    EXPECT_EQ(acked, rows.size() - last_batch);
    buffer->SetWal(nullptr);
  }  // the pool dies with its dirty frames, unflushed

  auto disk = FileDiskComponent::Open(page_path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  std::shared_ptr<FileDiskComponent> fdisk = std::move(*disk);
  ASSERT_TRUE(Recover(fdisk.get(), wal_dir).ok());
  auto buffer = std::make_shared<BufferManager>("buf", 8, 4);
  buffer->FindPort("disk")->SetTarget(fdisk);
  buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
  auto recovered = PagedRelation::Recover("orders", orders.schema(),
                                          buffer.get(), fdisk.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  size_t i = 0;
  ASSERT_TRUE((*recovered)
                  ->Scan([&](const data::Tuple& t) {
                    EXPECT_TRUE(i < rows.size() && t == rows[i]) << i;
                    ++i;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(i, (*recovered)->rows());
  EXPECT_GE(i, acked);
  fault::Injector::Default().Reset();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Typed paged batches: each column's tags and declared type's array
// ---------------------------------------------------------------------

/// (int, double, string, int) rows with a null in every column and empty
/// strings among the strings.
data::Relation NullsInEveryColumn(size_t rows) {
  data::Relation rel("nulls", data::Schema({{"i", data::ValueType::kInt},
                                            {"d", data::ValueType::kDouble},
                                            {"s", data::ValueType::kString},
                                            {"k", data::ValueType::kInt}}));
  for (size_t r = 0; r < rows; ++r) {
    data::Tuple t({static_cast<int64_t>(r) - 40, 0.5 * static_cast<double>(r),
                   r % 4 == 0 ? std::string() : "s#" + std::to_string(r % 9),
                   static_cast<int64_t>(r % 7)});
    t.values[r % 5 == 4 ? 3 : r % 5] = data::Value{};
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  return rel;
}

TEST(PagedBatchTest, LoadsCellForCellLikeItsMemMirror) {
  Rig rig(8);
  const data::Relation rel = NullsInEveryColumn(1000);
  auto paged = PagedRelation::Load(rel, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const size_t pages = (*paged)->pages();
  auto page_rows = [&](size_t page) {
    auto n = (*paged)->DecodePage(page, [](size_t, const FieldView&) {});
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    return n.ok() ? *n : 0;
  };
  ASSERT_GT(pages, 3u);
  ASSERT_LT(page_rows(pages - 1), page_rows(0))
      << "the last page should be only partly filled";

  const data::ColumnarView& mirror = rel.Columnar();
  for (size_t morsel_pages : {1u, 2u, 3u}) {
    SCOPED_TRACE("morsel_pages=" + std::to_string(morsel_pages));
    Arena paged_scratch, mem_scratch;
    size_t row = 0;
    for (size_t begin = 0; begin < pages; begin += morsel_pages) {
      const size_t end = std::min(begin + morsel_pages, pages);
      paged_scratch.Reset();
      mem_scratch.Reset();
      query::ColumnBatch got, want;
      uint64_t raw = 0;
      Status s = query::LoadPagedBatch(**paged, begin, end, &paged_scratch,
                                       &got, &raw);
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(raw, got.rows);
      ASSERT_LE(got.rows, (*paged)->max_rows_per_page() * (end - begin));
      ASSERT_LE(row + got.rows, rel.size());
      query::LoadMemBatch(mirror, row, row + got.rows, &mem_scratch, &want);
      ASSERT_EQ(got.ncols, want.ncols);
      for (size_t c = 0; c < got.ncols; ++c) {
        // Only the declared type's array.
        const data::ValueType decl = rel.schema().field(c).type;
        const query::Column& col = got.cols[c];
        EXPECT_EQ(col.ints != nullptr, decl == data::ValueType::kInt);
        EXPECT_EQ(col.doubles != nullptr, decl == data::ValueType::kDouble);
        EXPECT_EQ(col.strings != nullptr, decl == data::ValueType::kString);
        for (size_t r = 0; r < got.rows; ++r) {
          const query::Cell a = query::CellOf(col, r);
          const query::Cell b = query::CellOf(want.cols[c], r);
          EXPECT_EQ(a.tag, b.tag) << "row " << row + r << " col " << c;
          EXPECT_TRUE(query::CellToValue(a) == query::CellToValue(b))
              << "row " << row + r << " col " << c;
        }
      }
      row += got.rows;
    }
    EXPECT_EQ(row, rel.size());
  }
}

TEST(PagedBatchTest, RecoverUnderAWrongColumnTypeFailsTheLoad) {
  // The same pages re-attached under a schema that gives one column
  // another type: a stored value that is neither null nor the declared
  // type is IoError, never a silently mistyped cell.
  Rig rig(8);
  const data::Relation people = data::gen::People(300, 4);
  auto paged = PagedRelation::Load(people, rig.buffer.get(), rig.disk.get());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto load = [&](const data::Schema& schema) {
    auto recovered = PagedRelation::Recover("people", schema,
                                            rig.buffer.get(), rig.disk.get());
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    if (!recovered.ok()) return recovered.status();
    EXPECT_EQ((*recovered)->rows(), people.size());
    Arena scratch;
    query::ColumnBatch batch;
    return query::LoadPagedBatch(**recovered, 0, (*recovered)->pages(),
                                 &scratch, &batch, nullptr);
  };
  EXPECT_TRUE(load(people.schema()).ok());
  for (size_t c = 0; c < people.schema().size(); ++c) {
    for (data::ValueType type :
         {data::ValueType::kNull, data::ValueType::kInt,
          data::ValueType::kDouble, data::ValueType::kString}) {
      std::vector<data::Field> fields = people.schema().fields();
      if (fields[c].type == type) continue;
      fields[c].type = type;
      SCOPED_TRACE("column " + fields[c].name + " read as " +
                   data::ValueTypeName(type));
      Status s = load(data::Schema(fields));
      EXPECT_TRUE(s.IsIoError()) << s.ToString();
    }
  }
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
