// Durable paged storage under test: the WAL codec, LSN resumption across
// torn tails, segment rotation and truncation, fsync policies, the
// file-backed disk's CRC slots, WAL-before-writeback, the FlushAll
// error-reporting contract, FlushAll's group commit under concurrent
// writers, eviction groups (one force per shard's dirty frames, and an
// eviction that fails only for its own victim), and the headline
// property — an injected crash mid-bulk-load recovers to an
// exactly-once durable prefix under the chaos seeds, over one shard and
// over four. Checkpoint frames are fuzzed here; page-image frame
// fuzzing and the segment log's recovery rules run for both codecs in
// segment_log_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "data/relation.h"
#include "fault/injector.h"
#include "fault/recovery.h"
#include "storage/buffer.h"
#include "storage/durable_disk.h"
#include "storage/paged_relation.h"
#include "storage/replacement.h"
#include "storage/wal.h"

namespace dbm::storage {
namespace {

// Every test starts from a clean injector: the chaos CI runs this binary
// with storage.wal.append:crash and storage.disk.write:error armed
// process-wide, and only the crash tests want those points live (they
// arm them themselves, per seed).
class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
    // A directory per test, named by suite and test: ctest runs the cases
    // as parallel processes, and two fixtures share test names.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name =
        std::string(info->test_suite_name()) + "_" + info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    base_ = std::filesystem::temp_directory_path() / ("wal_test_" + name);
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override {
    fault::Injector::Default().Reset();
    std::filesystem::remove_all(base_);
  }

  std::string WalDir() const { return (base_ / "log.wal").string(); }
  std::string PagePath() const { return (base_ / "pages.dbm").string(); }

  static Page MakePage(PageId id, uint8_t fill) {
    Page p;
    p.id = id;
    p.bytes.fill(fill);
    return p;
  }

  /// Every page image in the log under WalDir(), by LSN.
  std::map<Lsn, WalRecord> LoggedImages() const {
    std::map<Lsn, WalRecord> images;
    WalScanReport report;
    EXPECT_TRUE(ScanWal(WalDir(),
                        [&](const WalRecord& rec, const std::string&) {
                          if (rec.type == WalRecordType::kPageImage) {
                            images[rec.lsn] = rec;
                          }
                          return true;
                        },
                        &report)
                    .ok());
    return images;
  }

  /// Expects the slot written under `lsn` to hold exactly the bytes of
  /// the page image the log carries under that LSN.
  static void ExpectSlotIsLoggedImage(const std::map<Lsn, WalRecord>& images,
                                      PageId id, Lsn lsn, const Page& slot) {
    auto it = images.find(lsn);
    ASSERT_NE(it, images.end()) << "page " << id << " slot LSN " << lsn
                                << " names no logged image";
    EXPECT_EQ(it->second.page, id) << "LSN " << lsn;
    EXPECT_TRUE(std::equal(slot.bytes.begin(), slot.bytes.end(),
                           it->second.image.begin()))
        << "page " << id << " slot differs from its image at LSN " << lsn;
  }

  std::filesystem::path base_;
};

/// A buffer/disk/policy rig over a durable disk + WAL. shards=1 keeps
/// LRU eviction exact, so writebacks happen in page-fill order and the
/// durable prefix is deterministic.
struct DurableRig {
  std::shared_ptr<FileDiskComponent> disk;
  std::unique_ptr<Wal> wal;
  std::shared_ptr<BufferManager> buffer;

  static Result<DurableRig> Make(const std::string& page_path,
                                 const std::string& wal_dir, size_t frames,
                                 WalOptions wal_options = {},
                                 size_t shards = 1) {
    DurableRig rig;
    DBM_ASSIGN_OR_RETURN(auto disk, FileDiskComponent::Open(page_path));
    rig.disk = std::move(disk);
    wal_options.dir = wal_dir;
    DBM_ASSIGN_OR_RETURN(rig.wal, Wal::Open(wal_options));
    rig.buffer = std::make_shared<BufferManager>("buf", frames, shards);
    rig.buffer->FindPort("disk")->SetTarget(rig.disk);
    rig.buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
    rig.buffer->SetWal(rig.wal.get());
    return rig;
  }
};

// ---------------------------------------------------------------------
// Frame codec + fuzz
// ---------------------------------------------------------------------

TEST_F(WalTest, FrameRoundTripsBothRecordTypes) {
  WalRecord image;
  image.type = WalRecordType::kPageImage;
  image.lsn = 42;
  image.page = 7;
  image.image.assign(kPageSize, 0xAB);
  std::string buf;
  EncodeWalFrame(image, &buf);

  WalRecord out;
  size_t frame_bytes = 0;
  ASSERT_TRUE(DecodeWalFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                             buf.size(), &out, &frame_bytes));
  EXPECT_EQ(frame_bytes, buf.size());
  EXPECT_EQ(out.type, WalRecordType::kPageImage);
  EXPECT_EQ(out.lsn, 42u);
  EXPECT_EQ(out.page, 7u);
  EXPECT_EQ(out.image, image.image);

  WalRecord ckpt;
  ckpt.type = WalRecordType::kCheckpoint;
  ckpt.lsn = 43;
  ckpt.redo_lsn = 40;
  buf.clear();
  EncodeWalFrame(ckpt, &buf);
  ASSERT_TRUE(DecodeWalFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                             buf.size(), &out, &frame_bytes));
  EXPECT_EQ(out.type, WalRecordType::kCheckpoint);
  EXPECT_EQ(out.redo_lsn, 40u);
}

// The shared suite fuzzes page-image frames; these fuzz the other record
// type the WAL writes, a checkpoint.
WalRecord Checkpoint() {
  WalRecord rec;
  rec.type = WalRecordType::kCheckpoint;
  rec.lsn = 9;
  rec.redo_lsn = 5;
  return rec;
}

TEST_F(WalTest, FrameFuzzEveryTruncationRejected) {
  std::string buf;
  EncodeWalFrame(Checkpoint(), &buf);
  WalRecord out;
  size_t frame_bytes = 0;
  for (size_t n = 0; n < buf.size(); ++n) {
    EXPECT_FALSE(DecodeWalFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                                n, &out, &frame_bytes))
        << "truncation to " << n << " bytes decoded";
  }
}

TEST_F(WalTest, FrameFuzzEveryBitFlipRejected) {
  std::string buf;
  EncodeWalFrame(Checkpoint(), &buf);
  WalRecord out;
  size_t frame_bytes = 0;
  for (size_t i = 0; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = buf;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      // A flip in the length field may make the frame run past the
      // buffer; a flip anywhere else fails the CRC. Either way: false.
      EXPECT_FALSE(DecodeWalFrame(
          reinterpret_cast<const uint8_t*>(corrupt.data()), corrupt.size(),
          &out, &frame_bytes))
          << "flip at byte " << i << " bit " << bit << " decoded";
    }
  }
}

TEST_F(WalTest, FrameFuzzTrailingGarbageLeftForNextFrame) {
  std::string buf;
  EncodeWalFrame(Checkpoint(), &buf);
  size_t clean = buf.size();
  buf += "garbage after the frame";
  WalRecord out;
  size_t frame_bytes = 0;
  ASSERT_TRUE(DecodeWalFrame(reinterpret_cast<const uint8_t*>(buf.data()),
                             buf.size(), &out, &frame_bytes));
  EXPECT_EQ(frame_bytes, clean);  // the garbage is the *next* (torn) frame
  EXPECT_EQ(out.redo_lsn, 5u);
}

// ---------------------------------------------------------------------
// Append / scan / reopen
// ---------------------------------------------------------------------

TEST_F(WalTest, AppendScanRoundTrip) {
  auto wal = Wal::Open({.dir = WalDir()});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  for (PageId id = 0; id < 5; ++id) {
    auto lsn = (*wal)->AppendPageImage(id, MakePage(id, uint8_t(id + 1)));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, Lsn{id} + 1);  // LSNs start at 1, contiguous
  }
  ASSERT_TRUE((*wal)->AppendCheckpoint(3).ok());
  wal->reset();  // close cleanly

  WalScanReport report;
  std::vector<WalRecord> records;
  ASSERT_TRUE(ScanWal(WalDir(),
                      [&](const WalRecord& rec, const std::string&) {
                        records.push_back(rec);
                        return true;
                      },
                      &report)
                  .ok());
  ASSERT_EQ(records.size(), 6u);
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.max_lsn, 6u);
  EXPECT_EQ(report.redo_lsn, 3u);
  EXPECT_EQ(report.checkpoints, 1u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(records[i].page, PageId(i));
    EXPECT_EQ(records[i].image[0], uint8_t(i + 1));
  }
}

TEST_F(WalTest, ScanOfMissingDirIsEmptyNotError) {
  WalScanReport report;
  ASSERT_TRUE(ScanWal(WalDir() + "/never_created", nullptr, &report).ok());
  EXPECT_EQ(report.frames, 0u);
  EXPECT_FALSE(report.truncated);
}

TEST_F(WalTest, TornTailTruncatesHistoryAndReopenRepairs) {
  {
    auto wal = Wal::Open({.dir = WalDir()});
    ASSERT_TRUE(wal.ok());
    for (PageId id = 0; id < 4; ++id) {
      ASSERT_TRUE((*wal)->AppendPageImage(id, MakePage(id, 1)).ok());
    }
  }
  // Tear the tail: half a frame of garbage right after the fourth frame,
  // as a crash mid-append leaves it (over the zeros the close's fsync
  // filled the segment with).
  auto segments = [&] {
    std::vector<std::string> out;
    for (const auto& e : std::filesystem::directory_iterator(WalDir())) {
      out.push_back(e.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
  }();
  ASSERT_FALSE(segments.empty());
  WalRecord image;
  image.lsn = 1;
  image.image.assign(kPageSize, 1);
  std::string frame;
  EncodeWalFrame(image, &frame);
  const uint64_t clean_size = fault::kSegmentHeaderBytes + 4 * frame.size();
  {
    std::fstream f(segments.back(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(clean_size));
    f << "\x13\x00\x00\x00 half a frame of torn byt";
  }

  WalScanReport report;
  ASSERT_TRUE(ScanWal(WalDir(), nullptr, &report).ok());
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.frames, 4u);  // the trusted prefix survives intact
  EXPECT_GT(report.torn_tail_bytes, 0u);

  // Reopen: the torn tail is physically gone; LSNs resume after the
  // trusted prefix; the next scan is clean.
  auto wal = Wal::Open({.dir = WalDir()});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(std::filesystem::file_size(segments.back()), clean_size);
  EXPECT_EQ((*wal)->next_lsn(), 5u);
  ASSERT_TRUE((*wal)->AppendPageImage(9, MakePage(9, 2)).ok());
  wal->reset();
  ASSERT_TRUE(ScanWal(WalDir(), nullptr, &report).ok());
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.frames, 5u);
  EXPECT_EQ(report.max_lsn, 5u);
}

TEST_F(WalTest, OpenAfterHeaderTearUnlinksEveryLaterSegment) {
  // Tiny segments force rotation: ~3 frames per segment.
  {
    auto wal = Wal::Open({.dir = WalDir(), .segment_bytes = 3 * 4200});
    ASSERT_TRUE(wal.ok());
    for (PageId id = 0; id < 9; ++id) {
      ASSERT_TRUE((*wal)->AppendPageImage(id, MakePage(id, 1)).ok());
    }
    EXPECT_GE((*wal)->stats().segments_created, 3u);
  }
  // Smash the FIRST segment's header. The tear is at offset 0, so Open
  // unlinks the segment outright — and must still unlink every later
  // segment: their higher LSNs would otherwise survive while new
  // appends restart at LSN 1, and a later scan would resurrect the
  // discarded history.
  std::vector<std::string> segments;
  for (const auto& e : std::filesystem::directory_iterator(WalDir())) {
    segments.push_back(e.path().string());
  }
  std::sort(segments.begin(), segments.end());
  ASSERT_GE(segments.size(), 3u);
  {
    std::fstream f(segments.front(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("XXXXXXXX", 8);
  }
  {
    auto wal = Wal::Open({.dir = WalDir()});
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ((*wal)->next_lsn(), 1u);  // nothing trusted survived
    ASSERT_TRUE((*wal)->AppendPageImage(0, MakePage(0, 2)).ok());
  }
  // The scan after reopen sees only the new history — the stale
  // segments past the tear are physically gone.
  WalScanReport report;
  ASSERT_TRUE(ScanWal(WalDir(), nullptr, &report).ok());
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.frames, 1u);
  EXPECT_EQ(report.max_lsn, 1u);
}

TEST_F(WalTest, RotationAndTruncateBelow) {
  auto wal = Wal::Open({.dir = WalDir(), .segment_bytes = 2 * 4200});
  ASSERT_TRUE(wal.ok());
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_TRUE((*wal)->AppendPageImage(id, MakePage(id, 1)).ok());
  }
  WalStats stats = (*wal)->stats();
  EXPECT_GE(stats.segments_created, 4u);
  size_t before = (*wal)->SegmentPaths().size();

  // Everything below LSN 7 lives in sealed early segments; drop them.
  ASSERT_TRUE((*wal)->TruncateBelow(7).ok());
  stats = (*wal)->stats();
  EXPECT_GT(stats.truncated_segments, 0u);
  EXPECT_LT((*wal)->SegmentPaths().size(), before);

  // The survivors still scan cleanly and cover LSN 7..8.
  wal->reset();
  WalScanReport report;
  Lsn first_seen = 0;
  ASSERT_TRUE(ScanWal(WalDir(),
                      [&](const WalRecord& rec, const std::string&) {
                        if (first_seen == 0) first_seen = rec.lsn;
                        return true;
                      },
                      &report)
                  .ok());
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.max_lsn, 8u);
  EXPECT_LE(first_seen, 7u);
  EXPECT_GT(first_seen, 0u);
}

TEST_F(WalTest, FsyncPolicies) {
  // kNever: the barrier trails until an explicit Flush.
  {
    auto wal = Wal::Open({.dir = WalDir() + ".never",
                          .fsync = WalFsyncPolicy::kNever});
    ASSERT_TRUE(wal.ok());
    auto lsn = (*wal)->AppendPageImage(0, MakePage(0, 1));
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE((*wal)->Durable(*lsn).ok());
    EXPECT_EQ((*wal)->durable_lsn(), 0u);
    ASSERT_TRUE((*wal)->Flush().ok());
    EXPECT_EQ((*wal)->durable_lsn(), *lsn);
  }
  // kCommit: Durable(lsn) is a real fsync barrier.
  {
    auto wal = Wal::Open({.dir = WalDir() + ".commit",
                          .fsync = WalFsyncPolicy::kCommit});
    ASSERT_TRUE(wal.ok());
    auto lsn = (*wal)->AppendPageImage(0, MakePage(0, 1));
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE((*wal)->Durable(*lsn).ok());
    EXPECT_EQ((*wal)->durable_lsn(), *lsn);
    EXPECT_GE((*wal)->stats().fsyncs, 1u);
  }
  // kInterval: the barrier advances on the byte threshold, no Durable
  // call needed.
  {
    auto wal = Wal::Open({.dir = WalDir() + ".interval",
                          .fsync = WalFsyncPolicy::kInterval,
                          .fsync_interval_bytes = 2 * 4200});
    ASSERT_TRUE(wal.ok());
    for (PageId id = 0; id < 5; ++id) {
      ASSERT_TRUE((*wal)->AppendPageImage(id, MakePage(id, 1)).ok());
    }
    EXPECT_GT((*wal)->durable_lsn(), 0u);
    EXPECT_LT((*wal)->durable_lsn(), 6u);
  }
  // Asking for a barrier past the flushed watermark is a caller bug.
  auto wal = Wal::Open({.dir = WalDir() + ".bad"});
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE((*wal)->Durable(99).IsFailedPrecondition());
}

TEST_F(WalTest, InjectedCrashLeavesTornFrameAndKillsLog) {
  ASSERT_TRUE(fault::Injector::Default()
                  .Configure("storage.wal.append:crash@1", 17)
                  .ok());
  auto wal = Wal::Open({.dir = WalDir()});
  ASSERT_TRUE(wal.ok());
  auto lsn = (*wal)->AppendPageImage(0, MakePage(0, 1));
  EXPECT_TRUE(lsn.status().IsUnavailable());
  EXPECT_TRUE((*wal)->stats().dead);
  // Dead means dead: no further appends, no flush.
  EXPECT_TRUE((*wal)->AppendPageImage(1, MakePage(1, 1)).status().IsUnavailable());
  EXPECT_TRUE((*wal)->Flush().IsUnavailable());
  wal->reset();

  // The half-written frame is a torn tail; the scan trusts nothing.
  ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
  WalScanReport report;
  ASSERT_TRUE(ScanWal(WalDir(), nullptr, &report).ok());
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.frames, 0u);
  EXPECT_GT(report.torn_tail_bytes, 0u);
}

// ---------------------------------------------------------------------
// Status taxonomy (satellite: DataLoss is terminal)
// ---------------------------------------------------------------------

TEST_F(WalTest, DataLossIsTerminalNotRetryable) {
  Status s = Status::DataLoss("page 7 CRC mismatch");
  EXPECT_TRUE(s.IsDataLoss());
  EXPECT_FALSE(s.IsRetryable());  // the bytes are gone; retrying re-reads
                                  // the same corrupt sector
  EXPECT_NE(s.ToString().find("data-loss"), std::string::npos);
  // The retryable set is exactly the transient trio.
  EXPECT_TRUE(Status::Unavailable("x").IsRetryable());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsRetryable());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsRetryable());
  EXPECT_FALSE(Status::IoError("x").IsRetryable());
  EXPECT_FALSE(Status::NotFound("x").IsRetryable());
}

// ---------------------------------------------------------------------
// The file-backed disk
// ---------------------------------------------------------------------

TEST_F(WalTest, FileDiskRoundTripAndReopen) {
  {
    auto disk = FileDiskComponent::Open(PagePath());
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    EXPECT_EQ((*disk)->page_count(), 0u);
    ASSERT_EQ((*disk)->Allocate(), 0u);
    ASSERT_EQ((*disk)->Allocate(), 1u);
    ASSERT_TRUE((*disk)->Write(1, MakePage(1, 0xEE), 12).ok());
    ASSERT_TRUE((*disk)->Sync().ok());
  }
  auto disk = FileDiskComponent::Open(PagePath());
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->page_count(), 2u);
  Page p;
  ASSERT_TRUE((*disk)->Read(1, &p).ok());
  EXPECT_EQ(p.bytes[100], 0xEE);
  EXPECT_EQ((*disk)->PageLsn(1), 12u);
  EXPECT_EQ((*disk)->PageLsn(0), 0u);  // allocated, never written
  // Allocation is sparse: page 0's slot was never materialised, so the
  // hole (zero bytes under page 1's valid slot) cannot CRC-verify.
  EXPECT_TRUE((*disk)->Read(0, &p).IsDataLoss());
  EXPECT_TRUE((*disk)->Read(7, &p).IsNotFound());
}

TEST_F(WalTest, FileDiskFsyncsTheDirectoryOfANewFileOnce) {
  {
    auto disk = FileDiskComponent::Open(PagePath());
    ASSERT_TRUE(disk.ok());
    EXPECT_EQ((*disk)->dir_fsyncs(), 0u);
    ASSERT_TRUE((*disk)->Sync().ok());
    EXPECT_EQ((*disk)->dir_fsyncs(), 1u);  // the new file's name
    ASSERT_TRUE((*disk)->Sync().ok());
    EXPECT_EQ((*disk)->dir_fsyncs(), 1u);
  }
  auto disk = FileDiskComponent::Open(PagePath());
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->Sync().ok());
  EXPECT_EQ((*disk)->dir_fsyncs(), 0u);  // reopened: already durable
}

TEST_F(WalTest, FileDiskCorruptSlotIsDataLoss) {
  {
    auto disk = FileDiskComponent::Open(PagePath());
    ASSERT_TRUE(disk.ok());
    ASSERT_EQ((*disk)->Allocate(), 0u);
    ASSERT_TRUE((*disk)->Write(0, MakePage(0, 0x11), 1).ok());
  }
  {
    // Flip one byte in the slot body.
    std::fstream f(PagePath(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kPageFileHeaderBytes +
                                        kPageSlotHeaderBytes + 200));
    f.put('\x99');
  }
  auto disk = FileDiskComponent::Open(PagePath());
  ASSERT_TRUE(disk.ok());
  Page p;
  Status s = (*disk)->Read(0, &p);
  EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
  EXPECT_FALSE(s.IsRetryable());
  EXPECT_EQ((*disk)->PageLsn(0), 0u);  // torn slot: always "replay me"
}

TEST_F(WalTest, FileDiskRejectsForeignFile) {
  {
    std::ofstream f(PagePath(), std::ios::binary);
    f << "this is not a page file at all";
  }
  auto disk = FileDiskComponent::Open(PagePath());
  EXPECT_TRUE(disk.status().IsDataLoss());
}

// ---------------------------------------------------------------------
// A page-file header no fsync covered
// ---------------------------------------------------------------------

/// A load acknowledged by FlushAll under kCommit, with no checkpoint: the
/// WAL holds every image, and the page file was never fsynced, so a power
/// loss may lose the block holding its header while later slots persist.
/// `lose` acts that loss out on the closed file. The store must open
/// again, and recovery must give back every row.
class LostHeaderTest : public WalTest {
 protected:
  void LoadLoseHeaderRecover(const std::function<void()>& lose) {
    const data::Relation orders = data::gen::Orders(20000, 200, 0.5, 42);
    {
      WalOptions options;
      options.fsync = WalFsyncPolicy::kCommit;
      auto rig = DurableRig::Make(PagePath(), WalDir(), 16, options);
      ASSERT_TRUE(rig.ok()) << rig.status().ToString();
      auto paged =
          PagedRelation::Load(orders, rig->buffer.get(), rig->disk.get());
      ASSERT_TRUE(paged.ok()) << paged.status().ToString();
      ASSERT_TRUE(rig->buffer->FlushAll().ok());
      EXPECT_EQ(rig->disk->dir_fsyncs(), 0u);  // no Sync reached the file
      rig->buffer->SetWal(nullptr);
    }
    lose();

    auto disk = FileDiskComponent::Open(PagePath());
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    std::shared_ptr<FileDiskComponent> fdisk = std::move(*disk);
    auto report = Recover(fdisk.get(), WalDir());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->pages_replayed, 0u);
    EXPECT_EQ(fdisk->dir_fsyncs(), 1u);  // the rewritten header's name
    auto buffer = std::make_shared<BufferManager>("buf", 8);
    buffer->FindPort("disk")->SetTarget(fdisk);
    buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
    auto recovered = PagedRelation::Recover("orders", orders.schema(),
                                            buffer.get(), fdisk.get());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    size_t i = 0;
    Status scan = (*recovered)->Scan([&](const data::Tuple& t) {
      EXPECT_TRUE(i < orders.size() && t == orders.rows()[i])
          << "row " << i << " diverges";
      ++i;
      return true;
    });
    ASSERT_TRUE(scan.ok()) << scan.ToString();
    EXPECT_EQ(i, orders.size());
  }
};

TEST_F(LostHeaderTest, ZeroedFirstBlockReopensAndRecoversEveryRow) {
  // The header and the start of slot 0, as if one 4 KiB block were lost.
  LoadLoseHeaderRecover([&] {
    std::fstream f(PagePath(), std::ios::in | std::ios::out |
                                   std::ios::binary);
    const std::string zeros(4096, '\0');
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  });
}

TEST_F(LostHeaderTest, FileCutInsideTheHeaderReopensAndRecoversEveryRow) {
  LoadLoseHeaderRecover(
      [&] { std::filesystem::resize_file(PagePath(), 7); });
}

// ---------------------------------------------------------------------
// FlushAll error contract (satellite 1)
// ---------------------------------------------------------------------

/// An in-memory disk whose Write fails for exactly one page id — the
/// shape of a single bad sector.
class BadSectorDisk : public DiskComponent {
 public:
  explicit BadSectorDisk(PageId bad) : bad_(bad) {}
  Status Write(PageId id, const Page& page, uint64_t lsn = 0) override {
    if (id == bad_) return Status::IoError("bad sector under page " +
                                           std::to_string(id));
    return DiskComponent::Write(id, page, lsn);
  }

 private:
  PageId bad_;
};

TEST_F(WalTest, FlushAllAttemptsEveryFrameAndReportsFirstError) {
  auto disk = std::make_shared<BadSectorDisk>(1);
  auto buffer = std::make_shared<BufferManager>("buf", 8);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
  for (PageId id = 0; id < 4; ++id) {
    ASSERT_EQ(disk->Allocate(), id);
    auto page = buffer->GetFreshPage(id);
    ASSERT_TRUE(page.ok());
    (*page)->bytes[0] = uint8_t(id + 1);
    ASSERT_TRUE(buffer->Unpin(id, true).ok());
  }
  Status s = buffer->FlushAll();
  EXPECT_TRUE(s.IsIoError()) << s.ToString();  // the first (only) error
  // Every OTHER frame was still written back: one bad sector must not
  // leave the rest of the pool dirty.
  EXPECT_EQ(disk->writes(), 3u);
  // Only the failed frame stays dirty: a retry re-attempts page 1 alone
  // and reports the same first error.
  s = buffer->FlushAll();
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(disk->writes(), 3u);
}

TEST_F(WalTest, FlushAllInjectedDiskErrorLeavesFrameDirtyForRetry) {
  auto rig = DurableRig::Make(PagePath(), WalDir(), 8);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  ASSERT_EQ(rig->disk->Allocate(), 0u);
  auto page = rig->buffer->GetFreshPage(0);
  ASSERT_TRUE(page.ok());
  (*page)->bytes[0] = 0x77;
  ASSERT_TRUE(rig->buffer->Unpin(0, true).ok());

  // Arm the disk-write point: every writeback fails, nothing lands.
  ASSERT_TRUE(fault::Injector::Default()
                  .Configure("storage.disk.write:error@1", 23)
                  .ok());
  Status s = rig->buffer->FlushAll();
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_EQ(rig->disk->writes(), 0u);

  // Disarm — the retry drains the still-dirty frame. An injected error
  // is transient-shaped precisely because the slot was never touched.
  ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
  ASSERT_TRUE(rig->buffer->FlushAll().ok());
  EXPECT_EQ(rig->disk->writes(), 1u);
  Page check;
  ASSERT_TRUE(rig->disk->Read(0, &check).ok());
  EXPECT_EQ(check.bytes[0], 0x77);
}

TEST_F(WalTest, FlushAllSkipsPinnedFrames) {
  // A pin holder mutates the page without the shard latch; FlushAll
  // must not snapshot that frame mid-mutation (the image would land on
  // disk torn, under a valid CRC). Like eviction, it skips pinned
  // frames and picks them up once the pin drops.
  auto disk = std::make_shared<DiskComponent>();
  auto buffer = std::make_shared<BufferManager>("buf", 8);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
  ASSERT_EQ(disk->Allocate(), 0u);
  auto page = buffer->GetFreshPage(0);
  ASSERT_TRUE(page.ok());
  (*page)->bytes[0] = 0x5A;
  ASSERT_TRUE(buffer->Unpin(0, true).ok());

  // Re-pin the (still dirty) page: FlushAll must leave it alone.
  ASSERT_TRUE(buffer->GetPage(0).ok());
  ASSERT_TRUE(buffer->FlushAll().ok());
  EXPECT_EQ(disk->writes(), 0u);

  // Unpinned again, the frame is still dirty and flushes normally.
  ASSERT_TRUE(buffer->Unpin(0, false).ok());
  ASSERT_TRUE(buffer->FlushAll().ok());
  EXPECT_EQ(disk->writes(), 1u);
  Page check;
  ASSERT_TRUE(disk->Read(0, &check).ok());
  EXPECT_EQ(check.bytes[0], 0x5A);
}

// ---------------------------------------------------------------------
// WAL-before-writeback + recovery
// ---------------------------------------------------------------------

TEST_F(WalTest, WritebackStampsSlotLsnAndLogsImageFirst) {
  auto rig = DurableRig::Make(PagePath(), WalDir(), 4);
  ASSERT_TRUE(rig.ok());
  ASSERT_EQ(rig->disk->Allocate(), 0u);
  auto page = rig->buffer->GetFreshPage(0);
  ASSERT_TRUE(page.ok());
  (*page)->bytes[9] = 0x42;
  ASSERT_TRUE(rig->buffer->Unpin(0, true).ok());
  ASSERT_TRUE(rig->buffer->FlushAll().ok());

  // The slot's LSN is the image's LSN, and that image is in the log.
  uint64_t slot_lsn = rig->disk->PageLsn(0);
  EXPECT_GT(slot_lsn, 0u);
  rig->buffer->SetWal(nullptr);
  rig->wal.reset();
  bool found = false;
  WalScanReport report;
  ASSERT_TRUE(ScanWal(WalDir(),
                      [&](const WalRecord& rec, const std::string&) {
                        if (rec.type == WalRecordType::kPageImage &&
                            rec.page == 0 && rec.lsn == slot_lsn) {
                          found = rec.image[9] == 0x42;
                        }
                        return true;
                      },
                      &report)
                  .ok());
  EXPECT_TRUE(found);
}

TEST_F(WalTest, TornSlotRepairedFromDurableWalImage) {
  {
    auto rig = DurableRig::Make(PagePath(), WalDir(), 4);
    ASSERT_TRUE(rig.ok());
    ASSERT_EQ(rig->disk->Allocate(), 0u);
    auto page = rig->buffer->GetFreshPage(0);
    ASSERT_TRUE(page.ok());
    (*page)->bytes[50] = 0xAA;
    ASSERT_TRUE(rig->buffer->Unpin(0, true).ok());
    ASSERT_TRUE(rig->buffer->FlushAll().ok());
    rig->buffer->SetWal(nullptr);
  }
  {
    // Tear the slot, as a crash between WAL append and writeback-fsync
    // would: the durable image lives only in the log.
    std::fstream f(PagePath(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(kPageFileHeaderBytes + 8));
    f.write("\xDE\xAD\xBE\xEF", 4);
  }
  auto disk = FileDiskComponent::Open(PagePath());
  ASSERT_TRUE(disk.ok());
  Page p;
  ASSERT_TRUE((*disk)->Read(0, &p).IsDataLoss());

  fault::StateManager state;
  auto report = Recover(disk->get(), WalDir(), &state);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages_replayed, 1u);
  ASSERT_TRUE((*disk)->Read(0, &p).ok());
  EXPECT_EQ(p.bytes[50], 0xAA);
}

TEST_F(WalTest, DoubleRecoveryIsIdempotent) {
  {
    auto rig = DurableRig::Make(PagePath(), WalDir(), 4);
    ASSERT_TRUE(rig.ok());
    for (PageId id = 0; id < 3; ++id) {
      ASSERT_EQ(rig->disk->Allocate(), id);
      auto page = rig->buffer->GetFreshPage(id);
      ASSERT_TRUE(page.ok());
      (*page)->bytes[0] = uint8_t(id + 1);
      ASSERT_TRUE(rig->buffer->Unpin(id, true).ok());
    }
    ASSERT_TRUE(rig->buffer->FlushAll().ok());
    rig->buffer->SetWal(nullptr);
  }
  auto disk = FileDiskComponent::Open(PagePath());
  ASSERT_TRUE(disk.ok());
  fault::StateManager state;
  auto first = Recover(disk->get(), WalDir(), &state);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->pages_replayed, 0u);  // writebacks already landed
  EXPECT_EQ(first->pages_skipped, first->frames_scanned);
  EXPECT_EQ(first->safe_point_sequence, 1u);

  auto second = Recover(disk->get(), WalDir(), &state);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->pages_replayed, 0u);
  EXPECT_EQ(second->safe_point_sequence, 2u);  // never regresses

  auto latest = state.Latest("wal.recovery");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->sequence, 2u);
  EXPECT_EQ(latest->position, second->max_lsn);
  EXPECT_EQ(state.replays(), 2u);
}

TEST_F(WalTest, CheckpointWalTruncatesDeadSegments) {
  WalOptions options;
  options.segment_bytes = 2 * 4200;  // force rotation
  auto rig = DurableRig::Make(PagePath(), WalDir(), 4, options);
  ASSERT_TRUE(rig.ok());
  for (PageId id = 0; id < 6; ++id) {
    ASSERT_EQ(rig->disk->Allocate(), id);
    auto page = rig->buffer->GetFreshPage(id);
    ASSERT_TRUE(page.ok());
    (*page)->bytes[0] = uint8_t(id);
    ASSERT_TRUE(rig->buffer->Unpin(id, true).ok());
  }
  ASSERT_TRUE(rig->buffer->FlushAll().ok());
  size_t before = rig->wal->SegmentPaths().size();
  // Nothing is dirty → redo = next_lsn → every sealed segment is dead.
  ASSERT_TRUE(rig->buffer->CheckpointWal().ok());
  EXPECT_LT(rig->wal->SegmentPaths().size(), before);
  EXPECT_GE(rig->wal->stats().checkpoints, 1u);

  // Recovery after truncation still round-trips: the page file carries
  // everything the truncated segments did.
  rig->buffer->SetWal(nullptr);
  rig->wal.reset();
  rig->buffer.reset();
  rig->disk.reset();
  auto disk = FileDiskComponent::Open(PagePath());
  ASSERT_TRUE(disk.ok());
  auto report = Recover(disk->get(), WalDir(), nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (PageId id = 0; id < 6; ++id) {
    Page p;
    ASSERT_TRUE((*disk)->Read(id, &p).ok()) << "page " << id;
    EXPECT_EQ(p.bytes[0], uint8_t(id));
  }
}

/// A disk that snapshots the WAL directory's segment count whenever its
/// durability barrier is passed — so a test can prove the barrier ran
/// while the to-be-truncated segments were still on disk.
class SyncProbeDisk : public DiskComponent {
 public:
  explicit SyncProbeDisk(std::string wal_dir)
      : wal_dir_(std::move(wal_dir)) {}
  Status Sync() override {
    ++sync_calls_;
    segments_at_last_sync_ = CountSegments();
    return Status::OK();
  }
  size_t CountSegments() const {
    size_t n = 0;
    std::error_code ec;
    for (const auto& e [[maybe_unused]] :
         std::filesystem::directory_iterator(wal_dir_, ec)) {
      ++n;
    }
    return n;
  }
  int sync_calls() const { return sync_calls_; }
  size_t segments_at_last_sync() const { return segments_at_last_sync_; }

 private:
  std::string wal_dir_;
  int sync_calls_ = 0;
  size_t segments_at_last_sync_ = 0;
};

TEST_F(WalTest, CheckpointWalSyncsPageFileBeforeTruncatingSegments) {
  // Data-before-log-truncation: writebacks are plain pwrites, so the
  // checkpoint must fsync the page file BEFORE unlinking the segments
  // that hold those pages' only durable images — otherwise a power loss
  // after the unlink silently reverts committed pages.
  auto wal = Wal::Open({.dir = WalDir(), .segment_bytes = 2 * 4200});
  ASSERT_TRUE(wal.ok());
  auto disk = std::make_shared<SyncProbeDisk>(WalDir());
  auto buffer = std::make_shared<BufferManager>("buf", 4);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
  buffer->SetWal(wal->get());
  for (PageId id = 0; id < 6; ++id) {
    ASSERT_EQ(disk->Allocate(), id);
    auto page = buffer->GetFreshPage(id);
    ASSERT_TRUE(page.ok());
    (*page)->bytes[0] = uint8_t(id);
    ASSERT_TRUE(buffer->Unpin(id, true).ok());
  }
  ASSERT_TRUE(buffer->FlushAll().ok());
  size_t before = disk->CountSegments();
  ASSERT_TRUE(buffer->CheckpointWal().ok());
  size_t after = disk->CountSegments();
  EXPECT_LT(after, before);  // the checkpoint did truncate
  EXPECT_GE(disk->sync_calls(), 1);
  // The barrier ran while every dead segment was still on disk.
  EXPECT_EQ(disk->segments_at_last_sync(), before);
  buffer->SetWal(nullptr);
}

// ---------------------------------------------------------------------
// Group commit: FlushAll logs every dirty frame, forces the log once,
// then writes the pages.
// ---------------------------------------------------------------------

TEST_F(WalTest, FlushAllForcesTheLogOnce) {
  WalOptions options;
  options.fsync = WalFsyncPolicy::kCommit;
  auto rig = DurableRig::Make(PagePath(), WalDir(), 8, options);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_EQ(rig->disk->Allocate(), id);
    auto page = rig->buffer->GetFreshPage(id);
    ASSERT_TRUE(page.ok());
    (*page)->bytes.fill(uint8_t(0x30 + id));
    ASSERT_TRUE(rig->buffer->Unpin(id, true).ok());
  }
  const uint64_t fsyncs = rig->wal->stats().fsyncs;
  ASSERT_TRUE(rig->buffer->FlushAll().ok());
  EXPECT_EQ(rig->wal->stats().fsyncs, fsyncs + 1);  // not one per page
  EXPECT_EQ(rig->wal->stats().appends, 8u);
  EXPECT_EQ(rig->disk->writes(), 8u);
  const std::map<Lsn, WalRecord> images = LoggedImages();
  for (PageId id = 0; id < 8; ++id) {
    Page slot;
    ASSERT_TRUE(rig->disk->Read(id, &slot).ok());
    EXPECT_EQ(slot.bytes[0], uint8_t(0x30 + id));
    ExpectSlotIsLoggedImage(images, id, rig->disk->PageLsn(id), slot);
  }
}

TEST_F(WalTest, FlushAllGroupSpanningRotationsRecovers) {
  WalOptions options;
  options.segment_bytes = 2 * 4200;  // two images a segment
  options.fsync = WalFsyncPolicy::kCommit;
  {
    auto rig = DurableRig::Make(PagePath(), WalDir(), 8, options);
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    for (PageId id = 0; id < 6; ++id) {
      ASSERT_EQ(rig->disk->Allocate(), id);
      auto page = rig->buffer->GetFreshPage(id);
      ASSERT_TRUE(page.ok());
      (*page)->bytes.fill(uint8_t(0x50 + id));
      ASSERT_TRUE(rig->buffer->Unpin(id, true).ok());
    }
    ASSERT_TRUE(rig->buffer->FlushAll().ok());
    const WalStats stats = rig->wal->stats();
    EXPECT_EQ(stats.segments_created, 3u);
    // The force fsyncs only the open segment, so each seal on the way
    // fsynced the segment it closed: one fsync per segment, and the
    // barrier covers the whole group.
    EXPECT_EQ(stats.fsyncs, 3u);
    EXPECT_EQ(stats.durable_lsn, stats.flushed_lsn);
    rig->buffer->SetWal(nullptr);
  }  // the pool is dropped: no checkpoint, no clean shutdown of the store

  auto disk = FileDiskComponent::Open(PagePath());
  ASSERT_TRUE(disk.ok());
  auto report = Recover(disk->get(), WalDir(), nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->truncated);
  EXPECT_EQ(report->frames_scanned, 6u);
  for (PageId id = 0; id < 6; ++id) {
    Page p;
    ASSERT_TRUE((*disk)->Read(id, &p).ok()) << "page " << id;
    EXPECT_EQ(p.bytes[0], uint8_t(0x50 + id));
    EXPECT_EQ(p.bytes[kPageSize - 1], uint8_t(0x50 + id));
  }
}

/// An in-memory disk that keeps the LSN each slot was last written under
/// and can run a hook inside its next write of one page: another thread
/// acting between FlushAll's log and write steps, made deterministic. It
/// can also fail every write of one page, writing nothing.
class HookDisk : public DiskComponent {
 public:
  Status Write(PageId id, const Page& page, uint64_t lsn = 0) override {
    if (id == failing_page_) {
      return Status::IoError("write of page " + std::to_string(id) +
                             " refused");
    }
    DBM_RETURN_NOT_OK(DiskComponent::Write(id, page, lsn));
    slot_lsn_[id] = lsn;
    if (id == hook_page_ && hook_) std::exchange(hook_, nullptr)();
    return Status::OK();
  }
  void OnNextWrite(PageId id, std::function<void()> hook) {
    hook_page_ = id;
    hook_ = std::move(hook);
  }
  /// Fails every write of `id` until called again (kInvalidPage: none).
  void FailWritesOf(PageId id) { failing_page_ = id; }
  Lsn SlotLsn(PageId id) const { return slot_lsn_.at(id); }

 private:
  std::map<PageId, Lsn> slot_lsn_;
  PageId hook_page_ = kInvalidPage;
  std::function<void()> hook_;
  PageId failing_page_ = kInvalidPage;
};

TEST_F(WalTest, FlushAllNeverWritesAFrameChangedSinceItWasLogged) {
  auto wal = Wal::Open({.dir = WalDir(), .fsync = WalFsyncPolicy::kCommit});
  ASSERT_TRUE(wal.ok());
  auto disk = std::make_shared<HookDisk>();
  // Two shards: page 0's write holds shard 0's latch, and page 1 lives
  // in shard 1, so the hook can pin page 1 mid-flush.
  auto buffer = std::make_shared<BufferManager>("buf", 4, /*shards=*/2);
  buffer->FindPort("disk")->SetTarget(disk);
  buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
  buffer->SetWal(wal->get());
  auto dirty_both = [&](uint8_t fill) {
    for (PageId id = 0; id < 2; ++id) {
      auto page = buffer->GetPage(id);
      ASSERT_TRUE(page.ok());
      (*page)->bytes.fill(fill);
      ASSERT_TRUE(buffer->Unpin(id, true).ok());
    }
  };
  for (PageId id = 0; id < 2; ++id) ASSERT_EQ(disk->Allocate(), id);
  dirty_both(0x11);
  ASSERT_TRUE(buffer->FlushAll().ok());

  // Both pages dirty again. Page 0's write re-pins page 1, changes it and
  // unpins it dirty: after page 1's image was logged, before its write.
  dirty_both(0x22);
  disk->OnNextWrite(0, [&] {
    auto page = buffer->GetPage(1);
    ASSERT_TRUE(page.ok());
    (*page)->bytes.fill(0x33);
    ASSERT_TRUE(buffer->Unpin(1, true).ok());
  });
  const uint64_t writebacks = buffer->stats().dirty_writebacks;
  ASSERT_TRUE(buffer->FlushAll().ok());
  EXPECT_EQ(buffer->stats().dirty_writebacks, writebacks + 1);  // page 0
  Page slot;
  ASSERT_TRUE(disk->Read(1, &slot).ok());
  EXPECT_EQ(slot.bytes[0], 0x11);  // the first flush's image, untouched
  ExpectSlotIsLoggedImage(LoggedImages(), 1, disk->SlotLsn(1), slot);

  // Page 1 stayed dirty: the next flush writes its latest bytes.
  ASSERT_TRUE(buffer->FlushAll().ok());
  EXPECT_EQ(buffer->stats().dirty_writebacks, writebacks + 2);
  ASSERT_TRUE(disk->Read(1, &slot).ok());
  EXPECT_EQ(slot.bytes[0], 0x33);
  ExpectSlotIsLoggedImage(LoggedImages(), 1, disk->SlotLsn(1), slot);
  buffer->SetWal(nullptr);
}

TEST_F(WalTest, ConcurrentFlushAndCheckpointWriteOnlyLoggedImages) {
  // 16 pages over 8 frames in 4 shards: three writers evict one
  // another's pages all the time, one thread loops FlushAll and one
  // loops CheckpointWal. The segment is large enough that no checkpoint
  // truncates, so every image a slot names stays readable.
  constexpr PageId kPages = 16;
  constexpr PageId kWriters = 3;
  constexpr int kUpdatesPerWriter = 150;
  constexpr size_t kTail = kPageSize - sizeof(uint64_t);
  WalOptions options;
  // At most 466 page images (16 fresh pages, 450 updates) plus small
  // checkpoint frames: about 2 MiB. The first force fills the segment
  // with zeros, so it is no larger than it needs to be.
  options.segment_bytes = size_t{4} << 20;
  options.fsync = WalFsyncPolicy::kCommit;
  auto rig = DurableRig::Make(PagePath(), WalDir(), 8, options, /*shards=*/4);
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  BufferManager* buffer = rig->buffer.get();
  // A page carries its counter at both ends: an image logged while its
  // writer was mid-update would show two values.
  auto set_counter = [](Page* page, uint64_t v) {
    std::memcpy(page->bytes.data(), &v, sizeof v);
    std::memcpy(page->bytes.data() + kTail, &v, sizeof v);
  };
  auto ends = [](const uint8_t* bytes) {
    uint64_t head = 0, tail = 0;
    std::memcpy(&head, bytes, sizeof head);
    std::memcpy(&tail, bytes + kTail, sizeof tail);
    return std::pair(head, tail);
  };
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_EQ(rig->disk->Allocate(), id);
    auto page = buffer->GetFreshPage(id);
    ASSERT_TRUE(page.ok());
    set_counter(*page, 0);
    ASSERT_TRUE(buffer->Unpin(id, true).ok());
  }
  ASSERT_TRUE(buffer->FlushAll().ok());

  // Writer w owns the pages p ≡ w (mod kWriters): one pin holder a page.
  std::vector<uint64_t> last(kPages, 0);
  std::atomic<PageId> writers_left{kWriters};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (PageId w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::vector<PageId> mine;
      for (PageId id = w; id < kPages; id += kWriters) mine.push_back(id);
      std::mt19937 rng(w + 1);
      for (int i = 0; i < kUpdatesPerWriter; ++i) {
        const PageId id = mine[rng() % mine.size()];
        auto page = buffer->GetPage(id);
        // The other writers may hold both frames of this page's shard.
        while (page.status().code() == StatusCode::kResourceExhausted) {
          std::this_thread::yield();
          page = buffer->GetPage(id);
        }
        if (!page.ok()) {
          failed = true;
          break;
        }
        set_counter(*page, ++last[id]);
        if (!buffer->Unpin(id, true).ok()) failed = true;
      }
      --writers_left;
    });
  }
  threads.emplace_back([&] {
    while (writers_left > 0) {
      if (!buffer->FlushAll().ok()) failed = true;
    }
  });
  threads.emplace_back([&] {
    while (writers_left > 0) {
      if (!buffer->CheckpointWal().ok()) failed = true;
    }
  });
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed);

  // Every logged image is whole, and every slot is exactly the image its
  // LSN names.
  const std::map<Lsn, WalRecord> images = LoggedImages();
  for (const auto& [lsn, rec] : images) {
    const auto [head, tail] = ends(rec.image.data());
    EXPECT_EQ(head, tail) << "torn image of page " << rec.page << " at LSN "
                          << lsn;
  }
  for (PageId id = 0; id < kPages; ++id) {
    Page slot;
    ASSERT_TRUE(rig->disk->Read(id, &slot).ok());
    ExpectSlotIsLoggedImage(images, id, rig->disk->PageLsn(id), slot);
  }

  // A final flush, then the store is dropped without a checkpoint:
  // recovery brings every page back at its last value.
  ASSERT_TRUE(buffer->FlushAll().ok());
  EXPECT_EQ(rig->wal->stats().segments_created, 1u);  // never rotated
  rig->buffer->SetWal(nullptr);
  rig->buffer.reset();
  rig->wal.reset();
  rig->disk.reset();
  auto disk = FileDiskComponent::Open(PagePath());
  ASSERT_TRUE(disk.ok());
  auto report = Recover(disk->get(), WalDir(), nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (PageId id = 0; id < kPages; ++id) {
    Page page;
    ASSERT_TRUE((*disk)->Read(id, &page).ok()) << "page " << id;
    EXPECT_EQ(ends(page.bytes.data()), std::pair(last[id], last[id]))
        << "page " << id;
  }
}

// ---------------------------------------------------------------------
// Eviction groups: a dirty victim takes its shard's dirty frames with it
// under one log force.
// ---------------------------------------------------------------------

TEST_F(WalTest, EvictionGroupsForceOncePerShardNotOncePerPage) {
  // 6,400 orders fill 60 pages. A dirty eviction writes back every dirty
  // unpinned frame of its shard: 8 frames in 1 shard force once per 8
  // pages, 16 frames in 4 shards once per 4 pages of a shard.
  const data::Relation orders = data::gen::Orders(6400, 100, 0.5, 1);
  struct Case {
    size_t frames, shards;
    uint64_t forces, appends;
  };
  for (const Case& c : {Case{8, 1, 7, 56}, Case{16, 4, 12, 48}}) {
    SCOPED_TRACE(std::to_string(c.frames) + " frames, " +
                 std::to_string(c.shards) + " shards");
    std::filesystem::remove(PagePath());
    std::filesystem::remove_all(WalDir());
    WalOptions options;
    options.fsync = WalFsyncPolicy::kCommit;
    auto rig = DurableRig::Make(PagePath(), WalDir(), c.frames, options,
                                c.shards);
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    const WalStats before = rig->wal->stats();
    auto paged = PagedRelation::Load(orders, rig->buffer.get(),
                                     rig->disk.get());
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_EQ(rig->disk->page_count(), 60u);
    const WalStats loaded = rig->wal->stats();
    EXPECT_EQ(loaded.fsyncs - before.fsyncs, c.forces);
    EXPECT_EQ(loaded.appends - before.appends, c.appends);

    // Every page is logged exactly once: the groups took no page twice,
    // and the flush logs only what they left dirty.
    ASSERT_TRUE(rig->buffer->FlushAll().ok());
    EXPECT_EQ(rig->wal->stats().appends - before.appends, 60u);
    EXPECT_EQ(LoggedImages().size(), 60u);
    rig->buffer->SetWal(nullptr);
  }
}

/// Four dirty pages filling a four-frame, one-shard pool over a HookDisk
/// and a kCommit WAL: the next miss evicts page 0 (least recently used)
/// and writes back all four as one group.
struct EvictionGroupRig {
  std::unique_ptr<Wal> wal;
  std::shared_ptr<HookDisk> disk = std::make_shared<HookDisk>();
  std::shared_ptr<BufferManager> buffer =
      std::make_shared<BufferManager>("buf", 4);

  static Result<EvictionGroupRig> Make(WalOptions options) {
    EvictionGroupRig rig;
    options.fsync = WalFsyncPolicy::kCommit;
    DBM_ASSIGN_OR_RETURN(rig.wal, Wal::Open(options));
    rig.buffer->FindPort("disk")->SetTarget(rig.disk);
    rig.buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
    rig.buffer->SetWal(rig.wal.get());
    for (PageId id = 0; id < 5; ++id) rig.disk->Allocate();
    for (PageId id = 0; id < 4; ++id) {
      DBM_ASSIGN_OR_RETURN(Page * page, rig.buffer->GetPage(id));
      page->bytes.fill(uint8_t(0x40 + id));
      DBM_RETURN_NOT_OK(rig.buffer->Unpin(id, true));
    }
    return rig;
  }
};

TEST_F(WalTest, EvictionFailsWhenItsVictimCannotBeWritten) {
  auto rig = EvictionGroupRig::Make({.dir = WalDir()});
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  rig->disk->FailWritesOf(0);
  auto page = rig->buffer->GetPage(4);
  EXPECT_TRUE(page.status().IsIoError()) << page.status().ToString();
  EXPECT_EQ(rig->disk->writes(), 3u);  // the rest of the group landed
  EXPECT_EQ(rig->buffer->stats().evictions, 0u);

  // The victim is still resident (a hit) and still dirty: once its disk
  // recovers, a flush writes exactly it.
  const uint64_t hits = rig->buffer->stats().hits;
  ASSERT_TRUE(rig->buffer->GetPage(0).ok());
  EXPECT_EQ(rig->buffer->stats().hits, hits + 1);
  ASSERT_TRUE(rig->buffer->Unpin(0, false).ok());
  rig->disk->FailWritesOf(kInvalidPage);
  ASSERT_TRUE(rig->buffer->FlushAll().ok());
  EXPECT_EQ(rig->disk->writes(), 4u);
  Page slot;
  ASSERT_TRUE(rig->disk->Read(0, &slot).ok());
  EXPECT_EQ(slot.bytes[0], 0x40);
  ExpectSlotIsLoggedImage(LoggedImages(), 0, rig->disk->SlotLsn(0), slot);
}

TEST_F(WalTest, EvictionSucceedsWhenAnotherMembersWriteFails) {
  auto rig = EvictionGroupRig::Make({.dir = WalDir()});
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  rig->disk->FailWritesOf(2);
  auto page = rig->buffer->GetPage(4);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  ASSERT_TRUE(rig->buffer->Unpin(4, false).ok());
  EXPECT_EQ(rig->disk->writes(), 3u);  // pages 0, 1 and 3
  EXPECT_EQ(rig->buffer->stats().evictions, 1u);
  EXPECT_EQ(rig->wal->stats().fsyncs, 1u);  // one force for the group

  // Page 2 stayed dirty: the next flush writes it, and only it.
  rig->disk->FailWritesOf(kInvalidPage);
  ASSERT_TRUE(rig->buffer->FlushAll().ok());
  EXPECT_EQ(rig->disk->writes(), 4u);
  Page slot;
  ASSERT_TRUE(rig->disk->Read(2, &slot).ok());
  EXPECT_EQ(slot.bytes[0], 0x42);
  ExpectSlotIsLoggedImage(LoggedImages(), 2, rig->disk->SlotLsn(2), slot);
}

TEST_F(WalTest, EvictionGroupWhoseForceFailsWritesNoPage) {
  // Three images a segment, and the second segment's name a symlink to
  // /dev/null: the group's fourth image rotates onto the link, and the
  // force (fsync on /dev/null fails with EINVAL) kills the log.
  WalRecord rec;
  rec.lsn = 1;
  rec.image.assign(kPageSize, 0);
  std::string frame;
  EncodeWalFrame(rec, &frame);
  auto rig = EvictionGroupRig::Make(
      {.dir = WalDir(),
       .segment_bytes = fault::kSegmentHeaderBytes + 3 * frame.size()});
  ASSERT_TRUE(rig.ok()) << rig.status().ToString();
  std::filesystem::create_symlink(
      "/dev/null",
      std::filesystem::path(WalDir()) / fault::SegmentFileName(kWalFormat, 2));

  auto page = rig->buffer->GetPage(4);
  EXPECT_TRUE(page.status().IsIoError()) << page.status().ToString();
  EXPECT_TRUE(rig->wal->stats().dead);
  EXPECT_EQ(rig->disk->writes(), 0u);  // an unforced image reaches no page
  EXPECT_EQ(rig->buffer->stats().dirty_writebacks, 0u);
  EXPECT_EQ(rig->buffer->stats().evictions, 0u);
}

// ---------------------------------------------------------------------
// The headline property: crash mid-bulk-load → exactly-once durable
// prefix, under every chaos seed.
// ---------------------------------------------------------------------

class CrashRecoveryTest : public WalTest,
                          public ::testing::WithParamInterface<uint64_t> {
 protected:
  /// The pool the load runs through. Four frames in one shard make every
  /// eviction group the whole pool.
  virtual size_t frames() const { return 4; }
  virtual size_t shards() const { return 1; }

  /// Loads `rel` until the injected crash kills the run, then "restarts"
  /// (fresh disk handle, clean injector), recovers, and checks the
  /// recovered relation is an exact prefix of the original: no torn
  /// pages, no duplicated rows, no reordering.
  void RunCrashLoadRecoverCheck(const std::string& fault_spec);

  /// The crash check, then recovery AGAIN over the already-recovered
  /// state: every frame must be skipped by the LSN comparison.
  void RunDoubleRecoveryCheck() {
    RunCrashLoadRecoverCheck("storage.wal.append:crash@0.05");
    auto disk = FileDiskComponent::Open(PagePath());
    ASSERT_TRUE(disk.ok());
    auto report = Recover(disk->get(), WalDir(), nullptr);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->pages_replayed, 0u);
  }
};

/// The same checks over 16 frames in 4 shards: groups of four pages a
/// shard, so injected crashes land between the members of a group and
/// between groups of different shards.
class ShardedCrashRecoveryTest : public CrashRecoveryTest {
 protected:
  size_t frames() const override { return 16; }
  size_t shards() const override { return 4; }
};

void CrashRecoveryTest::RunCrashLoadRecoverCheck(
    const std::string& fault_spec) {
  const uint64_t seed = GetParam();
  data::Relation orders = data::gen::Orders(20000, 200, 0.5, 42);

  ASSERT_TRUE(fault::Injector::Default().Configure(fault_spec, seed).ok());
  size_t loaded_rows = 0;
  {
    auto rig =
        DurableRig::Make(PagePath(), WalDir(), frames(), {}, shards());
    ASSERT_TRUE(rig.ok()) << rig.status().ToString();
    auto paged = PagedRelation::Load(orders, rig->buffer.get(),
                                     rig->disk.get());
    if (paged.ok()) {
      // The seed never fired over this load — make the test loud rather
      // than silently passing a weaker property.
      FAIL() << "fault spec '" << fault_spec << "' @" << seed
             << " never fired over " << orders.size() << " rows";
    }
    loaded_rows = orders.size();
    rig->buffer->SetWal(nullptr);  // drop before the dead wal is freed
  }

  // "Restart": clean injector, fresh handles onto the same files.
  ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
  auto disk = FileDiskComponent::Open(PagePath());
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  fault::StateManager state;
  auto report = Recover(disk->get(), WalDir(), &state);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::shared_ptr<FileDiskComponent> fdisk = std::move(*disk);
  auto buffer = std::make_shared<BufferManager>("buf", 8);
  buffer->FindPort("disk")->SetTarget(fdisk);
  buffer->FindPort("policy")->SetTarget(std::make_shared<LruPolicy>());
  auto recovered = PagedRelation::Recover("orders", orders.schema(),
                                          buffer.get(), fdisk.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // Exactly-once durable prefix: every recovered row equals the original
  // at the same index (no duplicates, no holes, no reordering), and the
  // count never exceeds what was loaded.
  size_t i = 0;
  Status scan = (*recovered)->Scan([&](const data::Tuple& t) {
    if (i >= orders.size()) {
      ADD_FAILURE() << "recovered MORE rows than were ever loaded";
      return false;
    }
    EXPECT_TRUE(t == orders.rows()[i]) << "row " << i << " diverges";
    ++i;
    return true;
  });
  ASSERT_TRUE(scan.ok()) << scan.ToString();  // zero torn pages
  EXPECT_EQ(i, (*recovered)->rows());
  EXPECT_LE(i, loaded_rows);

  // The safe point recorded the recovery horizon.
  auto latest = state.Latest("wal.recovery");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->position, report->max_lsn);
}

TEST_P(CrashRecoveryTest, WalAppendCrashMidLoadRecoversExactPrefix) {
  RunCrashLoadRecoverCheck("storage.wal.append:crash@0.05");
}

TEST_P(CrashRecoveryTest, DiskWriteCrashMidLoadRecoversExactPrefix) {
  RunCrashLoadRecoverCheck("storage.disk.write:crash@0.05");
}

TEST_P(CrashRecoveryTest, DoubleRecoveryAfterCrashChangesNothing) {
  RunDoubleRecoveryCheck();
}

TEST_P(ShardedCrashRecoveryTest, WalAppendCrashMidLoadRecoversExactPrefix) {
  RunCrashLoadRecoverCheck("storage.wal.append:crash@0.05");
}

TEST_P(ShardedCrashRecoveryTest, DiskWriteCrashMidLoadRecoversExactPrefix) {
  RunCrashLoadRecoverCheck("storage.disk.write:crash@0.05");
}

TEST_P(ShardedCrashRecoveryTest, DoubleRecoveryAfterCrashChangesNothing) {
  RunDoubleRecoveryCheck();
}

INSTANTIATE_TEST_SUITE_P(ChaosSeeds, CrashRecoveryTest,
                         ::testing::Values(17u, 23u, 42u));
INSTANTIATE_TEST_SUITE_P(ChaosSeeds, ShardedCrashRecoveryTest,
                         ::testing::Values(17u, 23u, 42u));

}  // namespace
}  // namespace dbm::storage
