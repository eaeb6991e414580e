// One recovery suite over both segment-log codecs: the WAL's page images
// and the black box's telemetry records. Everything the shared segment
// log owns — framing, the torn-tail rule, reopen repair, numeric segment
// order, fsyncgate, pre-zeroed segments and the crash act-out — is
// checked once here, for each codec, through that codec's own writer and
// reader, or through the shared writer in that codec's format where the
// check is about the writer alone (directory fsyncs, the zero fill). The
// crash contract of the one durable-file type under both logs and the
// page file runs here too, over all three files.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "fault/injector.h"
#include "fault/log.h"
#include "fault/segment_log.h"
#include "obs/blackbox/format.h"
#include "obs/blackbox/log.h"
#include "obs/blackbox/reader.h"
#include "storage/durable_disk.h"
#include "storage/wal.h"

namespace dbm {
namespace {

namespace fs = std::filesystem;

/// One codec's writer and reader behind the calls the suite makes.
/// Record `id` is the id-th record appended: a page image of page `id`
/// for the WAL, a decision stamped at_us = id for the black box.
class LogCodec {
 public:
  virtual ~LogCodec() = default;
  virtual const fault::SegmentFormat& format() const = 0;
  virtual const char* fault_point() const = 0;
  virtual std::string EncodeFrame(uint64_t id) const = 0;
  /// Decodes the frame at data[0..n) back to its record id.
  virtual bool DecodeFrame(const uint8_t* data, size_t n, uint64_t* id,
                           size_t* frame_bytes) const = 0;
  /// Opens the writer over `dir`, `segment_frames` frames to a segment.
  /// A nonzero `fsync_every_frames` selects the byte-interval fsync
  /// policy at that many frames; zero keeps the codec's default policy.
  virtual Status Open(const std::string& dir, size_t segment_frames,
                      size_t fsync_every_frames) = 0;
  /// Appends record `id` and hands it to the OS; fails once dead.
  virtual Status Append(uint64_t id) = 0;
  virtual Status Flush() = 0;
  virtual void Close() = 0;
  virtual uint64_t flushed() const = 0;
  virtual uint64_t durable() const = 0;
  virtual uint64_t fsyncs() const = 0;
  virtual bool dead() const = 0;
  virtual std::vector<std::string> SegmentPaths() const = 0;
  /// Reads `dir` back through the codec's own reader.
  virtual Status ReadBack(const std::string& dir, std::vector<uint64_t>* ids,
                          fault::SegmentScanReport* report) const = 0;

  size_t frame_bytes() const { return EncodeFrame(1).size(); }
  size_t SegmentBytes(size_t frames) const {
    return fault::kSegmentHeaderBytes + frames * frame_bytes();
  }
};

class WalCodec : public LogCodec {
 public:
  const fault::SegmentFormat& format() const override {
    return storage::kWalFormat;
  }
  const char* fault_point() const override { return "storage.wal.append"; }
  std::string EncodeFrame(uint64_t id) const override {
    storage::WalRecord rec;
    rec.lsn = id;
    rec.page = static_cast<storage::PageId>(id);
    rec.image.assign(storage::kPageSize, static_cast<uint8_t>(id));
    std::string out;
    storage::EncodeWalFrame(rec, &out);
    return out;
  }
  bool DecodeFrame(const uint8_t* data, size_t n, uint64_t* id,
                   size_t* frame_bytes) const override {
    storage::WalRecord rec;
    if (!storage::DecodeWalFrame(data, n, &rec, frame_bytes)) return false;
    *id = rec.page;
    return true;
  }
  Status Open(const std::string& dir, size_t segment_frames,
              size_t fsync_every_frames) override {
    storage::WalOptions options;
    options.dir = dir;
    options.segment_bytes = SegmentBytes(segment_frames);
    if (fsync_every_frames > 0) {
      options.fsync = storage::WalFsyncPolicy::kInterval;
      options.fsync_interval_bytes = fsync_every_frames * frame_bytes();
    }
    DBM_ASSIGN_OR_RETURN(wal_, storage::Wal::Open(options));
    return Status::OK();
  }
  Status Append(uint64_t id) override {
    storage::Page page;
    page.bytes.fill(static_cast<uint8_t>(id));
    return wal_->AppendPageImage(static_cast<storage::PageId>(id), page)
        .status();
  }
  Status Flush() override { return wal_->Flush(); }
  void Close() override { wal_.reset(); }
  uint64_t flushed() const override { return wal_->stats().flushed_lsn; }
  uint64_t durable() const override { return wal_->durable_lsn(); }
  uint64_t fsyncs() const override { return wal_->stats().fsyncs; }
  bool dead() const override { return wal_->stats().dead; }
  std::vector<std::string> SegmentPaths() const override {
    return wal_->SegmentPaths();
  }
  Status ReadBack(const std::string& dir, std::vector<uint64_t>* ids,
                  fault::SegmentScanReport* report) const override {
    storage::WalScanReport wal_report;
    DBM_RETURN_NOT_OK(storage::ScanWal(
        dir,
        [ids](const storage::WalRecord& rec, const std::string&) {
          ids->push_back(rec.page);
          return true;
        },
        &wal_report));
    *report = wal_report;
    return Status::OK();
  }

 private:
  std::unique_ptr<storage::Wal> wal_;
};

class TelemetryCodec : public LogCodec {
 public:
  const fault::SegmentFormat& format() const override {
    return obs::blackbox::kTelemetryFormat;
  }
  const char* fault_point() const override { return "obs.blackbox.write"; }
  std::string EncodeFrame(uint64_t id) const override {
    std::string out;
    obs::blackbox::EncodeFrame(Record(id), &out);
    return out;
  }
  bool DecodeFrame(const uint8_t* data, size_t n, uint64_t* id,
                   size_t* frame_bytes) const override {
    obs::blackbox::TelemetryRecord rec;
    if (!obs::blackbox::DecodeFrame(data, n, &rec, frame_bytes)) return false;
    *id = static_cast<uint64_t>(rec.at_us);
    return true;
  }
  Status Open(const std::string& dir, size_t segment_frames,
              size_t fsync_every_frames) override {
    obs::blackbox::TelemetryLogOptions options;
    options.dir = dir;
    options.segment_bytes = SegmentBytes(segment_frames);
    options.max_segments = 1 << 20;  // the suite reads whole histories back
    options.start_flusher = false;
    if (fsync_every_frames > 0) {
      options.fsync = obs::blackbox::FsyncPolicy::kInterval;
      options.fsync_interval_bytes = fsync_every_frames * frame_bytes();
    }
    DBM_ASSIGN_OR_RETURN(log_, obs::blackbox::TelemetryLog::Open(options));
    return Status::OK();
  }
  Status Append(uint64_t id) override {
    log_->Append(Record(id));
    log_->Poll();
    return dead() ? Status::Unavailable("the black box is dead")
                  : Status::OK();
  }
  Status Flush() override { return log_->Flush(); }
  void Close() override { log_.reset(); }
  uint64_t flushed() const override { return log_->stats().flushed; }
  uint64_t durable() const override { return log_->stats().durable; }
  uint64_t fsyncs() const override { return log_->stats().fsyncs; }
  bool dead() const override { return log_->stats().dead; }
  std::vector<std::string> SegmentPaths() const override {
    return log_->SegmentPaths();
  }
  Status ReadBack(const std::string& dir, std::vector<uint64_t>* ids,
                  fault::SegmentScanReport* report) const override {
    DBM_ASSIGN_OR_RETURN(obs::blackbox::TelemetryReader reader,
                         obs::blackbox::TelemetryReader::Open(dir));
    for (const obs::blackbox::TelemetryRecord& rec : reader.records()) {
      ids->push_back(static_cast<uint64_t>(rec.at_us));
    }
    *report = reader.report();
    return Status::OK();
  }

 private:
  static obs::blackbox::TelemetryRecord Record(uint64_t id) {
    obs::blackbox::TelemetryRecord rec;
    rec.kind = static_cast<uint8_t>(obs::blackbox::RecordKind::kDecision);
    rec.at_us = static_cast<int64_t>(id);
    rec.SetName("unit.test");
    return rec;
  }

  std::unique_ptr<obs::blackbox::TelemetryLog> log_;
};

enum class Codec { kWal, kTelemetry };

const char* CodecName(Codec codec) {
  return codec == Codec::kWal ? "Wal" : "Telemetry";
}

// Lets gtest (and the test names ctest derives from it) print the codec.
void PrintTo(Codec codec, std::ostream* os) { *os << CodecName(codec); }

std::vector<uint64_t> Ids(uint64_t first, uint64_t last) {
  std::vector<uint64_t> out;
  for (uint64_t id = first; id <= last; ++id) out.push_back(id);
  return out;
}

// Every test starts from a clean injector: the chaos CI arms both
// codecs' crash points process-wide, and only the crash tests want them
// live (they arm them themselves, per seed).
class LogFixture : public ::testing::Test {
 protected:
  virtual Codec codec_kind() const = 0;

  void SetUp() override {
    ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
    codec_ = codec_kind() == Codec::kWal
                 ? std::unique_ptr<LogCodec>(std::make_unique<WalCodec>())
                 : std::make_unique<TelemetryCodec>();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "_" +
                       info->name() + "_" + CodecName(codec_kind());
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = (fs::temp_directory_path() / ("segment_log_test_" + name)).string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    codec_.reset();  // close the log before its directory goes
    fault::Injector::Default().Reset();
    fs::remove_all(dir_);
  }

  /// Opens the log, appends records first..last, notes its live segments
  /// in segments_ and closes it.
  void Write(uint64_t first, uint64_t last, size_t segment_frames = 64) {
    ASSERT_TRUE(codec_->Open(dir_, segment_frames, 0).ok());
    for (uint64_t id = first; id <= last; ++id) {
      ASSERT_TRUE(codec_->Append(id).ok()) << "record " << id;
    }
    segments_ = codec_->SegmentPaths();
    codec_->Close();
  }

  std::vector<uint64_t> ReadBack(fault::SegmentScanReport* report) {
    std::vector<uint64_t> ids;
    Status read = codec_->ReadBack(dir_, &ids, report);
    EXPECT_TRUE(read.ok()) << read.ToString();
    return ids;
  }

  /// Decodes `frame` whole, returning false when the codec rejects it.
  bool Decode(const std::string& frame, uint64_t* id, size_t* frame_bytes) {
    return codec_->DecodeFrame(reinterpret_cast<const uint8_t*>(frame.data()),
                               frame.size(), id, frame_bytes);
  }

  static void FlipByte(const std::string& path, size_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    char b = 0;
    f.seekg(static_cast<std::streamoff>(offset));
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x10);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  static void WriteAt(const std::string& path, size_t offset,
                      const std::string& bytes) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Half of record `id`'s frame where a crash mid-append leaves it:
  /// right after the `trusted` frames of `path`, over whatever follows
  /// them (the zero fill, once the segment was fsynced).
  void TearAfter(const std::string& path, uint64_t trusted, uint64_t id) {
    WriteAt(path, codec_->SegmentBytes(trusted),
            codec_->EncodeFrame(id).substr(0, codec_->frame_bytes() / 2));
  }

  /// The shared writer itself, in this codec's format over `dir` (dir_
  /// when empty), rotating past `segment_bytes`, every seal fsynced.
  Result<std::unique_ptr<fault::SegmentLog>> OpenBareLog(
      size_t segment_bytes, fault::SegmentScanReport* report = nullptr,
      const std::string& dir = {}) {
    fault::SegmentScanReport discarded;
    fault::SegmentLogOptions options;
    options.dir = dir.empty() ? dir_ : dir;
    options.segment_bytes = segment_bytes;
    options.fsync_on_seal = true;
    return fault::SegmentLog::Open(
        codec_->format(), std::move(options),
        [](std::string_view, const std::string&, uint64_t*) {
          return fault::ScanStep::kNext;
        },
        report != nullptr ? report : &discarded);
  }

  /// Room for two and a half frames: a segment that seals holds two.
  size_t ZeroTailedSegmentBytes() const {
    return codec_->SegmentBytes(2) + codec_->frame_bytes() / 2;
  }

  /// Writes records 1..last through the shared writer over dir_ in
  /// segments of ZeroTailedSegmentBytes(), with an fsync at the end, and
  /// notes its segments in segments_. Each seal's fsync fills the spare
  /// half frame, and the last fsync fills the open segment, so every
  /// segment ends in zeros.
  void WriteZeroTailed(uint64_t last) {
    auto log = OpenBareLog(ZeroTailedSegmentBytes());
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    for (uint64_t id = 1; id <= last; ++id) {
      ASSERT_TRUE((*log)->Append(codec_->EncodeFrame(id), id).ok());
    }
    ASSERT_TRUE((*log)->Fsync().ok());
    segments_.clear();
    for (const fault::Segment& seg : (*log)->segments()) {
      segments_.push_back(seg.path);
    }
  }

  size_t FilesInDir() const {
    size_t n = 0;
    for (const auto& e [[maybe_unused]] : fs::directory_iterator(dir_)) ++n;
    return n;
  }

  std::unique_ptr<LogCodec> codec_;
  std::string dir_;
  std::vector<std::string> segments_;  // live segments at the last Write
};

class SegmentLogTest : public LogFixture,
                       public ::testing::WithParamInterface<Codec> {
 protected:
  Codec codec_kind() const override { return GetParam(); }
};

// ---------------------------------------------------------------------
// Frame fuzz
// ---------------------------------------------------------------------

TEST_P(SegmentLogTest, FrameFuzzEveryTruncationRejected) {
  const std::string frame = codec_->EncodeFrame(7);
  uint64_t id = 0;
  size_t frame_bytes = 0;
  ASSERT_TRUE(Decode(frame, &id, &frame_bytes));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(frame_bytes, frame.size());
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(Decode(frame.substr(0, n), &id, &frame_bytes))
        << "truncation to " << n << " bytes decoded";
  }
}

TEST_P(SegmentLogTest, FrameFuzzEveryBitFlipRejected) {
  std::string frame = codec_->EncodeFrame(7);
  uint64_t id = 0;
  size_t frame_bytes = 0;
  for (size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      const char mask = static_cast<char>(1 << bit);
      frame[i] = static_cast<char>(frame[i] ^ mask);
      // A flip in the length field may run the frame past the buffer; a
      // flip anywhere else fails the CRC. Either way: rejected.
      EXPECT_FALSE(Decode(frame, &id, &frame_bytes))
          << "flip at byte " << i << " bit " << bit << " decoded";
      frame[i] = static_cast<char>(frame[i] ^ mask);
    }
  }
}

TEST_P(SegmentLogTest, FrameFuzzTrailingGarbageLeftForNextFrame) {
  const std::string frame = codec_->EncodeFrame(7);
  uint64_t id = 0;
  size_t frame_bytes = 0;
  ASSERT_TRUE(Decode(frame + "garbage after the frame", &id, &frame_bytes));
  EXPECT_EQ(frame_bytes, frame.size());  // the garbage is the next (torn) frame
}

TEST_P(SegmentLogTest, FrameFuzzAbsurdLengthRejected) {
  const size_t max_payload = codec_->format().max_payload;
  uint64_t id = 0;
  size_t frame_bytes = 0;
  // Past the buffer, and past the format's bound inside a buffer big
  // enough to hold it: both are corruption, never a record.
  for (uint64_t len : {uint64_t{0xffffffff}, uint64_t{max_payload + 1}}) {
    std::string absurd = codec_->EncodeFrame(7);
    for (size_t i = 0; i < 4; ++i) {
      absurd[i] = static_cast<char>((len >> (8 * i)) & 0xff);
    }
    absurd.resize(fault::kFrameHeaderBytes + max_payload + 1);
    EXPECT_FALSE(Decode(absurd, &id, &frame_bytes)) << "length " << len;
  }
}

// ---------------------------------------------------------------------
// Torn tails and reopen repair
// ---------------------------------------------------------------------

TEST_P(SegmentLogTest, TornTailTruncatesAndReopenRepairs) {
  Write(1, 20);
  ASSERT_FALSE(segments_.empty());
  const std::string last = segments_.back();
  // Half a frame right after the last trusted one, as a crash mid-append
  // leaves it (over the zeros the close's fsync filled the segment with).
  TearAfter(last, 20, 21);

  fault::SegmentScanReport report;
  EXPECT_EQ(ReadBack(&report), Ids(1, 20));  // the prefix, exactly
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.truncated_segment, last);
  EXPECT_GT(report.torn_tail_bytes, 0u);

  // Reopen: the torn tail and the zeros after it are physically gone,
  // and new records follow the old trusted prefix in order.
  Write(21, 25);
  EXPECT_EQ(fs::file_size(last), codec_->SegmentBytes(20));
  EXPECT_EQ(ReadBack(&report), Ids(1, 25));
  EXPECT_FALSE(report.truncated);
}

TEST_P(SegmentLogTest, MidHistoryCorruptionStopsScanAndReopenRepairs) {
  Write(1, 9, /*segment_frames=*/3);
  ASSERT_EQ(segments_.size(), 3u);
  const std::vector<std::string> before = segments_;
  // Flip one byte inside the first segment's second frame: the later
  // frames of that segment AND every later segment are untrusted.
  FlipByte(before[0],
           fault::kSegmentHeaderBytes + codec_->frame_bytes() * 3 / 2);

  fault::SegmentScanReport report;
  EXPECT_EQ(ReadBack(&report), Ids(1, 1));
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.truncated_segment, before[0]);
  EXPECT_EQ(report.segments_scanned, 1u);
  EXPECT_GT(report.torn_tail_bytes, fs::file_size(before[2]));

  // Reopen cuts the first segment back to its trusted frame, unlinks the
  // later ones and appends after the survivor.
  Write(10, 11, 3);
  EXPECT_FALSE(fs::exists(before[2]));
  EXPECT_EQ(FilesInDir(), 2u);
  EXPECT_EQ(ReadBack(&report), (std::vector<uint64_t>{1, 10, 11}));
  EXPECT_FALSE(report.truncated);
}

TEST_P(SegmentLogTest, HeaderTearUnlinksEveryLaterSegmentOnReopen) {
  Write(1, 9, /*segment_frames=*/3);
  ASSERT_EQ(segments_.size(), 3u);
  // Smash the first segment's magic. The tear is at offset 0, so reopen
  // unlinks that segment outright — and must still unlink the later
  // ones, or a later scan would resurrect the discarded history.
  FlipByte(segments_.front(), 0);

  fault::SegmentScanReport report;
  EXPECT_TRUE(ReadBack(&report).empty());
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.truncated_offset, 0u);

  Write(10, 10, 3);
  EXPECT_EQ(FilesInDir(), 1u);
  EXPECT_EQ(ReadBack(&report), Ids(10, 10));
  EXPECT_FALSE(report.truncated);
}

TEST_P(SegmentLogTest, ReopenWithoutAppendsReusesTheEmptySegment) {
  Write(1, 3);
  // Each reopen that appends nothing leaves one header-only segment
  // behind; the next reopen takes it over instead of adding another.
  for (int i = 0; i < 3; ++i) Write(4, 3);
  EXPECT_EQ(FilesInDir(), 2u);
  Write(4, 5);
  EXPECT_EQ(FilesInDir(), 2u);
  fault::SegmentScanReport report;
  EXPECT_EQ(ReadBack(&report), Ids(1, 5));
  EXPECT_FALSE(report.truncated);
}

TEST_P(SegmentLogTest, SegmentOrderIsNumericPastSixDigits) {
  // Hand-craft two adjacent segments around the six-digit rollover.
  // Lexicographic order would visit "x-1000000.seg" before
  // "x-999999.seg": the WAL would read the LSN drop as a torn tail, the
  // black box would replay the newer records first.
  fs::create_directories(dir_);
  for (uint64_t seq : {999999u, 1000000u}) {
    std::string bytes;
    fault::EncodeSegmentHeader(codec_->format(), &bytes);
    bytes += codec_->EncodeFrame(seq - 999998);
    std::ofstream f(fs::path(dir_) /
                        fault::SegmentFileName(codec_->format(), seq),
                    std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  fault::SegmentScanReport report;
  EXPECT_EQ(ReadBack(&report), Ids(1, 2));
  EXPECT_FALSE(report.truncated);

  // Reopen numbers the next segment after both instead of overwriting.
  Write(3, 3);
  EXPECT_EQ(ReadBack(&report), Ids(1, 3));
  EXPECT_FALSE(report.truncated);
}

// ---------------------------------------------------------------------
// Pre-zeroed segments
// ---------------------------------------------------------------------

TEST_P(SegmentLogTest, FirstFsyncFillsTheOpenSegmentWithZeros) {
  ASSERT_TRUE(codec_->Open(dir_, /*segment_frames=*/64, 0).ok());
  for (uint64_t id = 1; id <= 5; ++id) ASSERT_TRUE(codec_->Append(id).ok());
  const std::string open = codec_->SegmentPaths().back();
  // Not fsynced yet: the file holds the header and the frames, no more.
  EXPECT_EQ(fs::file_size(open), codec_->SegmentBytes(5));

  ASSERT_TRUE(codec_->Flush().ok());
  EXPECT_EQ(fs::file_size(open), codec_->SegmentBytes(64));
  // Later appends overwrite the zeros in place; later fsyncs keep the size.
  ASSERT_TRUE(codec_->Append(6).ok());
  EXPECT_EQ(fs::file_size(open), codec_->SegmentBytes(64));
  ASSERT_TRUE(codec_->Flush().ok());
  ASSERT_TRUE(codec_->Flush().ok());
  EXPECT_EQ(fs::file_size(open), codec_->SegmentBytes(64));

  fault::SegmentScanReport report;
  EXPECT_EQ(ReadBack(&report), Ids(1, 6));
  EXPECT_FALSE(report.truncated);
}

TEST_P(SegmentLogTest, OpenOnAnEmptyDirectoryWritesOnlyTheHeader) {
  auto log = OpenBareLog(codec_->SegmentBytes(64));
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(FilesInDir(), 1u);
  const std::string open = (*log)->segments().back().path;
  EXPECT_EQ(fs::file_size(open), fault::kSegmentHeaderBytes);
  EXPECT_EQ((*log)->fsyncs(), 0u);
  EXPECT_EQ((*log)->dir_fsyncs(), 0u);
  // An fsync that covers no frame fills nothing either.
  ASSERT_TRUE((*log)->Fsync().ok());
  EXPECT_EQ(fs::file_size(open), fault::kSegmentHeaderBytes);
}

TEST_P(SegmentLogTest, EmptyFramesAreRefusedAndZerosNeverParse) {
  // An empty frame is 8 zero bytes, the CRC-32 of nothing being 0: it
  // would read as the zero fill, so neither side accepts one.
  std::string empty;
  fault::EndFrame(&empty, fault::BeginFrame(&empty));
  EXPECT_EQ(empty, std::string(fault::kFrameHeaderBytes, '\0'));
  std::string_view payload;
  EXPECT_EQ(fault::ParseFrame(codec_->format(),
                              reinterpret_cast<const uint8_t*>(empty.data()),
                              empty.size(), &payload),
            0u);

  auto log = OpenBareLog(codec_->SegmentBytes(64));
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  const Status refused = (*log)->Append(empty, 1);
  EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
  EXPECT_FALSE((*log)->dead());
  EXPECT_EQ((*log)->bytes(), 0u);
  EXPECT_TRUE((*log)->Append(codec_->EncodeFrame(1), 1).ok());
}

TEST_P(SegmentLogTest, SegmentsEndingInZerosReadBackAndReopenCleanly) {
  const size_t segment_bytes = ZeroTailedSegmentBytes();
  WriteZeroTailed(7);
  ASSERT_EQ(segments_.size(), 4u);
  for (const std::string& path : segments_) {
    EXPECT_EQ(fs::file_size(path), segment_bytes) << path;
  }
  fault::SegmentScanReport report;
  EXPECT_EQ(ReadBack(&report), Ids(1, 7));
  EXPECT_FALSE(report.truncated);

  // A reopen repairs nothing and fsyncs nothing: the zero tails stay, and
  // new frames go to a new segment after them.
  {
    auto log = OpenBareLog(segment_bytes, &report);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_FALSE(report.truncated);
    EXPECT_EQ(report.frames, 7u);
    ASSERT_TRUE((*log)->Append(codec_->EncodeFrame(8), 8).ok());
    EXPECT_EQ((*log)->fsyncs(), 0u);
    EXPECT_EQ((*log)->dir_fsyncs(), 0u);
    EXPECT_EQ((*log)->segments().size(), 5u);
  }
  for (const std::string& path : segments_) {
    EXPECT_EQ(fs::file_size(path), segment_bytes) << path;
  }
  EXPECT_EQ(ReadBack(&report), Ids(1, 8));
  EXPECT_FALSE(report.truncated);
}

TEST_P(SegmentLogTest, NonzeroByteAfterTheZerosIsATear) {
  const size_t segment_bytes = ZeroTailedSegmentBytes();
  WriteZeroTailed(7);
  ASSERT_EQ(segments_.size(), 4u);
  // The first segment's last byte: a sector that persisted after one
  // that was lost, so nothing from its frame boundary on is trusted.
  WriteAt(segments_[0], segment_bytes - 1, "\x01");

  fault::SegmentScanReport report;
  EXPECT_EQ(ReadBack(&report), Ids(1, 2));
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.truncated_segment, segments_[0]);
  EXPECT_EQ(report.truncated_offset, codec_->SegmentBytes(2));

  // Reopen cuts the tear with its zeros and unlinks every later segment;
  // the second segment's name goes to the new one, which holds record 8.
  const std::vector<std::string> before = segments_;
  Write(8, 8);
  EXPECT_EQ(fs::file_size(before[0]), codec_->SegmentBytes(2));
  for (size_t i = 2; i < before.size(); ++i) {
    EXPECT_FALSE(fs::exists(before[i])) << before[i];
  }
  EXPECT_EQ(FilesInDir(), 2u);
  EXPECT_EQ(ReadBack(&report), (std::vector<uint64_t>{1, 2, 8}));
  EXPECT_FALSE(report.truncated);
}

TEST_P(SegmentLogTest, CrashAfterAnFsyncLeavesHalfAFrameOverZeros) {
  ASSERT_TRUE(codec_->Open(dir_, /*segment_frames=*/64, 0).ok());
  for (uint64_t id = 1; id <= 5; ++id) ASSERT_TRUE(codec_->Append(id).ok());
  ASSERT_TRUE(codec_->Flush().ok());
  const std::string open = codec_->SegmentPaths().back();
  // The next append crashes: half its frame lands over the zero fill, so
  // the file keeps its size and the scan must still see a tear.
  const std::string crash = std::string(codec_->fault_point()) + ":crash@1";
  ASSERT_TRUE(fault::Injector::Default().Configure(crash, 1).ok());
  EXPECT_FALSE(codec_->Append(6).ok());
  ASSERT_TRUE(codec_->dead());
  codec_->Close();
  ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
  EXPECT_EQ(fs::file_size(open), codec_->SegmentBytes(64));

  fault::SegmentScanReport report;
  EXPECT_EQ(ReadBack(&report), Ids(1, 5));
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.truncated_segment, open);
  EXPECT_EQ(report.truncated_offset, codec_->SegmentBytes(5));

  Write(6, 6);
  EXPECT_EQ(fs::file_size(open), codec_->SegmentBytes(5));
  EXPECT_EQ(ReadBack(&report), Ids(1, 6));
  EXPECT_FALSE(report.truncated);
}

// ---------------------------------------------------------------------
// fsyncgate
// ---------------------------------------------------------------------

TEST_P(SegmentLogTest, FailedFsyncKillsLogAndHoldsBarrier) {
  ASSERT_TRUE(codec_->Open(dir_, /*segment_frames=*/2, 0).ok());
  // The next segment name is a symlink to /dev/null: opening it through
  // the link succeeds and fsync on it fails (EINVAL) — a disk that
  // refuses durability on demand.
  fs::create_symlink("/dev/null",
                     fs::path(dir_) /
                         fault::SegmentFileName(codec_->format(), 2));
  for (uint64_t id = 1; id <= 3; ++id) ASSERT_TRUE(codec_->Append(id).ok());
  ASSERT_EQ(codec_->SegmentPaths().size(), 2u);  // rotated onto the link

  const uint64_t barrier = codec_->durable();
  Status flushed = codec_->Flush();
  EXPECT_TRUE(flushed.IsIoError()) << flushed.ToString();
  EXPECT_TRUE(codec_->dead());
  EXPECT_EQ(codec_->durable(), barrier);  // the barrier does not advance
  // Dead stays dead: no retried fsync, no further appends.
  EXPECT_FALSE(codec_->Flush().ok());
  EXPECT_FALSE(codec_->Append(4).ok());
}

// ---------------------------------------------------------------------
// The durable barrier across rotations
// ---------------------------------------------------------------------

TEST_P(SegmentLogTest, BarrierNeverPassesASegmentNoFsyncReached) {
  // An fsync reaches one segment, the open one, so a barrier reaching
  // into the n-th two-frame segment needs n fsyncs behind it. Checked
  // under the codec's own policy (the WAL never fsyncs unasked, the black
  // box fsyncs each segment it seals) and under a byte interval of three
  // frames, out of step with rotation.
  for (size_t fsync_every : {0, 3}) {
    SCOPED_TRACE("fsync every " + std::to_string(fsync_every) + " frames");
    fs::remove_all(dir_);
    ASSERT_TRUE(codec_->Open(dir_, /*segment_frames=*/2, fsync_every).ok());
    auto expect_barrier_backed = [&] {
      EXPECT_LE((codec_->durable() + 1) / 2, codec_->fsyncs())
          << "barrier " << codec_->durable() << " after "
          << codec_->fsyncs() << " fsyncs";
    };
    for (uint64_t id = 1; id <= 5; ++id) {
      ASSERT_TRUE(codec_->Append(id).ok());
      expect_barrier_backed();
    }
    ASSERT_EQ(codec_->SegmentPaths().size(), 3u);
    ASSERT_TRUE(codec_->Flush().ok());
    expect_barrier_backed();
    if (fsync_every == 0 && GetParam() == Codec::kWal) {
      // No fsync reached the two sealed segments: the barrier stays
      // before their first frame, and no fsync was added to reach them.
      EXPECT_EQ(codec_->fsyncs(), 1u);
      EXPECT_EQ(codec_->durable(), 0u);
    } else {
      // Each seal fsynced the segment it closed, so the flush covers all.
      EXPECT_EQ(codec_->fsyncs(), 3u);
      EXPECT_EQ(codec_->durable(), 5u);
    }
    codec_->Close();
  }
}

// ---------------------------------------------------------------------
// Directory fsyncs
// ---------------------------------------------------------------------

TEST_P(SegmentLogTest, DirectoryChangesReachTheDiskAtTheNextFsync) {
  auto log = OpenBareLog(codec_->SegmentBytes(2));
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  fault::SegmentLog& l = **log;
  auto append = [&](uint64_t id) {
    return l.Append(codec_->EncodeFrame(id), id);
  };
  // Open creates dir_ and the first segment but fsyncs nothing.
  EXPECT_EQ(l.dir_fsyncs(), 0u);
  EXPECT_EQ(l.fsyncs(), 0u);
  ASSERT_TRUE(append(1).ok());
  ASSERT_TRUE(l.Fsync().ok());
  EXPECT_EQ(l.dir_fsyncs(), 2u);  // the first segment's name, dir_'s own
  ASSERT_TRUE(l.Fsync().ok());
  EXPECT_EQ(l.dir_fsyncs(), 2u);  // nothing changed since

  // A rotation: the seal fsyncs the full segment, whose name is already
  // durable; the next fsync covers the new segment's name.
  ASSERT_TRUE(append(2).ok());
  ASSERT_TRUE(append(3).ok());
  ASSERT_EQ(l.segments().size(), 2u);
  EXPECT_EQ(l.fsyncs(), 3u);
  EXPECT_EQ(l.dir_fsyncs(), 2u);
  ASSERT_TRUE(l.Fsync().ok());
  EXPECT_EQ(l.dir_fsyncs(), 3u);
  EXPECT_EQ(l.durable_lsn(), 3u);

  // An unlink, likewise.
  EXPECT_EQ(l.UnlinkOldestWhile([](const fault::Segment&) { return true; }),
            1u);
  EXPECT_EQ(l.dir_fsyncs(), 3u);
  ASSERT_TRUE(l.Fsync().ok());
  EXPECT_EQ(l.dir_fsyncs(), 4u);
}

TEST_P(SegmentLogTest, SealOfAnUnsyncedLogFsyncsTheDirectory) {
  // No fsync before the first rotation: the seal's fsync is the first,
  // so it also makes the first segment's name durable, and the name of
  // dir_, which Open created.
  auto log = OpenBareLog(codec_->SegmentBytes(2));
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE((*log)->Append(codec_->EncodeFrame(id), id).ok());
  }
  EXPECT_EQ((*log)->fsyncs(), 1u);
  EXPECT_EQ((*log)->dir_fsyncs(), 2u);
}

TEST_P(SegmentLogTest, NewLogDirectoryAndEachMissingParentAreFsyncedOnce) {
  // Only dir_ exists: Open creates a, b and log, and each is an entry in
  // its parent that no fsync of the log directory makes durable.
  fs::create_directories(dir_);
  const std::string log_dir = dir_ + "/a/b/log";
  {
    auto log = OpenBareLog(codec_->SegmentBytes(64), nullptr, log_dir);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*log)->dir_fsyncs(), 0u);  // Open fsyncs nothing
    ASSERT_TRUE((*log)->Append(codec_->EncodeFrame(1), 1).ok());
    ASSERT_TRUE((*log)->Fsync().ok());
    EXPECT_EQ((*log)->dir_fsyncs(), 4u);  // log, b, a and dir_
    ASSERT_TRUE((*log)->Append(codec_->EncodeFrame(2), 2).ok());
    ASSERT_TRUE((*log)->Fsync().ok());
    EXPECT_EQ((*log)->dir_fsyncs(), 4u);
  }
  // A reopen creates no directory: its first fsync covers only the log
  // directory, for the segment it opened.
  auto log = OpenBareLog(codec_->SegmentBytes(64), nullptr, log_dir);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_TRUE((*log)->Fsync().ok());
  EXPECT_EQ((*log)->dir_fsyncs(), 1u);
}

TEST_P(SegmentLogTest, RepairFsyncsTheTruncatedSegment) {
  Write(1, 5);
  TearAfter(segments_.back(), 5, 6);
  {
    fault::SegmentScanReport report;
    auto log = OpenBareLog(codec_->SegmentBytes(64), &report);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_TRUE(report.truncated);
    EXPECT_EQ((*log)->fsyncs(), 1u);  // the cut segment, before any append
    EXPECT_EQ((*log)->dir_fsyncs(), 0u);
  }
  // A clean reopen repairs nothing and fsyncs nothing.
  fault::SegmentScanReport report;
  auto log = OpenBareLog(codec_->SegmentBytes(64), &report);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ((*log)->fsyncs(), 0u);
  EXPECT_EQ(ReadBack(&report), Ids(1, 5));
}

INSTANTIATE_TEST_SUITE_P(Codecs, SegmentLogTest,
                         ::testing::Values(Codec::kWal, Codec::kTelemetry));

// ---------------------------------------------------------------------
// One crash contract over every durable file
// ---------------------------------------------------------------------

/// One owner of a fault::DurableFile, driven through its public API.
/// Unit `id` is what its id-th write puts on disk: page id's slot (LSN
/// id, every body byte id) or the log's record id.
class DurableOwner {
 public:
  virtual ~DurableOwner() = default;
  virtual const char* fault_point() const = 0;
  virtual Status Open(const std::string& dir) = 0;
  virtual Status Write(uint64_t id) = 0;
  virtual Status Fsync() = 0;
  virtual bool dead() const = 0;
  /// The file unit writes land in.
  virtual std::string path() const = 0;
  virtual std::string Unit(uint64_t id) const = 0;
  virtual uint64_t Offset(uint64_t id) const = 0;
};

class PageFileOwner : public DurableOwner {
 public:
  const char* fault_point() const override { return "storage.disk.write"; }
  Status Open(const std::string& dir) override {
    fs::create_directories(dir);
    DBM_ASSIGN_OR_RETURN(disk_,
                         storage::FileDiskComponent::Open(dir + "/pages.dbm"));
    for (int i = 0; i < 8; ++i) disk_->Allocate();
    return Status::OK();
  }
  Status Write(uint64_t id) override {
    storage::Page page;
    page.bytes.fill(static_cast<uint8_t>(id));
    return disk_->Write(static_cast<storage::PageId>(id), page, id);
  }
  Status Fsync() override { return disk_->Sync(); }
  bool dead() const override { return disk_->dead(); }
  std::string path() const override { return disk_->path(); }
  /// [u32 crc][u32 page id][u64 lsn][body], the CRC over the rest.
  std::string Unit(uint64_t id) const override {
    std::string slot;
    fault::PutLe(&slot, uint32_t{0});
    fault::PutLe(&slot, static_cast<uint32_t>(id));
    fault::PutLe(&slot, id);
    slot.append(storage::kPageSize, static_cast<char>(id));
    fault::PutLeAt(&slot, 0,
                   Crc32(reinterpret_cast<const uint8_t*>(slot.data()) + 4,
                         slot.size() - 4));
    return slot;
  }
  uint64_t Offset(uint64_t id) const override {
    return storage::kPageFileHeaderBytes + id * storage::kPageSlotBytes;
  }

 private:
  std::unique_ptr<storage::FileDiskComponent> disk_;
};

/// A log through its codec, records 1, 2, ... in its first segment. The
/// black box drops a frame its write refused, so a record that did not
/// reach the log reads here as the IoError it met.
class LogOwner : public DurableOwner {
 public:
  explicit LogOwner(std::unique_ptr<LogCodec> codec)
      : codec_(std::move(codec)) {}
  const char* fault_point() const override { return codec_->fault_point(); }
  Status Open(const std::string& dir) override {
    return codec_->Open(dir, /*segment_frames=*/64, 0);
  }
  Status Write(uint64_t id) override {
    const uint64_t before = codec_->flushed();
    DBM_RETURN_NOT_OK(codec_->Append(id));
    return codec_->flushed() > before
               ? Status::OK()
               : Status::IoError("record " + std::to_string(id) +
                                 " was dropped");
  }
  Status Fsync() override { return codec_->Flush(); }
  bool dead() const override { return codec_->dead(); }
  std::string path() const override { return codec_->SegmentPaths().back(); }
  std::string Unit(uint64_t id) const override {
    return codec_->EncodeFrame(id);
  }
  uint64_t Offset(uint64_t id) const override {
    return codec_->SegmentBytes(id - 1);
  }

 private:
  std::unique_ptr<LogCodec> codec_;
};

enum class DurableKind { kPageFile, kWalSegment, kTelemetrySegment };

void PrintTo(DurableKind kind, std::ostream* os) {
  *os << (kind == DurableKind::kPageFile     ? "PageFile"
          : kind == DurableKind::kWalSegment ? "WalSegment"
                                             : "TelemetrySegment");
}

class DurableFileTest : public ::testing::TestWithParam<DurableKind> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
    fault::FaultLog::Default().Clear();
    switch (GetParam()) {
      case DurableKind::kPageFile:
        owner_ = std::make_unique<PageFileOwner>();
        break;
      case DurableKind::kWalSegment:
        owner_ = std::make_unique<LogOwner>(std::make_unique<WalCodec>());
        break;
      case DurableKind::kTelemetrySegment:
        owner_ = std::make_unique<LogOwner>(std::make_unique<TelemetryCodec>());
        break;
    }
    std::ostringstream kind;
    PrintTo(GetParam(), &kind);
    std::string name = std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()) +
                       "_" + kind.str();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = (fs::temp_directory_path() / ("durable_file_test_" + name)).string();
    fs::remove_all(dir_);
    ASSERT_TRUE(owner_->Open(dir_).ok());
  }
  void TearDown() override {
    owner_.reset();
    fault::Injector::Default().Reset();
    fs::remove_all(dir_);
  }

  void Arm(const char* kind) {
    ASSERT_TRUE(fault::Injector::Default()
                    .Configure(std::string(owner_->fault_point()) + ":" +
                                   kind + "@1",
                               1)
                    .ok());
  }

  static std::string Contents(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), {}};
  }

  size_t InjectedFaults() const {
    size_t n = 0;
    for (const fault::FaultEvent& ev : fault::FaultLog::Default().Snapshot()) {
      n += ev.kind == fault::FaultEventKind::kInjected &&
           std::string(ev.point) == owner_->fault_point();
    }
    return n;
  }

  std::unique_ptr<DurableOwner> owner_;
  std::string dir_;
};

TEST_P(DurableFileTest, CrashLeavesHalfTheUnitAndKillsTheFile) {
  ASSERT_TRUE(owner_->Write(1).ok());
  ASSERT_TRUE(owner_->Write(2).ok());
  const std::string path = owner_->path();
  Arm("crash");
  Status crashed = owner_->Write(3);
  EXPECT_TRUE(crashed.IsUnavailable()) << crashed.ToString();
  EXPECT_TRUE(owner_->dead());
  EXPECT_EQ(InjectedFaults(), 1u);

  // Exactly the first half of unit 3, at its offset, ends the file.
  const std::string unit = owner_->Unit(3);
  const std::string on_disk = Contents(path);
  ASSERT_EQ(on_disk.size(), owner_->Offset(3) + unit.size() / 2);
  EXPECT_EQ(on_disk.substr(owner_->Offset(3)), unit.substr(0, unit.size() / 2));
  EXPECT_EQ(on_disk.substr(owner_->Offset(2), unit.size()), owner_->Unit(2));

  // Dead stays dead, the fault point disarmed or not.
  ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
  Status write = owner_->Write(4);
  EXPECT_TRUE(write.IsUnavailable()) << write.ToString();
  Status fsync = owner_->Fsync();
  EXPECT_TRUE(fsync.IsUnavailable()) << fsync.ToString();
  EXPECT_EQ(Contents(path), on_disk);
  EXPECT_EQ(InjectedFaults(), 1u);
}

TEST_P(DurableFileTest, ErrorWritesNothingAndTheRetryLands) {
  ASSERT_TRUE(owner_->Write(1).ok());
  const std::string path = owner_->path();
  const std::string before = Contents(path);
  Arm("error");
  Status failed = owner_->Write(2);
  EXPECT_TRUE(failed.IsIoError()) << failed.ToString();
  EXPECT_FALSE(owner_->dead());
  EXPECT_EQ(Contents(path), before);
  EXPECT_EQ(InjectedFaults(), 0u);

  ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());
  ASSERT_TRUE(owner_->Write(2).ok());
  ASSERT_TRUE(owner_->Fsync().ok());
  const std::string unit = owner_->Unit(2);
  EXPECT_EQ(Contents(path).substr(owner_->Offset(2), unit.size()), unit);
}

INSTANTIATE_TEST_SUITE_P(AllFiles, DurableFileTest,
                         ::testing::Values(DurableKind::kPageFile,
                                           DurableKind::kWalSegment,
                                           DurableKind::kTelemetrySegment));

// ---------------------------------------------------------------------
// Crash mid-append under the chaos seeds
// ---------------------------------------------------------------------

class CrashFixture : public LogFixture,
                     public ::testing::WithParamInterface<uint64_t> {
 protected:
  /// Arms the codec's crash point at 1% under the seed, appends until
  /// the log dies, recovers, and requires exactly-once prefix semantics:
  /// recovered record i is append i+1, the count is exactly the flushed
  /// count and at least the fsync barrier, nothing torn or duplicated.
  void CrashMidAppendRecoversExactPrefix() {
    const uint64_t seed = GetParam();
    ASSERT_TRUE(fault::Injector::Default()
                    .Configure(std::string(codec_->fault_point()) +
                                   ":crash@0.01",
                               seed)
                    .ok());
    ASSERT_TRUE(codec_->Open(dir_, /*segment_frames=*/64,
                             /*fsync_every_frames=*/16)
                    .ok());
    uint64_t next = 1;
    while (next <= 20000 && codec_->Append(next).ok()) ++next;
    ASSERT_TRUE(codec_->dead())
        << "seed " << seed << ": the 1% crash point never fired in "
        << next - 1 << " appends";
    const uint64_t flushed = codec_->flushed();
    const uint64_t durable = codec_->durable();
    EXPECT_FALSE(codec_->Append(next + 1).ok());  // dead means dead
    EXPECT_FALSE(codec_->Flush().ok());
    codec_->Close();
    ASSERT_TRUE(fault::Injector::Default().Configure("", 0).ok());

    fault::SegmentScanReport report;
    const std::vector<uint64_t> ids = ReadBack(&report);
    EXPECT_TRUE(report.truncated);  // the torn half-frame
    EXPECT_GT(report.torn_tail_bytes, 0u);
    EXPECT_GE(ids.size(), durable);
    EXPECT_EQ(ids, Ids(1, flushed));

    // The injected crash is on the fault log's record, attributed to the
    // codec's point.
    bool seen = false;
    for (const fault::FaultEvent& ev : fault::FaultLog::Default().Snapshot()) {
      if (std::string(ev.point) == codec_->fault_point()) seen = true;
    }
    EXPECT_TRUE(seen);
  }
};

class WalCrashTest : public CrashFixture {
 protected:
  Codec codec_kind() const override { return Codec::kWal; }
};

class BlackboxCrashTest : public CrashFixture {
 protected:
  Codec codec_kind() const override { return Codec::kTelemetry; }
};

TEST_P(WalCrashTest, CrashMidAppendRecoversExactPrefix) {
  CrashMidAppendRecoversExactPrefix();
}

TEST_P(BlackboxCrashTest, CrashMidAppendRecoversExactPrefix) {
  CrashMidAppendRecoversExactPrefix();
}

INSTANTIATE_TEST_SUITE_P(ChaosSeeds, WalCrashTest,
                         ::testing::Values(17u, 23u, 42u));
INSTANTIATE_TEST_SUITE_P(ChaosSeeds, BlackboxCrashTest,
                         ::testing::Values(17u, 23u, 42u));

}  // namespace
}  // namespace dbm
