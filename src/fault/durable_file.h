// One durable file: the only path by which a page file
// (storage/durable_disk.h) or a log segment (fault/segment_log.h) changes
// on disk. Every open, positional write, zero fill, fsync and truncate of
// either goes through here, and so does every read of a page file (a
// log's scan reads its segments whole), so the contract both rest on — a
// page may be written once a log force covers its image — has one
// implementation:
//
//  * The header. Open writes the owner's header into an empty file. It
//    writes it again into a file shorter than the header or whose header
//    bytes are all zero: a header no fsync covered, lost in a crash while
//    later bytes persisted. Any other header is DataLoss.
//  * The crash act-out. Each Write consults the owner's fault point. A
//    crash verdict writes half the bytes, kills the file and records one
//    injected fault — byte-for-byte a kill -9 mid-write; an error verdict
//    writes nothing and leaves the file alive, so the caller may retry.
//    A short write kills the file.
//  * fsyncgate. A failed fsync may have dropped the dirty pages, and
//    retrying cannot bring them back, so it kills the file: no caller may
//    act on bytes the file never made durable.
//
// A dead file refuses every later write and fsync with Unavailable. The
// owner serialises writes, fills and fsyncs (a fault point's verdicts are
// not thread-safe); Read and dead() may run on any thread, concurrently
// with a write at other offsets.

#ifndef DBM_FAULT_DURABLE_FILE_H_
#define DBM_FAULT_DURABLE_FILE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/sim_clock.h"

namespace dbm::fault {

class Point;

class DurableFile {
 public:
  /// Opens the file at `path`, creating it if absent — emptied first when
  /// `truncate` — under the header rule above. Issues no fsync; with
  /// `truncate` it reads nothing. `point` is the fault point every Write
  /// consults.
  static Result<std::unique_ptr<DurableFile>> Open(const std::string& path,
                                                   std::string_view header,
                                                   Point* point,
                                                   bool truncate = false);
  /// Truncates the file at `path` to `size` bytes and fsyncs it: the
  /// repair of a torn tail, which a lost truncate would bring back.
  static Status Truncate(const std::string& path, uint64_t size);

  ~DurableFile();  // closes the file; fsyncs nothing
  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  /// Writes `bytes` at `offset` under the crash act-out. Unavailable once
  /// dead, after a crash verdict or a short write; IoError for an error
  /// verdict. `at_us` stamps the fault record of a crash.
  Status Write(uint64_t offset, std::string_view bytes, SimTime at_us = 0);
  /// Writes zeros over [from, to), consulting no fault point. A short
  /// write kills the file.
  Status Zero(uint64_t from, uint64_t to);
  /// Reads exactly `n` bytes at `offset`; false on a short read.
  bool Read(uint64_t offset, void* out, size_t n) const;
  /// fsyncs the file, then each of `dirs`, in order: the directories
  /// whose entries its durability needs. Any failure kills the file.
  Status Fsync(std::span<const std::string> dirs = {});

  bool dead() const { return dead_.load(); }
  const std::string& path() const { return path_; }
  /// The file's size when Open returned, its header included.
  uint64_t opened_size() const { return opened_size_; }
  /// Open wrote the header: the file is new, or its header was lost.
  bool wrote_header() const { return wrote_header_; }

 private:
  DurableFile(std::string path, int fd, Point* point)
      : path_(std::move(path)), fd_(fd), point_(point) {}

  Status Kill(Status why);

  const std::string path_;
  const int fd_;
  Point* const point_;
  std::atomic<bool> dead_{false};
  uint64_t opened_size_ = 0;
  bool wrote_header_ = false;
};

}  // namespace dbm::fault

#endif  // DBM_FAULT_DURABLE_FILE_H_
