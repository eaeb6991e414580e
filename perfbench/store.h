// The durable data plane a workload runs over: a FileDiskComponent page
// file, a storage::Wal at WalFsyncPolicy::kCommit (every writeback is a
// WAL append plus fsync before the page write), and a sharded
// BufferManager with LRU replacement.

#ifndef PERFBENCH_STORE_H_
#define PERFBENCH_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "data/relation.h"
#include "storage/buffer.h"
#include "storage/durable_disk.h"
#include "storage/paged_relation.h"
#include "storage/wal.h"

namespace perfbench {

inline constexpr dbm::storage::WalFsyncPolicy kFsyncPolicy =
    dbm::storage::WalFsyncPolicy::kCommit;

class Store {
 public:
  struct Options {
    std::string dir;  // holds the page file and the WAL directory
    size_t frames = 1024;
  };

  /// Creates `dir` afresh (anything already there is removed).
  static dbm::Result<std::unique_ptr<Store>> Open(Options options);

  /// Bulk-loads `rel` into a new paged relation owned by the store.
  dbm::Result<dbm::storage::PagedRelation*> Load(const dbm::data::Relation& rel);

  /// FlushAll then a WAL checkpoint: the state a clean load ends in.
  dbm::Status FlushAndCheckpoint();

  /// The crash drill: drops the buffer pool and every relation without a
  /// flush, closes the log and the page file, reopens the page file, runs
  /// storage::Recover over the WAL and re-attaches relation `name`
  /// (PagedRelation::Recover) over a fresh pool.
  dbm::Result<dbm::storage::PagedRelation*> CrashAndRecover(
      const std::string& name, const dbm::data::Schema& schema);

  /// Page-file bytes plus live WAL segment bytes.
  uint64_t BytesOnDisk() const;

  dbm::storage::BufferManager* buffer() { return buffer_.get(); }

 private:
  explicit Store(Options options) : options_(std::move(options)) {}
  std::string PagePath() const { return options_.dir + "/pages.dbm"; }
  std::string WalDir() const { return options_.dir + "/wal"; }
  void NewBuffer();

  Options options_;
  // Destroyed in reverse: relations, then the pool, the log, the disk.
  std::shared_ptr<dbm::storage::FileDiskComponent> disk_;
  std::unique_ptr<dbm::storage::Wal> wal_;
  std::shared_ptr<dbm::storage::BufferManager> buffer_;
  std::vector<std::unique_ptr<dbm::storage::PagedRelation>> relations_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STORE_H_
