// The buffer manager: the getpage component.

#ifndef DBM_STORAGE_BUFFER_H_
#define DBM_STORAGE_BUFFER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "component/component.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "storage/replacement.h"
#include "storage/wal.h"

namespace dbm::storage {

struct BufferStats {
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;

  double HitRate() const {
    return gets == 0 ? 0.0
                     : static_cast<double>(hits) / static_cast<double>(gets);
  }
};

/// Fixed-size frame pool over a disk component with a pluggable
/// replacement policy. Pages are pinned while in use; eviction only
/// considers unpinned frames; dirty pages are written back on eviction
/// and on FlushAll.
///
/// Concurrency: the pool is split into `shards` latch domains. Page id p
/// lives in shard p % shards, which owns the frames f ≡ p (mod shards) —
/// so parallel scans over different pages mostly take different latches,
/// and a page's whole life cycle (map entry, frame, pin count, dirty
/// bit) happens under exactly one shard mutex. The replacement policy
/// keeps global (all-frame) state behind its own mutex, ordered strictly
/// after the shard mutex; victim searches mask out every frame outside
/// the calling shard, so the policy never reads another shard's pin
/// state. Hit-path recency updates use try_lock — under contention a
/// touch may be skipped (approximate LRU), never blocked on.
/// The default shards=1 is byte-for-byte the old single-threaded
/// behavior.
///
/// Durability (SetWal): with a WAL attached, every writeback obeys
/// WAL-before-writeback — the page image is appended to the log and the
/// durability barrier (Wal::Durable) passed *before* the disk write
/// begins, so the log always covers the page file and a torn slot can
/// always be repaired from a durable image. One barrier covers a whole
/// group of images (group commit): FlushAll logs every dirty frame, forces
/// the log once, then writes the pages. Eviction does the same for the
/// victim's shard: a dirty victim takes every dirty unpinned frame of its
/// shard with it under one force, so the next evictions there find clean
/// victims. Each frame carries two LSNs: rec_lsn (first dirtying since the last
/// writeback — the recovery horizon) and logged_lsn (the image a
/// writeback in flight logged, cleared the moment the frame changes, so
/// a page is only ever written under the LSN of identical logged bytes).
/// The WAL's mutex is ordered strictly after the shard latch, like
/// policy_mu_.
class BufferManager : public component::Component {
 public:
  BufferManager(std::string name, size_t frames, size_t shards = 1);

  /// Pins and returns the page. The pointer stays valid until Unpin.
  Result<Page*> GetPage(PageId id);

  /// GetPage for a page id the caller JUST obtained from
  /// DiskComponent::Allocate: on a miss the frame is zero-filled
  /// instead of read from disk — a freshly allocated page has no bytes
  /// worth fetching. The caller must initialise the page and Unpin it
  /// dirty, or its frame may be evicted and later reads will see an
  /// unwritten slot. Behaves exactly like GetPage when the page is
  /// already resident.
  Result<Page*> GetFreshPage(PageId id);

  /// Releases a pin; `dirty` marks the frame for writeback.
  Status Unpin(PageId id, bool dirty);

  /// Writes back every dirty unpinned frame. Pinned frames are skipped
  /// (as eviction skips them): the pin holder may be mutating the page
  /// without the shard latch, and a writeback would snapshot a torn
  /// image under a valid CRC. Attempts ALL eligible frames even when one
  /// fails, then returns the first error — one bad sector must not leave
  /// every later frame dirty. With a WAL attached, frames flush in
  /// ascending page-id order so the page file after a mid-flush crash is
  /// a clean prefix, not an arbitrary subset, and the flush group-commits:
  /// every image is logged, the log forced once (one fsync at kCommit)
  /// under no shard latch, and only then are the pages written. A frame
  /// evicted, re-pinned or re-dirtied between its logging and its write
  /// is not written; it stays dirty for the next flush. A failed force
  /// writes no page.
  Status FlushAll();

  /// Attaches (or detaches, with nullptr) the write-ahead log. Attach
  /// before the first page is dirtied; the buffer does not own the log.
  void SetWal(Wal* wal) { wal_ = wal; }
  Wal* wal() const { return wal_; }

  /// Appends a fuzzy checkpoint: the redo LSN (min rec_lsn across dirty
  /// frames) is logged and fsynced, the page file is synced
  /// (data-before-log-truncation: past writebacks must be durable before
  /// the segments holding their images are unlinked), then segments
  /// wholly below the redo LSN are truncated. No page flush is forced —
  /// that is what makes it fuzzy; clean pages' images are already in the
  /// page file.
  Status CheckpointWal();

  /// Aggregated over shards (by value: the per-shard rows are live).
  BufferStats stats() const;
  size_t frame_count() const { return frames_; }
  size_t shard_count() const { return shards_.size(); }
  int PinCount(PageId id) const;

  /// Invariant check used by property tests: every resident entry maps
  /// back to its frame, pin counts are consistent. Takes every shard
  /// latch — call at quiescent points.
  Status CheckInvariants() const;

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<PageId, size_t> where;
    std::unordered_map<PageId, int> pin_count;
    BufferStats stats;
  };

  Shard& ShardOf(PageId id) { return *shards_[id % shards_.size()]; }
  const Shard& ShardOf(PageId id) const {
    return *shards_[id % shards_.size()];
  }

  /// Finds a free in-shard frame or evicts an unpinned one, writing back
  /// the shard's dirty frames as one group when the victim is dirty.
  /// Fails only when the victim itself could not be written. Caller holds
  /// the shard mutex.
  Result<size_t> FindFreeOrEvict(size_t shard_index, Shard& shard);

  /// Shared body of GetPage/GetFreshPage; `fresh` zero-fills on a miss
  /// instead of reading from disk.
  Result<Page*> GetPageInternal(PageId id, bool fresh);

  /// One frame of a writeback group: the page it held when picked, and
  /// the LSN its image was logged under (0 until logged).
  struct Writeback {
    PageId id = kInvalidPage;
    size_t frame = 0;
    Lsn lsn = 0;
  };

  /// Appends the resident, dirty, unpinned frames of shard
  /// `shard_index` to *out. Caller holds that shard's latch.
  void CollectDirty(size_t shard_index, std::vector<Writeback>* out) const;

  /// The one WAL-before-writeback routine, for FlushAll's dirty set and
  /// an eviction's shard, in `group` order: log each frame still
  /// resident, dirty and unpinned (stamping logged_lsn), force the log
  /// once, then write each frame whose stamp survived. `latched` is the
  /// shard whose latch the caller holds (eviction, which forces under
  /// it: the victim is reused the moment this returns); null takes each
  /// frame's latch per step and holds none across the force. Without a
  /// WAL only the write step runs. Attempts every frame and returns the
  /// first error; a frame whose write failed stays dirty.
  Status WriteBackGroup(DiskComponent* disk, std::span<Writeback> group,
                        Shard* latched);

  size_t frames_;
  std::vector<Page> pool_;
  // Frame state. char, not bool: vector<bool> bit-packs neighbours into
  // one byte, which would couple adjacent shards' writes.
  std::vector<char> pinned_;   // derived: pin_count > 0
  std::vector<char> dirty_;
  std::vector<PageId> resident_;
  std::vector<Lsn> rec_lsn_;     // first dirtying since last writeback
  std::vector<Lsn> logged_lsn_;  // image logged by a writeback in flight
  Wal* wal_ = nullptr;         // not owned; may be null (volatile mode)
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Guards the (global-state) replacement policy; acquired after a
  /// shard mutex, never before.
  std::mutex policy_mu_;

  /// Instance totals for the hit-rate gauge (relaxed; the per-shard
  /// stats rows are the precise record).
  std::atomic<uint64_t> gets_total_{0};
  std::atomic<uint64_t> hits_total_{0};

  // Registry mirrors of stats (all BufferManager instances aggregate).
  obs::Counter* obs_gets_;
  obs::Counter* obs_hits_;
  obs::Counter* obs_misses_;
  obs::Counter* obs_evictions_;
  obs::Counter* obs_writebacks_;
  obs::Gauge* obs_hit_rate_;
};

}  // namespace dbm::storage

#endif  // DBM_STORAGE_BUFFER_H_
