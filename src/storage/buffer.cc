#include "storage/buffer.h"

#include <algorithm>
#include <mutex>

#include "obs/waitstate.h"

namespace dbm::storage {

namespace {

/// Shard-latch guard that declares contended acquisition as latch-wait
/// (obs::WaitState::kLatch) so pool workers blocked here accrue to
/// proc.worker.latch_ns instead of busy time. The uncontended path is a
/// bare try_lock — no extra cost when the latch is free.
class LatchGuard {
 public:
  explicit LatchGuard(std::mutex& mu) : mu_(mu) {
    if (mu_.try_lock()) return;
    obs::WaitStateScope wait(obs::WaitState::kLatch);
    mu_.lock();
  }
  ~LatchGuard() { mu_.unlock(); }
  LatchGuard(const LatchGuard&) = delete;
  LatchGuard& operator=(const LatchGuard&) = delete;

 private:
  std::mutex& mu_;
};

/// Writeback order: ascending page id, so a crash part-way through a
/// group leaves the lowest pages written, not an arbitrary subset.
constexpr auto kByPage = [](const auto& a, const auto& b) {
  return a.id < b.id;
};

}  // namespace

BufferManager::BufferManager(std::string name, size_t frames, size_t shards)
    : Component(std::move(name), "getpage"),
      frames_(frames),
      pinned_(frames, 0),
      dirty_(frames, 0),
      resident_(frames, kInvalidPage),
      rec_lsn_(frames, 0),
      logged_lsn_(frames, 0) {
  DeclarePort("disk", "disk");
  DeclarePort("policy", "replacement-policy");
  pool_.resize(frames);
  size_t n = std::clamp<size_t>(shards, 1, frames == 0 ? 1 : frames);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  obs::Registry& reg = obs::Registry::Default();
  obs_gets_ = &reg.GetCounter("storage.buffer.gets");
  obs_hits_ = &reg.GetCounter("storage.buffer.hits");
  obs_misses_ = &reg.GetCounter("storage.buffer.misses");
  obs_evictions_ = &reg.GetCounter("storage.buffer.evictions");
  obs_writebacks_ = &reg.GetCounter("storage.buffer.dirty_writebacks");
  obs_hit_rate_ = &reg.GetGauge("storage.buffer.hit_rate");
}

Result<Page*> BufferManager::GetPage(PageId id) {
  return GetPageInternal(id, /*fresh=*/false);
}

Result<Page*> BufferManager::GetFreshPage(PageId id) {
  return GetPageInternal(id, /*fresh=*/true);
}

Result<Page*> BufferManager::GetPageInternal(PageId id, bool fresh) {
  DBM_ASSIGN_OR_RETURN(ReplacementPolicy * policy,
                       Require<ReplacementPolicy>("policy"));
  Shard& shard = ShardOf(id);
  LatchGuard lock(shard.mu);
  ++shard.stats.gets;
  obs_gets_->Add(1);
  uint64_t gets = gets_total_.fetch_add(1, std::memory_order_relaxed) + 1;

  auto it = shard.where.find(id);
  if (it != shard.where.end()) {
    ++shard.stats.hits;
    obs_hits_->Add(1);
    uint64_t hits = hits_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs_hit_rate_->Set(static_cast<double>(hits) /
                       static_cast<double>(gets));
    size_t frame = it->second;
    // Recency touch: skipped under contention rather than waited for —
    // the policy degrades to approximate LRU, the hit path stays short.
    if (policy_mu_.try_lock()) {
      policy->OnAccess(frame);
      policy_mu_.unlock();
    }
    ++shard.pin_count[id];
    pinned_[frame] = 1;
    return &pool_[frame];
  }

  ++shard.stats.misses;
  obs_misses_->Add(1);
  obs_hit_rate_->Set(
      static_cast<double>(hits_total_.load(std::memory_order_relaxed)) /
      static_cast<double>(gets));
  DBM_ASSIGN_OR_RETURN(size_t frame,
                       FindFreeOrEvict(id % shards_.size(), shard));
  if (fresh) {
    // Just-allocated page: there are no bytes on disk worth fetching
    // (and a sparse durable disk has no slot to read yet).
    pool_[frame].bytes.fill(0);
    pool_[frame].id = id;
  } else {
    DBM_ASSIGN_OR_RETURN(DiskComponent * disk,
                         Require<DiskComponent>("disk"));
    DBM_RETURN_NOT_OK(disk->Read(id, &pool_[frame]));
  }
  resident_[frame] = id;
  shard.where[id] = frame;
  dirty_[frame] = 0;
  rec_lsn_[frame] = 0;
  logged_lsn_[frame] = 0;
  shard.pin_count[id] = 1;
  pinned_[frame] = 1;
  {
    std::lock_guard<std::mutex> policy_lock(policy_mu_);
    policy->OnLoad(frame);
  }
  return &pool_[frame];
}

Status BufferManager::Unpin(PageId id, bool dirty) {
  Shard& shard = ShardOf(id);
  LatchGuard lock(shard.mu);
  auto it = shard.where.find(id);
  if (it == shard.where.end()) {
    return Status::NotFound("unpin of non-resident page " +
                            std::to_string(id));
  }
  auto pc = shard.pin_count.find(id);
  if (pc == shard.pin_count.end() || pc->second <= 0) {
    return Status::FailedPrecondition("unpin of unpinned page " +
                                      std::to_string(id));
  }
  size_t frame = it->second;
  if (dirty) {
    dirty_[frame] = 1;
    // The image a writeback in flight logged is no longer this frame's.
    logged_lsn_[frame] = 0;
    // The recovery horizon: the LSN a checkpoint's redo must reach back
    // to. Stamped at first dirtying, cleared by writeback.
    if (wal_ != nullptr && rec_lsn_[frame] == 0) {
      rec_lsn_[frame] = wal_->next_lsn();
    }
  }
  if (--pc->second == 0) pinned_[frame] = 0;
  return Status::OK();
}

Status BufferManager::FlushAll() {
  DBM_ASSIGN_OR_RETURN(DiskComponent * disk, Require<DiskComponent>("disk"));
  // Collect dirty frames first, then flush in ascending page-id order:
  // with a WAL attached the page file after a mid-flush crash is then a
  // clean prefix of the relation, never an arbitrary subset.
  std::vector<Writeback> dirty;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    CollectDirty(s, &dirty);
  }
  std::sort(dirty.begin(), dirty.end(), kByPage);
  return WriteBackGroup(disk, dirty, /*latched=*/nullptr);
}

void BufferManager::CollectDirty(size_t shard_index,
                                 std::vector<Writeback>* out) const {
  for (size_t f = shard_index; f < frames_; f += shards_.size()) {
    // Pinned frames are skipped: the pin holder mutates pool_[frame]
    // without the shard latch, so a writeback here could snapshot a
    // half-mutated image and stamp it with a valid CRC — recovery would
    // then trust a torn page.
    if (resident_[f] != kInvalidPage && dirty_[f] && !pinned_[f]) {
      out->push_back({.id = resident_[f], .frame = f});
    }
  }
}

Status BufferManager::WriteBackGroup(DiskComponent* disk,
                                     std::span<Writeback> group,
                                     Shard* latched) {
  // Runs `step` under the shard latch of `wb`'s page, unless the caller
  // already holds it.
  auto under_latch = [&](const Writeback& wb, auto&& step) {
    if (latched != nullptr) return step(*latched);
    Shard& shard = ShardOf(wb.id);
    std::lock_guard<std::mutex> lock(shard.mu);
    return step(shard);
  };
  // Still the page it was picked as, dirty, and free of pin holders.
  auto eligible = [this](const Writeback& wb) {
    return resident_[wb.frame] == wb.id && dirty_[wb.frame] &&
           !pinned_[wb.frame];
  };
  // Attempt every frame even after a failure and report the first error:
  // one bad write must not leave every later frame dirty.
  Status first_error = Status::OK();
  auto note = [&first_error](Status s) {
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  };
  if (wal_ != nullptr) {
    // WAL-before-writeback: log every image, pass the durability barrier
    // once for the whole group, only then touch the page file. A crash
    // between the two leaves torn slots whose durable images are already
    // in the log — recovery repairs them; the reverse order could not.
    Lsn last = 0;
    for (Writeback& wb : group) {
      note(under_latch(wb, [&](Shard&) -> Status {
        if (!eligible(wb)) return Status::OK();  // raced: evicted or pinned
        DBM_ASSIGN_OR_RETURN(wb.lsn,
                             wal_->AppendPageImage(wb.id, pool_[wb.frame]));
        logged_lsn_[wb.frame] = last = wb.lsn;
        return Status::OK();
      }));
    }
    if (last == 0) return first_error;
    if (Status forced = wal_->Durable(last); !forced.ok()) {
      note(std::move(forced));
      return first_error;  // an unforced image must not reach the page
    }
  }
  for (const Writeback& wb : group) {
    note(under_latch(wb, [&](Shard& shard) -> Status {
      // A frame evicted, re-pinned or re-dirtied since its image was
      // logged stays dirty for the next flush: its slot must never carry
      // an LSN whose logged image differs from the bytes written.
      if (!eligible(wb) ||
          (wal_ != nullptr &&
           (wb.lsn == 0 || logged_lsn_[wb.frame] != wb.lsn))) {
        return Status::OK();
      }
      DBM_RETURN_NOT_OK(disk->Write(wb.id, pool_[wb.frame], wb.lsn));
      dirty_[wb.frame] = 0;
      rec_lsn_[wb.frame] = 0;
      logged_lsn_[wb.frame] = 0;
      ++shard.stats.dirty_writebacks;
      obs_writebacks_->Add(1);
      return Status::OK();
    }));
  }
  return first_error;
}

Status BufferManager::CheckpointWal() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("CheckpointWal without a wal attached");
  }
  // Fuzzy: no flush is forced. Everything below the min rec_lsn over
  // dirty frames has already been written back, so the log below it is
  // dead weight once the checkpoint record itself is durable.
  Lsn redo = wal_->next_lsn();
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t f = s; f < frames_; f += shards_.size()) {
      if (resident_[f] != kInvalidPage && dirty_[f] && rec_lsn_[f] != 0) {
        redo = std::min(redo, rec_lsn_[f]);
      }
    }
  }
  DBM_ASSIGN_OR_RETURN(Lsn lsn, wal_->AppendCheckpoint(redo));
  (void)lsn;
  DBM_RETURN_NOT_OK(wal_->Flush());
  // Data-before-log-truncation, the same rule Recover() follows: the
  // writebacks below `redo` are plain pwrites whose bytes may still sit
  // in the OS page cache. Unlinking the segments that hold their only
  // durable images before fsyncing the page file would let a power loss
  // silently revert committed pages (to an older image with a valid
  // CRC, so not even detectable as DataLoss).
  DBM_ASSIGN_OR_RETURN(DiskComponent * disk, Require<DiskComponent>("disk"));
  DBM_RETURN_NOT_OK(disk->Sync());
  return wal_->TruncateBelow(redo);
}

Result<size_t> BufferManager::FindFreeOrEvict(size_t shard_index,
                                              Shard& shard) {
  const size_t step = shards_.size();
  for (size_t f = shard_index; f < frames_; f += step) {
    if (resident_[f] == kInvalidPage) return f;
  }
  DBM_ASSIGN_OR_RETURN(ReplacementPolicy * policy,
                       Require<ReplacementPolicy>("policy"));
  // The policy sees all frames; mask every frame outside this shard as
  // pinned so the victim is in-shard and no other shard's pin state is
  // read (it is only safe to read under that shard's latch).
  std::vector<bool> masked(frames_, true);
  for (size_t f = shard_index; f < frames_; f += step) {
    masked[f] = pinned_[f] != 0;
  }
  size_t victim = 0;
  {
    std::lock_guard<std::mutex> policy_lock(policy_mu_);
    DBM_ASSIGN_OR_RETURN(victim, policy->PickVictim(masked));
  }
  if (victim % step != shard_index || pinned_[victim]) {
    return Status::Internal("policy picked an out-of-shard or pinned victim");
  }
  PageId old = resident_[victim];
  if (dirty_[victim]) {
    // An eviction group: every dirty, unpinned frame of this shard, in
    // ascending page order, under one log force — later evictions here
    // then find clean victims. The shard latch covers exactly these
    // frames, so the group is logged, forced and written under it (the
    // victim is reused the moment this returns); policy_mu_ is not held
    // across the I/O — no other shard touches this shard's policy state.
    DBM_ASSIGN_OR_RETURN(DiskComponent * disk,
                         Require<DiskComponent>("disk"));
    std::vector<Writeback> group;
    CollectDirty(shard_index, &group);
    std::sort(group.begin(), group.end(), kByPage);
    Status written = WriteBackGroup(disk, group, &shard);
    // Only the victim's own failure fails the eviction: another member
    // whose write failed stays dirty for the next flush or eviction.
    if (dirty_[victim]) {
      return written.ok() ? Status::Internal("eviction left its victim dirty")
                          : written;
    }
  }
  {
    std::lock_guard<std::mutex> policy_lock(policy_mu_);
    policy->OnEvict(victim);
  }
  shard.where.erase(old);
  shard.pin_count.erase(old);
  resident_[victim] = kInvalidPage;
  dirty_[victim] = 0;
  ++shard.stats.evictions;
  obs_evictions_->Add(1);
  return victim;
}

BufferStats BufferManager::stats() const {
  BufferStats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total.gets += shard->stats.gets;
    total.hits += shard->stats.hits;
    total.misses += shard->stats.misses;
    total.evictions += shard->stats.evictions;
    total.dirty_writebacks += shard->stats.dirty_writebacks;
  }
  return total;
}

int BufferManager::PinCount(PageId id) const {
  const Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.pin_count.find(id);
  return it == shard.pin_count.end() ? 0 : it->second;
}

Status BufferManager::CheckInvariants() const {
  // Quiescent-point check: hold every shard latch (in index order) so
  // the whole pool is frozen while we look.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mu);
  }
  size_t resident = 0, mapped = 0;
  for (size_t f = 0; f < frames_; ++f) {
    PageId id = resident_[f];
    if (id == kInvalidPage) continue;
    ++resident;
    const Shard& shard = ShardOf(id);
    if (&shard != shards_[f % shards_.size()].get()) {
      return Status::Internal("page " + std::to_string(id) +
                              " resident in out-of-shard frame " +
                              std::to_string(f));
    }
    auto it = shard.where.find(id);
    if (it == shard.where.end() || it->second != f) {
      return Status::Internal("resident/where mismatch at frame " +
                              std::to_string(f));
    }
    auto pc = shard.pin_count.find(id);
    int pins = pc == shard.pin_count.end() ? 0 : pc->second;
    if (pins < 0) return Status::Internal("negative pin count");
    if ((pins > 0) != (pinned_[f] != 0)) {
      return Status::Internal("pinned bit inconsistent with pin count");
    }
  }
  for (const auto& shard : shards_) mapped += shard->where.size();
  if (resident != mapped) {
    return Status::Internal("where map size mismatch");
  }
  return Status::OK();
}

}  // namespace dbm::storage
