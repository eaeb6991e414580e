// Replacement-policy components for the buffer manager.
//
// Policies are components so the adaptivity manager can swap them at run
// time (e.g. from LRU to CLOCK under memory pressure) — a concrete
// instance of "the functionality required at a given time [is] swapped in
// on demand" (§1.2).

#ifndef DBM_STORAGE_REPLACEMENT_H_
#define DBM_STORAGE_REPLACEMENT_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "component/component.h"

namespace dbm::storage {

/// Frame-level replacement policy. Frames are indices into the buffer
/// pool; the buffer manager reports loads/accesses/evictions and asks for
/// victims among unpinned frames.
class ReplacementPolicy : public component::Component {
 public:
  ReplacementPolicy(std::string name, std::string kind)
      : Component(std::move(name), "replacement-policy") {
    AddProvided(std::move(kind));
  }

  virtual void OnLoad(size_t frame) = 0;
  virtual void OnAccess(size_t frame) = 0;
  virtual void OnEvict(size_t frame) = 0;
  /// Chooses an unpinned victim frame. `pinned[f]` marks unavailable
  /// frames. Fails with ResourceExhausted when everything is pinned.
  virtual Result<size_t> PickVictim(const std::vector<bool>& pinned) = 0;
};

/// Least-recently-used.
class LruPolicy : public ReplacementPolicy {
 public:
  explicit LruPolicy(std::string name = "lru")
      : ReplacementPolicy(std::move(name), "policy-lru") {}

  void OnLoad(size_t frame) override { Touch(frame); }
  void OnAccess(size_t frame) override { Touch(frame); }
  void OnEvict(size_t frame) override {
    auto it = where_.find(frame);
    if (it != where_.end()) {
      order_.erase(it->second);
      where_.erase(it);
    }
  }
  Result<size_t> PickVictim(const std::vector<bool>& pinned) override {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (!pinned[*it]) return *it;
    }
    return Status::ResourceExhausted("all buffer frames pinned");
  }

 private:
  // A resident frame's node moves to the back in place (splice keeps the
  // iterator valid), so the buffer's hit path never allocates.
  void Touch(size_t frame) {
    auto it = where_.find(frame);
    if (it != where_.end()) {
      order_.splice(order_.end(), order_, it->second);
      return;
    }
    order_.push_back(frame);
    where_[frame] = std::prev(order_.end());
  }
  std::list<size_t> order_;  // front = least recently used
  std::unordered_map<size_t, std::list<size_t>::iterator> where_;
};

/// CLOCK (second chance): near-LRU behaviour with O(1) access cost.
class ClockPolicy : public ReplacementPolicy {
 public:
  explicit ClockPolicy(std::string name = "clock")
      : ReplacementPolicy(std::move(name), "policy-clock") {}

  void OnLoad(size_t frame) override {
    Ensure(frame);
    referenced_[frame] = true;
  }
  void OnAccess(size_t frame) override {
    Ensure(frame);
    referenced_[frame] = true;
  }
  void OnEvict(size_t frame) override {
    Ensure(frame);
    referenced_[frame] = false;
  }
  Result<size_t> PickVictim(const std::vector<bool>& pinned) override {
    Ensure(pinned.size() == 0 ? 0 : pinned.size() - 1);
    size_t n = referenced_.size();
    if (n == 0) return Status::ResourceExhausted("empty buffer pool");
    for (size_t sweep = 0; sweep < 2 * n; ++sweep) {
      size_t f = hand_;
      hand_ = (hand_ + 1) % n;
      if (f < pinned.size() && pinned[f]) continue;
      if (referenced_[f]) {
        referenced_[f] = false;  // second chance
        continue;
      }
      return f;
    }
    return Status::ResourceExhausted("all buffer frames pinned");
  }

 private:
  void Ensure(size_t frame) {
    if (frame >= referenced_.size()) referenced_.resize(frame + 1, false);
  }
  std::vector<bool> referenced_;
  size_t hand_ = 0;
};

/// FIFO: the cheap baseline (no access tracking at all).
class FifoPolicy : public ReplacementPolicy {
 public:
  explicit FifoPolicy(std::string name = "fifo")
      : ReplacementPolicy(std::move(name), "policy-fifo") {}

  void OnLoad(size_t frame) override { queue_.push_back(frame); }
  void OnAccess(size_t) override {}
  void OnEvict(size_t frame) override {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (*it == frame) {
        queue_.erase(it);
        return;
      }
    }
  }
  Result<size_t> PickVictim(const std::vector<bool>& pinned) override {
    for (size_t f : queue_) {
      if (!pinned[f]) return f;
    }
    return Status::ResourceExhausted("all buffer frames pinned");
  }

 private:
  std::list<size_t> queue_;
};

}  // namespace dbm::storage

#endif  // DBM_STORAGE_REPLACEMENT_H_
