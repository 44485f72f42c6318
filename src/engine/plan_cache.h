// An LRU cache of compiled query plans (PreparedQuery). The engine keys
// each entry on a program's shape — and an instance's on its shape and
// constants — plus the plan options and the database snapshot it was
// compiled against (see Engine::Prepare for the exact key recipe). An
// entry may carry *alias* keys — raw, pre-parse program texts whose
// plan is the entry's own — so a repeated Prepare(text) hits without
// even tokenizing the input; that is what makes the hit path's
// prepare_ns collapse to a hash lookup.
//
// Thread safe: every operation takes the cache mutex. Values are
// shared_ptr<const PreparedQuery>, so an eviction never invalidates a
// plan that sessions still hold, and the cache drops its evicted plans
// only after releasing the mutex.

#ifndef MPQE_ENGINE_PLAN_CACHE_H_
#define MPQE_ENGINE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace mpqe {

class PreparedQuery;

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t size = 0;      // resident plans (aliases not counted)
  size_t capacity = 0;
  // Duration of the most recent Prepare call, hit or cold (filled by
  // Engine::plan_cache_stats, not by the cache itself — the cache has
  // no notion of compile time).
  uint64_t last_prepare_ns = 0;

  std::string ToString() const;
};

class PlanCache {
 public:
  /// `capacity` = max resident plans; at least 1.
  explicit PlanCache(size_t capacity);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `key` (an entry key or an alias) and
  /// marks it most-recently used, or nullptr. Counts a hit, or — unless
  /// `count_miss` is false — a miss. Callers probing a fast-path alias
  /// before the authoritative key pass count_miss=false so one logical
  /// lookup never counts two misses.
  std::shared_ptr<const PreparedQuery> Lookup(const std::string& key,
                                              bool count_miss = true);

  /// Inserts `plan` under `key`, evicting the least-recently used plan
  /// (and its aliases) while the cache is full. An entry already
  /// resident under `key` (a concurrent Prepare got there first) stays,
  /// and `plan` is not inserted. Returns how many plans were evicted by
  /// this insert (so the engine can surface the plan_cache/evictions
  /// counter without diffing stats snapshots).
  size_t Insert(const std::string& key,
                std::shared_ptr<const PreparedQuery> plan);

  /// Registers `alias` as another name for the entry under `key`, if
  /// that entry holds `plan`; otherwise (evicted, or holding another
  /// plan) a no-op. Aliases die with their entry.
  void AddAlias(const std::string& alias, const std::string& key,
                const PreparedQuery* plan);

  PlanCacheStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const PreparedQuery> plan;
    // Most-recently used at the front; the iterator points at this
    // entry's key inside lru_.
    std::list<std::string>::iterator lru_it;
    std::vector<std::string> aliases;
  };

  // Requires mutex_ held. Moves the victim's plan into `victims`, so
  // the caller frees it after releasing the mutex.
  void EvictOne(std::vector<std::shared_ptr<const PreparedQuery>>& victims);

  mutable std::mutex mutex_;
  size_t capacity_;
  std::list<std::string> lru_;  // entry keys, MRU first
  std::unordered_map<std::string, Entry> entries_;      // key -> entry
  std::unordered_map<std::string, std::string> aliases_;  // alias -> key
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace mpqe

#endif  // MPQE_ENGINE_PLAN_CACHE_H_
