#include "engine/plan_cache.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"

namespace mpqe {

std::string PlanCacheStats::ToString() const {
  return StrCat("plan cache: size=", size, "/", capacity, " hits=", hits,
                " misses=", misses, " insertions=", insertions,
                " evictions=", evictions, " last_prepare_ns=",
                last_prepare_ns);
}

PlanCache::PlanCache(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {}

std::shared_ptr<const PreparedQuery> PlanCache::Lookup(
    const std::string& key, bool count_miss) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string* entry_key = &key;
  auto alias_it = aliases_.find(key);
  if (alias_it != aliases_.end()) entry_key = &alias_it->second;
  auto it = entries_.find(*entry_key);
  if (it == entries_.end()) {
    if (count_miss) ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.plan;
}

size_t PlanCache::Insert(const std::string& key,
                         std::shared_ptr<const PreparedQuery> plan) {
  // Declared before the lock, so the evicted plans are destroyed after
  // it is released.
  std::vector<std::shared_ptr<const PreparedQuery>> victims;
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(key) != 0) return 0;
  while (entries_.size() >= capacity_) EvictOne(victims);
  lru_.push_front(key);
  Entry entry;
  entry.plan = std::move(plan);
  entry.lru_it = lru_.begin();
  entries_.emplace(key, std::move(entry));
  ++insertions_;
  return victims.size();
}

void PlanCache::AddAlias(const std::string& alias, const std::string& key,
                         const PreparedQuery* plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.plan.get() != plan) return;
  // An alias always names the entry its text keys to, and dies with
  // it, so one already registered needs nothing more.
  if (aliases_.emplace(alias, key).second) {
    it->second.aliases.push_back(alias);
  }
}

void PlanCache::EvictOne(
    std::vector<std::shared_ptr<const PreparedQuery>>& victims) {
  auto it = entries_.find(lru_.back());
  for (const std::string& alias : it->second.aliases) aliases_.erase(alias);
  victims.push_back(std::move(it->second.plan));
  entries_.erase(it);
  lru_.pop_back();
  ++evictions_;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PlanCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.size = entries_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace mpqe
