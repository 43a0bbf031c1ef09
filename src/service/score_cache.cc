#include "service/score_cache.h"

#include <chrono>
#include <utility>

#include "common/bytes.h"
#include "service/fault_injection.h"

namespace netbone {

void CachedScore::PriceBytes() {
  const int64_t ranks = order_->size() + 1;
  bytes_ = static_cast<int64_t>(sizeof(CachedScore)) +
           VectorBytes(scored_.scores()) +
           static_cast<int64_t>(order_->ids().size() * sizeof(EdgeId)) +
           ranks * static_cast<int64_t>(sizeof(int64_t) + sizeof(double));
  if (provenance_.has_value()) {
    bytes_ += static_cast<int64_t>(sizeof(DeltaProvenance));
  }
}

const SweepProfile& CachedScore::profile(bool* built) const {
  std::call_once(profile_once_, [this, built] {
    profile_ = BuildSweepProfile(*order_);
    profile_ready_.store(true, std::memory_order_release);
    if (built != nullptr) *built = true;
  });
  return profile_;
}

std::shared_ptr<const CachedScore> CachedScore::Build(
    std::shared_ptr<const Graph> graph, ScoredEdges scored,
    int num_threads) {
  // Two-phase construction: the ScoreOrder keeps a pointer to the
  // ScoredEdges, so the table must reach its final heap address before
  // the order is built.
  std::shared_ptr<CachedScore> entry(new CachedScore());
  entry->graph_ = std::move(graph);
  entry->scored_ = std::move(scored);
  entry->order_.emplace(entry->scored_, num_threads);
  entry->PriceBytes();
  return entry;
}

std::shared_ptr<const CachedScore> CachedScore::BuildPatched(
    std::shared_ptr<const Graph> graph, ScoredEdges scored,
    const CachedScore& base, std::span<const EdgeId> base_to_next,
    std::span<const EdgeId> dirty, uint64_t base_fingerprint,
    int num_threads) {
  std::shared_ptr<CachedScore> entry(new CachedScore());
  entry->graph_ = std::move(graph);
  entry->scored_ = std::move(scored);
  // The patch constructor: no global sort (SortsPerformed stays flat).
  entry->order_.emplace(entry->scored_, base.order(), base_to_next, dirty,
                        num_threads);
  entry->provenance_ = DeltaProvenance{base_fingerprint,
                                       static_cast<int64_t>(dirty.size()),
                                       entry->scored_.size()};
  entry->PriceBytes();
  return entry;
}

Result<std::shared_ptr<const CachedScore>> CachedScore::Restore(
    std::shared_ptr<const Graph> graph, ScoredEdges scored,
    std::vector<EdgeId> order_ids,
    std::optional<DeltaProvenance> provenance) {
  std::shared_ptr<CachedScore> entry(new CachedScore());
  entry->graph_ = std::move(graph);
  entry->scored_ = std::move(scored);
  // Same two-phase rule as Build: the permutation is validated against
  // the member table at its final address, not the caller's temporary.
  Result<ScoreOrder> order =
      ScoreOrder::FromPermutation(entry->scored_, std::move(order_ids));
  if (!order.ok()) return order.status();
  entry->order_.emplace(std::move(*order));
  entry->provenance_ = std::move(provenance);
  entry->PriceBytes();
  return std::shared_ptr<const CachedScore>(std::move(entry));
}

std::shared_ptr<const CachedScore> ScoreCache::GetLocked(
    const ScoreKey& key) {
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most-recent
  return it->second->second;
}

std::shared_ptr<const CachedScore> ScoreCache::Get(const ScoreKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const CachedScore> entry = GetLocked(key);
  ++(entry != nullptr ? hits_ : misses_);
  return entry;
}

std::shared_ptr<const CachedScore> ScoreCache::Peek(const ScoreKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  return GetLocked(key);
}

void ScoreCache::Put(const ScoreKey& key,
                     std::shared_ptr<const CachedScore> score) {
  obs::ScopedRecord timing(metrics_timing_.load(std::memory_order_relaxed),
                           &put_ns_);
  std::lock_guard<std::mutex> lock(mu_);
  // Fault-injection site: a dropped insert models the cache losing the
  // allocation race under memory pressure. The caller's shared_ptr still
  // serves every waiter of the in-flight computation — the entry is
  // simply never cached, so the next request on the key rescores.
  if (InjectFault(FaultSite::kCacheInsertFailure)) {
    ++insert_failures_;
    return;
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->second->bytes();
    lru_.erase(it->second);
    index_.erase(it);
  }
  bytes_ += score->bytes();
  lru_.emplace_front(key, std::move(score));
  index_.emplace(key, lru_.begin());
  TrimLocked();
}

std::vector<std::pair<ScoreKey, std::shared_ptr<const CachedScore>>>
ScoreCache::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ScoreKey, std::shared_ptr<const CachedScore>>>
      entries;
  entries.reserve(lru_.size());
  // Back-to-front: lru_.front() is most recent, so the vector reads
  // LRU-first and a re-Put replay restores the same recency order.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    entries.push_back(*it);
  }
  return entries;
}

void ScoreCache::RegisterMetrics(obs::MetricRegistry& registry,
                                 const std::string& prefix,
                                 const void* owner) {
  // One gauge *group* read under one mu_ acquisition: every field a
  // registry snapshot reports comes from the same instant, so a rollup
  // summing shards can't observe torn per-field reads.
  registry.RegisterGaugeGroup(
      [this, prefix]() {
        std::lock_guard<std::mutex> lock(mu_);
        return std::vector<obs::MetricsSnapshot::Value>{
            {prefix + ".hits", hits_},
            {prefix + ".misses", misses_},
            {prefix + ".evictions", evictions_},
            {prefix + ".entries", static_cast<int64_t>(lru_.size())},
            {prefix + ".bytes", bytes_},
            {prefix + ".byte_budget", byte_budget_},
            {prefix + ".insert_failures", insert_failures_},
        };
      },
      owner);
  registry.RegisterHistogram(prefix + ".put_ns", &put_ns_, owner);
  registry.RegisterHistogram(prefix + ".evict_ns", &evict_ns_, owner);
}

void ScoreCache::TrimLocked() {
  if (byte_budget_ <= 0) return;
  if (bytes_ <= byte_budget_) return;
  obs::ScopedRecord timing(metrics_timing_.load(std::memory_order_relaxed),
                           &evict_ns_);
  // bytes_ is the sum of the listed entries' prices, so the list cannot
  // drain while bytes_ is still over a positive budget.
  while (bytes_ > byte_budget_) {
    const auto& victim = lru_.back();
    bytes_ -= victim.second->bytes();
    index_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
  }
}

}  // namespace netbone
