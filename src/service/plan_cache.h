#ifndef RPQI_SERVICE_PLAN_CACHE_H_
#define RPQI_SERVICE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/flat.h"
#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "rewrite/rewriter.h"

namespace rpqi {
namespace service {

/// A cached, immutable compilation artifact: everything expensive the serving
/// layer derives from a (query, view set, snapshot) triple. Entries are
/// shared via shared_ptr<const CachedPlan>, so an eviction never frees a plan
/// a concurrent request is still executing against. Which fields are present
/// depends on the op that built the plan:
///   eval     flat_plan (the compiled FlatNfa — also the serializable
///            payload the persistent store writes) + eval_answers (node-id
///            pairs over the keyed snapshot; sound to memoize because
///            snapshots are immutable) + rendered;
///   rewrite  rewriting (compiled maximal-rewriting DFA + stats) +
///            view_names + exactness verdict + rendered.
struct CachedPlan {
  std::optional<FlatNfa> flat_plan;
  std::optional<std::vector<std::pair<int, int>>> eval_answers;
  std::optional<MaximalRewriting> rewriting;
  std::vector<std::string> view_names;
  /// Theorem 9 verdict: unset when the rewriting is non-exhaustive (the
  /// exactness check is only meaningful against the full maximal rewriting).
  std::optional<bool> exact;
  /// The op's bulky response field as JSON text, rendered once before the
  /// plan is shared and spliced verbatim into every response: the eval
  /// `answers` array (node names from the keyed snapshot) or the rewrite
  /// `rewriting` string. It depends only on what the cache key pins.
  std::string rendered;

  /// Exact heap footprint (vector capacities, not sizes): this is what the
  /// cache's byte budget bounds, so it must track *resident* bytes —
  /// undercounting here lets --plan-cache-mb quietly overshoot.
  int64_t ApproxBytes() const;
};

/// Sharded LRU plan cache with a global byte budget split evenly across
/// shards. Keys are the full canonical key strings (see server.cc,
/// "plan-cache key derivation") — entries compare by string equality, so hash
/// collisions can never alias two plans. Lookups/inserts take one shard
/// mutex; the shard is chosen by key hash, so concurrent requests for
/// different queries rarely contend.
///
/// Counters (obs registry): service.plan_cache.{hit,miss,insert,evict} plus
/// the service.plan_cache.{bytes,entries} gauges; the same numbers are
/// available per-instance (and race-free for tests) through stats().
class PlanCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t inserts = 0;
    int64_t evictions = 0;
    int64_t entries = 0;
    int64_t bytes = 0;
  };

  /// `capacity_bytes <= 0` disables caching (every Get misses, Put drops).
  explicit PlanCache(int64_t capacity_bytes, int num_shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan under `key`, bumping it to most-recently-used; nullptr on miss.
  std::shared_ptr<const CachedPlan> Get(const std::string& key);

  /// Inserts (or replaces) the plan under `key`, then evicts LRU entries
  /// until the shard is back under its byte budget. A plan larger than the
  /// whole shard budget is inserted and evicted immediately — Put never
  /// rejects, so hit/miss accounting stays exact.
  void Put(const std::string& key, std::shared_ptr<const CachedPlan> plan);

  Stats stats() const;
  int64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CachedPlan> plan;
    int64_t bytes = 0;
  };
  struct Shard {
    mutable Mutex shard_mu;
    // Front = most recently used.
    std::list<Entry> lru RPQI_GUARDED_BY(shard_mu);
    std::unordered_map<std::string, std::list<Entry>::iterator> index
        RPQI_GUARDED_BY(shard_mu);
    int64_t bytes RPQI_GUARDED_BY(shard_mu) = 0;
    int64_t hits RPQI_GUARDED_BY(shard_mu) = 0;
    int64_t misses RPQI_GUARDED_BY(shard_mu) = 0;
    int64_t inserts RPQI_GUARDED_BY(shard_mu) = 0;
    int64_t evictions RPQI_GUARDED_BY(shard_mu) = 0;
  };

  Shard& ShardFor(const std::string& key);
  void PublishGauges() const;

  int64_t capacity_bytes_;
  int64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Persistent twin of the in-memory cache (`--plan-cache-dir`): serialized
/// RPQIPLAN1 payloads keyed by a hash of the canonical plan-cache key, so a
/// restarted server serves its first repeated query at warm-cache latency.
/// Strictly best-effort — every failure (missing file, torn write, checksum
/// mismatch, tag collision) degrades to a recompile, never an error. The full
/// key string is stored inside the payload (FlatPlan::tag) and compared on
/// load, so filename-hash collisions cannot alias two plans.
///
/// Counters: service.plan_cache.{disk_hit,disk_miss,disk_reject,disk_write,
/// disk_write_failed}. Carries the `plan_cache.disk_io` fault site (fired on
/// both load and save, making disk I/O fail cleanly).
class PlanDiskStore {
 public:
  /// An empty `dir` disables the store (Load always misses, Save drops).
  /// The directory must already exist; it is shared state, so the store
  /// never creates or removes it.
  explicit PlanDiskStore(std::string dir);

  PlanDiskStore(const PlanDiskStore&) = delete;
  PlanDiskStore& operator=(const PlanDiskStore&) = delete;

  bool enabled() const { return !dir_.empty(); }

  /// Where the plan for `key` lives: <dir>/plan-<16-hex-key-hash>.rpqiplan.
  std::string PathForKey(const std::string& key) const;

  /// Loads, checksum-validates, and tag-checks the persisted plan for `key`.
  /// `num_nodes` bounds the answer node-ids (a plan whose answers name nodes
  /// outside the snapshot is rejected, not served). nullptr on any miss or
  /// rejection. The plan comes back unshared and without `rendered`, for the
  /// caller to render before it shares the plan.
  std::shared_ptr<CachedPlan> Load(const std::string& key, int num_nodes);

  /// Persists `plan` (which must carry flat_plan + eval_answers) under
  /// `key`, via write-to-temp + atomic rename. Best-effort: failures only
  /// bump service.plan_cache.disk_write_failed.
  void Save(const std::string& key, const CachedPlan& plan);

 private:
  std::string dir_;
};

}  // namespace service
}  // namespace rpqi

#endif  // RPQI_SERVICE_PLAN_CACHE_H_
