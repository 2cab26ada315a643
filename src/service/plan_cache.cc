#include "service/plan_cache.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "base/hash.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace rpqi {
namespace service {
namespace {

/// Exact heap footprint of a compiled rewriting DFA: its vectors are sized
/// once at construction (capacity == size), one int cell per (state, symbol)
/// plus the word-rounded accepting bits.
int64_t DfaBytes(const Dfa& dfa) {
  return static_cast<int64_t>(sizeof(Dfa)) +
         static_cast<int64_t>(dfa.NumStates()) * dfa.num_symbols() *
             static_cast<int64_t>(sizeof(int)) +
         static_cast<int64_t>((dfa.NumStates() + 63) / 64) * 8;
}

uint64_t HashKey(const std::string& key) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ key.size();
  for (char c : key) {
    h = HashCombine(h, static_cast<unsigned char>(c));
  }
  return h;
}

/// The single `plan_cache.disk_io` injection site, shared by Load and Save:
/// a fired fault models the disk failing (EIO, ENOSPC, a vanished file), and
/// both directions must degrade to recompute-and-serve.
bool DiskIoFaultFired() { return RPQI_FAULT_FIRED("plan_cache.disk_io"); }

}  // namespace

int64_t CachedPlan::ApproxBytes() const {
  int64_t bytes = 128;  // entry + bookkeeping overhead
  // Heap blocks are counted at *capacity*: the byte budget bounds resident
  // memory, and vector growth slack is resident whether or not it holds
  // elements. (The old per-field estimates ignored the per-state vector heap
  // blocks entirely, so --plan-cache-mb under-bounded actual usage.)
  if (flat_plan.has_value()) bytes += flat_plan->ByteSize();
  if (eval_answers.has_value()) {
    bytes += static_cast<int64_t>(sizeof(*eval_answers)) +
             static_cast<int64_t>(eval_answers->capacity()) *
                 static_cast<int64_t>(sizeof(std::pair<int, int>));
  }
  if (rewriting.has_value()) bytes += DfaBytes(rewriting->dfa) + 128;
  for (const std::string& name : view_names) {
    bytes += 32 + static_cast<int64_t>(name.size());
  }
  // A string's heap block is capacity() + 1 bytes (the terminator); a string
  // short enough to live inside the object allocates none.
  if (rendered.capacity() > std::string().capacity()) {
    bytes += static_cast<int64_t>(rendered.capacity()) + 1;
  }
  return bytes;
}

PlanCache::PlanCache(int64_t capacity_bytes, int num_shards)
    : capacity_bytes_(std::max<int64_t>(0, capacity_bytes)) {
  int shards = std::max(1, num_shards);
  shard_capacity_ = capacity_bytes_ / shards;
  shards_.reserve(shards);
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  return *shards_[HashKey(key) % shards_.size()];
}

std::shared_ptr<const CachedPlan> PlanCache::Get(const std::string& key) {
  static const obs::Counter hits("service.plan_cache.hit");
  static const obs::Counter misses("service.plan_cache.miss");
  Shard& shard = ShardFor(key);
  MutexLock lock(&shard.shard_mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    misses.Increment();
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  hits.Increment();
  return it->second->plan;
}

void PlanCache::Put(const std::string& key,
                    std::shared_ptr<const CachedPlan> plan) {
  static const obs::Counter inserts("service.plan_cache.insert");
  static const obs::Counter evictions("service.plan_cache.evict");
  static const obs::Counter dropped("service.plan_cache.insert_dropped");
  if (plan == nullptr) return;
  // Models an allocation/admission failure inside the cache: the insert is
  // silently dropped. Correctness must never depend on a Put landing — the
  // next Get simply misses and recomputes.
  if (RPQI_FAULT_FIRED("plan_cache.insert")) {
    dropped.Increment();
    return;
  }
  int64_t bytes = plan->ApproxBytes() + static_cast<int64_t>(key.size());
  Shard& shard = ShardFor(key);
  int64_t evicted = 0;
  {
    MutexLock lock(&shard.shard_mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Replace in place (two racing misses computed the same plan); the
      // refresh also bumps recency. The displaced entry counts as an
      // eviction so `inserts - evictions` always balances the entry count.
      shard.bytes -= it->second->bytes;
      shard.lru.erase(it->second);
      shard.index.erase(it);
      ++shard.evictions;
      ++evicted;
    }
    shard.lru.push_front(Entry{key, std::move(plan), bytes});
    shard.index[key] = shard.lru.begin();
    shard.bytes += bytes;
    ++shard.inserts;
    while (shard.bytes > shard_capacity_ && !shard.lru.empty()) {
      Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++shard.evictions;
      ++evicted;
    }
  }
  inserts.Increment();
  evictions.Add(evicted);
  PublishGauges();
}

PlanCache::Stats PlanCache::stats() const {
  Stats stats;
  // Shard locks are taken one at a time (sequentially, never nested), so the
  // totals are a per-shard-consistent sum, not a single atomic snapshot.
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->shard_mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.inserts += shard->inserts;
    stats.evictions += shard->evictions;
    stats.entries += static_cast<int64_t>(shard->lru.size());
    stats.bytes += shard->bytes;
  }
  return stats;
}

void PlanCache::PublishGauges() const {
  static const obs::Gauge bytes_gauge("service.plan_cache.bytes");
  static const obs::Gauge entries_gauge("service.plan_cache.entries");
  Stats now = stats();
  bytes_gauge.Set(now.bytes);
  entries_gauge.Set(now.entries);
}

PlanDiskStore::PlanDiskStore(std::string dir) : dir_(std::move(dir)) {}

std::string PlanDiskStore::PathForKey(const std::string& key) const {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(HashKey(key)));
  return dir_ + "/plan-" + buffer + ".rpqiplan";
}

std::shared_ptr<CachedPlan> PlanDiskStore::Load(const std::string& key,
                                                int num_nodes) {
  static const obs::Counter disk_hits("service.plan_cache.disk_hit");
  static const obs::Counter disk_misses("service.plan_cache.disk_miss");
  static const obs::Counter disk_rejects("service.plan_cache.disk_reject");
  if (!enabled()) return nullptr;
  const std::string path = PathForKey(key);
  // A fired fault models read(2) failing mid-load; like every other failure
  // below, the caller recompiles and re-persists.
  if (DiskIoFaultFired()) {
    disk_rejects.Increment();
    return nullptr;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    disk_misses.Increment();
    return nullptr;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    disk_rejects.Increment();
    return nullptr;
  }
  StatusOr<FlatPlan> decoded = DecodeFlatPlan(buffer.str(), path);
  // Tag mismatch = a filename-hash collision with another key, or a file
  // from a different graph snapshot under a reused hash — either way this is
  // not our plan. Treated as a rejection, not a miss, so the counter
  // distinguishes "nothing persisted yet" from "persisted bytes unusable".
  if (!decoded.ok() || decoded->tag != key || !decoded->has_answers) {
    disk_rejects.Increment();
    return nullptr;
  }
  auto plan = std::make_shared<CachedPlan>();
  plan->eval_answers.emplace();
  plan->eval_answers->reserve(decoded->answers.size());
  for (const auto& [x, y] : decoded->answers) {
    // The tag pins the snapshot fingerprint, so persisted node ids should
    // always be in range; the check is the last line of defense against an
    // encoder bug, since NodeName(id) on a stale id would abort the server.
    if (x >= static_cast<uint32_t>(num_nodes) ||
        y >= static_cast<uint32_t>(num_nodes)) {
      disk_rejects.Increment();
      return nullptr;
    }
    plan->eval_answers->push_back({static_cast<int>(x), static_cast<int>(y)});
  }
  plan->flat_plan = std::move(decoded->nfa);
  disk_hits.Increment();
  return plan;
}

void PlanDiskStore::Save(const std::string& key, const CachedPlan& plan) {
  static const obs::Counter disk_writes("service.plan_cache.disk_write");
  static const obs::Counter disk_write_failed(
      "service.plan_cache.disk_write_failed");
  if (!enabled()) return;
  if (!plan.flat_plan.has_value() || !plan.eval_answers.has_value()) return;
  FlatPlan payload;
  payload.nfa = *plan.flat_plan;
  payload.tag = key;
  payload.has_answers = true;
  payload.answers.reserve(plan.eval_answers->size());
  for (const auto& [x, y] : *plan.eval_answers) {
    payload.answers.push_back(
        {static_cast<uint32_t>(x), static_cast<uint32_t>(y)});
  }
  const std::string encoded = EncodeFlatPlan(payload);
  const std::string path = PathForKey(key);
  const std::string tmp = path + ".tmp";
  auto fail = [&] {
    disk_write_failed.Increment();
    // The failed write is already counted; the orphaned temp file is
    // best-effort cleanup.
    (void)std::remove(tmp.c_str());  // lint: allow-discard cleanup only
  };
  if (DiskIoFaultFired()) {
    fail();
    return;
  }
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      fail();
      return;
    }
    out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
    out.flush();
    if (!out.good()) {
      fail();
      return;
    }
  }
  // Atomic replace: a concurrent or post-restart reader observes either the
  // old plan or the complete new one, never a prefix. No fsync — unlike the
  // columnar snapshot writer, losing a plan to power loss is harmless (the
  // checksum rejects any torn survivor and the server recompiles).
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail();
    return;
  }
  disk_writes.Increment();
}

}  // namespace service
}  // namespace rpqi
