#include "obs/metrics.h"

#include <atomic>
#include <bit>
#include <memory>

#include "base/logging.h"
#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace rpqi {
namespace obs {

namespace {

/// Total atomic slots across all counters and histograms. 1024 slots bound
/// the per-thread shard at 8 KiB; registration past the bound degrades to a
/// no-op handle rather than failing.
constexpr int kMaxSlots = 1024;
constexpr int kMaxGauges = 256;

struct Shard {
  std::array<std::atomic<int64_t>, kMaxSlots> slots{};
};

struct MetricInfo {
  std::string name;
  MetricKind kind;
  int first_slot;  // slot index (counter/histogram) or gauge index
};

/// The process-wide registry. `registry_mu` is the innermost lock of the
/// declared hierarchy (base/thread_annotations.h): every layer bumps counters
/// while holding its own locks, so nothing may be acquired under it. The hot
/// write path (AddToSlot) never takes it — shard slots are atomics reached
/// through a thread_local handle.
struct Registry {
  Mutex registry_mu;
  std::vector<MetricInfo> metrics RPQI_GUARDED_BY(registry_mu);
  /// -> index into `metrics`.
  std::map<std::string, int> index_by_name RPQI_GUARDED_BY(registry_mu);
  int next_slot RPQI_GUARDED_BY(registry_mu) = 0;
  int next_gauge RPQI_GUARDED_BY(registry_mu) = 0;
  std::array<std::atomic<int64_t>, kMaxGauges> gauges{};
  // Every shard ever created, owned forever so scrapes never race a thread
  // teardown; exited threads fold their totals into `retired` and donate
  // their (zeroed) shard back through `free_shards` for reuse.
  std::vector<std::unique_ptr<Shard>> shards RPQI_GUARDED_BY(registry_mu);
  std::vector<int> free_shards RPQI_GUARDED_BY(registry_mu);
  std::array<int64_t, kMaxSlots> retired RPQI_GUARDED_BY(registry_mu) = {};
};

Registry& Reg() {
  // Intentionally leaked: a thread that outlives main (one owned by a static
  // object) may run its thread_local shard destructor during static
  // destruction, after a function-local static Registry would be gone.
  static Registry* registry = std::make_unique<Registry>().release();
  return *registry;
}

struct ShardHandle {
  Shard* shard = nullptr;
  int index = -1;

  ShardHandle() {
    Registry& reg = Reg();
    MutexLock lock(&reg.registry_mu);
    if (!reg.free_shards.empty()) {
      index = reg.free_shards.back();
      reg.free_shards.pop_back();
    } else {
      reg.shards.push_back(std::make_unique<Shard>());
      index = static_cast<int>(reg.shards.size()) - 1;
    }
    shard = reg.shards[index].get();
  }

  ~ShardHandle() {
    Registry& reg = Reg();
    MutexLock lock(&reg.registry_mu);
    for (int i = 0; i < kMaxSlots; ++i) {
      // order: the exiting thread's own writes are already visible to it;
      // cross-thread visibility of the folded total comes from registry_mu
      int64_t value = shard->slots[i].exchange(0, std::memory_order_relaxed);
      if (value != 0) reg.retired[i] += value;
    }
    reg.free_shards.push_back(index);
  }
};

Shard& LocalShard() {
  thread_local ShardHandle handle;
  return *handle.shard;
}

int SlotsFor(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return 1;
    case MetricKind::kGauge:
      return 0;
    case MetricKind::kHistogram:
      return 2 + kHistogramBuckets;  // count, sum, buckets
  }
  return 0;
}

/// Merged total for one slot across live and retired shards; the caller holds
/// the registry lock for the shard-table walk.
int64_t SumSlot(const Registry& reg, int slot)
    RPQI_REQUIRES(reg.registry_mu) {
  int64_t total = reg.retired[slot];
  for (const auto& shard : reg.shards) {
    // order: scrapes are statistical reads; each slot is independently
    // atomic and monotonic, so a torn cross-slot view is acceptable
    total += shard->slots[slot].load(std::memory_order_relaxed);
  }
  return total;
}

void JsonEscapeTo(std::ostream& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

}  // namespace

namespace internal {

int RegisterMetric(const char* name, MetricKind kind) {
  Registry& reg = Reg();
  MutexLock lock(&reg.registry_mu);
  auto it = reg.index_by_name.find(name);
  if (it != reg.index_by_name.end()) {
    const MetricInfo& info = reg.metrics[it->second];
    RPQI_CHECK(info.kind == kind)
        << "metric '" << name << "' registered with two kinds";
    return info.first_slot;
  }
  int first_slot = -1;
  if (kind == MetricKind::kGauge) {
    if (reg.next_gauge < kMaxGauges) first_slot = reg.next_gauge++;
  } else {
    int needed = SlotsFor(kind);
    if (reg.next_slot + needed <= kMaxSlots) {
      first_slot = reg.next_slot;
      reg.next_slot += needed;
    }
  }
  if (first_slot < 0) return -1;  // table full: handle degrades to a no-op
  reg.index_by_name.emplace(name, static_cast<int>(reg.metrics.size()));
  reg.metrics.push_back({name, kind, first_slot});
  return first_slot;
}

void AddToSlot(int slot, int64_t delta) {
  if (slot < 0) return;
  // order: the lock-free hot path; totals are summed under registry_mu, and
  // per-slot atomicity is all a monotonic counter needs
  LocalShard().slots[slot].fetch_add(delta, std::memory_order_relaxed);
}

void SetGaugeValue(int gauge_index, int64_t value) {
  if (gauge_index < 0) return;
  // order: last-write-wins cell; readers tolerate any interleaving
  Reg().gauges[gauge_index].store(value, std::memory_order_relaxed);
}

void RecordHistogramUs(int first_slot, int64_t us) {
  if (first_slot < 0) return;
  Shard& shard = LocalShard();
  // order: same contract as AddToSlot — independent monotonic slots
  shard.slots[first_slot].fetch_add(1, std::memory_order_relaxed);
  // order: same contract as AddToSlot — independent monotonic slots
  shard.slots[first_slot + 1].fetch_add(us < 0 ? 0 : us,
                                        std::memory_order_relaxed);
  int bucket = us <= 0 ? 0 : std::bit_width(static_cast<uint64_t>(us));
  if (bucket >= kHistogramBuckets) bucket = kHistogramBuckets - 1;
  // order: same contract as AddToSlot — independent monotonic slots
  shard.slots[first_slot + 2 + bucket].fetch_add(1, std::memory_order_relaxed);
}

std::vector<int64_t> ThreadCounterValues() {
  Registry& reg = Reg();
  Shard& shard = LocalShard();
  int watermark;
  {
    MutexLock lock(&reg.registry_mu);
    watermark = reg.next_slot;
  }
  std::vector<int64_t> values(watermark);
  for (int i = 0; i < watermark; ++i) {
    // order: reading this thread's own shard; no cross-thread edge needed
    values[i] = shard.slots[i].load(std::memory_order_relaxed);
  }
  return values;
}

void AppendCounterDeltasSince(
    const std::vector<int64_t>& baseline,
    std::vector<std::pair<std::string, int64_t>>* out) {
  Registry& reg = Reg();
  Shard& shard = LocalShard();
  MutexLock lock(&reg.registry_mu);
  for (const MetricInfo& info : reg.metrics) {
    if (info.kind != MetricKind::kCounter) continue;
    int slot = info.first_slot;
    if (slot < 0) continue;
    // A counter registered after the baseline was taken had no slot value on
    // this thread back then, so its baseline is exactly 0 — skipping it would
    // under-report the first request that ever touches a subsystem.
    int64_t base =
        slot < static_cast<int>(baseline.size()) ? baseline[slot] : 0;
    // order: reading this thread's own shard; no cross-thread edge needed
    int64_t delta = shard.slots[slot].load(std::memory_order_relaxed) - base;
    if (delta != 0) out->emplace_back(info.name, delta);
  }
}

}  // namespace internal

int64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& before) const {
  MetricsSnapshot delta;
  for (const auto& [name, value] : counters_) {
    auto it = before.counters_.find(name);
    delta.counters_[name] =
        value - (it == before.counters_.end() ? 0 : it->second);
  }
  delta.gauges_ = gauges_;
  for (const auto& [name, data] : histograms_) {
    HistogramData d = data;
    auto it = before.histograms_.find(name);
    if (it != before.histograms_.end()) {
      d.count -= it->second.count;
      d.sum_us -= it->second.sum_us;
      for (int b = 0; b < kHistogramBuckets; ++b) {
        d.buckets[b] -= it->second.buckets[b];
      }
    }
    delta.histograms_[name] = d;
  }
  return delta;
}

void MetricsSnapshot::WriteNdjson(std::ostream& out) const {
  for (const auto& [name, value] : counters_) {
    out << "{\"type\":\"counter\",\"name\":\"";
    JsonEscapeTo(out, name);
    out << "\",\"value\":" << value << "}\n";
  }
  for (const auto& [name, value] : gauges_) {
    out << "{\"type\":\"gauge\",\"name\":\"";
    JsonEscapeTo(out, name);
    out << "\",\"value\":" << value << "}\n";
  }
  for (const auto& [name, data] : histograms_) {
    out << "{\"type\":\"histogram\",\"name\":\"";
    JsonEscapeTo(out, name);
    out << "\",\"count\":" << data.count << ",\"sum_us\":" << data.sum_us
        << ",\"buckets\":[";
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (b > 0) out << ',';
      out << data.buckets[b];
    }
    out << "]}\n";
  }
}

MetricsSnapshot TakeMetricsSnapshot() {
  Registry& reg = Reg();
  MetricsSnapshot snapshot;
  MutexLock lock(&reg.registry_mu);
  for (const MetricInfo& info : reg.metrics) {
    if (info.first_slot < 0) continue;
    switch (info.kind) {
      case MetricKind::kCounter:
        snapshot.counters_[info.name] = SumSlot(reg, info.first_slot);
        break;
      case MetricKind::kGauge:
        snapshot.gauges_[info.name] =
            // order: last-write-wins cell; see SetGaugeValue
            reg.gauges[info.first_slot].load(std::memory_order_relaxed);
        break;
      case MetricKind::kHistogram: {
        HistogramData data;
        data.count = SumSlot(reg, info.first_slot);
        data.sum_us = SumSlot(reg, info.first_slot + 1);
        for (int b = 0; b < kHistogramBuckets; ++b) {
          data.buckets[b] = SumSlot(reg, info.first_slot + 2 + b);
        }
        snapshot.histograms_[info.name] = data;
        break;
      }
    }
  }
  return snapshot;
}

}  // namespace obs
}  // namespace rpqi
