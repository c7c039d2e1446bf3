#include "retask/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "retask/common/error.hpp"

namespace retask::obs {
namespace {

constexpr std::size_t kKindCount = 4;

std::size_t kind_index(MetricKind kind) { return static_cast<std::size_t>(kind); }

/// Name <-> id tables, one per kind. Guarded by its mutex; the record path
/// never touches it (ids are interned once per call site).
struct InternTable {
  std::mutex mutex;
  std::vector<std::string> names;
  std::unordered_map<std::string, MetricId> ids;
};

InternTable& intern_table(MetricKind kind) {
  static InternTable tables[kKindCount];
  return tables[kind_index(kind)];
}

/// All thread-default registries, in registration order. Entries are
/// shared_ptrs so a registry outlives its thread (retired threads keep
/// contributing to global_snapshot()).
struct ThreadDirectory {
  std::mutex mutex;
  std::vector<std::shared_ptr<Registry>> registries;
};

ThreadDirectory& thread_directory() {
  static ThreadDirectory directory;
  return directory;
}

struct ThreadState {
  std::shared_ptr<Registry> default_registry = std::make_shared<Registry>();
  Registry* active = nullptr;

  ThreadState() {
    active = default_registry.get();
    ThreadDirectory& directory = thread_directory();
    std::lock_guard<std::mutex> lock(directory.mutex);
    directory.registries.push_back(default_registry);
  }
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

template <typename T>
void grow_to(std::vector<T>& vec, std::size_t index) {
  if (vec.size() <= index) vec.resize(index + 1);
}

std::string format_numeric(double value) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

void append_histogram_rows(std::vector<MetricRow>& rows, const std::string& name,
                           MetricKind kind, const Histogram& histogram) {
  if (histogram.count == 0) return;
  rows.push_back({name + ".count", kind, static_cast<double>(histogram.count),
                  std::to_string(histogram.count)});
  rows.push_back({name + ".min", kind, histogram.min, format_numeric(histogram.min)});
  rows.push_back({name + ".max", kind, histogram.max, format_numeric(histogram.max)});
  if (kind == MetricKind::kTimer) {
    // Totals make scoped timers attributable (e.g. a solver's share of a
    // harness run), but float sums are merge-order sensitive, so
    // the row exists only for timers — histogram reports stay bit-stable.
    rows.push_back({name + ".sum", kind, histogram.sum, format_numeric(histogram.sum)});
  }
}

}  // namespace

MetricId intern_metric(MetricKind kind, std::string_view name) {
  require(!name.empty(), "intern_metric: empty metric name");
  InternTable& table = intern_table(kind);
  std::lock_guard<std::mutex> lock(table.mutex);
  const auto it = table.ids.find(std::string(name));
  if (it != table.ids.end()) return it->second;
  const MetricId id = table.names.size();
  table.names.emplace_back(name);
  table.ids.emplace(std::string(name), id);
  return id;
}

std::vector<std::string> metric_names(MetricKind kind) {
  InternTable& table = intern_table(kind);
  std::lock_guard<std::mutex> lock(table.mutex);
  return table.names;
}

void Histogram::record(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  // Bucket 0: value < 1 (including negatives/NaN-free zero); bucket b >= 1:
  // value in [2^(b-1), 2^b).
  std::size_t bucket = 0;
  if (value >= 1.0) {
    const int exponent = std::ilogb(value);
    bucket = static_cast<std::size_t>(std::min(exponent + 1, 63));
  }
  ++buckets[bucket];
}

void Histogram::merge(const Histogram& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += other.buckets[b];
}

void Registry::add(MetricId id, std::uint64_t n) {
  grow_to(counters_, id);
  counters_[id] += n;
}

void Registry::gauge_max(MetricId id, double value) {
  grow_to(gauges_, id);
  grow_to(gauges_set_, id);
  if (!gauges_set_[id] || value > gauges_[id]) gauges_[id] = value;
  gauges_set_[id] = true;
}

void Registry::record(MetricId id, double value) {
  grow_to(histograms_, id);
  histograms_[id].record(value);
}

void Registry::record_time(MetricId id, double ns) {
  grow_to(timers_, id);
  timers_[id].record(ns);
}

void Registry::merge(const Registry& other) {
  for (std::size_t id = 0; id < other.counters_.size(); ++id) {
    if (other.counters_[id] != 0) add(id, other.counters_[id]);
  }
  for (std::size_t id = 0; id < other.gauges_.size(); ++id) {
    if (other.gauges_set_[id]) gauge_max(id, other.gauges_[id]);
  }
  for (std::size_t id = 0; id < other.histograms_.size(); ++id) {
    if (other.histograms_[id].count == 0) continue;
    grow_to(histograms_, id);
    histograms_[id].merge(other.histograms_[id]);
  }
  for (std::size_t id = 0; id < other.timers_.size(); ++id) {
    if (other.timers_[id].count == 0) continue;
    grow_to(timers_, id);
    timers_[id].merge(other.timers_[id]);
  }
}

bool Registry::empty() const {
  for (const std::uint64_t c : counters_) {
    if (c != 0) return false;
  }
  for (const bool set : gauges_set_) {
    if (set) return false;
  }
  for (const Histogram& h : histograms_) {
    if (h.count != 0) return false;
  }
  for (const Histogram& t : timers_) {
    if (t.count != 0) return false;
  }
  return true;
}

void Registry::clear() {
  counters_.clear();
  gauges_.clear();
  gauges_set_.clear();
  histograms_.clear();
  timers_.clear();
}

std::uint64_t Registry::counter(MetricId id) const {
  return id < counters_.size() ? counters_[id] : 0;
}

double Registry::gauge(MetricId id) const {
  return id < gauges_.size() && gauges_set_[id] ? gauges_[id] : 0.0;
}

const Histogram* Registry::histogram(MetricId id) const {
  return id < histograms_.size() && histograms_[id].count > 0 ? &histograms_[id] : nullptr;
}

const Histogram* Registry::timer(MetricId id) const {
  return id < timers_.size() && timers_[id].count > 0 ? &timers_[id] : nullptr;
}

Registry& active() { return *thread_state().active; }

ActiveScope::ActiveScope(Registry& target, bool fold_into_parent)
    : target_(&target), previous_(thread_state().active), fold_(fold_into_parent) {
  thread_state().active = target_;
}

ActiveScope::~ActiveScope() {
  thread_state().active = previous_;
  if (fold_ && previous_ != nullptr && !target_->empty()) previous_->merge(*target_);
}

Registry global_snapshot() {
  ThreadDirectory& directory = thread_directory();
  std::lock_guard<std::mutex> lock(directory.mutex);
  Registry merged;
  for (const auto& registry : directory.registries) merged.merge(*registry);
  return merged;
}

void reset_all() {
  ThreadDirectory& directory = thread_directory();
  std::lock_guard<std::mutex> lock(directory.mutex);
  for (const auto& registry : directory.registries) registry->clear();
}

std::vector<MetricRow> report_rows(const Registry& registry, bool include_timers) {
  std::vector<MetricRow> rows;
  const std::vector<std::string> counter_names = metric_names(MetricKind::kCounter);
  for (std::size_t id = 0; id < registry.counters_.size() && id < counter_names.size(); ++id) {
    const std::uint64_t value = registry.counters_[id];
    if (value == 0) continue;
    rows.push_back({counter_names[id], MetricKind::kCounter, static_cast<double>(value),
                    std::to_string(value)});
  }
  const std::vector<std::string> gauge_names = metric_names(MetricKind::kGauge);
  for (std::size_t id = 0; id < registry.gauges_.size() && id < gauge_names.size(); ++id) {
    if (!registry.gauges_set_[id]) continue;
    rows.push_back({gauge_names[id], MetricKind::kGauge, registry.gauges_[id],
                    format_numeric(registry.gauges_[id])});
  }
  const std::vector<std::string> histogram_names = metric_names(MetricKind::kHistogram);
  for (std::size_t id = 0; id < registry.histograms_.size() && id < histogram_names.size();
       ++id) {
    append_histogram_rows(rows, histogram_names[id], MetricKind::kHistogram,
                          registry.histograms_[id]);
  }
  if (include_timers) {
    const std::vector<std::string> timer_names = metric_names(MetricKind::kTimer);
    for (std::size_t id = 0; id < registry.timers_.size() && id < timer_names.size(); ++id) {
      append_histogram_rows(rows, timer_names[id], MetricKind::kTimer, registry.timers_[id]);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const MetricRow& a, const MetricRow& b) { return a.name < b.name; });
  return rows;
}

}  // namespace retask::obs
