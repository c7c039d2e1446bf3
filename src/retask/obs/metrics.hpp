// Solver metrics: thread-local counter/gauge/histogram registries.
//
// Why a separate subsystem: the ROADMAP's runtime story (R8 tables, the
// parallel harness) needs to explain *why* a solver is slow — DP rows
// reached vs. skipped, FPTAS guess rounds, local-search moves, pool
// utilization — without perturbing the hot paths it observes. The design
// splits three concerns:
//
//  * Interning — metric names are interned once per call site into stable
//    per-kind integer ids (intern_metric), so the record path is an indexed
//    add into a plain vector, never a map lookup.
//  * Recording — every thread owns a default Registry and writes through a
//    thread-local "active registry" pointer. A caller that wants per-unit
//    attribution installs a Registry with ActiveScope for the duration of
//    the unit; on scope exit the collected data is folded back into the
//    surrounding registry so process-wide totals stay complete. The
//    experiment harness attributes per (point, algorithm): each thread that
//    runs instances of a call keeps one Registry per point x algorithm,
//    installs it around every cell without folding, and after the parallel
//    region the merged registries fold once into the calling thread's
//    active registry — so a registry is grown once per (point, algorithm)
//    and thread, not once per cell.
//  * Reporting — Registry::merge combines registries with commutative,
//    associative operations only (integer adds, min/max), exactly like
//    OnlineStats::merge backs the harness's ordered reduce. Merging the
//    same multiset of observations therefore yields bit-identical reports
//    in ANY merge order — which is what makes jobs=1 and jobs=8 runs
//    indistinguishable in the metrics columns. Wall-clock metrics (kTimer)
//    are inherently nondeterministic, so reports can exclude them
//    (include_timers = false) wherever bit-identity is asserted.
//
// Concurrency contract: recording is wait-free (thread-local), interning
// and thread registration take a mutex, and global_snapshot()/reset_all()
// must be called while no parallel region is running (the worker pool's
// region-end handshake in common/parallel.cpp establishes the necessary
// happens-before edge).
//
// The instrumentation macros at the bottom (RETASK_COUNT, RETASK_GAUGE_MAX,
// RETASK_RECORD, RETASK_SCOPED_TIMER, RETASK_OBS_ONLY) compile to nothing
// unless the build sets RETASK_OBS_ENABLED (CMake option RETASK_OBS), so a
// disabled build pays zero overhead — not even the argument evaluation.
#ifndef RETASK_OBS_METRICS_HPP
#define RETASK_OBS_METRICS_HPP

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace retask::obs {

/// What a metric measures; selects the merge rule and the report section.
enum class MetricKind : std::uint8_t {
  kCounter,    ///< monotone event count (merge: add)
  kGauge,      ///< high-water mark (merge: max)
  kHistogram,  ///< value distribution (merge: bucket add + min/min + max/max)
  kTimer,      ///< wall-clock histogram in ns; excluded from deterministic reports
};

/// Stable per-kind index assigned by intern_metric.
using MetricId = std::size_t;

/// Interns `name` under `kind` and returns its process-wide stable id.
/// Repeated calls with the same (kind, name) return the same id. Intended
/// to be called once per call site via a function-local static.
MetricId intern_metric(MetricKind kind, std::string_view name);

/// All names interned so far under `kind`, indexed by MetricId.
std::vector<std::string> metric_names(MetricKind kind);

/// Log2-bucketed distribution: bucket b holds values in [2^(b-1), 2^b)
/// (bucket 0 holds everything below 1). Counts are integers and min/max
/// combine commutatively, so merged histograms are order-independent.
struct Histogram {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  /// Floating-point accumulation: merge order can perturb the last ulps, so
  /// sum is reported only for timers (which every bit-identity guarantee
  /// already excludes), never for histogram rows.
  double sum = 0.0;
  std::array<std::uint64_t, 64> buckets{};

  void record(double value);
  void merge(const Histogram& other);
};

/// One set of metric values: per-kind vectors indexed by MetricId, grown on
/// demand. A plain value type — copyable, mergeable, independent of the
/// thread-local machinery — so the harness can store one per result slot.
class Registry {
 public:
  void add(MetricId id, std::uint64_t n);       ///< kCounter
  void gauge_max(MetricId id, double value);    ///< kGauge
  void record(MetricId id, double value);       ///< kHistogram
  void record_time(MetricId id, double ns);     ///< kTimer

  /// Folds `other` into this registry. Counter adds, gauge maxes and
  /// histogram merges are commutative and associative, so any merge order
  /// over the same registries produces bit-identical results.
  void merge(const Registry& other);

  /// True when nothing has been recorded.
  bool empty() const;

  /// Drops every recorded value (keeps capacity).
  void clear();

  std::uint64_t counter(MetricId id) const;         ///< 0 when never touched
  double gauge(MetricId id) const;                  ///< 0 when never touched
  const Histogram* histogram(MetricId id) const;    ///< nullptr when never touched
  const Histogram* timer(MetricId id) const;        ///< nullptr when never touched

 private:
  friend std::vector<struct MetricRow> report_rows(const Registry&, bool);
  std::vector<std::uint64_t> counters_;
  std::vector<double> gauges_;
  std::vector<bool> gauges_set_;
  std::vector<Histogram> histograms_;
  std::vector<Histogram> timers_;
};

/// The registry the current thread records into: the innermost ActiveScope
/// target, else the thread's default registry.
Registry& active();

/// Installs `target` as the calling thread's active registry for the scope's
/// lifetime. On destruction the previous target is restored and, by
/// default, the collected values are folded into it so surrounding totals
/// remain complete.
class ActiveScope {
 public:
  explicit ActiveScope(Registry& target, bool fold_into_parent = true);
  ~ActiveScope();
  ActiveScope(const ActiveScope&) = delete;
  ActiveScope& operator=(const ActiveScope&) = delete;

 private:
  Registry* target_;
  Registry* previous_;
  bool fold_;
};

/// Merge of every thread's default registry (live and retired threads).
/// Must not race a parallel region; see the file comment.
Registry global_snapshot();

/// Zeroes every thread-default registry (tests). Same quiescence contract
/// as global_snapshot().
void reset_all();

/// One formatted report line. `numeric` carries the value for CSV/JSON
/// emission; `value` is the canonical string rendering (integers exact,
/// doubles with max_digits10 so equal values render identically).
struct MetricRow {
  std::string name;    ///< metric name, histograms expanded to name.count/.min/.max
  MetricKind kind = MetricKind::kCounter;
  double numeric = 0.0;
  std::string value;
};

/// Flattens `registry` into rows sorted by name (so the report is
/// independent of interning order). Histograms and timers expand to
/// .count/.min/.max rows; timers are dropped when include_timers is false,
/// which is the mode every bit-identity guarantee is stated for.
std::vector<MetricRow> report_rows(const Registry& registry, bool include_timers = true);

/// Records elapsed wall time into a kTimer metric on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(MetricId id)
      : id_(id), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    active().record_time(
        id_, static_cast<double>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  MetricId id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace retask::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. Compiled out (including argument evaluation)
// unless RETASK_OBS_ENABLED is defined by the build (-DRETASK_OBS=ON).

#ifndef RETASK_OBS_CAT
#define RETASK_OBS_CAT2(a, b) a##b
#define RETASK_OBS_CAT(a, b) RETASK_OBS_CAT2(a, b)
#endif

#if defined(RETASK_OBS_ENABLED) && RETASK_OBS_ENABLED

/// Statements that only exist to feed the metrics layer (local accumulator
/// declarations and updates); removed entirely in disabled builds.
#define RETASK_OBS_ONLY(...) __VA_ARGS__

/// Adds `n` to the counter `name` on the active registry.
#define RETASK_COUNT(name, n)                                                         \
  do {                                                                                \
    static const ::retask::obs::MetricId retask_obs_id_ =                             \
        ::retask::obs::intern_metric(::retask::obs::MetricKind::kCounter, name);      \
    ::retask::obs::active().add(retask_obs_id_, static_cast<std::uint64_t>(n));       \
  } while (0)

/// Raises the gauge `name` to at least `v`.
#define RETASK_GAUGE_MAX(name, v)                                                     \
  do {                                                                                \
    static const ::retask::obs::MetricId retask_obs_id_ =                             \
        ::retask::obs::intern_metric(::retask::obs::MetricKind::kGauge, name);        \
    ::retask::obs::active().gauge_max(retask_obs_id_, static_cast<double>(v));        \
  } while (0)

/// Records `v` into the histogram `name`.
#define RETASK_RECORD(name, v)                                                        \
  do {                                                                                \
    static const ::retask::obs::MetricId retask_obs_id_ =                             \
        ::retask::obs::intern_metric(::retask::obs::MetricKind::kHistogram, name);    \
    ::retask::obs::active().record(retask_obs_id_, static_cast<double>(v));           \
  } while (0)

/// Times the enclosing scope into the kTimer metric `name` (suffix the name
/// with _ns by convention).
#define RETASK_SCOPED_TIMER(name)                                                     \
  static const ::retask::obs::MetricId RETASK_OBS_CAT(retask_obs_tid_, __LINE__) =    \
      ::retask::obs::intern_metric(::retask::obs::MetricKind::kTimer, name);          \
  const ::retask::obs::ScopedTimer RETASK_OBS_CAT(retask_obs_timer_, __LINE__)(       \
      RETASK_OBS_CAT(retask_obs_tid_, __LINE__))

#else  // !RETASK_OBS_ENABLED

#define RETASK_OBS_ONLY(...)
#define RETASK_COUNT(name, n) ((void)0)
#define RETASK_GAUGE_MAX(name, v) ((void)0)
#define RETASK_RECORD(name, v) ((void)0)
#define RETASK_SCOPED_TIMER(name) ((void)0)

#endif  // RETASK_OBS_ENABLED

#endif  // RETASK_OBS_METRICS_HPP
