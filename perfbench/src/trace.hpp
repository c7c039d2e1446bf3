// In-memory span recorder of the traced run, and the self-time arithmetic
// that turns spans into a layer table.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into the library's public functions. Each span carries its layer, its
// parent span and a request identifier (shared by all spans of one serve
// request, or of one harness call). Recording appends to a per-thread
// buffer; nothing is written out until the run ends.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover. Children are clipped to their parent
// first, so a server-side span that started before the client's request
// window counts only inside it.
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root
  std::uint64_t request = 0;
  std::uint32_t layer = 0;   ///< index into Tracer::layer_names()
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide span store. Recording is lock-free per thread; collect()
/// and clear() require every recording thread to be quiescent.
class Tracer {
 public:
  static Tracer& instance();

  /// Layer index of `name`, interning it on first use.
  std::uint32_t layer(const std::string& name);
  std::vector<std::string> layer_names() const;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// A fresh span id (ids are never 0).
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends `span` to the calling thread's buffer (no-op when disabled).
  void record(const Span& span);

  /// Every span recorded since the last clear(), in no particular order.
  std::vector<Span> collect() const;
  void clear();

 private:
  Tracer() = default;
  std::vector<Span>& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards names_ and buffers_
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// RAII span on the calling thread. Its parent is the innermost open
/// SpanScope of the same thread unless one is given explicitly.
class SpanScope {
 public:
  SpanScope(std::uint32_t layer, std::uint64_t request);
  SpanScope(std::uint32_t layer, std::uint64_t request, std::uint64_t parent);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
};

/// Self time of every span, summed per layer.
struct LayerTimes {
  std::map<std::string, double> self_ns;
  /// Sum over all layers; equals root_ns when sibling spans never overlap.
  double total_self_ns = 0.0;
  /// Total duration of the root spans (those without a parent in the set).
  double root_ns = 0.0;
};

/// Computes per-layer self times over `spans` (see the file comment).
/// Spans whose parent is missing from the set are treated as roots.
LayerTimes self_times(const std::vector<Span>& spans, const std::vector<std::string>& names);

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
