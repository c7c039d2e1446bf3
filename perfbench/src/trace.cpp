#include "trace.hpp"

#include <algorithm>
#include <unordered_map>

namespace perfbench {
namespace {

thread_local std::vector<Span>* tls_buffer = nullptr;
thread_local std::uint64_t tls_open_span = 0;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::layer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<std::string> Tracer::layer_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

std::vector<Span>& Tracer::local_buffer() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 16);
    tls_buffer = buffers_.back().get();
  }
  return *tls_buffer;
}

void Tracer::record(const Span& span) {
  if (!enabled()) return;
  local_buffer().push_back(span);
}

std::vector<Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) all.insert(all.end(), buffer->begin(), buffer->end());
  return all;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) buffer->clear();
}

SpanScope::SpanScope(std::uint32_t layer, std::uint64_t request)
    : SpanScope(layer, request, tls_open_span) {}

SpanScope::SpanScope(std::uint32_t layer, std::uint64_t request, std::uint64_t parent) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.id = tracer.next_id();
  span_.parent = parent;
  span_.request = request;
  span_.layer = layer;
  saved_parent_ = tls_open_span;
  tls_open_span = span_.id;
  span_.start_ns = now_ns();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ns = now_ns();
  tls_open_span = saved_parent_;
  Tracer::instance().record(span_);
}

double union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > hi) {
      if (open) total += static_cast<double>(hi - lo);
      lo = start;
      hi = end;
      open = true;
    } else {
      hi = std::max(hi, end);
    }
  }
  if (open) total += static_cast<double>(hi - lo);
  return total;
}

LayerTimes self_times(const std::vector<Span>& spans, const std::vector<std::string>& names) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Clip each span to its (clipped) parent; ancestors are resolved first by
  // memoized recursion over the parent chain.
  std::vector<std::pair<std::int64_t, std::int64_t>> clipped(spans.size());
  std::vector<char> done(spans.size(), 0);
  std::vector<std::size_t> chain;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    chain.clear();
    std::size_t at = i;
    while (!done[at]) {
      chain.push_back(at);
      const auto parent = index.find(spans[at].parent);
      if (spans[at].parent == 0 || parent == index.end()) break;
      at = parent->second;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const Span& span = spans[*it];
      std::pair<std::int64_t, std::int64_t> interval{span.start_ns, span.end_ns};
      const auto parent = index.find(span.parent);
      if (span.parent != 0 && parent != index.end()) {
        const auto& outer = clipped[parent->second];
        interval.first = std::max(interval.first, outer.first);
        interval.second = std::min(interval.second, outer.second);
        if (interval.second < interval.first) interval.second = interval.first;
      }
      clipped[*it] = interval;
      done[*it] = 1;
    }
  }

  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 && index.count(spans[i].parent) != 0) {
      children[spans[i].parent].push_back(clipped[i]);
    }
  }

  LayerTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    double self = static_cast<double>(clipped[i].second - clipped[i].first);
    const auto kids = children.find(spans[i].id);
    if (kids != children.end()) self -= union_length(kids->second);
    if (spans[i].parent == 0 || index.count(spans[i].parent) == 0) {
      out.root_ns += static_cast<double>(clipped[i].second - clipped[i].first);
    }
    const std::string& name = spans[i].layer < names.size() ? names[spans[i].layer] : "?";
    out.self_ns[name] += self;
    out.total_self_ns += self;
  }
  return out;
}

}  // namespace perfbench
