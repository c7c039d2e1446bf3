#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: empty sample");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("nearest_rank: p outside (0, 100]");
  const double n = static_cast<double>(sorted.size());
  // The 1e-9 slack keeps p * n / 100 = 990.0000000001 from rounding up a rank.
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p * n / 100.0 - 1e-9)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

TailPercentile tail_percentile(std::vector<double> samples, double target,
                               std::size_t min_beyond) {
  if (samples.empty()) throw std::invalid_argument("tail_percentile: empty sample");
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // Nearest rank r = ceil(p n / 100) leaves n - r samples beyond, so the
  // largest admissible rank is n - min_beyond.
  double p = 50.0;
  if (samples.size() > min_beyond) {
    p = std::min(target, 100.0 * static_cast<double>(samples.size() - min_beyond) / n);
  }
  p = std::max(p, 50.0);
  TailPercentile out;
  out.percentile = p;
  out.value = nearest_rank(samples, p);
  out.samples = samples.size();
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p * n / 100.0 - 1e-9)));
  out.beyond = samples.size() - std::min(rank, samples.size());
  return out;
}

Timing timing(const std::vector<Unit>& units) {
  if (units.empty()) throw std::invalid_argument("timing: no units");
  std::vector<const Unit*> by_scaled;
  std::vector<double> scaled, raw, slowness;
  double raw_ops = 0.0;
  double raw_sum = 0.0;
  for (const Unit& unit : units) {
    by_scaled.push_back(&unit);
    scaled.push_back(unit.scaled_ns());
    raw.push_back(unit.latency_ns);
    slowness.push_back(unit.slowness);
    raw_ops += unit.ops;
    raw_sum += unit.latency_ns;
  }
  std::sort(by_scaled.begin(), by_scaled.end(),
            [](const Unit* a, const Unit* b) { return a->scaled_ns() < b->scaled_ns(); });
  // The units at or below the p99 (nearest rank), at least one.
  const auto kept = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(units.size()) - 1e-9)));
  double ops = 0.0;
  double scaled_sum = 0.0;
  for (std::size_t i = 0; i < kept; ++i) {
    ops += by_scaled[i]->ops;
    scaled_sum += by_scaled[i]->scaled_ns();
  }
  Timing out;
  out.ops_per_s = ops / (scaled_sum / 1e9);
  out.raw_ops_per_s = raw_ops / (raw_sum / 1e9);
  out.p50_ns = median(scaled);
  out.raw_p50_ns = median(raw);
  out.slowness = median(slowness);
  out.tail = tail_percentile(scaled);
  std::sort(scaled.begin(), scaled.end());
  out.p90_ns = nearest_rank(scaled, 90.0);
  return out;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return nearest_rank(samples, 50.0);
}

}  // namespace perfbench
