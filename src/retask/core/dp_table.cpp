#include "retask/core/dp_table.hpp"

#include <algorithm>
#include <string>

#include "retask/common/error.hpp"
#include "retask/simd/kernels.hpp"

namespace retask {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Byte budget of one lane's table export (value row + dense checkpoint
/// rows + choice bits). Costlier captures are skipped and the consumer
/// falls back to a cold seed.
constexpr std::size_t kExportByteBudget = std::size_t{16} << 20;

/// Checks the bytes of `lanes` lane tables over `n` tasks at `stride`
/// cells each — lanes * (stride doubles + n * stride / 64 choice words) —
/// and throws Error naming the size when it overflows size_t or exceeds
/// kDpTableByteBudget.
void check_table_size(std::size_t lanes, std::size_t n, std::size_t stride) {
  std::size_t value_bytes = 0;
  std::size_t take_bytes = 0;
  std::size_t lane_bytes = 0;
  std::size_t bytes = 0;
  const bool overflow =
      __builtin_mul_overflow(stride, sizeof(double), &value_bytes) ||
      __builtin_mul_overflow(n, stride / 64 * sizeof(std::uint64_t), &take_bytes) ||
      __builtin_add_overflow(value_bytes, take_bytes, &lane_bytes) ||
      __builtin_mul_overflow(lane_bytes, lanes, &bytes);
  if (!overflow && bytes <= kDpTableByteBudget) return;
  const std::string shape = std::to_string(lanes) + " lane(s) x " + std::to_string(stride) +
                            " cells x " + std::to_string(n) + " tasks";
  if (overflow) throw Error("DP table of " + shape + " overflows size_t bytes");
  throw Error("DP table of " + shape + " needs " + std::to_string(bytes) + " bytes, over the " +
              std::to_string(kDpTableByteBudget) + "-byte table budget");
}

std::size_t relax(const simd::KernelTable& kernels, double* value, std::uint64_t* take_row,
                  std::size_t cap, std::size_t& reach, const FrameTask& task) {
  const auto c = static_cast<std::size_t>(task.cycles);
  if (c > cap) return 0;  // can never be accepted
  const std::size_t top = std::min(cap, reach + c);
  // -inf source cells stay -inf through the add and never beat a row value,
  // so the kernel needs no explicit reachability test per cell.
  kernels.relax_desc_f64(value, take_row, c, c, top, task.penalty);
  reach = top;
  return top + 1 - c;
}

/// The export slot of a lane `width` cells wide, or null when the capture
/// would exceed kExportByteBudget. Checkpoint rows are dense at `stride`
/// tasks, targeting <= 4 retained rows to bound the replay cost.
DpTableExport* export_slot(std::vector<DpTableExport>* exports, std::size_t k, std::size_t n,
                           std::size_t width, std::size_t stride) {
  if (exports == nullptr || n == 0) return nullptr;
  const std::size_t bytes = (n / stride + 1) * width * sizeof(double) +
                            n * ((width + 63) / 64) * sizeof(std::uint64_t);
  if (bytes > kExportByteBudget) return nullptr;
  DpTableExport* slot = &(*exports)[k];
  slot->checkpoint_stride = static_cast<int>(stride);
  slot->cp_values.clear();
  slot->cp_reach.clear();
  return slot;
}

}  // namespace

Cycles dp_fill_capacity(const RejectionProblem& problem) {
  require(problem.processor_count() == 1, "ExactDpSolver: single-processor algorithm");
  const Cycles cap = std::min(problem.cycle_capacity(), problem.tasks().total_cycles());
  require(cap >= 0, "ExactDpSolver: negative capacity");
  return cap;
}

std::size_t dp_relax(double* value, std::uint64_t* take_row, std::size_t cap,
                     std::size_t& reach, const FrameTask& task) {
  return relax(simd::kernels(), value, take_row, cap, reach, task);
}

DpFillCounts dp_fill(DpScratch& table, std::size_t n, const DpFillLane* lanes,
                     std::size_t count, std::vector<DpTableExport>* exports) {
  std::size_t width = 0;
  for (std::size_t k = 0; k < count; ++k) width = std::max(width, lanes[k].cap + 1);
  const std::size_t stride = (width + 63) / 64 * 64;
  check_table_size(count, n, stride);
  table.stride = stride;
  table.value.assign(stride * count, kNegInf);
  table.take.reset(n, stride * count);

  const simd::KernelTable& kernels = simd::kernels();
  const std::size_t export_stride = std::max<std::size_t>(1, (n + 3) / 4);
  DpFillCounts counts;
  for (std::size_t k = 0; k < count; ++k) {
    const DpFillLane& lane = lanes[k];
    const std::size_t lane_width = lane.cap + 1;
    double* value = table.value.data() + k * stride;
    value[0] = 0.0;  // the empty accept set
    const std::size_t word_offset = k * stride / 64;
    DpTableExport* exported = export_slot(exports, k, n, lane_width, export_stride);
    std::size_t reach = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t touched =
          relax(kernels, value, table.take.row_words(i) + word_offset, lane.cap, reach,
                lane.tasks[i]);
      if (touched == 0) {
        ++counts.tasks_pruned;
        counts.cells_skipped += lane_width;
      } else {
        counts.cells_touched += touched;
        counts.cells_skipped += lane_width - touched;
      }
      if (exported != nullptr && (i + 1) % export_stride == 0) {
        exported->cp_values.emplace_back(value, value + lane_width);
        exported->cp_reach.push_back(reach);
      }
    }
    if (exported != nullptr) {
      exported->value.assign(value, value + lane_width);
      exported->reachable = reach;
      exported->take.reset(n, lane_width);
      for (std::size_t i = 0; i < n; ++i) {
        std::copy_n(table.take.row_words(i) + word_offset, exported->take.words_per_row(),
                    exported->take.row_words(i));
      }
    }
  }
  return counts;
}

DpSelectStats dp_select(DpSelectLane* lanes, std::size_t count, const DpEnergyBatch& energy_batch,
                        std::vector<Cycles>& batch_cycles, std::vector<double>& batch_energy) {
  constexpr std::size_t kChunk = 64;
  const simd::KernelTable& kernels = simd::kernels();
  std::size_t width = 0;
  for (std::size_t k = 0; k < count; ++k) {
    lanes[k].best_objective = std::numeric_limits<double>::infinity();
    lanes[k].best_w = 0;
    lanes[k].done = false;
    width = std::max(width, lanes[k].cap + 1);
  }
  DpSelectStats stats;
  double energy_at[kChunk] = {0.0};  // dense per-chunk view; stale rows are never walked
  for (std::size_t w0 = 0; w0 < width; w0 += kChunk) {
    const std::size_t w1 = std::min(width, w0 + kChunk);
    // Predict: bit w - w0 of a lane's mask is set iff total - kept[w] beats
    // the lane's best at chunk entry, which folds the -inf reachability
    // skip into the bound compare (total - (-inf) == +inf never wins).
    std::uint64_t need = 0;
    bool all_done = true;
    for (std::size_t k = 0; k < count; ++k) {
      DpSelectLane& lane = lanes[k];
      lane.mask = 0;
      if (lane.done) continue;
      all_done = false;
      if (w0 > lane.cap) continue;
      lane.mask = kernels.select_mask_f64(lane.kept + w0, std::min(w1, lane.cap + 1) - w0,
                                          lane.total_penalty, lane.best_objective);
      need |= lane.mask;
    }
    if (all_done) break;
    if (need == 0) continue;
    // Batch: one energy call over the union of the lanes' predicted rows.
    batch_cycles.clear();
    for (std::uint64_t bits = need; bits != 0; bits &= bits - 1) {
      batch_cycles.push_back(static_cast<Cycles>(w0 + __builtin_ctzll(bits)));
    }
    batch_energy.resize(batch_cycles.size());
    energy_batch(batch_cycles.data(), batch_energy.data(), batch_cycles.size());
    stats.energy_evals += batch_cycles.size();
    std::size_t j = 0;
    for (std::uint64_t bits = need; bits != 0; bits &= bits - 1) {
      energy_at[static_cast<std::size_t>(__builtin_ctzll(bits))] = batch_energy[j++];
    }
    // Replay: every live lane's serial decision walk over its masked rows
    // (same prunes, same early exit, same improvement order).
    for (std::size_t k = 0; k < count; ++k) {
      DpSelectLane& lane = lanes[k];
      if (lane.done || lane.mask == 0) continue;
      ++stats.scan_words;
      lane.done = kernels.select_scan_f64(lane.kept + w0, energy_at,
                                          std::min(w1, lane.cap + 1) - w0, lane.mask,
                                          lane.total_penalty, w0, &lane.best_objective,
                                          &lane.best_w) != 0;
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    RETASK_ASSERT(lanes[k].best_objective < std::numeric_limits<double>::infinity());
  }
  return stats;
}

void dp_backtrack(const BitMatrix& take, std::size_t offset, const FrameTask* tasks,
                  std::size_t n, std::size_t w, std::vector<bool>& accepted) {
  accepted.assign(n, false);
  for (std::size_t i = n; i-- > 0;) {
    if (take.test(i, offset + w)) {
      accepted[i] = true;
      w -= static_cast<std::size_t>(tasks[i].cycles);
    }
  }
  RETASK_ASSERT(w == 0);
}

}  // namespace retask
