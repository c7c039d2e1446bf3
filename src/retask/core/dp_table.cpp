#include "retask/core/dp_table.hpp"

#include <algorithm>
#include <optional>
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

/// Throws Error naming the size when one value row of `stride` cells plus
/// `lanes` lanes of choice bits over `n` tasks overflows size_t or exceeds
/// kDpTableByteBudget.
void check_table_size(std::size_t lanes, std::size_t n, std::size_t stride) {
  std::size_t take_rows = 0;
  const std::optional<std::size_t> bytes =
      __builtin_mul_overflow(n, lanes, &take_rows) ? std::nullopt
                                                   : dp_table_bytes(stride, 1, take_rows);
  if (bytes && *bytes <= kDpTableByteBudget) return;
  const std::string shape = std::to_string(lanes) + " lane(s) x " + std::to_string(stride) +
                            " cells x " + std::to_string(n) + " tasks";
  if (!bytes) throw Error("DP table of " + shape + " overflows size_t bytes");
  throw Error("DP table of " + shape + " needs " + std::to_string(*bytes) + " bytes, over the " +
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

std::optional<std::size_t> dp_table_bytes(std::size_t width, std::size_t value_rows,
                                          std::size_t take_rows) {
  std::size_t value_bytes = 0;
  std::size_t take_bytes = 0;
  std::size_t bytes = 0;
  const std::size_t take_words = width / 64 + (width % 64 != 0 ? 1 : 0);
  if (__builtin_mul_overflow(width, sizeof(double), &value_bytes) ||
      __builtin_mul_overflow(value_bytes, value_rows, &value_bytes) ||
      __builtin_mul_overflow(take_words, sizeof(std::uint64_t), &take_bytes) ||
      __builtin_mul_overflow(take_bytes, take_rows, &take_bytes) ||
      __builtin_add_overflow(value_bytes, take_bytes, &bytes)) {
    return std::nullopt;
  }
  return bytes;
}

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

void dp_staircase(const double* kept, std::size_t cap, DpStaircase& out) {
  out.rows.clear();
  out.kept.clear();
  double record = kNegInf;
  for (std::size_t w = 0; w <= cap; ++w) {
    if (kept[w] > record) {
      record = kept[w];
      out.rows.push_back(w);
      out.kept.push_back(record);
    }
  }
}

DpFillCounts dp_fill(DpScratch& table, std::size_t n, const DpFillLane* lanes,
                     std::size_t count, std::vector<DpTableExport>* exports) {
  std::size_t width = 0;
  for (std::size_t k = 0; k < count; ++k) width = std::max(width, lanes[k].cap + 1);
  const std::size_t stride = (width + 63) / 64 * 64;
  check_table_size(count, n, stride);
  table.stride = stride;
  table.value.resize(stride);
  table.take.reset(n, stride * count);
  table.stairs.resize(count);

  const simd::KernelTable& kernels = simd::kernels();
  const std::size_t export_stride = std::max<std::size_t>(1, (n + 3) / 4);
  double* value = table.value.data();
  DpFillCounts counts;
  for (std::size_t k = 0; k < count; ++k) {
    const DpFillLane& lane = lanes[k];
    const std::size_t lane_width = lane.cap + 1;
    // A lane reads and writes only rows [0, cap], so only those are reset.
    std::fill_n(value, lane_width, kNegInf);
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
    // Rows above the reach are unreachable (-inf) and never records.
    dp_staircase(value, std::min(lane.cap, reach), table.stairs[k]);
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
