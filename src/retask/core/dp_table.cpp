#include "retask/core/dp_table.hpp"

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>

#include "retask/common/error.hpp"
#include "retask/simd/kernels.hpp"

namespace retask {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

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

void require_dp_table_budget(std::string_view owner, std::size_t width, std::size_t value_rows,
                             std::size_t take_rows) {
  const std::optional<std::size_t> bytes = dp_table_bytes(width, value_rows, take_rows);
  if (bytes && *bytes <= kDpTableByteBudget) return;
  std::string message(owner);
  if (!message.empty()) message += ": ";
  message += "DP table of " + std::to_string(value_rows) + " value row(s) and " +
             std::to_string(take_rows) + " choice row(s) of " + std::to_string(width) + " cells";
  if (!bytes) throw Error(message + " overflows size_t bytes");
  throw Error(message + " needs " + std::to_string(*bytes) + " bytes, over the " +
              std::to_string(kDpTableByteBudget) + "-byte table budget");
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

DpFillCounts dp_fill(DpScratch& table, const FrameTask* tasks, std::size_t n, std::size_t cap) {
  const std::size_t width = (cap + 1 + 63) / 64 * 64;
  require_dp_table_budget("", width, 1, n);
  table.value.resize(width);
  table.take.reset(n, width);

  const simd::KernelTable& kernels = simd::kernels();
  double* value = table.value.data();
  // The fill reads and writes only rows [0, cap], so only those are reset.
  std::fill_n(value, cap + 1, kNegInf);
  value[0] = 0.0;  // the empty accept set
  DpFillCounts counts;
  std::size_t reach = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t touched =
        relax(kernels, value, table.take.row_words(i), cap, reach, tasks[i]);
    if (touched == 0) ++counts.tasks_pruned;
    counts.cells_touched += touched;
    counts.cells_skipped += cap + 1 - touched;
  }
  // Rows above the reach are unreachable (-inf) and never records.
  dp_staircase(value, std::min(cap, reach), table.stairs);
  return counts;
}

std::size_t dp_best_kept_row(const DpStaircase& stairs, std::size_t cap) {
  RETASK_ASSERT(!stairs.rows.empty() && stairs.rows.front() == 0);
  return *std::prev(std::upper_bound(stairs.rows.begin(), stairs.rows.end(), cap));
}

void dp_backtrack(const BitMatrix& take, const FrameTask* tasks, std::size_t n, std::size_t w,
                  std::vector<bool>& accepted) {
  accepted.assign(n, false);
  for (std::size_t i = n; i-- > 0;) {
    if (take.test(i, w)) {
      accepted[i] = true;
      w -= static_cast<std::size_t>(tasks[i].cycles);
    }
  }
  RETASK_ASSERT(w == 0);
}

}  // namespace retask
