#include "retask/core/dp_table.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <optional>
#include <string>

#include "retask/common/error.hpp"
#include "retask/simd/kernels.hpp"

namespace retask {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Tasks an accept mask can hold.
constexpr std::size_t kMaskWidth = 64;

/// The list phase hands off once it holds more than (reach + 1) /
/// kRowsPerEntry entries.
constexpr std::size_t kRowsPerEntry = 16;

/// Rows dp_staircase scans between two growths of its output.
constexpr std::size_t kStaircaseChunk = 256;

/// Bytes of one list entry: its row, value and mask.
constexpr std::size_t kListEntryBytes =
    sizeof(std::size_t) + sizeof(double) + sizeof(std::uint64_t);

/// Throws Error when two record lists of `entries` entries (a merge's input
/// and output) would exceed kDpTableByteBudget.
void require_dp_list_budget(std::size_t entries) {
  if (entries <= kDpTableByteBudget / (2 * kListEntryBytes)) return;
  throw Error("DP record lists of " + std::to_string(entries) + " entries need " +
              std::to_string(entries * 2 * kListEntryBytes) + " bytes, over the " +
              std::to_string(kDpTableByteBudget) + "-byte table budget");
}

/// Grows the arrays of `list` to hold at least `entries` entries.
void grow_entries(DpRecordList& list, std::size_t entries) {
  if (list.rows.size() >= entries) return;
  list.rows.resize(entries);
  list.kept.resize(entries);
  list.masks.resize(entries);
}

/// One list-phase level (the merge in core/dp_table.hpp): writes to the
/// `out_*` arrays the records of the row that relaxing `task` (c <= cap)
/// into the row of `m` records at `rows`/`kept` leaves, and returns how many
/// it kept. With kMasks each record carries its accept mask (`bit` is the
/// task's); without, the mask arrays are never touched and may be null. The
/// output must hold 2 * m entries. Each step writes its candidate and keeps it
/// by advancing the output only when it is a record, so the loop has no
/// data-dependent branch to mispredict.
template <bool kMasks>
std::size_t merge_records(const std::size_t* rows, const double* kept,
                          const std::uint64_t* masks, std::size_t m, std::size_t cap,
                          const FrameTask& task, std::uint64_t bit, std::size_t* out_rows,
                          double* out_kept, std::uint64_t* out_masks) {
  const auto c = static_cast<std::size_t>(task.cycles);
  const double p = task.penalty;
  const auto mask_of = [&](std::size_t i) -> std::uint64_t {
    if constexpr (kMasks) return masks[i];
    return 0;
  };
  // Shifted entries past the cap are dropped.
  const auto shifted = static_cast<std::size_t>(std::upper_bound(rows, rows + m, cap - c) - rows);
  std::size_t k = 0;
  double best = kNegInf;
  const auto emit = [&](std::size_t w, double v, std::uint64_t mask) {
    out_rows[k] = w;
    out_kept[k] = v;
    if constexpr (kMasks) out_masks[k] = mask;
    const bool record = v > best;
    k += record ? 1 : 0;
    best = record ? v : best;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < m && j < shifted) {
    const std::size_t a = rows[i];
    const std::size_t b = rows[j] + c;
    const double v = kept[j] + p;
    // The shifted entry takes a row `in` also holds only when strictly larger.
    const bool take = (b < a) | ((b == a) & (v > kept[i]));
    emit(take ? b : a, take ? v : kept[i], take ? mask_of(j) | bit : mask_of(i));
    i += a <= b ? 1 : 0;
    j += b <= a ? 1 : 0;
  }
  for (; i < m; ++i) emit(rows[i], kept[i], mask_of(i));
  for (; j < shifted; ++j) emit(rows[j] + c, kept[j] + p, mask_of(j) | bit);
  return k;
}

/// merge_records over record lists; `out` must hold 2 * in.size entries.
void merge(const DpRecordList& in, DpRecordList& out, std::size_t cap, const FrameTask& task,
           std::uint64_t bit) {
  out.size = merge_records<true>(in.rows.data(), in.kept.data(), in.masks.data(), in.size, cap,
                                 task, bit, out.rows.data(), out.kept.data(), out.masks.data());
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
  // Each row is written at the output's end, which advances only on a record,
  // so the scan has no data-dependent branch. Before each chunk the output
  // grows to hold the chunk past the records so far; it is never trimmed
  // between chunks, so each growth adds one slot per record the previous
  // chunk found, and storage stays at the record count plus one chunk.
  std::size_t k = 0;
  double record = kNegInf;
  for (std::size_t lo = 0; lo <= cap; lo += kStaircaseChunk) {
    const std::size_t hi = std::min(cap, lo + kStaircaseChunk - 1);
    out.rows.resize(k + (hi + 1 - lo));
    out.kept.resize(k + (hi + 1 - lo));
    std::size_t* rows = out.rows.data();
    double* values = out.kept.data();
    for (std::size_t w = lo; w <= hi; ++w) {
      const double v = kept[w];
      rows[k] = w;
      values[k] = v;
      const bool is_record = v > record;
      k += is_record ? 1 : 0;
      record = is_record ? v : record;
    }
  }
  out.rows.resize(k);
  out.kept.resize(k);
}

void dp_merge_staircase(const DpStaircase& in, std::size_t cap, const FrameTask& task,
                        DpStaircase& out) {
  RETASK_ASSERT(static_cast<std::size_t>(task.cycles) <= cap);
  const std::size_t m = in.rows.size();
  out.rows.resize(2 * m);
  out.kept.resize(2 * m);
  const std::size_t k = merge_records<false>(in.rows.data(), in.kept.data(), nullptr, m, cap,
                                             task, 0, out.rows.data(), out.kept.data(), nullptr);
  out.rows.resize(k);
  out.kept.resize(k);
}

DpFillCounts dp_fill(DpScratch& table, const FrameTask* tasks, std::size_t n, std::size_t cap) {
  DpFillCounts counts;
  DpRecordList& list = table.list;
  grow_entries(list, 1);
  list.rows[0] = 0;  // the empty accept set
  list.kept[0] = 0.0;
  list.masks[0] = 0;
  list.size = 1;
  std::size_t reach = 0;
  std::size_t level = 0;
  for (; level < n && counts.handoff == DpHandoff::kNone; ++level) {
    if (level == kMaskWidth) {
      counts.handoff = DpHandoff::kMaskWidth;
      break;
    }
    const auto c = static_cast<std::size_t>(tasks[level].cycles);
    if (c > cap) {  // can never be accepted
      ++counts.tasks_pruned;
      continue;
    }
    require_dp_list_budget(2 * list.size);
    grow_entries(table.spare, 2 * list.size);
    merge(list, table.spare, cap, tasks[level], std::uint64_t{1} << level);
    std::swap(list, table.spare);
    counts.list_entries += list.size;
    reach = std::min(cap, reach + c);
    if (level + 1 < n && list.size > (reach + 1) / kRowsPerEntry) {
      counts.handoff = DpHandoff::kListOutgrewReach;
    }
  }
  table.list_levels = level;
  if (counts.handoff == DpHandoff::kNone) {
    table.stairs.rows.assign(list.rows.data(), list.rows.data() + list.size);
    table.stairs.kept.assign(list.kept.data(), list.kept.data() + list.size);
    return counts;
  }

  // The dense phase; table.list keeps the records at the hand-off level for
  // the backtrack.
  const std::size_t width = (cap + 1 + 63) / 64 * 64;
  require_dp_table_budget("", width, 1, n - level);
  table.value.resize(width);
  table.take.reset(n - level, width);
  double* value = table.value.data();
  // The fill reads and writes only rows [0, cap], so only those are reset.
  std::fill_n(value, cap + 1, kNegInf);
  for (std::size_t j = 0; j < list.size; ++j) value[list.rows[j]] = list.kept[j];
  reach = list.rows[list.size - 1];  // the scattered row is -inf above its last record
  const simd::KernelTable& kernels = simd::kernels();
  for (std::size_t i = level; i < n; ++i) {
    const std::size_t touched =
        relax(kernels, value, table.take.row_words(i - level), cap, reach, tasks[i]);
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

void dp_backtrack(const DpScratch& table, const FrameTask* tasks, std::size_t n, std::size_t w,
                  std::vector<bool>& accepted) {
  accepted.assign(n, false);
  const std::size_t levels = table.list_levels;
  for (std::size_t i = n; i-- > levels;) {
    if (table.take.test(i - levels, w)) {
      accepted[i] = true;
      w -= static_cast<std::size_t>(tasks[i].cycles);
    }
  }
  if (levels == 0) {
    RETASK_ASSERT(w == 0);
    return;
  }
  // The walk reached a record of the list phase's last row (the header
  // comment), which the list holds with its accept mask.
  const DpRecordList& list = table.list;
  const std::size_t* end = list.rows.data() + list.size;
  const std::size_t* at = std::lower_bound(list.rows.data(), end, w);
  RETASK_ASSERT(at != end && *at == w);
  for (std::uint64_t mask = list.masks[static_cast<std::size_t>(at - list.rows.data())];
       mask != 0; mask &= mask - 1) {
    accepted[static_cast<std::size_t>(std::countr_zero(mask))] = true;
  }
}

}  // namespace retask
