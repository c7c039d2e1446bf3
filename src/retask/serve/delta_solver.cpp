#include "retask/serve/delta_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "retask/common/error.hpp"
#include "retask/core/dp_table.hpp"
#include "retask/obs/metrics.hpp"

namespace retask {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// probe_admit's buffers: the merged staircase and the accept set it
/// backtracks. One set per thread, shared by every solver the thread probes.
struct ProbeScratch {
  DpStaircase stairs;
  std::vector<bool> accepted;
};

ProbeScratch& probe_scratch() {
  thread_local ProbeScratch scratch;
  return scratch;
}

}  // namespace

double assigned_speed(const EnergyCurve& curve, double work_per_cycle, Cycles load) {
  require(load >= 0, "assigned_speed: negative load");
  const ExecutionPlan plan = curve.plan(work_per_cycle * static_cast<double>(load));
  double work = 0.0;
  double busy = 0.0;
  for (const PlanSegment& segment : plan.segments) {
    if (segment.speed <= 0.0) continue;
    work += segment.speed * segment.duration;
    busy += segment.duration;
  }
  return busy > 0.0 ? work / busy : 0.0;
}

DeltaSolver::DeltaSolver(EnergyCurve curve, double work_per_cycle, Config config)
    : curve_(std::move(curve)), work_per_cycle_(work_per_cycle), config_(config) {
  require(work_per_cycle_ > 0.0, "DeltaSolver: work_per_cycle must be positive");
  require(config_.checkpoint_stride >= 1, "DeltaSolver: checkpoint_stride must be >= 1");
  cycle_capacity_ = cycle_capacity_for(curve_, work_per_cycle_);
  width_ = static_cast<std::size_t>(cycle_capacity_) + 1;
  require_dp_table_budget("DeltaSolver", width_, 1, 0);
  table_.value.assign(width_, kNegInf);
  table_.value[0] = 0.0;
  table_.take.reset(0, width_);
  select();
}

std::size_t DeltaSolver::index_of(int id) const {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].id == id) return i;
  }
  return kNone;
}

std::size_t DeltaSolver::grown_rows(std::size_t rows) const {
  return rows <= rows_ ? rows_ : std::max({rows, rows_ * 2, std::size_t{8}});
}

void DeltaSolver::ensure_rows(std::size_t rows) {
  if (rows <= rows_) return;
  rows_ = grown_rows(rows);
  table_.take.resize_rows(rows_);
}

std::size_t DeltaSolver::value_rows() const {
  return 1 + cp_values_.size() + cp_pool_.size();
}

void DeltaSolver::relax_row(std::size_t i) {
  // The row may hold bits from an earlier fill epoch (a removed task's
  // relaxation); the relaxation only ORs improvements in, so clear first.
  std::fill_n(table_.take.row_words(i), table_.take.words_per_row(), std::uint64_t{0});
  dp_relax(table_.value.data(), table_.take.row_words(i), width_ - 1, reachable_, tasks_[i]);
}

void DeltaSolver::push_checkpoint_if_due(std::size_t prefix) {
  const auto stride = static_cast<std::size_t>(config_.checkpoint_stride);
  if (prefix == 0 || prefix % stride != 0) return;
  // Checkpoint j holds the prefix at (j + 1) * stride, so once a new row did
  // not fit the budget no later checkpoint is taken either; replay_from
  // starts from the last one taken.
  const bool in_order = cp_values_.size() + 1 == prefix / stride;
  const std::optional<std::size_t> bytes = dp_table_bytes(width_, value_rows() + 1, rows_);
  const bool fits = !cp_pool_.empty() || (bytes && *bytes <= kDpTableByteBudget);
  if (!in_order || !fits) {
    RETASK_COUNT("serve.fallback.checkpoint_budget", 1);
    return;
  }
  if (cp_pool_.empty()) {
    cp_values_.emplace_back();
  } else {
    cp_values_.push_back(std::move(cp_pool_.back()));
    cp_pool_.pop_back();
  }
  cp_values_.back() = table_.value;  // assign into retained capacity
  cp_reach_.push_back(reachable_);
}

void DeltaSolver::drop_checkpoints_to(std::size_t count) {
  while (cp_values_.size() > count) {
    cp_pool_.push_back(std::move(cp_values_.back()));
    cp_values_.pop_back();
    cp_reach_.pop_back();
  }
}

void DeltaSolver::replay_from(std::size_t invalidated) {
  const auto stride = static_cast<std::size_t>(config_.checkpoint_stride);
  // Checkpoints still valid; clamped so a retained-row shortfall degrades
  // to a longer replay instead of an out-of-range read.
  const std::size_t keep = std::min(invalidated / stride, cp_values_.size());
  drop_checkpoints_to(keep);
  const std::size_t start = keep * stride;
  if (keep == 0) {
    std::fill(table_.value.begin(), table_.value.end(), kNegInf);
    table_.value[0] = 0.0;
    reachable_ = 0;
  } else {
    std::copy(cp_values_[keep - 1].begin(), cp_values_[keep - 1].end(), table_.value.begin());
    reachable_ = cp_reach_[keep - 1];
  }
  if (start == 0 && !tasks_.empty()) {
    ++cold_falls_;
    RETASK_COUNT("serve.cold_falls", 1);
  } else {
    ++delta_hits_;
    RETASK_COUNT("serve.delta_hits", 1);
  }
  for (std::size_t i = start; i < tasks_.size(); ++i) {
    relax_row(i);
    push_checkpoint_if_due(i + 1);
  }
}

void DeltaSolver::require_admissible(const FrameTask& task,
                                     std::string_view resident_message) const {
  validate(task);
  require(index_of(task.id) == kNone, resident_message);
  require_dp_table_budget("DeltaSolver", width_, value_rows(), grown_rows(tasks_.size() + 1));
}

const RejectionSolution& DeltaSolver::admit(const FrameTask& task) {
  require_admissible(task, "DeltaSolver::admit: task id already resident");
  tasks_.push_back(task);
  total_cycles_ += task.cycles;
  const std::size_t i = tasks_.size() - 1;
  ensure_rows(i + 1);
  relax_row(i);
  push_checkpoint_if_due(i + 1);
  ++delta_hits_;
  RETASK_COUNT("serve.delta_hits", 1);
  select();
  return solution_;
}

const RejectionSolution& DeltaSolver::admit_all(const std::vector<FrameTask>& tasks) {
  const std::size_t n = tasks_.size() + tasks.size();
  require_dp_table_budget("DeltaSolver", width_, value_rows(), grown_rows(n));
  ensure_rows(n);
  for (const FrameTask& task : tasks) {
    validate(task);
    require(index_of(task.id) == kNone, "DeltaSolver::admit_all: task id already resident");
    tasks_.push_back(task);  // visible to index_of: later duplicates rejected
    total_cycles_ += task.cycles;
    const std::size_t i = tasks_.size() - 1;
    relax_row(i);
    push_checkpoint_if_due(i + 1);
    ++delta_hits_;
  }
  RETASK_COUNT("serve.delta_hits", tasks.size());
  select();
  return solution_;
}

const RejectionSolution& DeltaSolver::remove(int id) {
  const std::size_t i = index_of(id);
  require(i != kNone, "DeltaSolver::remove: unknown task id");
  total_cycles_ -= tasks_[i].cycles;
  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(i));
  replay_from(i);
  select();
  return solution_;
}

const RejectionSolution& DeltaSolver::reprice(int id, double penalty) {
  const std::size_t i = index_of(id);
  require(i != kNone, "DeltaSolver::reprice: unknown task id");
  FrameTask probe = tasks_[i];
  probe.penalty = penalty;
  validate(probe);  // same rules as admit (finite, non-negative)
  tasks_[i] = probe;
  replay_from(i);
  select();
  return solution_;
}

double DeltaSolver::probe_admit(const FrameTask& task) const {
  require_admissible(task, "DeltaSolver::probe_admit: task id already resident");
  const std::size_t n = tasks_.size();
  const auto c = static_cast<std::size_t>(task.cycles);
  const auto cap = static_cast<std::size_t>(std::min(cycle_capacity_, total_cycles_ + task.cycles));
  // The same sum select() would take after the append: residents in order,
  // then the new task.
  const double total_penalty = resident_penalty() + task.penalty;

  // The records of the relaxed row are the retained staircase merged with
  // its shift by (c, p) (core/dp_table.hpp); a task wider than the table
  // relaxes nothing and leaves the staircase as it is.
  ProbeScratch& scratch = probe_scratch();
  const bool fits = c <= width_ - 1;
  if (fits) dp_merge_staircase(table_.stairs, width_ - 1, task, scratch.stairs);
  const DpPick pick = dp_select(fits ? scratch.stairs : table_.stairs, cap, total_penalty,
                                [this](Cycles w) { return energy_of(w); });
  RETASK_COUNT("serve.select_energy_evals", pick.energy_evals);

  // The choice bit the relaxation would set at the picked row, by the dense
  // rule; below it the retained bits rebuild the rest of the accept set.
  const std::size_t w = pick.best_w;
  const double* value = table_.value.data();
  const bool taken = w >= c && value[w - c] + task.penalty > value[w];
  dp_backtrack(table_, tasks_.data(), n, taken ? w - c : w, scratch.accepted);

  // Score as select() does, the new task last.
  Cycles load = taken ? task.cycles : 0;
  double penalty = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (scratch.accepted[i]) {
      load += tasks_[i].cycles;
    } else {
      penalty += tasks_[i].penalty;
    }
  }
  if (!taken) penalty += task.penalty;
  return energy_of(load) + penalty;
}

double DeltaSolver::energy_of(Cycles cycles) const {
  return curve_.energy(work_per_cycle_ * static_cast<double>(cycles));
}

double DeltaSolver::resident_penalty() const {
  // Recomputed in residual order every time — FrameTaskSet accumulates its
  // total the same way, and float addition is order-sensitive, so an
  // incrementally maintained sum could drift from the cold solve's bits.
  double total = 0.0;
  for (const FrameTask& task : tasks_) total += task.penalty;
  return total;
}

void DeltaSolver::select() {
  const std::size_t n = tasks_.size();
  // A cold solve fills at min(capacity, total cycles); our retained table
  // is filled at the full capacity, and the prefix property makes rows
  // <= that cap bit-identical, so sweeping the same range reads the same
  // answer.
  const auto cap = static_cast<std::size_t>(std::min(cycle_capacity_, total_cycles_));
  // Rows above the reach are unreachable (-inf) and never records.
  dp_staircase(table_.value.data(), std::min(cap, reachable_), table_.stairs);
  const DpPick pick = dp_select(table_.stairs, cap, resident_penalty(),
                                [this](Cycles w) { return energy_of(w); });
  RETASK_COUNT("serve.select_energy_evals", pick.energy_evals);
  dp_backtrack(table_, tasks_.data(), n, pick.best_w, solution_.accepted);

  // Score exactly as make_solution does: rejected penalties summed in index
  // order, energy through the single-load evaluation.
  solution_.processor_of.assign(n, -1);
  Cycles load = 0;
  double penalty = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (solution_.accepted[i]) {
      solution_.processor_of[i] = 0;
      load += tasks_[i].cycles;
    } else {
      penalty += tasks_[i].penalty;
    }
  }
  solution_.energy = energy_of(load);
  solution_.penalty = penalty;
  accepted_load_ = load;
}

RejectionProblem DeltaSolver::make_problem() const {
  return RejectionProblem(FrameTaskSet(tasks_), curve_, work_per_cycle_, 1);
}

}  // namespace retask
