#include "retask/serve/delta_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "retask/common/error.hpp"
#include "retask/core/dp_table.hpp"
#include "retask/obs/metrics.hpp"

namespace retask {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

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
  table_.value.assign(width_, kNegInf);
  table_.value[0] = 0.0;
  table_.take.reset(0, width_);
  memo_ = config_.shared_memo != nullptr ? config_.shared_memo : std::make_shared<EnergyMemo>();
  select();
}

std::size_t DeltaSolver::index_of(int id) const {
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].id == id) return i;
  }
  return kNone;
}

void DeltaSolver::ensure_rows(std::size_t rows) {
  if (rows <= rows_) return;
  rows_ = std::max({rows, rows_ * 2, std::size_t{8}});
  table_.take.resize_rows(rows_);
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
  // Checkpoints still valid; clamped so a retained-row shortfall (an
  // adopted table whose producer captured fewer rows than dense) degrades
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

const RejectionSolution& DeltaSolver::admit(const FrameTask& task) {
  validate(task);
  require(index_of(task.id) == kNone, "DeltaSolver::admit: task id already resident");
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
  for (const FrameTask& task : tasks) {
    validate(task);
    require(index_of(task.id) == kNone, "DeltaSolver::admit_all: task id already resident");
    tasks_.push_back(task);  // visible to index_of: later duplicates rejected
    total_cycles_ += task.cycles;
    const std::size_t i = tasks_.size() - 1;
    ensure_rows(i + 1);
    relax_row(i);
    push_checkpoint_if_due(i + 1);
    ++delta_hits_;
  }
  RETASK_COUNT("serve.delta_hits", tasks.size());
  select();
  return solution_;
}

const RejectionSolution& DeltaSolver::adopt_table(const std::vector<FrameTask>& tasks,
                                                  DpTableExport table) {
  require(tasks_.empty(), "DeltaSolver::adopt_table: solver already has resident tasks");
  const std::size_t n = tasks.size();
  require(!table.value.empty() && table.value.size() <= width_,
          "DeltaSolver::adopt_table: exported width exceeds the platform capacity");
  require(table.take.rows() == n, "DeltaSolver::adopt_table: choice rows != task count");
  require(table.checkpoint_stride >= 1, "DeltaSolver::adopt_table: checkpoint_stride must be >= 1");
  const auto stride = static_cast<std::size_t>(table.checkpoint_stride);
  require(table.cp_values.size() == n / stride && table.cp_reach.size() == table.cp_values.size(),
          "DeltaSolver::adopt_table: checkpoint rows must be dense at the stride");
  for (const FrameTask& task : tasks) {
    validate(task);
    require(index_of(task.id) == kNone, "DeltaSolver::adopt_table: duplicate task id");
    tasks_.push_back(task);  // visible to index_of: later duplicates rejected
    total_cycles_ += task.cycles;
  }

  // Rebind the checkpoint cadence to the export's so push_checkpoint_if_due
  // keeps the dense invariant (cp_values_[c] is the row after (c + 1) *
  // stride tasks) across future admissions. The stride never affects a
  // solution bit, only replay cost.
  config_.checkpoint_stride = table.checkpoint_stride;
  drop_checkpoints_to(0);
  for (std::size_t c = 0; c < table.cp_values.size(); ++c) {
    table.cp_values[c].resize(width_, kNegInf);  // rows above the export stay unreachable
    cp_values_.push_back(std::move(table.cp_values[c]));
    cp_reach_.push_back(table.cp_reach[c]);
  }

  ensure_rows(n);
  std::copy(table.value.begin(), table.value.end(), table_.value.begin());
  std::fill(table_.value.begin() + static_cast<std::ptrdiff_t>(table.value.size()),
            table_.value.end(), kNegInf);
  reachable_ = table.reachable;
  const std::size_t src_words = table.take.words_per_row();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t* row = table_.take.row_words(i);
    std::copy_n(table.take.row_words(i), src_words, row);
    std::fill(row + src_words, row + table_.take.words_per_row(), std::uint64_t{0});
  }

  ++delta_hits_;
  RETASK_COUNT("serve.delta_hits", 1);
  RETASK_COUNT("delta.table_adoptions", 1);
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

double DeltaSolver::energy_of(Cycles cycles) {
  return memo_->get_or_compute(cycles, [this](Cycles c) {
    return curve_.energy(work_per_cycle_ * static_cast<double>(c));
  });
}

void DeltaSolver::energy_batch(const Cycles* cycles, double* out, std::size_t n) {
  // Mirrors RejectionProblem::energy_of_cycles_batch: memo hits replay
  // recorded bits, misses run through the fused batch kernel (bit-identical
  // to one-at-a-time evaluation) and are recorded.
  miss_index_.clear();
  miss_cycles_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (!memo_->lookup(cycles[i], out[i])) {
      miss_index_.push_back(i);
      miss_cycles_.push_back(cycles[i]);
    }
  }
  if (miss_index_.empty()) return;
  miss_out_.resize(miss_index_.size());
  curve_.energy_cycles_batch(work_per_cycle_, miss_cycles_.data(), miss_out_.data(),
                             miss_index_.size());
  for (std::size_t j = 0; j < miss_index_.size(); ++j) {
    memo_->record(miss_cycles_[j], miss_out_[j]);
    out[miss_index_[j]] = miss_out_[j];
  }
}

void DeltaSolver::select() {
  const std::size_t n = tasks_.size();
  // A cold solve fills at min(capacity, total cycles); our retained table
  // is filled at the full capacity, and the prefix property makes rows
  // <= that cap bit-identical, so sweeping the same range reads the same
  // answer.
  const auto cap = static_cast<std::size_t>(std::min(cycle_capacity_, total_cycles_));
  // Recomputed in residual order every time — FrameTaskSet accumulates its
  // total the same way, and float addition is order-sensitive, so an
  // incrementally maintained sum could drift from the cold solve's bits.
  double total_penalty = 0.0;
  for (const FrameTask& task : tasks_) total_penalty += task.penalty;

  DpSelectLane lane;
  lane.kept = table_.value.data();
  lane.cap = cap;
  lane.total_penalty = total_penalty;
  [[maybe_unused]] const DpSelectStats stats = dp_select(
      &lane, 1,
      [this](const Cycles* cycles, double* out, std::size_t m) { energy_batch(cycles, out, m); },
      table_.select_cycles, table_.select_energy);
  RETASK_COUNT("serve.select_energy_evals", stats.energy_evals);
  dp_backtrack(table_.take, 0, tasks_.data(), n, lane.best_w, solution_.accepted);

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
