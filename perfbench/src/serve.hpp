// serve_churn: one admission-control session through run_serve_loop over
// OS pipes, driven by one closed-loop client thread.
//
// Set-up creates the session, starts the pump (its own thread plus the
// async writer thread run_serve_loop starts) and streams the initial
// resident set as a pipelined preload without waiting for replies — a
// daemon restart. The measured phase then keeps exactly one request in
// flight, because a scheduler blocks on each verdict. One op is one
// request answered.
//
// Every reply is logged (latency, accept count, resident count, objective)
// to a file next to the benchmark binary, so the log costs no resident
// memory. After the timed phase the request stream is regenerated from the
// seed and every reply is checked against a cold ExactDpSolver solve of the
// resident set it answered for.
#ifndef PERFBENCH_SERVE_HPP
#define PERFBENCH_SERVE_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "report.hpp"
#include "retask/common/rng.hpp"
#include "retask/task/task.hpp"

namespace perfbench {

struct ServeSizes {
  int preload = 0;   ///< tasks admitted by the set-up preload
  int band_lo = 0;   ///< the churn keeps the resident count in [band_lo, band_hi]
  int band_hi = 0;
  retask::Cycles cycles_lo = 0;  ///< task sizes, uniform
  retask::Cycles cycles_hi = 0;
};

enum class RequestKind : std::uint8_t { kAdmit, kRemove, kReprice, kQuery };

/// The seeded request stream and the client's model of the resident set
/// (the server's resident order: admits append, removes erase, reprices
/// keep the position).
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, ServeSizes sizes, double penalty_per_cycle);

  /// Next request: the preload's admits first, then the churn mix (about
  /// 55 % admit, 25 % remove, 15 % reprice, 5 % query; an admit at the
  /// band's top becomes a remove and a remove at its bottom an admit).
  /// Applies the request to the resident model.
  const std::string& next();
  bool in_preload() const { return issued_ < static_cast<std::uint64_t>(sizes_.preload); }
  const std::vector<retask::FrameTask>& resident() const { return resident_; }
  /// Churn requests issued so far per kind, as "admit=.. remove=.. ...".
  std::string mix_text() const;

 private:
  retask::FrameTask draw_task();
  double draw_penalty(retask::Cycles cycles);

  ServeSizes sizes_;
  double penalty_per_cycle_;
  retask::Rng rng_;
  std::uint64_t issued_ = 0;
  int next_id_ = 1;
  RequestKind kind_ = RequestKind::kAdmit;
  std::uint64_t churn_kinds_[4] = {0, 0, 0, 0};
  std::vector<retask::FrameTask> resident_;
  std::string text_;
};

/// One logged reply.
struct ReplyRecord {
  double slowness = 1.0;         ///< host slowness by the echo probe when it was sent
  std::uint32_t latency_ns = 0;  ///< client-observed round trip (0 for preload)
  std::int32_t accepted = -1;    ///< -1: the reply was `err` or unparsable
  std::int32_t resident = -1;
  double objective = 0.0;
};

/// Parses an `ok ...` reply's accepted=a/b and objective= fields; leaves
/// accepted = -1 for `err` or anything unparsable.
ReplyRecord parse_reply(const std::string& reply);

/// Checks logged replies against cold solves: regenerates the stream from
/// `seed`, replays it up to each record, and compares accept count,
/// resident count and objective bits. `records[i]` answers request i of the
/// stream (the preload first). Returns the op count; ratio_sum and
/// ratio_count accumulate objective / fractional_lower_bound over records
/// [ratio_first, ratio_limit). Runs on `threads` threads.
OpCount verify_replies(std::uint64_t seed, ServeSizes sizes, const std::vector<ReplyRecord>& records,
                       int threads, std::size_t ratio_first, std::size_t ratio_limit,
                       double* ratio_sum, std::size_t* ratio_count);

/// The serve platform: the daemon defaults (XScale, frame 1, capacity 1000
/// cycles, dormant-enable idle).
double serve_penalty_per_cycle();

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_HPP
