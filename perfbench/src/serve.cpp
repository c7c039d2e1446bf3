#include "serve.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <ext/stdio_filebuf.h>
#include <iostream>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "obs_read.hpp"
#include "proc.hpp"
#include "retask/cache/energy_memo.hpp"
#include "retask/common/parallel.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/core/lower_bound.hpp"
#include "retask/exp/workload.hpp"
#include "retask/power/energy_curve.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/serve/protocol.hpp"
#include "retask/serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using retask::Cycles;
using retask::FrameTask;

constexpr double kCapacity = 1000.0;  // retask_serve's default --capacity
constexpr int kPreload = 48;
constexpr int kBandLo = 40;
constexpr int kBandHi = 64;
/// How often the closed loop runs the echo probe (about 1 % of the
/// client's time), and over how many of its latest readings a request's
/// slowness is the median: a single round trip carries the jitter of two
/// wake-ups.
constexpr std::int64_t kProbeEveryNs = 10'000'000;
constexpr std::size_t kProbeWindow = 25;

const retask::PolynomialPowerModel& serve_model() {
  static const retask::PolynomialPowerModel model = retask::PolynomialPowerModel::xscale();
  return model;
}

retask::EnergyCurve serve_curve() {
  return retask::EnergyCurve(serve_model(), 1.0, retask::IdleDiscipline::kDormantEnable);
}

double serve_work_per_cycle() { return serve_model().max_speed() * 1.0 / kCapacity; }

// ---------------------------------------------------------------------------
// Span ids of the traced session. The client's spans of request k get fixed
// ids so that the pump and writer threads can name their parent without
// talking to the client thread.
constexpr std::uint64_t kClientSpanBase = std::uint64_t{1} << 40;
std::uint64_t request_span(std::uint64_t k) { return kClientSpanBase + 4 * k; }
std::uint64_t send_span(std::uint64_t k) { return kClientSpanBase + 4 * k + 1; }
std::uint64_t wait_span(std::uint64_t k) { return kClientSpanBase + 4 * k + 2; }

struct ServeLayers {
  std::uint32_t measure, request, send, wait, decode, handle, encode, write;
  static ServeLayers get() {
    Tracer& t = Tracer::instance();
    return {t.layer("serve.unattributed"), t.layer("serve.client"), t.layer("serve.send"),
            t.layer("serve.client_wait"),  t.layer("serve.decode"), t.layer("serve.handle"),
            t.layer("serve.encode"),       t.layer("serve.write")};
  }
};

void record_span(std::uint64_t id, std::uint64_t parent, std::uint64_t request,
                 std::uint32_t layer, std::int64_t start, std::int64_t end) {
  Tracer::instance().record(Span{id, parent, request, layer, start, end});
}

/// Never: a traced pump that records no span.
constexpr std::uint64_t kNoSpans = ~std::uint64_t{0};

/// The benchmark's traced copy of run_serve_loop's pump: the same public
/// calls (read_frame, ServeSession::handle, write_frame) on the same two
/// threads, with a span around each request from `first_traced` on.
/// run_serve_loop makes those calls internally, where no span can be placed.
void traced_pump(std::istream& in, std::ostream& out, retask::ServeSession& session,
                 std::uint64_t first_traced) {
  const ServeLayers layers = ServeLayers::get();
  Tracer& tracer = Tracer::instance();
  std::mutex mu;  // guards pending, done and writer_error
  std::condition_variable cv;
  std::deque<std::pair<std::uint64_t, std::string>> pending;
  bool done = false;
  std::string writer_error;
  std::thread writer([&] {
    std::unique_lock<std::mutex> lock(mu);
    try {
      while (true) {
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty() && done) break;
        std::uint64_t last = 0;
        while (!pending.empty()) {
          auto [k, reply] = std::move(pending.front());
          pending.pop_front();
          lock.unlock();
          const std::int64_t t0 = k >= first_traced ? now_ns() : 0;
          retask::write_frame(out, reply);
          if (k >= first_traced) {
            record_span(tracer.next_id(), wait_span(k), k, layers.encode, t0, now_ns());
          }
          last = k;
          lock.lock();
        }
        lock.unlock();
        const std::int64_t t0 = last >= first_traced ? now_ns() : 0;
        out.flush();
        if (last >= first_traced) {
          record_span(tracer.next_id(), wait_span(last), last, layers.write, t0, now_ns());
        }
        lock.lock();
      }
    } catch (const std::exception& error) {
      if (!lock.owns_lock()) lock.lock();
      writer_error = error.what();
    }
  });
  // Ends the writer on every exit path, exceptions included.
  const auto stop_writer = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    writer.join();
  };
  try {
    std::string payload;
    std::uint64_t k = 0;
    while (!session.closed()) {
      // Block until the client's bytes arrive, so decode starts at arrival.
      if (in.rdbuf()->sgetc() == std::char_traits<char>::eof()) break;
      // The clock is read only for traced requests, so that the untraced
      // ones measure the pump without any tracing cost.
      const bool traced = k >= first_traced;
      const std::int64_t t0 = traced ? now_ns() : 0;
      if (!retask::read_frame(in, payload)) break;
      const std::int64_t t1 = traced ? now_ns() : 0;
      std::string reply(session.handle(payload));
      if (traced) {
        const std::int64_t t2 = now_ns();
        record_span(tracer.next_id(), wait_span(k), k, layers.decode, t0, t1);
        record_span(tracer.next_id(), wait_span(k), k, layers.handle, t1, t2);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.emplace_back(k, std::move(reply));
      }
      cv.notify_one();
      ++k;
    }
  } catch (...) {
    stop_writer();
    throw;
  }
  stop_writer();
  if (!writer_error.empty()) throw std::runtime_error("reply writer: " + writer_error);
  out.flush();
}

/// One session: two pipes, the server session and its pump thread, and the
/// client's ends of the pipes.
class ServeRig {
 public:
  /// The pump thread, and the writer thread it starts, run on `pump_cpu`
  /// (unpinned when it is negative). With `first_traced` the benchmark's
  /// traced pump runs, recording spans from that request on (kNoSpans:
  /// none); without it the real pump, run_serve_loop.
  explicit ServeRig(int pump_cpu, std::optional<std::uint64_t> first_traced = std::nullopt)
      : session_(serve_curve(), serve_work_per_cycle()) {
    // Each end is owned by its filebuf (which closes it) as soon as it exists.
    const auto open_pipe = [](std::unique_ptr<Filebuf>& reader, std::unique_ptr<Filebuf>& writer) {
      int fds[2];
      if (pipe2(fds, O_CLOEXEC) != 0) {
        throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
      }
      reader = std::make_unique<Filebuf>(fds[0], std::ios::in | std::ios::binary);
      writer = std::make_unique<Filebuf>(fds[1], std::ios::out | std::ios::binary);
      fcntl(fds[1], F_SETPIPE_SZ, 1 << 20);  // best effort: room for a whole preload
    };
    open_pipe(server_in_, client_out_);
    open_pipe(client_in_, server_out_);
    in_.rdbuf(server_in_.get());
    out_.rdbuf(server_out_.get());
    to_server_.rdbuf(client_out_.get());
    from_server_.rdbuf(client_in_.get());
    pump_ = std::thread([this, pump_cpu, first_traced] {
      try {
        std::optional<CpuPin> pin;
        if (pump_cpu >= 0) pin.emplace(pump_cpu);
        if (first_traced) {
          traced_pump(in_, out_, session_, *first_traced);
        } else {
          stats_ = retask::run_serve_loop(in_, out_, session_);
        }
      } catch (const std::exception& error) {
        pump_error_ = error.what();
      }
    });
  }

  ~ServeRig() { close(); }
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  std::ostream& to_server() { return to_server_; }
  std::istream& from_server() { return from_server_; }

  /// Ends the session (end of stream on the request pipe) and joins the
  /// pump. Session state and pump stats are readable afterwards.
  void close() {
    if (!pump_.joinable()) return;
    to_server_.flush();
    client_out_.reset();  // closes the request pipe's write end
    pump_.join();
  }

  const retask::ServeSession& session() const { return session_; }
  const retask::ServeLoopStats& stats() const { return stats_; }
  const std::string& pump_error() const { return pump_error_; }

 private:
  using Filebuf = __gnu_cxx::stdio_filebuf<char>;

  retask::ServeSession session_;
  retask::ServeLoopStats stats_;
  std::string pump_error_;
  std::unique_ptr<Filebuf> server_in_, server_out_, client_out_, client_in_;
  std::istream in_{nullptr};
  std::ostream out_{nullptr};
  std::ostream to_server_{nullptr};
  std::istream from_server_{nullptr};
  std::thread pump_;  // joined by close(), before any member it uses is destroyed
};

/// Reply records appended to a file next to the binary, so that logging
/// costs no resident memory during the measured phase.
class ReplyLog {
 public:
  ReplyLog() {
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    std::string dir = ".";
    if (len > 0) {
      dir.assign(exe, static_cast<std::size_t>(len));
      dir = dir.substr(0, dir.find_last_of('/'));
    }
    static int serial = 0;
    path_ = dir + "/serve_replies." + std::to_string(getpid()) + "." + std::to_string(serial++) +
            ".log";
    file_ = std::fopen(path_.c_str(), "w+b");
    if (file_ == nullptr) throw std::runtime_error("cannot create " + path_);
  }
  ~ReplyLog() {
    std::fclose(file_);
    std::remove(path_.c_str());
  }
  ReplyLog(const ReplyLog&) = delete;
  ReplyLog& operator=(const ReplyLog&) = delete;

  void append(const ReplyRecord& record) {
    if (std::fwrite(&record, sizeof record, 1, file_) != 1) throw std::runtime_error("log write failed");
    ++count_;
  }
  std::uint64_t count() const { return count_; }

  std::vector<ReplyRecord> read_all() {
    std::vector<ReplyRecord> records(count_);
    std::fflush(file_);
    std::rewind(file_);
    if (std::fread(records.data(), sizeof(ReplyRecord), records.size(), file_) != records.size()) {
      throw std::runtime_error("log read failed");
    }
    std::fseek(file_, 0, SEEK_END);
    return records;
  }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  std::uint64_t count_ = 0;
};

/// Set-up: a fresh rig plus the pipelined preload, with every preload
/// reply read back. Returns the preload's reply records.
std::vector<ReplyRecord> preload(ServeRig& rig, RequestStream& stream) {
  std::uint64_t sent = 0;
  while (stream.in_preload()) {
    retask::write_frame(rig.to_server(), stream.next());
    ++sent;
  }
  rig.to_server().flush();
  std::vector<ReplyRecord> records;
  records.reserve(sent);
  std::string reply;
  for (std::uint64_t i = 0; i < sent; ++i) {
    if (!retask::read_frame(rig.from_server(), reply)) throw std::runtime_error("serve: pump closed early");
    records.push_back(parse_reply(reply));
  }
  return records;
}

struct ChurnResult {
  std::uint64_t requests = 0;
  double elapsed_s = 0.0;
};

/// The closed loop: one request in flight until `seconds` have passed and
/// at least `min_requests` were answered. `first` is the stream index of
/// the first churn request; `root` the traced phase's root span (0: record
/// no spans); `probe` the echo probe that gives each request its host
/// slowness (none: 1).
ChurnResult churn(ServeRig& rig, RequestStream& stream, std::uint64_t first, ReplyLog& log,
                  double seconds, std::uint64_t min_requests, std::uint64_t root,
                  EchoProbe* probe) {
  const ServeLayers layers = ServeLayers::get();
  const bool traced = root != 0;
  ChurnResult out;
  std::string reply;
  const auto deadline = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t start = now_ns();
  std::int64_t now = start;
  std::uint64_t k = first;
  std::vector<double> readings;  // the latest kProbeWindow, a ring
  std::size_t probes = 0;
  std::int64_t probed = start - kProbeEveryNs;
  double slowness = 1.0;
  while (now - start < deadline || out.requests < min_requests) {
    if (probe != nullptr && now - probed >= kProbeEveryNs) {
      const double reading = probe->slowness();
      if (readings.size() < kProbeWindow) {
        readings.push_back(reading);
      } else {
        readings[probes % kProbeWindow] = reading;
      }
      ++probes;
      slowness = median(readings);
      probed = now_ns();
    }
    const std::string& request = stream.next();
    const std::int64_t t0 = now_ns();
    retask::write_frame(rig.to_server(), request);
    rig.to_server().flush();
    const std::int64_t t1 = now_ns();
    const bool open = rig.from_server().rdbuf()->sgetc() != std::char_traits<char>::eof();
    const std::int64_t t2 = now_ns();
    if (!open || !retask::read_frame(rig.from_server(), reply)) {
      throw std::runtime_error("serve: pump closed early: " + rig.pump_error());
    }
    const std::int64_t t3 = now_ns();
    ReplyRecord record = parse_reply(reply);
    record.latency_ns = static_cast<std::uint32_t>(std::min<std::int64_t>(t3 - t0, UINT32_MAX));
    record.slowness = slowness;
    log.append(record);
    now = now_ns();
    if (traced) {
      record_span(request_span(k), root, k, layers.request, t0, now);
      record_span(send_span(k), request_span(k), k, layers.send, t0, t1);
      record_span(wait_span(k), request_span(k), k, layers.wait, t1, t2);
    }
    ++out.requests;
    ++k;
  }
  out.elapsed_s = static_cast<double>(now - start) / 1e9;
  return out;
}

/// A preloaded session on the benchmark's copy of the pump, churned in
/// slices.
struct CopySession {
  CopySession(std::uint64_t seed, ServeSizes sizes, int pump_cpu, std::uint64_t first_traced)
      : stream(seed, sizes, serve_penalty_per_cycle()), rig(pump_cpu, first_traced) {
    for (const ReplyRecord& record : preload(rig, stream)) log.append(record);
    next = static_cast<std::uint64_t>(sizes.preload);
  }

  /// Churns for `seconds` more; `root` and `probe` as in churn().
  void slice(double seconds, std::uint64_t root, EchoProbe& probe) {
    const ChurnResult done = churn(rig, stream, next, log, seconds, 0, root, &probe);
    next += done.requests;
    requests += done.requests;
    elapsed_s += done.elapsed_s;
  }

  RequestStream stream;
  ServeRig rig;
  ReplyLog log;
  std::uint64_t next = 0;  ///< stream index of the next request
  std::uint64_t requests = 0;
  double elapsed_s = 0.0;
};

/// Per-thread cold solver of the verification pass.
struct ColdChecker {
  retask::EnergyCurve curve = serve_curve();
  double work_per_cycle = serve_work_per_cycle();
  std::shared_ptr<retask::EnergyMemo> memo = std::make_shared<retask::EnergyMemo>();

  bool matches(const std::vector<FrameTask>& resident, const ReplyRecord& record,
               double* lower_bound) const {
    retask::RejectionProblem problem(retask::FrameTaskSet(resident), curve, work_per_cycle, 1);
    // Energies are a pure function of the cycles on this one platform, so
    // the memo cannot change a bit of the cold solve.
    problem.attach_energy_memo(memo);
    const retask::RejectionSolution cold = retask::ExactDpSolver().solve(problem);
    if (lower_bound != nullptr) *lower_bound = retask::fractional_lower_bound(problem);
    const double objective = cold.energy + cold.penalty;
    return record.accepted == static_cast<std::int32_t>(cold.accepted_count()) &&
           record.resident == static_cast<std::int32_t>(resident.size()) &&
           std::memcmp(&objective, &record.objective, sizeof objective) == 0;
  }
};

}  // namespace

double serve_penalty_per_cycle() {
  return retask::penalty_anchor(serve_model()) * serve_work_per_cycle();
}

RequestStream::RequestStream(std::uint64_t seed, ServeSizes sizes, double penalty_per_cycle)
    : sizes_(sizes), penalty_per_cycle_(penalty_per_cycle), rng_(seed) {
  if (sizes.band_lo < 1 || sizes.band_hi < sizes.band_lo || sizes.cycles_lo < 1 ||
      sizes.cycles_hi < sizes.cycles_lo) {
    throw std::invalid_argument("RequestStream: bad sizes");
  }
  resident_.reserve(static_cast<std::size_t>(std::max(sizes.preload, sizes.band_hi)) + 1);
}

double RequestStream::draw_penalty(Cycles cycles) {
  // Penalties straddle the marginal energy of a moderately loaded
  // processor, so verdicts depend on the rest of the resident set.
  return penalty_per_cycle_ * static_cast<double>(cycles) * rng_.uniform(0.25, 2.5);
}

FrameTask RequestStream::draw_task() {
  FrameTask task;
  task.id = next_id_++;
  task.cycles = rng_.uniform_int(sizes_.cycles_lo, sizes_.cycles_hi);
  task.penalty = draw_penalty(task.cycles);
  return task;
}

const std::string& RequestStream::next() {
  char buf[96];
  if (in_preload()) {
    kind_ = RequestKind::kAdmit;
  } else {
    const double r = rng_.uniform();
    kind_ = r < 0.55   ? RequestKind::kAdmit
            : r < 0.80 ? RequestKind::kRemove
            : r < 0.95 ? RequestKind::kReprice
                       : RequestKind::kQuery;
    const auto size = static_cast<int>(resident_.size());
    if (kind_ == RequestKind::kAdmit && size >= sizes_.band_hi) kind_ = RequestKind::kRemove;
    if (kind_ == RequestKind::kRemove && size <= sizes_.band_lo) kind_ = RequestKind::kAdmit;
    ++churn_kinds_[static_cast<int>(kind_)];
  }
  ++issued_;
  switch (kind_) {
    case RequestKind::kAdmit: {
      const FrameTask task = draw_task();
      resident_.push_back(task);
      std::snprintf(buf, sizeof buf, "admit %d %lld %.17g", task.id,
                    static_cast<long long>(task.cycles), task.penalty);
      break;
    }
    case RequestKind::kRemove: {
      const auto at = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(resident_.size()) - 1));
      std::snprintf(buf, sizeof buf, "remove %d", resident_[at].id);
      resident_.erase(resident_.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    }
    case RequestKind::kReprice: {
      const auto at = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(resident_.size()) - 1));
      resident_[at].penalty = draw_penalty(resident_[at].cycles);
      std::snprintf(buf, sizeof buf, "reprice %d %.17g", resident_[at].id, resident_[at].penalty);
      break;
    }
    case RequestKind::kQuery:
      std::snprintf(buf, sizeof buf, "query");
      break;
  }
  text_ = buf;
  return text_;
}

std::string RequestStream::mix_text() const {
  return "admit=" + std::to_string(churn_kinds_[0]) + " remove=" + std::to_string(churn_kinds_[1]) +
         " reprice=" + std::to_string(churn_kinds_[2]) + " query=" + std::to_string(churn_kinds_[3]);
}

ReplyRecord parse_reply(const std::string& reply) {
  ReplyRecord record;
  if (reply.compare(0, 3, "ok ") != 0) return record;
  const std::size_t accepted = reply.find(" accepted=");
  const std::size_t objective = reply.find(" objective=");
  if (accepted == std::string::npos || objective == std::string::npos) return record;
  char* end = nullptr;
  const char* text = reply.c_str();
  const long a = std::strtol(text + accepted + 10, &end, 10);
  if (*end != '/') return record;
  const long b = std::strtol(end + 1, &end, 10);
  const double value = std::strtod(text + objective + 11, &end);
  if (*end != ' ' && *end != '\0') return record;
  record.accepted = static_cast<std::int32_t>(a);
  record.resident = static_cast<std::int32_t>(b);
  record.objective = value;
  return record;
}

OpCount verify_replies(std::uint64_t seed, ServeSizes sizes, const std::vector<ReplyRecord>& records,
                       int threads, std::size_t ratio_first, std::size_t ratio_limit,
                       double* ratio_sum, std::size_t* ratio_count) {
  const std::size_t count = records.size();
  const auto workers = static_cast<std::size_t>(std::max(1, threads));
  const std::size_t chunk = (count + workers - 1) / workers;
  std::vector<std::uint64_t> failed(workers, 0);
  std::vector<std::string> errors(workers);
  // One slot per ratio record, summed in record order afterwards, so the
  // sum does not depend on how the records fall into worker ranges.
  const std::size_t ratio_end = std::min(ratio_limit, count);
  std::vector<double> ratios(ratio_end > ratio_first ? ratio_end - ratio_first : 0, -1.0);
  const auto work = [&](std::size_t w) {
    try {
      const std::size_t lo = std::min(count, w * chunk);
      const std::size_t hi = std::min(count, lo + chunk);
      RequestStream stream(seed, sizes, serve_penalty_per_cycle());
      for (std::size_t i = 0; i < lo; ++i) stream.next();
      const ColdChecker checker;
      for (std::size_t i = lo; i < hi; ++i) {
        stream.next();
        double bound = 0.0;
        const bool want_ratio = i >= ratio_first && i < ratio_limit;
        if (!checker.matches(stream.resident(), records[i], want_ratio ? &bound : nullptr)) {
          ++failed[w];
        } else if (want_ratio) {
          const double objective = records[i].objective;
          ratios[i - ratio_first] = bound > 0.0 ? objective / bound : (objective > 0.0 ? 2.0 : 1.0);
        }
      }
    } catch (const std::exception& error) {
      errors[w] = error.what();
      failed[w] = count;  // marker: this worker's whole range is unchecked
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();

  OpCount ops;
  ops.attempted = count;
  for (std::size_t w = 0; w < workers; ++w) {
    if (!errors[w].empty()) {
      std::cerr << "serve: verification failed: " << errors[w] << "\n";
      const std::size_t lo = std::min(count, w * chunk);
      ops.failed += std::min(count, lo + chunk) - lo;
    } else {
      ops.failed += failed[w];
    }
  }
  for (const double ratio : ratios) {
    if (ratio < 0.0) continue;  // a failed record
    if (ratio_sum != nullptr) *ratio_sum += ratio;
    if (ratio_count != nullptr) ++*ratio_count;
  }
  return ops;
}

Outcome run_serve(const Options& options) {
  // A resident set of a few dozen tasks whose load stays well above the
  // processor's 1000 cycles, so verdicts flip; a quarter of the removals
  // and reprices land inside the first checkpoint stride (16 tasks).
  const ServeSizes sizes = options.mini ? ServeSizes{24, 16, 32, 20, 80}
                                        : ServeSizes{kPreload, kBandLo, kBandHi, 20, 80};
  // The objective ratio covers a fixed prefix of the churn, so it repeats
  // exactly; every run answers at least this many requests.
  const std::size_t ratio_replies = options.mini ? 64 : 4096;
  const auto preload_count = static_cast<std::size_t>(sizes.preload);
  retask::set_default_jobs(1);
  // The client stays on the CPU the process started on, the pump and its
  // writer thread on the next one: no thread migrates, and the server
  // threads run beside the client as the daemon runs beside its clients.
  // The checks after the timed phases run unpinned.
  CpuPin pin;
  const int pump_cpu = pin.next_cpu();
  const double penalty_per_cycle = serve_penalty_per_cycle();
  Tracer& tracer = Tracer::instance();

  Outcome outcome;
  auto& m = outcome.metrics;
  // The echo probe's thread shares the pump's CPU. A set-up waits on a
  // thread start and on hand-offs across CPUs as much as the closed loop
  // does, so both are scaled by this probe, not by the libm one: each
  // set-up by the median of a few round trips right before it.
  EchoProbe probe(pump_cpu);
  const auto echo_slowness = [&probe] {
    std::vector<double> readings;
    for (int i = 0; i < 5; ++i) readings.push_back(probe.slowness());
    return median(readings);
  };
  std::vector<double> setup_s;
  std::unique_ptr<ServeRig> rig;
  std::unique_ptr<RequestStream> stream;
  std::vector<ReplyRecord> preload_records;
  double frames_per_batch = 0.0;
  std::uint64_t preload_delta_hits = 0;
  std::uint64_t preload_cold_falls = 0;
  // At least two set-ups: the first one is closed right away so that its
  // pump stats describe the preload alone. At most 64: every set-up starts
  // a pump thread, and EnergyMemo serves only the first 256 threads of a
  // process that ever touch a memo (cache/energy_memo.hpp kMaxShards);
  // later threads evaluate every energy uncached, many times slower.
  do {
    rig.reset();
    stream = std::make_unique<RequestStream>(options.seed, sizes, penalty_per_cycle);
    setup_s.push_back(timed_setup(
        [&] {
          rig = std::make_unique<ServeRig>(pump_cpu);
          preload_records = preload(*rig, *stream);
        },
        echo_slowness));
    if (setup_s.size() == 1) {
      rig->close();
      const retask::ServeLoopStats& stats = rig->stats();
      frames_per_batch = share(static_cast<double>(stats.requests), static_cast<double>(stats.batches));
      preload_delta_hits = rig->session().solver().delta_hits();
      preload_cold_falls = rig->session().solver().cold_falls();
    }
  } while (setup_s.size() < 2 || repeat_setup(options, setup_s, /*max_reps=*/64));
  m["setup_s"] = setup_seconds(setup_s);

  const auto check = [&](ReplyLog& replies, double* ratio_sum, std::size_t* ratio_count,
                         std::vector<Unit>* units, std::uint64_t* errs) {
    const std::vector<ReplyRecord> records = replies.read_all();
    const int threads = static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    outcome.ops.merge(verify_replies(options.seed, sizes, records, threads, preload_count,
                                     preload_count + ratio_replies, ratio_sum, ratio_count));
    for (std::size_t i = preload_count; i < records.size(); ++i) {
      if (units != nullptr) {
        units->push_back({static_cast<double>(records[i].latency_ns), 1.0, records[i].slowness});
      }
      if (errs != nullptr && records[i].accepted < 0) ++*errs;
    }
  };

  if (!options.trace) {
    // The real pump, every end-to-end figure.
    ReplyLog log;
    for (const ReplyRecord& record : preload_records) log.append(record);
    const ChurnResult churned = churn(*rig, *stream, preload_count, log, options.seconds,
                                      ratio_replies, /*root=*/0, &probe);
    const double peak_rss = peak_rss_mib();
    rig->close();
    if (!rig->pump_error().empty()) throw std::runtime_error("serve pump: " + rig->pump_error());
    pin.release();
    double ratio_sum = 0.0;
    std::size_t ratio_count = 0;
    std::vector<Unit> units;
    check(log, &ratio_sum, &ratio_count, &units, nullptr);
    std::string note;
    add_timing_metrics(units, outcome, note);
    m["objective_ratio"] = share(ratio_sum, static_cast<double>(ratio_count));
    m["peak_rss_mib"] = peak_rss;
    std::cout << "serve_churn: preload " << preload_count << " tasks, pump on CPU " << pump_cpu
              << "; " << churned.requests
              << " closed-loop requests (" << stream->mix_text() << "), "
              << rig->session().solver().cold_falls() - preload_cold_falls << " cold falls; "
              << note << "\n";
    return outcome;
  }

  // Traced run: two sessions on the benchmark's copy of the pump, one
  // recording no spans and one recording them, served in alternating
  // slices so that both meet the same host phases. The ratio of their
  // rates is the cost of tracing alone.
  rig.reset();
  const ServeLayers layers = ServeLayers::get();
  CopySession plain(options.seed, sizes, pump_cpu, kNoSpans);
  CopySession spanned(options.seed, sizes, pump_cpu, preload_count);
  const double slice_s = options.mini ? 0.005 : 0.25;
  tracer.clear();
  tracer.set_enabled(true);
  const std::int64_t traced_start = now_ns();
  do {
    plain.slice(slice_s, 0, probe);
    const SpanScope root(layers.measure, 0);
    spanned.slice(slice_s, root.id(), probe);
  } while (now_ns() - traced_start < static_cast<std::int64_t>(options.seconds * 1e9));
  plain.rig.close();
  spanned.rig.close();
  tracer.set_enabled(false);
  for (const ServeRig* copy : {&plain.rig, &spanned.rig}) {
    if (!copy->pump_error().empty()) throw std::runtime_error("traced pump: " + copy->pump_error());
  }
  pin.release();
  check(plain.log, nullptr, nullptr, nullptr, nullptr);
  std::uint64_t errs = 0;
  std::vector<Unit> spanned_units;
  check(spanned.log, nullptr, nullptr, &spanned_units, &errs);

  const LayerTimes times = self_times(tracer.collect(), tracer.layer_names());
  const auto self = [&](const char* layer) {
    const auto it = times.self_ns.find(layer);
    return it == times.self_ns.end() ? 0.0 : it->second;
  };
  const retask::DeltaSolver& solver = spanned.rig.session().solver();
  m["serve.client_ns"] = self("serve.client");
  m["serve.send_ns"] = self("serve.send");
  m["serve.client_wait_ns"] = self("serve.client_wait");
  m["serve.decode_ns"] = self("serve.decode");
  m["serve.handle_ns"] = self("serve.handle");
  m["serve.encode_ns"] = self("serve.encode");
  m["serve.write_ns"] = self("serve.write");
  m["serve.unattributed_ns"] = self("serve.unattributed");
  m["serve.requests"] = static_cast<double>(spanned.rig.session().requests() - preload_count);
  m["serve.err_replies"] = static_cast<double>(errs);
  m["serve.frames_per_batch"] = frames_per_batch;
  m["serve.delta_hits"] = static_cast<double>(solver.delta_hits() - preload_delta_hits);
  m["serve.cold_falls"] = static_cast<double>(solver.cold_falls() - preload_cold_falls);
  m["serve.cold_fall_ratio"] =
      share(m["serve.cold_falls"], m["serve.cold_falls"] + m["serve.delta_hits"]);
  const ProcUsage usage = proc_usage();
  m["proc.cpu_s"] = usage.cpu_s;
  m["proc.minor_faults"] = static_cast<double>(usage.minor_faults);
  // Both rates are means over all slices of their session.
  const double ops_per_s = static_cast<double>(plain.requests) / plain.elapsed_s;
  const double traced_ops_per_s = static_cast<double>(spanned.requests) / spanned.elapsed_s;
  m["trace.overhead_ratio"] = share(ops_per_s, traced_ops_per_s);

  const auto count = [&](const char* name) {
    return std::to_string(static_cast<std::uint64_t>(m[name]));
  };
  LayerTable& table = outcome.layers;
  table.wall_ns = times.root_ns;
  table.residual_name = "serve.unattributed_ns";
  table.residual_ns = m["serve.unattributed_ns"];
  table.rows = {
      {"serve.client_ns", m["serve.client_ns"], "client: reply read and parse, request log"},
      {"serve.send_ns", m["serve.send_ns"], "client: request frame write and flush"},
      {"serve.client_wait_ns", m["serve.client_wait_ns"],
       "client blocked, no server layer busy (wake-ups, hand-offs)"},
      {"serve.decode_ns", m["serve.decode_ns"], "read_frame on the pump"},
      {"serve.handle_ns", m["serve.handle_ns"],
       "requests=" + count("serve.requests") + " delta_hits=" + count("serve.delta_hits") +
           " cold_falls=" + count("serve.cold_falls")},
      {"serve.encode_ns", m["serve.encode_ns"], "write_frame on the writer"},
      {"serve.write_ns", m["serve.write_ns"], "flush on the writer"},
  };
  m["host.slowness"] = timing(spanned_units).slowness;
  scale_times(m, m["host.slowness"]);
  divide_per_op(m, static_cast<double>(spanned.requests));
  std::cout << "serve_churn: traced " << spanned.requests << " requests, and " << plain.requests
            << " on the same pump without spans in alternating slices; tracing overhead (ops/s "
               "without spans over ops/s with them) = "
            << full_digits(m["trace.overhead_ratio"]) << "; preload frames per batch = "
            << full_digits(frames_per_batch) << "\n";
  return outcome;
}

}  // namespace perfbench
