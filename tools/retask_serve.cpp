// retask_serve — long-lived admission-control daemon.
//
//   retask_serve --model table5 --capacity 400                # stdin pipe
//   retask_serve --socket /tmp/retask.sock --model xscale     # local socket
//   retask_serve --encode < session.txt | retask_serve | retask_serve --decode
//
// The daemon answers a stream of admit / remove / reprice requests over the
// length-prefixed frame protocol (serve/protocol.hpp), re-solving the
// resident task set exactly after every mutation through the incremental
// DeltaSolver — one relaxation row per admission instead of a full DP
// refill, with verdicts bit-identical to cold solves (enforced by
// retask_fuzz --delta-diff).
//
// --encode / --decode translate between newline-delimited text and the
// frame protocol so shell pipelines (and the CI golden-transcript smoke)
// can drive the binary framing end to end.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/common/parallel.hpp"
#include "retask/io/cli_options.hpp"
#include "retask/serve/protocol.hpp"
#include "retask/serve/server.hpp"
#include "retask/simd/backend.hpp"

#ifdef __unix__
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <ext/stdio_filebuf.h>
#endif

namespace {

using namespace retask;

struct ServeCliOptions {
  std::string model = "xscale";
  IdleDiscipline idle = IdleDiscipline::kDormantEnable;
  double frame = 1.0;
  double capacity = 1000.0;  ///< cycles one processor fits at smax
  SleepParams sleep{};
  int stride = 16;
  int reply_precision = 17;
  std::size_t max_batch = 64;
  bool sync_replies = false;
  bool print_stats = false;
  int jobs = 0;
  std::string socket_path;
  bool encode = false;
  bool decode = false;
  bool help = false;
};

const char* kUsage =
    R"(retask_serve — admission-control daemon over the frame protocol

usage: retask_serve [options]

platform (fixed per session; every admitted task solves against it):
  --model NAME        xscale | cubic | table5 (default xscale)
  --idle MODE         enable (default, can sleep) | disable (always leaks)
  --frame D           scheduling window length (default 1)
  --capacity C        cycles one processor fits at top speed (default 1000)
  --esw E / --tsw T   dormant-mode switch overheads (default 0)

serving:
  --stride K          tasks between retained DP checkpoints (default 16)
  --reply-precision P significant digits of float reply fields, 1..17
                      (default 17 = exact round-trip)
  --max-batch B       frames solved back-to-back per wakeup (default 64)
  --sync              write replies inline instead of on the writer thread
  --stats             print pump statistics to stderr on session end
  --jobs J            worker threads for the solver's parallel paths
  --socket PATH       serve one client at a time on a unix socket instead
                      of stdin/stdout (unix only)

framing helpers (exclusive; translate text <-> frames for pipelines):
  --encode            read lines from stdin, write one frame per line
  --decode            read frames from stdin, write one line per frame

requests (one per frame): admit <id> <cycles> <penalty> | remove <id> |
reprice <id> <penalty> | query | stats | ping | bye
)";

double parse_double_flag(const std::string& flag, const std::string& value, double lo, double hi) {
  double parsed = 0.0;
  try {
    std::size_t used = 0;
    parsed = std::stod(value, &used);
    require(used == value.size(), "trailing junk");
  } catch (const std::exception&) {
    throw Error(flag + " expects a number, got '" + value + "'");
  }
  require(parsed >= lo && parsed <= hi, flag + " out of range: '" + value + "'");
  return parsed;
}

std::int64_t parse_int_flag(const std::string& flag, const std::string& value, std::int64_t lo,
                            std::int64_t hi) {
  std::int64_t parsed = 0;
  try {
    std::size_t used = 0;
    parsed = std::stoll(value, &used);
    require(used == value.size(), "trailing junk");
  } catch (const std::exception&) {
    throw Error(flag + " expects an integer, got '" + value + "'");
  }
  require(parsed >= lo && parsed <= hi, flag + " out of range: '" + value + "'");
  return parsed;
}

ServeCliOptions parse_args(int argc, char** argv) {
  ServeCliOptions options;
  const auto value_of = [&](int& i, const std::string& flag) -> std::string {
    require(i + 1 < argc, flag + " expects a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--model") {
      options.model = value_of(i, arg);
    } else if (arg == "--idle") {
      const std::string value = value_of(i, arg);
      if (value == "enable") options.idle = IdleDiscipline::kDormantEnable;
      else if (value == "disable") options.idle = IdleDiscipline::kDormantDisable;
      else throw Error("--idle expects 'enable' or 'disable', got '" + value + "'");
    } else if (arg == "--frame") {
      options.frame = parse_double_flag(arg, value_of(i, arg), 1e-9, 1e9);
    } else if (arg == "--capacity") {
      options.capacity = parse_double_flag(arg, value_of(i, arg), 1.0, 1e8);
    } else if (arg == "--esw") {
      options.sleep.switch_energy = parse_double_flag(arg, value_of(i, arg), 0.0, 1e9);
    } else if (arg == "--tsw") {
      options.sleep.switch_time = parse_double_flag(arg, value_of(i, arg), 0.0, 1e9);
    } else if (arg == "--stride") {
      options.stride = static_cast<int>(parse_int_flag(arg, value_of(i, arg), 1, 1 << 20));
    } else if (arg == "--reply-precision") {
      options.reply_precision = static_cast<int>(parse_int_flag(arg, value_of(i, arg), 1, 17));
    } else if (arg == "--max-batch") {
      options.max_batch =
          static_cast<std::size_t>(parse_int_flag(arg, value_of(i, arg), 1, 1 << 16));
    } else if (arg == "--sync") {
      options.sync_replies = true;
    } else if (arg == "--stats") {
      options.print_stats = true;
    } else if (arg == "--jobs") {
      options.jobs = static_cast<int>(parse_int_flag(arg, value_of(i, arg), 0, 4096));
    } else if (arg == "--socket") {
      options.socket_path = value_of(i, arg);
    } else if (arg == "--encode") {
      options.encode = true;
    } else if (arg == "--decode") {
      options.decode = true;
    } else if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else {
      throw Error("unknown flag '" + arg + "'");
    }
  }
  require(!(options.encode && options.decode), "--encode and --decode are exclusive");
  return options;
}

int run_encode() {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    write_frame(std::cout, line);
  }
  std::cout.flush();
  return 0;
}

int run_decode() {
  std::string payload;
  while (read_frame(std::cin, payload)) {
    std::cout << payload << '\n';
  }
  std::cout.flush();
  return 0;
}

ServeSession make_session(const ServeCliOptions& options) {
  const auto model = make_model_by_name(options.model);
  EnergyCurve curve(*model, options.frame, options.idle, options.sleep);
  const double work_per_cycle = model->max_speed() * options.frame / options.capacity;
  ServeOptions serve_options;
  serve_options.reply_precision = options.reply_precision;
  serve_options.solver.checkpoint_stride = options.stride;
  return ServeSession(std::move(curve), work_per_cycle, serve_options);
}

void print_stats(const ServeLoopStats& stats) {
  std::cerr << "serve: requests=" << stats.requests << " batches=" << stats.batches
            << " max_batch=" << stats.max_batch_frames
            << " p50_ns<=" << stats.latency_percentile_ns(0.50)
            << " p99_ns<=" << stats.latency_percentile_ns(0.99) << "\n";
}

int run_pipe(const ServeCliOptions& options) {
  ServeSession session = make_session(options);
  ServeLoopOptions loop;
  loop.max_batch = options.max_batch;
  loop.async_replies = !options.sync_replies;
  const ServeLoopStats stats = run_serve_loop(std::cin, std::cout, session, loop);
  if (options.print_stats) print_stats(stats);
  return 0;
}

#ifdef __unix__
int run_socket(const ServeCliOptions& options) {
  sockaddr_un addr{};
  require(options.socket_path.size() < sizeof(addr.sun_path),
          "--socket path too long for sockaddr_un");
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(listener >= 0, "socket() failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(), options.socket_path.size() + 1);
  ::unlink(options.socket_path.c_str());
  require(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
          "bind() failed on '" + options.socket_path + "'");
  require(::listen(listener, 1) == 0, "listen() failed");
  std::cerr << "serve: listening on " << options.socket_path << "\n";

  // One client at a time; each connection is a fresh session (its own
  // resident set). The session ends on client EOF or `bye`; `bye` also
  // shuts the daemon down so scripted drivers can terminate it cleanly.
  while (true) {
    const int client = ::accept(listener, nullptr, nullptr);
    require(client >= 0, "accept() failed");
    __gnu_cxx::stdio_filebuf<char> inbuf(client, std::ios::in | std::ios::binary);
    __gnu_cxx::stdio_filebuf<char> outbuf(::dup(client), std::ios::out | std::ios::binary);
    std::istream in(&inbuf);
    std::ostream out(&outbuf);
    ServeSession session = make_session(options);
    ServeLoopOptions loop;
    loop.max_batch = options.max_batch;
    loop.async_replies = false;  // socket replies flush inline per batch
    const ServeLoopStats stats = run_serve_loop(in, out, session, loop);
    if (options.print_stats) print_stats(stats);
    if (session.closed()) break;
  }
  ::close(listener);
  ::unlink(options.socket_path.c_str());
  return 0;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  try {
    const ServeCliOptions options = parse_args(argc, argv);
    if (options.help) {
      std::cout << kUsage;
      return 0;
    }
    // Resolve the kernel backend before reading any input, so a bad
    // RETASK_SIMD fails at startup rather than on the first request whose
    // solve reaches a kernel.
    static_cast<void>(simd::active_backend());
    if (options.encode) return run_encode();
    if (options.decode) return run_decode();
    if (options.jobs > 0) set_default_jobs(options.jobs);
    if (!options.socket_path.empty()) {
#ifdef __unix__
      return run_socket(options);
#else
      throw Error("--socket requires a unix platform");
#endif
    }
    return run_pipe(options);
  } catch (const retask::Error& error) {
    std::cerr << "retask_serve: " << error.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "retask_serve: " << error.what() << "\n";
    return 2;
  }
}
