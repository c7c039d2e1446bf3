// Serve mode: the length-prefixed frame protocol, the request-line grammar
// over ServeSession, and the run_serve_loop pump (sync and async reply
// draining) end-to-end over string streams.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/serve/protocol.hpp"
#include "retask/serve/server.hpp"

namespace retask {
namespace {

constexpr double kWpc = 1.0 / 200.0;  // 200 cycles fit at top speed

ServeSession make_session(int reply_precision = 17) {
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  ServeOptions options;
  options.reply_precision = reply_precision;
  return ServeSession(std::move(curve), kWpc, options);
}

TEST(FrameProtocol, RoundTripsPayloads) {
  std::stringstream stream;
  const std::vector<std::string> payloads = {"", "admit 1 100 2.5", std::string(4096, 'x')};
  for (const std::string& payload : payloads) write_frame(stream, payload);
  std::string read;
  for (const std::string& expected : payloads) {
    ASSERT_TRUE(read_frame(stream, read));
    EXPECT_EQ(read, expected);
  }
  EXPECT_FALSE(read_frame(stream, read));  // clean end of stream
}

TEST(FrameProtocol, RejectsTruncatedAndOversizeFrames) {
  {
    std::stringstream stream;
    stream.write("\x05\x00", 2);  // half a header
    std::string read;
    EXPECT_THROW(read_frame(stream, read), Error);
  }
  {
    std::stringstream stream;
    stream.write("\x05\x00\x00\x00" "abc", 7);  // header promises 5, carries 3
    std::string read;
    EXPECT_THROW(read_frame(stream, read), Error);
  }
  {
    std::stringstream stream;
    stream.write("\xff\xff\xff\xff", 4);  // 4 GiB length field
    std::string read;
    EXPECT_THROW(read_frame(stream, read), Error);
  }
  {
    std::stringstream stream;
    EXPECT_THROW(write_frame(stream, std::string(kMaxFramePayload + 1, 'x')), Error);
  }
}

TEST(ServeSession, AnswersTheRequestGrammar) {
  ServeSession session = make_session();
  EXPECT_EQ(session.handle("ping"), "ok ping");

  const std::string admit(session.handle("admit 1 100 2.5"));
  EXPECT_TRUE(admit.rfind("ok admit id=1 verdict=accept accepted=1/1 load=100 ", 0) == 0)
      << admit;
  EXPECT_NE(admit.find(" path=delta"), std::string::npos) << admit;

  // Infeasible task: admitted into the resident set but rejected.
  const std::string reject(session.handle("admit 2 100000 0.5"));
  EXPECT_TRUE(reject.rfind("ok admit id=2 verdict=reject accepted=1/2 ", 0) == 0) << reject;

  const std::string query(session.handle("query"));
  EXPECT_TRUE(query.rfind("ok query resident=2 accepted=1/2 ", 0) == 0) << query;

  const std::string remove(session.handle("remove 2"));
  EXPECT_TRUE(remove.rfind("ok remove id=2 accepted=1/1 ", 0) == 0) << remove;

  const std::string reprice(session.handle("reprice 1 9.0"));
  EXPECT_TRUE(reprice.rfind("ok reprice id=1 verdict=accept ", 0) == 0) << reprice;

  const std::string stats(session.handle("stats"));
  EXPECT_TRUE(stats.rfind("ok stats requests=", 0) == 0) << stats;
  EXPECT_NE(stats.find(" resident=1 "), std::string::npos) << stats;

  EXPECT_FALSE(session.closed());
  EXPECT_EQ(session.handle("bye"), "ok bye");
  EXPECT_TRUE(session.closed());
}

TEST(ServeSession, MalformedRequestsAnswerErrAndLeaveStateUntouched) {
  ServeSession session = make_session();
  session.handle("admit 1 100 2.5");
  const std::vector<std::string> bad = {
      "",                       // empty frame
      "warble",                 // unknown command
      "admit",                  // missing fields
      "admit x 100 2.5",        // non-numeric id
      "admit 2 100 nan",        // non-finite penalty
      "admit 2 100 2.5 extra",  // trailing junk
      "admit 1 50 1.0",         // duplicate id (solver error)
      "remove 99",              // unknown id (solver error)
      "reprice 99 1.0",         // unknown id (solver error)
      "query extra",
  };
  for (const std::string& request : bad) {
    const std::string reply(session.handle(request));
    EXPECT_TRUE(reply.rfind("err ", 0) == 0) << request << " -> " << reply;
  }
  // The resident set survived every failure.
  const std::string query(session.handle("query"));
  EXPECT_TRUE(query.rfind("ok query resident=1 accepted=1/1 ", 0) == 0) << query;
}

TEST(ServeSession, ReplyPrecisionBoundsFloatFields) {
  ServeSession session = make_session(5);
  const std::string reply(session.handle("admit 1 123 0.125"));
  // Every float field (speed/energy/penalty/objective) prints with at most
  // 5 significant digits: no field may carry a 17-digit tail.
  std::istringstream fields(reply);
  std::string field;
  while (fields >> field) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    const std::string value = field.substr(eq + 1);
    std::size_t digits = 0;
    bool significant = false;
    for (const char ch : value) {
      if (ch == 'e') break;  // exponent digits don't count toward precision
      if (ch >= '1' && ch <= '9') significant = true;
      if (ch >= '0' && ch <= '9' && significant) ++digits;
    }
    EXPECT_LE(digits, 5u) << field << " in " << reply;
  }
}

void exercise_loop(bool async) {
  std::stringstream in, out;
  write_frame(in, "admit 1 100 2.5");
  write_frame(in, "admit 2 50 0.75");
  write_frame(in, "query");
  write_frame(in, "bye");
  write_frame(in, "ping");  // beyond bye: must never be answered

  ServeSession session = make_session();
  ServeLoopOptions options;
  options.async_replies = async;
  const ServeLoopStats stats = run_serve_loop(in, out, session, options);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_TRUE(session.closed());

  std::vector<std::string> replies;
  std::string payload;
  while (read_frame(out, payload)) replies.push_back(payload);
  ASSERT_EQ(replies.size(), 4u);  // in request order, nothing past bye
  EXPECT_TRUE(replies[0].rfind("ok admit id=1 ", 0) == 0) << replies[0];
  EXPECT_TRUE(replies[1].rfind("ok admit id=2 ", 0) == 0) << replies[1];
  EXPECT_TRUE(replies[2].rfind("ok query ", 0) == 0) << replies[2];
  EXPECT_EQ(replies[3], "ok bye");
  EXPECT_GT(stats.latency_percentile_ns(0.99), 0u);
}

TEST(ServeLoop, PumpsFramesWithInlineReplies) { exercise_loop(false); }
TEST(ServeLoop, PumpsFramesWithAsyncWriterThread) { exercise_loop(true); }

}  // namespace
}  // namespace retask
