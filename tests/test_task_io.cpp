// Tests for task-file parsing/writing and CLI option parsing.
#include "retask/io/task_io.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/common/rng.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/io/cli_options.hpp"
#include "retask/power/polynomial_power.hpp"

namespace retask {
namespace {

TEST(TaskIo, ParsesFrameTasksWithHeaderAndComments) {
  std::istringstream in(
      "# a comment\n"
      "id,cycles,penalty\n"
      "0,40,0.5\n"
      "\n"
      "1, 35 , 1.25\n"
      "# trailing comment\n");
  const FrameTaskSet tasks = read_frame_tasks(in);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].cycles, 40);
  EXPECT_DOUBLE_EQ(tasks[1].penalty, 1.25);
}

TEST(TaskIo, ParsesFrameTasksWithoutHeader) {
  std::istringstream in("0,40,0.5\n1,35,1.0\n");
  EXPECT_EQ(read_frame_tasks(in).size(), 2u);
}

TEST(TaskIo, ReportsLineNumbersOnErrors) {
  std::istringstream bad_fields("0,40,0.5\n1,35\n");
  try {
    read_frame_tasks(bad_fields);
    FAIL() << "expected error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }

  std::istringstream bad_number("0,forty,0.5\n");
  EXPECT_THROW(read_frame_tasks(bad_number), Error);
  std::istringstream bad_penalty("0,40,cheap\n");
  EXPECT_THROW(read_frame_tasks(bad_penalty), Error);
}

TEST(TaskIo, TypoedIdOnFirstRowIsAnErrorNotAHeader) {
  // "x1,40,0.5" has numeric cycles/penalty fields: it is a garbled data row,
  // not a header, and silently dropping it would shrink the instance.
  std::istringstream in("x1,40,0.5\n1,35,1.0\n");
  try {
    read_frame_tasks(in);
    FAIL() << "expected error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("x1"), std::string::npos) << what;
  }
  // A genuine header (no numeric field at all) is still skipped.
  std::istringstream header("id,cycles,penalty\n0,40,0.5\n");
  EXPECT_EQ(read_frame_tasks(header).size(), 1u);
}

TEST(TaskIo, RejectsNonPositiveCyclesWithLineNumber) {
  std::istringstream negative("0,40,0.5\n1,-5,1.0\n");
  try {
    read_frame_tasks(negative);
    FAIL() << "expected error";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("cycles"), std::string::npos) << what;
  }
  std::istringstream zero("0,0,0.5\n");
  EXPECT_THROW(read_frame_tasks(zero), Error);
}

TEST(TaskIo, RejectsNegativeOrNonFinitePenalty) {
  std::istringstream negative("0,40,-1.0\n");
  EXPECT_THROW(read_frame_tasks(negative), Error);
  std::istringstream infinite("0,40,inf\n");
  EXPECT_THROW(read_frame_tasks(infinite), Error);
  std::istringstream not_a_number("0,40,nan\n");
  EXPECT_THROW(read_frame_tasks(not_a_number), Error);
  std::istringstream overflow("0,40,1e999\n");
  EXPECT_THROW(read_frame_tasks(overflow), Error);
}

TEST(TaskIo, RejectsNonPositivePeriodicFields) {
  std::istringstream zero_period("0,20,0,5\n");
  EXPECT_THROW(read_periodic_tasks(zero_period), Error);
  std::istringstream negative_period("0,20,-100,5\n");
  EXPECT_THROW(read_periodic_tasks(negative_period), Error);
  std::istringstream negative_cycles("0,-20,100,5\n");
  EXPECT_THROW(read_periodic_tasks(negative_cycles), Error);
  std::istringstream negative_penalty("0,20,100,-5\n");
  try {
    read_periodic_tasks(negative_penalty);
    FAIL() << "expected error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("line 1"), std::string::npos);
  }
}

TEST(TaskIo, ParsesPeriodicTasks) {
  std::istringstream in("id,cycles,period,penalty\n0,20,100,5\n1,30,200,2.5\n");
  const PeriodicTaskSet tasks = read_periodic_tasks(in);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[1].period, 200);
  EXPECT_EQ(tasks.hyper_period(), 200);
}

TEST(TaskIo, FrameRoundTripIsExact) {
  const FrameTaskSet original({{3, 40, 0.5}, {7, 35, 1.25}});
  std::stringstream buffer;
  write_frame_tasks(buffer, original);
  const FrameTaskSet parsed = read_frame_tasks(buffer);
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(parsed[i].id, original[i].id);
    EXPECT_EQ(parsed[i].cycles, original[i].cycles);
    EXPECT_DOUBLE_EQ(parsed[i].penalty, original[i].penalty);
  }
}

TEST(TaskIo, PeriodicRoundTripIsExact) {
  const PeriodicTaskSet original({{0, 20, 100, 5.0}, {1, 30, 400, 2.5}});
  std::stringstream buffer;
  write_periodic_tasks(buffer, original);
  const PeriodicTaskSet parsed = read_periodic_tasks(buffer);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[1].period, 400);
}

TEST(TaskIo, MissingFileThrows) {
  EXPECT_THROW(read_frame_tasks_file("/nonexistent/tasks.csv"), Error);
}

TEST(TaskIo, SolutionCsvListsEveryTask) {
  const FrameTaskSet tasks({{0, 60, 1.0}, {1, 60, 0.1}});
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  const RejectionProblem problem(tasks, std::move(curve), 0.01, 1);
  const RejectionSolution solution = ExactDpSolver().solve(problem);
  std::ostringstream out;
  write_solution_csv(out, problem, solution);
  const std::string text = out.str();
  EXPECT_NE(text.find("id,cycles,penalty,decision,processor"), std::string::npos);
  EXPECT_NE(text.find("accept"), std::string::npos);
  EXPECT_NE(text.find("reject"), std::string::npos);
}

TEST(TaskIo, FuzzedInputNeverCrashes) {
  // Random byte soup must either parse or throw retask::Error — anything
  // else (crash, other exception type) fails the test.
  Rng rng(0xF00D);
  const char alphabet[] = "0123456789,.-#ea \t\"x\n";
  for (int round = 0; round < 300; ++round) {
    std::string soup;
    const auto length = static_cast<std::size_t>(rng.uniform_int(0, 200));
    for (std::size_t i = 0; i < length; ++i) {
      soup += alphabet[rng.uniform_int(0, static_cast<std::int64_t>(sizeof(alphabet)) - 2)];
    }
    std::istringstream frame_in(soup);
    try {
      read_frame_tasks(frame_in);
    } catch (const Error&) {
      // expected for malformed input
    }
    std::istringstream periodic_in(soup);
    try {
      read_periodic_tasks(periodic_in);
    } catch (const Error&) {
    }
  }
}

// ---------------------------------------------------------------------------
// CLI options.

TEST(CliOptions, ParsesFullCommandLine) {
  const CliOptions options = parse_cli_options(
      {"--input", "tasks.csv", "--mode", "periodic", "--solver", "fptas:0.1", "--processors",
       "4", "--model", "table5", "--idle", "disable", "--frame", "2.5", "--capacity", "500",
       "--esw", "0.05", "--tsw", "0.1", "--csv"});
  EXPECT_EQ(options.mode, CliOptions::Mode::kPeriodic);
  EXPECT_EQ(options.input_path, "tasks.csv");
  EXPECT_EQ(options.solver, "fptas:0.1");
  EXPECT_EQ(options.processors, 4);
  EXPECT_EQ(options.model, "table5");
  EXPECT_EQ(options.idle, IdleDiscipline::kDormantDisable);
  EXPECT_DOUBLE_EQ(options.frame, 2.5);
  EXPECT_DOUBLE_EQ(options.capacity, 500);
  EXPECT_DOUBLE_EQ(options.sleep.switch_energy, 0.05);
  EXPECT_DOUBLE_EQ(options.sleep.switch_time, 0.1);
  EXPECT_TRUE(options.csv);
}

TEST(CliOptions, DefaultsAreSane) {
  const CliOptions options = parse_cli_options({"--input", "x.csv"});
  EXPECT_EQ(options.mode, CliOptions::Mode::kFrame);
  EXPECT_EQ(options.solver, "opt-dp");
  EXPECT_EQ(options.processors, 1);
  EXPECT_TRUE(options.sleep.free());
  EXPECT_FALSE(options.csv);
}

TEST(CliOptions, HelpSkipsRequiredChecks) {
  const CliOptions options = parse_cli_options({"--help"});
  EXPECT_TRUE(options.help);
  EXPECT_FALSE(cli_usage().empty());
}

TEST(CliOptions, RejectsBadInput) {
  EXPECT_THROW(parse_cli_options({}), Error);                                // no input
  EXPECT_THROW(parse_cli_options({"--input"}), Error);                       // missing value
  EXPECT_THROW(parse_cli_options({"--input", "x", "--mode", "bogus"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--processors", "0"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--frame", "-1"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--esw", "-2"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--model", "tpu"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--solver", "fptas:-1"}), Error);
  EXPECT_THROW(parse_cli_options({"--wat"}), Error);
}

TEST(CliOptions, RejectsNonFiniteAndOverflowingNumbers) {
  // strtod happily returns inf for "1e999" and accepts "inf"/"nan" spellings;
  // every numeric flag must insist on a finite value.
  EXPECT_THROW(parse_cli_options({"--input", "x", "--capacity", "1e999"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--capacity", "inf"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--capacity", "nan"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--frame", "infinity"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--esw", "nan"}), Error);
  EXPECT_THROW(parse_cli_options({"--input", "x", "--processors", "99999999999999999999"}),
               Error);
  // Sane spellings keep working.
  EXPECT_DOUBLE_EQ(parse_cli_options({"--input", "x", "--capacity", "1e3"}).capacity, 1000.0);
}

TEST(CliOptions, ModelFactory) {
  EXPECT_TRUE(make_model_by_name("xscale")->is_continuous());
  EXPECT_TRUE(make_model_by_name("cubic")->is_continuous());
  EXPECT_FALSE(make_model_by_name("table5")->is_continuous());
  EXPECT_THROW(make_model_by_name("nope"), Error);
}

}  // namespace
}  // namespace retask
