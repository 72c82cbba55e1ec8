// Tests for the .workload file parser used by contend_predict.
#include <gtest/gtest.h>

#include <sstream>

#include "tools/workload_file.hpp"

namespace contend::tools {
namespace {

constexpr const char* kValid = R"(
# two competitors
competitor 0.30 800
competitor 0.0  0

task solver
  front 8.0
  back  1.5
  to_backend   512 x 512
  from_backend 512 x 512
end

task tiny    # comment after keyword
  front 0.5
  back  2.0
end
)";

TEST(WorkloadFile, ParsesValidInput) {
  std::istringstream in(kValid);
  const WorkloadFile w = parseWorkload(in);
  ASSERT_EQ(w.competitors.size(), 2u);
  EXPECT_DOUBLE_EQ(w.competitors[0].commFraction, 0.30);
  EXPECT_EQ(w.competitors[0].messageWords, 800);
  ASSERT_EQ(w.tasks.size(), 2u);
  EXPECT_EQ(w.tasks[0].name, "solver");
  EXPECT_DOUBLE_EQ(w.tasks[0].frontEndSec, 8.0);
  EXPECT_DOUBLE_EQ(w.tasks[0].backEndSec, 1.5);
  ASSERT_EQ(w.tasks[0].toBackend.size(), 1u);
  EXPECT_EQ(w.tasks[0].toBackend[0].messages, 512);
  EXPECT_EQ(w.tasks[0].toBackend[0].words, 512);
  EXPECT_TRUE(w.tasks[1].toBackend.empty());
}

TEST(WorkloadFile, RoundTrips) {
  std::istringstream in(kValid);
  const WorkloadFile original = parseWorkload(in);
  std::stringstream buffer;
  writeWorkload(original, buffer);
  const WorkloadFile reparsed = parseWorkload(buffer);
  ASSERT_EQ(reparsed.competitors.size(), original.competitors.size());
  ASSERT_EQ(reparsed.tasks.size(), original.tasks.size());
  EXPECT_DOUBLE_EQ(reparsed.tasks[0].frontEndSec,
                   original.tasks[0].frontEndSec);
  EXPECT_EQ(reparsed.tasks[0].fromBackend[0].words,
            original.tasks[0].fromBackend[0].words);
}

TEST(WorkloadFile, ZeroWordMessagesAreAccepted) {
  // Boundary: `words == 0` is legal (a data set of empty messages still pays
  // the per-message startup alpha); only `messages` must be positive.
  std::istringstream in(
      "task pings\nfront 1.0\nback 1.0\nto_backend 5 x 0\nend\n");
  const WorkloadFile w = parseWorkload(in);
  ASSERT_EQ(w.tasks.size(), 1u);
  ASSERT_EQ(w.tasks[0].toBackend.size(), 1u);
  EXPECT_EQ(w.tasks[0].toBackend[0].messages, 5);
  EXPECT_EQ(w.tasks[0].toBackend[0].words, 0);
}

TEST(WorkloadFile, EmptyInputIsEmptyWorkload) {
  std::istringstream in("\n# nothing here\n");
  const WorkloadFile w = parseWorkload(in);
  EXPECT_TRUE(w.competitors.empty());
  EXPECT_TRUE(w.tasks.empty());
}

struct BadCase {
  const char* name;
  const char* text;
  const char* expectedFragment;
};

// gtest prints a parameter that has no PrintTo as its raw bytes, pointers
// included, and ctest's discovered test names embed that printout; printing
// the case name keeps the names stable from build to build.
void PrintTo(const BadCase& badCase, std::ostream* os) {
  *os << badCase.name;
}

class WorkloadFileErrors : public ::testing::TestWithParam<BadCase> {};

TEST_P(WorkloadFileErrors, ReportsLineAndReason) {
  std::istringstream in(GetParam().text);
  try {
    (void)parseWorkload(in);
    FAIL() << "expected parse failure for case " << GetParam().name;
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(GetParam().expectedFragment),
              std::string::npos)
        << "case " << GetParam().name << ": got '" << error.what() << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, WorkloadFileErrors,
    ::testing::Values(
        BadCase{"unknown", "frobnicate 1\n", "unknown keyword"},
        BadCase{"fraction", "competitor 1.5 100\n", "outside [0, 1]"},
        BadCase{"nosize", "competitor 0.5 0\n", "needs a message size"},
        BadCase{"nestedTask", "task a\nfront 1\nback 1\ntask b\n", "nested"},
        BadCase{"strayEnd", "end\n", "'end' without 'task'"},
        BadCase{"strayFront", "front 1.0\n", "outside a task"},
        BadCase{"missingCosts", "task a\nfront 1.0\nend\n",
                "needs both 'front' and 'back'"},
        BadCase{"badDataSet", "task a\nfront 1\nback 1\nto_backend 5 y 9\nend\n",
                "expected '<messages> x <words>'"},
        BadCase{"zeroMessages",
                "task a\nfront 1\nback 1\nto_backend 0 x 9\nend\n",
                "message count must be positive"},
        BadCase{"negativeWords",
                "task a\nfront 1\nback 1\nto_backend 5 x -1\nend\n",
                "words non-negative"},
        BadCase{"negDuration", "task a\nfront -1\n", "non-negative"},
        BadCase{"trailing", "task a\nfront 1\nback 1\nto_backend 5 x 9 zz\nend\n",
                "trailing tokens"},
        BadCase{"unclosed", "task a\nfront 1\nback 1\n", "not closed"},
        BadCase{"competitorInTask",
                "task a\nfront 1\nback 1\ncompetitor 0.1 5\n",
                "not allowed inside"}),
    [](const auto& paramInfo) { return paramInfo.param.name; });

TEST(WorkloadFile, MissingFileThrows) {
  EXPECT_THROW((void)parseWorkloadFile("/nonexistent/nope.workload"),
               std::runtime_error);
}

TEST(WorkloadFile, ErrorsCarryLineNumbers) {
  std::istringstream in("competitor 0.1 10\n\nfrobnicate\n");
  try {
    (void)parseWorkload(in);
    FAIL();
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace contend::tools
