// Tests for the contend-serve wire protocol: round trips through
// parseRequestText (the parser both serving engines use), malformed input
// with its ERR codes, and a deterministic fuzz pass over mutated valid
// requests.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>

#include "serve/protocol.hpp"

namespace contend::serve {
namespace {

Request predictRequest() {
  Request request;
  request.verb = Verb::kPredict;
  request.task.name = "solver";
  request.task.frontEndSec = 8.0;
  request.task.backEndSec = 1.5;
  request.task.toBackend.push_back({512, 512});
  request.task.fromBackend.push_back({64, 2048});
  return request;
}

Request predictBatchRequest() {
  Request request;
  request.verb = Verb::kPredictBatch;
  tools::TaskSpec solver;
  solver.name = "solver";
  solver.frontEndSec = 8.0;
  solver.backEndSec = 1.5;
  solver.toBackend.push_back({512, 512});
  tools::TaskSpec reducer;
  reducer.name = "reducer";
  reducer.frontEndSec = 2.0;
  reducer.backEndSec = 0.5;
  reducer.fromBackend.push_back({64, 2048});
  request.batch = {std::move(solver), std::move(reducer)};
  return request;
}

/// The ERR code parseRequestText rejects `text` with; "" if it accepts.
std::string rejectionCode(std::string_view text) {
  try {
    (void)parseRequestText(text);
  } catch (const ProtocolError& error) {
    return error.code();
  }
  return "";
}

TEST(Protocol, VerbNamesRoundTrip) {
  for (int i = 0; i < kVerbCount; ++i) {
    const Verb verb = static_cast<Verb>(i);
    const auto parsed = verbFromName(verbName(verb));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, verb);
  }
  EXPECT_FALSE(verbFromName("arrive").has_value());  // case-sensitive
  EXPECT_FALSE(verbFromName("NOPE").has_value());
}

TEST(Protocol, ArriveRoundTrips) {
  Request request;
  request.verb = Verb::kArrive;
  request.app.commFraction = 0.375;
  request.app.messageWords = 800;
  const auto parsed = parseRequestText(formatRequest(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->verb, Verb::kArrive);
  EXPECT_DOUBLE_EQ(parsed->app.commFraction, 0.375);
  EXPECT_EQ(parsed->app.messageWords, 800);
}

TEST(Protocol, DepartRoundTrips) {
  Request request;
  request.verb = Verb::kDepart;
  request.applicationId = 18446744073709551615ull;  // max uint64
  const auto parsed = parseRequestText(formatRequest(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->verb, Verb::kDepart);
  EXPECT_EQ(parsed->applicationId, request.applicationId);
}

TEST(Protocol, HealthRoundTrips) {
  Request request;
  request.verb = Verb::kHealth;
  EXPECT_EQ(formatRequest(request), "HEALTH\n");
  const auto parsed = parseRequestText(formatRequest(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->verb, Verb::kHealth);
  // Argument-less verb: trailing tokens are a protocol error.
  EXPECT_EQ(rejectionCode("HEALTH now\n"), kErrParse);
}

TEST(Protocol, PredictRoundTrips) {
  const Request request = predictRequest();
  const auto parsed = parseRequestText(formatRequest(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->verb, Verb::kPredict);
  EXPECT_EQ(parsed->task.name, "solver");
  EXPECT_DOUBLE_EQ(parsed->task.frontEndSec, 8.0);
  EXPECT_DOUBLE_EQ(parsed->task.backEndSec, 1.5);
  ASSERT_EQ(parsed->task.toBackend.size(), 1u);
  EXPECT_EQ(parsed->task.toBackend[0].messages, 512);
  ASSERT_EQ(parsed->task.fromBackend.size(), 1u);
  EXPECT_EQ(parsed->task.fromBackend[0].words, 2048);
}

TEST(Protocol, PredictBatchRoundTrips) {
  const Request request = predictBatchRequest();
  const auto parsed = parseRequestText(formatRequest(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->verb, Verb::kPredictBatch);
  ASSERT_EQ(parsed->batch.size(), 2u);
  EXPECT_EQ(parsed->batch[0].name, "solver");
  EXPECT_DOUBLE_EQ(parsed->batch[0].frontEndSec, 8.0);
  ASSERT_EQ(parsed->batch[0].toBackend.size(), 1u);
  EXPECT_EQ(parsed->batch[0].toBackend[0].messages, 512);
  EXPECT_EQ(parsed->batch[1].name, "reducer");
  EXPECT_DOUBLE_EQ(parsed->batch[1].backEndSec, 0.5);
  ASSERT_EQ(parsed->batch[1].fromBackend.size(), 1u);
  EXPECT_EQ(parsed->batch[1].fromBackend[0].words, 2048);
}

TEST(Protocol, FormatRejectsEmptyBatch) {
  Request request;
  request.verb = Verb::kPredictBatch;
  EXPECT_THROW((void)formatRequest(request), ProtocolError);
}

TEST(Protocol, PredictDefaultsTaskName) {
  const auto parsed = parseRequestText("PREDICT\nfront 1\nback 2\nend\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->task.name, "task");
}

struct BadRequest {
  const char* name;
  const char* text;
  std::string_view code = kErrParse;
};

// gtest prints a parameter that has no PrintTo as its raw bytes, pointers
// included, and ctest's discovered test names embed that printout; printing
// the case name keeps the names stable from build to build.
void PrintTo(const BadRequest& request, std::ostream* os) {
  *os << request.name;
}

class ProtocolRejects : public ::testing::TestWithParam<BadRequest> {};

TEST_P(ProtocolRejects, Throws) {
  EXPECT_EQ(rejectionCode(GetParam().text), GetParam().code)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProtocolRejects,
    ::testing::Values(
        BadRequest{"unknownVerb", "FROBNICATE\n", kErrBadVerb},
        BadRequest{"lowercaseVerb", "arrive 0.5 100\n", kErrBadVerb},
        BadRequest{"arriveMissingArgs", "ARRIVE 0.5\n"},
        BadRequest{"arriveBadFraction", "ARRIVE 1.5 100\n"},
        BadRequest{"arriveNegativeWords", "ARRIVE 0.5 -3\n"},
        BadRequest{"arriveCommNeedsWords", "ARRIVE 0.5 0\n"},
        BadRequest{"arriveTrailing", "ARRIVE 0.5 100 junk\n"},
        BadRequest{"arriveNonNumeric", "ARRIVE half 100\n"},
        BadRequest{"departMissingId", "DEPART\n"},
        BadRequest{"departNegativeId", "DEPART -7\n"},
        BadRequest{"departBadId", "DEPART seven\n"},
        BadRequest{"departTrailing", "DEPART 7 junk\n"},
        BadRequest{"slowdownTrailing", "SLOWDOWN now\n"},
        BadRequest{"statsTrailing", "STATS verbose\n"},
        BadRequest{"predictTrailing", "PREDICT a b\nfront 1\nback 1\nend\n"},
        BadRequest{"predictUnclosed", "PREDICT a\nfront 1\nback 1\n",
                   kErrBlockUnterminated},
        BadRequest{"predictMissingCosts", "PREDICT a\nfront 1\nend\n"},
        BadRequest{"predictBadDataSet",
                   "PREDICT a\nfront 1\nback 1\nto_backend 5 y 9\nend\n"},
        BadRequest{"predictZeroMessages",
                   "PREDICT a\nfront 1\nback 1\nto_backend 0 x 9\nend\n"},
        BadRequest{"predictCompetitorInside",
                   "PREDICT a\nfront 1\nback 1\ncompetitor 0.1 5\nend\n"},
        BadRequest{"predictNestedTask",
                   "PREDICT a\nfront 1\nback 1\ntask b\nend\n"},
        BadRequest{"batchTrailing",
                   "PREDICT_BATCH now\ntask a\nfront 1\nback 1\nend\n"
                   "end_batch\n"},
        BadRequest{"batchEmpty", "PREDICT_BATCH\nend_batch\n", kErrEmptyBatch},
        BadRequest{"batchUnclosed",
                   "PREDICT_BATCH\ntask a\nfront 1\nback 1\nend\n",
                   kErrBlockUnterminated},
        BadRequest{"batchCompetitor",
                   "PREDICT_BATCH\ncompetitor 0.1 5\ntask a\nfront 1\n"
                   "back 1\nend\nend_batch\n"},
        BadRequest{"batchOpenTask",
                   "PREDICT_BATCH\ntask a\nfront 1\nback 1\nend_batch\n"}),
    [](const auto& paramInfo) { return std::string(paramInfo.param.name); });

TEST(Protocol, PredictBlockLengthIsBounded) {
  std::string text = "PREDICT flood\n";
  for (int i = 0; i < kMaxPredictBlockLines + 10; ++i) {
    text += "front 1.0\n";
  }
  text += "end\n";
  EXPECT_EQ(rejectionCode(text), kErrBlockUnterminated);
}

TEST(Protocol, ResponseRoundTrips) {
  Response response;
  response.add("verb", std::string("SLOWDOWN"));
  response.add("epoch", std::uint64_t{42});
  response.add("comp", 2.125);
  const Response parsed = parseResponse(formatResponse(response));
  EXPECT_TRUE(parsed.ok);
  ASSERT_NE(parsed.find("verb"), nullptr);
  EXPECT_EQ(*parsed.find("verb"), "SLOWDOWN");
  EXPECT_DOUBLE_EQ(parsed.number("epoch"), 42.0);
  EXPECT_DOUBLE_EQ(parsed.number("comp"), 2.125);
  EXPECT_EQ(parsed.find("missing"), nullptr);
  EXPECT_THROW((void)parsed.number("missing"), ProtocolError);
  EXPECT_THROW((void)parsed.number("verb"), ProtocolError);  // not numeric
}

TEST(Protocol, ErrorResponseRoundTrips) {
  Response response;
  response.ok = false;
  response.error = "unknown application id 7\nwith newline";
  const Response parsed = parseResponse(formatResponse(response));
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.error, "unknown application id 7 with newline");
}

TEST(Protocol, ErrorLineIsOneTerminatedLine) {
  EXPECT_EQ(errorLine(kErrOverloaded, "try\nagain"),
            "ERR overloaded try again\n");
  const Response parsed = parseResponse("ERR overloaded try again");
  EXPECT_FALSE(parsed.ok);
  EXPECT_EQ(parsed.code, kErrOverloaded);
}

TEST(Protocol, ParseResponseRejectsGarbage) {
  EXPECT_THROW((void)parseResponse(""), ProtocolError);
  EXPECT_THROW((void)parseResponse("MAYBE yes"), ProtocolError);
  EXPECT_THROW((void)parseResponse("OK novalue"), ProtocolError);
  EXPECT_THROW((void)parseResponse("OK =orphan"), ProtocolError);
}

// Fuzz-ish: mutate valid requests with a fixed seed; the parser must either
// accept or throw ProtocolError — never crash, never throw anything else.
TEST(Protocol, MutatedRequestsNeverCrash) {
  const std::string corpus[] = {
      "ARRIVE 0.30 800\n",
      "DEPART 17\n",
      "SLOWDOWN\n",
      "STATS\n",
      formatRequest(predictRequest()),
      formatRequest(predictBatchRequest()),
  };
  std::mt19937 rng(20260805u);
  std::uniform_int_distribution<int> byteDist(0, 255);
  for (const std::string& seedText : corpus) {
    for (int round = 0; round < 2000; ++round) {
      std::string mutated = seedText;
      const int edits = 1 + static_cast<int>(rng() % 4);
      for (int e = 0; e < edits; ++e) {
        const auto pos = rng() % mutated.size();
        switch (rng() % 3) {
          case 0:
            mutated[pos] = static_cast<char>(byteDist(rng));
            break;
          case 1:
            mutated.insert(pos, 1, static_cast<char>(byteDist(rng)));
            break;
          default:
            mutated.erase(pos, 1);
            break;
        }
        if (mutated.empty()) mutated = "\n";
      }
      // An engine may frame a request at any line boundary, so parse from
      // every line start, not only the first.
      for (std::string_view rest = mutated; !rest.empty();) {
        try {
          (void)parseRequestText(rest);
        } catch (const ProtocolError&) {
          // expected for most mutations
        }
        const std::size_t newline = rest.find('\n');
        rest.remove_prefix(newline == std::string_view::npos ? rest.size()
                                                             : newline + 1);
      }
    }
  }
}

}  // namespace
}  // namespace contend::serve
