// Unit tests for the util module: statistics, regression (including the
// paper's exhaustive-threshold piecewise fit), RNG, tables, CSV, and the
// line tokenizer.
#include <gtest/gtest.h>

#include <bitset>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>

#include "util/csv.hpp"
#include "util/regression.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/tokens.hpp"
#include "util/units.hpp"

namespace contend {
namespace {

// ---------------------------------------------------------------- units ---

TEST(Units, RoundTripSeconds) {
  EXPECT_EQ(fromSeconds(1.0), kSecond);
  EXPECT_EQ(fromSeconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(toSeconds(3 * kMillisecond), 0.003);
}

TEST(Units, FromSecondsRoundsToNearest) {
  EXPECT_EQ(fromSeconds(1.4e-9), 1);
  EXPECT_EQ(fromSeconds(1.6e-9), 2);
}

// ---------------------------------------------------------------- stats ---

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, RelativeErrorBasics) {
  EXPECT_DOUBLE_EQ(relativeError(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(relativeError(90.0, 100.0), 0.1);
  EXPECT_THROW((void)relativeError(1.0, 0.0), std::invalid_argument);
}

TEST(Stats, AverageAndMaxRelativeError) {
  const std::vector<double> pred{110.0, 95.0};
  const std::vector<double> act{100.0, 100.0};
  EXPECT_NEAR(averageRelativeError(pred, act), 0.075, 1e-12);
  EXPECT_NEAR(maxRelativeError(pred, act), 0.10, 1e-12);
  EXPECT_THROW((void)averageRelativeError({}, {}), std::invalid_argument);
}

// ----------------------------------------------------------- regression ---

TEST(Regression, ExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 + 2.0 * xi);
  const LinearFit fit = fitLine(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Regression, RejectsDegenerateInput) {
  EXPECT_THROW((void)fitLine(std::vector<double>{1.0},
                             std::vector<double>{2.0}),
               std::invalid_argument);
  EXPECT_THROW((void)fitLine(std::vector<double>{1.0, 1.0},
                             std::vector<double>{2.0, 3.0}),
               std::invalid_argument);
  EXPECT_THROW((void)fitLine(std::vector<double>{1.0, 2.0},
                             std::vector<double>{2.0}),
               std::invalid_argument);
}

TEST(Regression, PiecewiseRecoversKnee) {
  // Cost 1 + x below 100; 21 + 0.8x above (continuity not required).
  std::vector<double> x, y;
  for (double xi : {10, 30, 50, 70, 90, 100}) {
    x.push_back(xi);
    y.push_back(1.0 + xi);
  }
  for (double xi : {150, 200, 300, 400, 600, 800}) {
    x.push_back(xi);
    y.push_back(21.0 + 0.8 * xi);
  }
  const PiecewiseFit fit = fitPiecewise(x, y);
  EXPECT_DOUBLE_EQ(fit.threshold, 100.0);
  EXPECT_NEAR(fit.low.slope, 1.0, 1e-9);
  EXPECT_NEAR(fit.high.slope, 0.8, 1e-9);
  EXPECT_NEAR(fit.low.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.high.intercept, 21.0, 1e-9);
}

TEST(Regression, PiecewiseUnsortedInput) {
  std::vector<double> x{400, 10, 90, 300, 30, 150};
  std::vector<double> y;
  for (double xi : x) y.push_back(xi <= 100 ? xi : 50 + 0.5 * xi);
  const PiecewiseFit fit = fitPiecewise(x, y);
  EXPECT_DOUBLE_EQ(fit.threshold, 90.0);
}

TEST(Regression, PiecewiseNeedsFourDistinct) {
  std::vector<double> x{1, 1, 2, 2};
  std::vector<double> y{1, 1, 2, 2};
  EXPECT_THROW((void)fitPiecewise(x, y), std::invalid_argument);
}

TEST(Regression, PiecewiseAtMatchesPiece) {
  std::vector<double> x{10, 20, 30, 40, 200, 300, 400, 500};
  std::vector<double> y;
  for (double xi : x) y.push_back(xi <= 40 ? 2 * xi : 100 + xi);
  const PiecewiseFit fit = fitPiecewise(x, y);
  EXPECT_NEAR(fit.at(25.0), 50.0, 1e-6);
  EXPECT_NEAR(fit.at(250.0), 350.0, 1e-6);
}

// ------------------------------------------------------------------ rng ---

TEST(Rng, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DoubleInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.nextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, JitterBounded) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto j = rng.nextJitter(50);
    EXPECT_GE(j, -50);
    EXPECT_LE(j, 50);
  }
  EXPECT_EQ(rng.nextJitter(0), 0);
  EXPECT_EQ(rng.nextJitter(-5), 0);
}

TEST(Rng, JitterCoversRangeRoughlyUniformly) {
  SplitMix64 rng(11);
  int lo = 0, hi = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto j = rng.nextJitter(10);
    if (j < 0) ++lo;
    if (j > 0) ++hi;
  }
  EXPECT_GT(lo, 4000);
  EXPECT_GT(hi, 4000);
}

TEST(Rng, SplitProducesIndependentStream) {
  SplitMix64 a(42);
  SplitMix64 child = a.split();
  EXPECT_NE(a.next(), child.next());
}

// ---------------------------------------------------------------- table ---

TEST(TextTable, AlignsColumns) {
  TextTable t({"size", "value"});
  t.addRow({"1", "short"});
  t.addRow({"100000", "x"});
  const std::string s = t.toString();
  EXPECT_NE(s.find("| size   | value |"), std::string::npos);
  EXPECT_NE(s.find("| 100000 | x     |"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, RejectsBadRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, Formatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::integer(42), "42");
  EXPECT_EQ(TextTable::percent(0.123, 1), "12.3%");
}

// ------------------------------------------------------------------ csv ---

TEST(Csv, WritesAndEscapes) {
  const std::string path = testing::TempDir() + "contend_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.addRow({"plain", "with,comma"});
    w.addRow({"quote\"inside", "line\nbreak"});
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  EXPECT_NE(content.find("a,b\n"), std::string::npos);
  EXPECT_NE(content.find("plain,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(content.find("\"quote\"\"inside\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatch) {
  const std::string path = testing::TempDir() + "contend_csv_test2.csv";
  CsvWriter w(path, {"a", "b"});
  EXPECT_THROW(w.addRow({"1"}), std::invalid_argument);
  w.close();
  std::remove(path.c_str());
}


// --------------------------------------------------------------- tokens ---

/// The tokenizer as it was written before the char-class loop: two searches
/// of the whitespace set per token. util::TokenCursor must split every byte
/// string exactly as this does.
class SetSearchCursor {
 public:
  explicit SetSearchCursor(std::string_view text) : rest_(text) {}

  std::optional<std::string_view> next() {
    const auto begin = rest_.find_first_not_of(util::kTokenSpace);
    if (begin == std::string_view::npos) {
      rest_ = {};
      return std::nullopt;
    }
    const auto end = rest_.find_first_of(util::kTokenSpace, begin);
    const std::string_view token = rest_.substr(
        begin, end == std::string_view::npos ? std::string_view::npos
                                             : end - begin);
    rest_ = end == std::string_view::npos ? std::string_view{}
                                          : rest_.substr(end);
    return token;
  }

  [[nodiscard]] bool exhausted() const {
    return rest_.find_first_not_of(util::kTokenSpace) ==
           std::string_view::npos;
  }

 private:
  std::string_view rest_;
};

/// A seeded random byte string: half the bytes come from the ones the split
/// hinges on (the whitespace set, '\n', '\0', '#', high bytes), half are
/// uniform over all 256 values.
std::string randomLine(std::mt19937& rng) {
  static constexpr char kEdgeBytes[] = {' ',  '\t', '\v', '\f', '\r',
                                        '\n', '\0', '#',  'a',  '7',
                                        '\x80', '\xff'};
  std::string line(rng() % 48, '\0');
  for (char& c : line) {
    c = rng() % 2 == 0 ? kEdgeBytes[rng() % sizeof(kEdgeBytes)]
                       : static_cast<char>(rng() % 256);
  }
  return line;
}

TEST(Tokens, CursorMatchesTheSetSearchOnRandomBytes) {
  std::mt19937 rng(20261020);
  std::bitset<256> seen;
  for (int round = 0; round < 20000; ++round) {
    const std::string line = randomLine(rng);
    for (const char c : line) seen.set(static_cast<unsigned char>(c));
    util::TokenCursor cursor(line);
    SetSearchCursor reference(line);
    while (true) {
      ASSERT_EQ(cursor.exhausted(), reference.exhausted()) << round;
      const auto token = cursor.next();
      const auto expected = reference.next();
      ASSERT_EQ(token.has_value(), expected.has_value()) << round;
      if (!token) break;
      // Same bytes at the same place: both are views into `line`.
      ASSERT_EQ(token->data(), expected->data()) << round;
      ASSERT_EQ(token->size(), expected->size()) << round;
    }
    ASSERT_TRUE(cursor.exhausted());
  }
  EXPECT_TRUE(seen.all()) << seen.count() << " of 256 byte values drawn";
}

// The engines find a block's terminator with firstTokenIs; it must agree
// with the full first-token split, comments included.
TEST(Tokens, FirstTokenIsAgreesWithFirstToken) {
  static constexpr std::string_view kPieces[] = {
      "end", "end_batch", "endx", "#", " ", "\t", "\r", "\v", "x",
      std::string_view("\0", 1)};
  std::mt19937 rng(7);
  for (int round = 0; round < 20000; ++round) {
    std::string line;
    for (std::uint32_t i = rng() % 6; i > 0; --i) {
      line += kPieces[rng() % std::size(kPieces)];
    }
    for (const std::string_view word : {"end", "end_batch"}) {
      EXPECT_EQ(util::firstTokenIs(line, word), util::firstToken(line) == word)
          << '[' << line << "] " << word;
    }
  }
}

}  // namespace
}  // namespace contend
