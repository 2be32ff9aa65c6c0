// Unit tests for bench/bench_util.h — the nearest-rank percentile the
// latency benches report, the JSON emitter's string escaping, and the
// --check baseline gate the CI bench steps share. The
// linear-interpolation percentile in common/stats.h is the right estimator
// for smooth distributions; for tail latency over small N it invents values
// between the two largest observations, so the benches use nearest-rank
// instead.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "common/error.h"

namespace sompi::bench {
namespace {

TEST(PercentileNearestRank, ReturnsAnActualObservation) {
  const std::vector<double> values = {5.0, 1.0, 4.0, 2.0, 3.0};
  // ceil(0.99 * 5) = 5 → the maximum, not an interpolated blend.
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(values, 0.99), 5.0);
  // ceil(0.50 * 5) = 3 → the median.
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(values, 0.50), 3.0);
  // ceil(0.20 * 5) = 1 → the minimum.
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(values, 0.20), 1.0);
}

TEST(PercentileNearestRank, SmallSampleTailIsTheMaximum) {
  // The motivating case: p99 of N < 100 samples must report the largest
  // observation (ceil(0.99·N) = N whenever N < 100) — an actual measured
  // worst case, not a blend of the two largest.
  std::vector<double> values;
  for (int n = 1; n < 100; ++n) {
    values.push_back(static_cast<double>(n));
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(values, 0.99),
                     static_cast<double>(n))
        << "N=" << n;
  }
  // At N = 100 the estimator starts trimming the tail: the 99th smallest.
  values.push_back(100.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(values, 0.99), 99.0);
}

TEST(PercentileNearestRank, BoundaryQuantiles) {
  const std::vector<double> values = {10.0, 30.0, 20.0};
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(values, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(values, 1.0), 30.0);
}

TEST(PercentileNearestRank, SingleObservation) {
  const std::vector<double> values = {42.0};
  for (double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(percentile_nearest_rank(values, q), 42.0);
}

TEST(PercentileNearestRank, EvenCountMedianIsLowerOfTheTwo) {
  // Nearest-rank never averages: ceil(0.5 * 4) = 2 → the 2nd smallest.
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(values, 0.5), 2.0);
}

TEST(PercentileNearestRank, RejectsBadInput) {
  EXPECT_THROW(percentile_nearest_rank({}, 0.5), PreconditionError);
  EXPECT_THROW(percentile_nearest_rank({1.0}, -0.1), PreconditionError);
  EXPECT_THROW(percentile_nearest_rank({1.0}, 1.1), PreconditionError);
}

TEST(PercentileNearestRank, InputVectorIsNotMutated) {
  const std::vector<double> values = {3.0, 1.0, 2.0};
  const std::vector<double> copy = values;
  (void)percentile_nearest_rank(values, 0.5);
  EXPECT_EQ(values, copy);
}

TEST(JsonEscape, PassesPlainStringsThrough) {
  EXPECT_EQ(json_escape("wire_shards_8"), "wire_shards_8");
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("p50 ms / req"), "p50 ms / req");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("bad \"magic\""), "bad \\\"magic\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("cr\rbs\bff\f"), "cr\\rbs\\bff\\f");
  EXPECT_EQ(json_escape(std::string("nul\x01!")), "nul\\u0001!");
}

TEST(JsonEscape, WriteJsonEmitsEscapedNamesAndCounterKeys) {
  // The motivating leak: corruption-class counter names and error-frame
  // messages carry quotes/newlines; they must land in BENCH_*.json as valid
  // JSON, not as raw bytes that break the parser.
  const std::string path = ::testing::TempDir() + "bench_util_escape.json";
  JsonResult r;
  r.name = "reject \"crc_mismatch\"\n";
  r.iters = 1;
  r.counters = {{"bad \"magic\"", 2.0}, {"tab\tkey", 3.0}};
  write_json(path, {r});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("\"reject \\\"crc_mismatch\\\"\\n\""), std::string::npos);
  EXPECT_NE(text.find("\"bad \\\"magic\\\"\": 2.000000"), std::string::npos);
  EXPECT_NE(text.find("\"tab\\tkey\": 3.000000"), std::string::npos);
  // No raw newline inside any string: every line of the file must be a
  // structural line, so the record count equals results.size() + 2.
  std::size_t lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 3u);
  std::remove(path.c_str());
}

TEST(ArgValue, ReturnsTheValueAfterTheFlag) {
  char prog[] = "bench", check[] = "--check", file[] = "b.json", json[] = "--json";
  char* argv[] = {prog, check, file, json};
  EXPECT_EQ(arg_value(4, argv, "--check"), "b.json");
  EXPECT_EQ(arg_value(4, argv, "--json"), "");  // last flag, no value
  EXPECT_EQ(arg_value(4, argv, "--min-rate"), "");
}

TEST(BaselineGate, WriteJsonRoundTripsThroughTheCounterGate) {
  const std::string path = ::testing::TempDir() + "bench_util_gate.json";
  JsonResult r;
  r.name = "sharded_scale";
  r.counters = {{"solves", 48.0}, {"rps", 900.5}};
  write_json(path, {r});
  const std::optional<std::string> text = read_baseline(path);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(baseline_field(*text, "sharded_scale", "solves"), 48.0);
  EXPECT_EQ(baseline_field(*text, "sharded_scale", "missing"), std::nullopt);
  EXPECT_EQ(baseline_field(*text, "other", "solves"), std::nullopt);

  const auto solves_only = [](const std::string& key) { return key == "solves"; };
  EXPECT_TRUE(counters_match({r}, *text, path, solves_only, 0));
  r.counters[1].second = 1.0;  // an ungated counter may drift
  EXPECT_TRUE(counters_match({r}, *text, path, solves_only, 0));
  r.counters[0].second = 49.0;
  EXPECT_FALSE(counters_match({r}, *text, path, solves_only, 0));
  r.counters.push_back({"new_key", 1.0});  // gated but absent from the baseline
  EXPECT_FALSE(counters_match({r}, *text, path, [](const std::string&) { return true; }, 0));

  std::remove(path.c_str());
  EXPECT_FALSE(read_baseline(path).has_value());
}

}  // namespace
}  // namespace sompi::bench
