// Unit tests of the benchmark's order statistics and inference digest.
#include <gtest/gtest.h>

#include <numeric>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> samples(static_cast<std::size_t>(n));
  std::iota(samples.rbegin(), samples.rend(), 1.0);  // n, n-1, ..., 1
  return samples;
}

TEST(Percentile, NearestRankOnUnsortedSamples) {
  EXPECT_EQ(percentile(one_to(100), 0.5), 50.0);
  EXPECT_EQ(percentile(one_to(100), 0.9), 90.0);
  EXPECT_EQ(percentile(one_to(100), 0.99), 99.0);
  EXPECT_EQ(percentile(one_to(1000), 0.99), 990.0);
  EXPECT_EQ(percentile(one_to(101), 0.5), 51.0);
  EXPECT_EQ(percentile(one_to(1), 0.99), 1.0);
  EXPECT_EQ(percentile(one_to(7), 1.0), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, SamplesBeyondTheReportedRank) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(124, 0.9), 12u);
  EXPECT_EQ(samples_beyond(1, 0.5), 0u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(Percentile, TailKeepsAtLeastTenSamplesBeyond) {
  EXPECT_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(tail_quantile(999), 0.9);
  EXPECT_EQ(tail_quantile(124), 0.9);
  EXPECT_EQ(tail_quantile(99), 1.0);
  EXPECT_EQ(tail_quantile(1), 1.0);
  for (std::size_t n : {1u, 10u, 11u, 99u, 100u, 101u, 999u, 1000u, 50000u}) {
    const double q = tail_quantile(n);
    if (q < 1.0) {
      EXPECT_GE(samples_beyond(n, q), 10u) << n;
    } else {
      // The slowest sample appears only when no percentile leaves ten
      // samples beyond it.
      EXPECT_LT(samples_beyond(n, 0.9), 10u) << n;
    }
  }
  // The reported tail of a large sample sits at its p99 rank.
  const std::vector<double> samples = one_to(5000);
  EXPECT_EQ(percentile(samples, tail_quantile(samples.size())), 4950.0);
}

cfs::JsonValue report(const char* address, double run_ms) {
  cfs::JsonValue::Object metrics;
  metrics.emplace("total_ms", run_ms);
  cfs::JsonValue::Object iface;
  iface.emplace("address", address);
  cfs::JsonValue::Object doc;
  doc.emplace("interfaces", cfs::JsonValue::Array{cfs::JsonValue(iface)});
  doc.emplace("metrics", std::move(metrics));
  return cfs::JsonValue(std::move(doc));
}

TEST(InferenceDigest, IgnoresMetricsOnly) {
  const std::string digest = inference_digest(report("10.0.0.1", 12.5));
  EXPECT_EQ(digest.size(), 16u);
  EXPECT_EQ(digest, inference_digest(report("10.0.0.1", 99.0)));
  EXPECT_NE(digest, inference_digest(report("10.0.0.2", 12.5)));

  cfs::JsonValue bare = report("10.0.0.1", 0.0);
  bare.as_object().erase("metrics");
  EXPECT_EQ(digest, inference_digest(bare));
}

TEST(InferenceDigest, Fnv1aReferenceValues) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

}  // namespace
}  // namespace perfbench
