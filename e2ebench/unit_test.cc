#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json.h"
#include "stats.h"
#include "workloads.h"

namespace e2e {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 95), 95);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  // Rank ceil(0.5 * 3) = 2, whatever the input order.
  EXPECT_EQ(Percentile({30, 10, 20}, 50), 20);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 99));
  EXPECT_FALSE(PercentileSupported(999, 99));
  EXPECT_TRUE(PercentileSupported(200, 95));
  EXPECT_FALSE(PercentileSupported(199, 95));
  EXPECT_TRUE(PercentileSupported(20, 50));
  EXPECT_FALSE(PercentileSupported(0, 50));
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  const Quartiles q = QuartilesOf(v);
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  const Quartiles small = QuartilesOf({3, 1, 2});
  EXPECT_DOUBLE_EQ(small.q1, 1.0);
  EXPECT_DOUBLE_EQ(small.q3, 3.0);
  EXPECT_DOUBLE_EQ(Spread(v), (8.25 - 2.75) / 5.5);
}

TEST(SlicedTest, MedianOverSlicesIgnoresTimesBetweenThem) {
  // Slices [0, 1) and [10, 11); t = 5 and t = 11 fall in neither.
  const std::vector<double> starts = {0, 10};
  const std::vector<Stamped> samples = {{0.1, 1}, {0.2, 3},  {0.5, 2},
                                        {5, 100}, {10.1, 5}, {10.9, 7},
                                        {11, 9}};
  // Per-slice medians 2 and 5 (nearest rank); their median is 3.5.
  EXPECT_DOUBLE_EQ(SlicedPercentile(samples, starts, 1.0, 50), 3.5);
  // Per-slice rates 3/s and 2/s.
  EXPECT_DOUBLE_EQ(SlicedRate({0.1, 0.2, 0.5, 5, 10.1, 10.9, 11}, starts, 1.0),
                   2.5);
  EXPECT_EQ(SlicedRate({}, {}, 1.0), 0);
}

TEST(ZipfTest, SkewsTowardLowRanksAndCoversAll) {
  ZipfSampler zipf(100, 0.9);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 100000; ++i) ++hits[zipf.Sample((i + 0.5) / 100000)];
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[10]);
  EXPECT_GT(hits[10], hits[99]);
  EXPECT_GT(hits[99], 0);
  // P(rank 0) = 1 / sum_{r=1..100} r^-0.9 ~= 0.1556.
  EXPECT_NEAR(hits[0] / 100000.0, 0.1556, 0.002);
  EXPECT_EQ(zipf.Sample(0.0), 0u);
  EXPECT_EQ(zipf.Sample(0.999999999), 99u);
  // s = 0 is uniform.
  ZipfSampler uniform(4, 0);
  EXPECT_EQ(uniform.Sample(0.3), 1u);
}

std::string StreamBytes(const WorkloadSpec& spec, const Inputs& inputs,
                        uint64_t seed, int n) {
  Schedule schedule(spec, seed, static_cast<uint32_t>(inputs.queries.size()));
  std::string bytes;
  for (int i = 0; i < n; ++i) bytes += EncodeRequest(schedule.Next(), inputs);
  return bytes;
}

TEST(ScheduleTest, SameSeedGivesByteIdenticalRequestStream) {
  const WorkloadSpec spec = SmokeScaled(*FindWorkload("mixed_rw"));
  const std::string dir = ::testing::TempDir();
  Inputs a, b;
  std::string error;
  ASSERT_TRUE(GenerateInputs(spec, true, dir, &a, &error)) << error;
  ASSERT_TRUE(GenerateInputs(spec, true, dir, &b, &error)) << error;
  // The data is part of the recipe; only the stream depends on the seed.
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(StreamBytes(spec, a, 7, 500), StreamBytes(spec, b, 7, 500));
  EXPECT_NE(StreamBytes(spec, a, 7, 500), StreamBytes(spec, a, 8, 500));
}

TEST(ScheduleTest, MixMatchesTheRecipe) {
  const WorkloadSpec spec = SmokeScaled(*FindWorkload("mixed_rw"));
  Schedule schedule(spec, 3, 30);
  int reads = 0, streams = 0, adds = 0, removes = 0;
  uint32_t next_add = 0, next_remove = 0;
  for (int i = 0; i < 10000; ++i) {
    const Request r = schedule.Next();
    switch (r.op) {
      case Op::kQuery: ++reads; break;
      case Op::kStream: ++streams; break;
      case Op::kAdd:
        // ADD k and REMOVE k alternate, so the k-th remove always
        // follows the k-th add.
        EXPECT_EQ(next_add, next_remove);
        EXPECT_EQ(r.index, next_add++);
        ++adds;
        break;
      case Op::kRemove:
        EXPECT_EQ(r.index, next_remove++);
        ++removes;
        break;
    }
  }
  EXPECT_NEAR((adds + removes) / 10000.0, spec.write_share, 0.02);
  EXPECT_NEAR(streams / double(reads + streams), kStreamShare, 0.02);
}

TEST(JsonTest, ParsesNestedStats) {
  Json j;
  std::string error;
  ASSERT_TRUE(ParseJson(
      R"({"router":{"retries":2},"shards":[{"cache":{"hits":3}},null],)"
      R"("s":"a\"b","ok":true,"x":-1.5e2})",
      &j, &error))
      << error;
  EXPECT_EQ(j["router"].Num("retries"), 2);
  EXPECT_EQ(j["shards"].array.size(), 2u);
  EXPECT_EQ(j["shards"].array[0]["cache"].Num("hits"), 3);
  EXPECT_EQ(j["s"].string, "a\"b");
  EXPECT_TRUE(j["ok"].boolean);
  EXPECT_EQ(j.Num("x"), -150);
  EXPECT_EQ(j.Num("absent", 4), 4);
  EXPECT_FALSE(ParseJson("{\"a\":}", &j, &error));
  EXPECT_FALSE(ParseJson("[1,2", &j, &error));
  EXPECT_FALSE(ParseJson("{} trailing", &j, &error));
}

}  // namespace
}  // namespace e2e
