// Order statistics and the request-mix sampler of the benchmark.
#ifndef SGQ_E2EBENCH_STATS_H_
#define SGQ_E2EBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

// Nearest-rank percentile: the sample at rank ceil(p/100 * n) (1-based) of
// the sorted samples, so at least p% of the samples are <= it. p in (0,
// 100]; 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

// How many samples lie beyond the nearest-rank p-th percentile of n.
size_t SamplesBeyond(size_t n, double p);

// A tail percentile is reported only when at least this many samples lie
// beyond it; below that one slow request decides the value.
inline constexpr size_t kMinSamplesBeyond = 10;

inline bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

double Median(std::vector<double> values);

// First and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (method 'exclusive') computes them,
// which is how run-to-run spread is judged. Needs >= 2 values; with fewer
// both quartiles equal the single value (or 0).
struct Quartiles {
  double q1 = 0;
  double q3 = 0;
};
Quartiles QuartilesOf(std::vector<double> values);

// (q3 - q1) / median: the run-to-run spread of a metric, as a share.
double Spread(const std::vector<double>& values);

// Sliced statistics. A run interleaves short closed-loop and open-loop
// slices; slice i of one kind covers [starts[i], starts[i] + width). Each
// statistic is computed per slice and the median over slices is reported,
// so a slow stretch of the shared host that covers a minority of the
// slices does not move the result, and both loops sample the whole run.
struct Stamped {
  double t;      // the moment the sample belongs to (due or done time)
  double value;
};
// Median over slices of the nearest-rank p-th percentile of the samples
// stamped within the slice; slices without samples are skipped.
double SlicedPercentile(const std::vector<Stamped>& samples,
                        const std::vector<double>& starts, double width,
                        double p);
// Median over slices of (events in the slice) / width.
double SlicedRate(const std::vector<double>& times,
                  const std::vector<double>& starts, double width);

// Zipf(s) over ranks 0..n-1: P(rank r) proportional to 1 / (r+1)^s.
// Sampling inverts the precomputed CDF with a uniform draw, so the same
// uniform stream always yields the same ranks.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double s);
  // u uniform in [0, 1).
  uint32_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace e2e

#endif  // SGQ_E2EBENCH_STATS_H_
