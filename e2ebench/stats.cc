#include "stats.h"

#include <algorithm>
#include <cmath>

namespace e2e {

namespace {

size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  if (ld < 2) {
    q.q1 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles, method='exclusive', n=4.
  const long m = ld + 1;
  double result[2] = {0, 0};
  const long quartile[2] = {1, 3};
  for (int k = 0; k < 2; ++k) {
    const long i = quartile[k];
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    result[k] = (values[j - 1] * static_cast<double>(4 - delta) +
                 values[j] * static_cast<double>(delta)) /
                4.0;
  }
  q.q1 = result[0];
  q.q3 = result[1];
  return q;
}

double Spread(const std::vector<double>& values) {
  const double median = Median(values);
  if (median == 0) return 0;
  const Quartiles q = QuartilesOf(values);
  return (q.q3 - q.q1) / std::fabs(median);
}

namespace {

// Index of the slice holding time t, or -1 when t falls in none.
int SliceOf(double t, const std::vector<double>& starts, double width) {
  const auto it = std::upper_bound(starts.begin(), starts.end(), t);
  if (it == starts.begin() || t >= *(it - 1) + width) return -1;
  return static_cast<int>(it - starts.begin()) - 1;
}

}  // namespace

double SlicedPercentile(const std::vector<Stamped>& samples,
                        const std::vector<double>& starts, double width,
                        double p) {
  std::vector<std::vector<double>> per(starts.size());
  for (const Stamped& s : samples) {
    const int i = SliceOf(s.t, starts, width);
    if (i >= 0) per[i].push_back(s.value);
  }
  std::vector<double> stats;
  for (std::vector<double>& v : per) {
    if (!v.empty()) stats.push_back(Percentile(std::move(v), p));
  }
  return Median(std::move(stats));
}

double SlicedRate(const std::vector<double>& times,
                  const std::vector<double>& starts, double width) {
  if (width <= 0) return 0;
  std::vector<double> counts(starts.size(), 0);
  for (const double t : times) {
    const int i = SliceOf(t, starts, width);
    if (i >= 0) ++counts[i];
  }
  for (double& c : counts) c /= width;
  return Median(std::move(counts));
}

ZipfSampler::ZipfSampler(uint32_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

uint32_t ZipfSampler::Sample(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const size_t rank = static_cast<size_t>(it - cdf_.begin());
  return static_cast<uint32_t>(std::min(rank, cdf_.size() - 1));
}

}  // namespace e2e
