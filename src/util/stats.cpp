/// \file stats.cpp
/// Statistics implementation: descriptive moments and least-squares line
/// fitting for the calibration/metrology pipeline.

#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace idp::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double rms(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x * x;
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> copy(xs.begin(), xs.end());
  const std::size_t mid = copy.size() / 2;
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(mid),
                   copy.end());
  if (copy.size() % 2 == 1) return copy[mid];
  const double hi = copy[mid];
  const double lo = *std::max_element(copy.begin(),
                                      copy.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

double max_abs(std::span<const double> xs) {
  double m = 0.0;
  for (double x : xs) m = std::max(m, std::fabs(x));
  return m;
}

double min_value(std::span<const double> xs) {
  require(!xs.empty(), "min_value of empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  require(!xs.empty(), "max_value of empty range");
  return *std::max_element(xs.begin(), xs.end());
}

double percentile_sorted(std::span<const double> sorted, double q) {
  require(!sorted.empty(), "percentile of empty sample set");
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

std::vector<double> percentiles_of(std::vector<double>& values,
                                   std::span<const double> qs) {
  require(!values.empty(), "percentiles of empty sample set");
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) out.push_back(percentile_sorted(values, q));
  return out;
}

LatencyHistogram::LatencyHistogram(double min_value, double max_value,
                                   std::size_t bins_per_decade)
    : min_value_(min_value),
      max_value_(max_value),
      log_min_(std::log10(min_value)),
      bins_per_decade_(static_cast<double>(bins_per_decade)) {
  require(min_value > 0.0 && max_value > min_value,
          "histogram needs 0 < min_value < max_value");
  require(bins_per_decade > 0, "histogram needs at least one bin per decade");
  const double decades = std::log10(max_value) - log_min_;
  counts_.assign(static_cast<std::size_t>(
                     std::ceil(decades * bins_per_decade_)) +
                     1,
                 0);
}

void LatencyHistogram::add(double value) {
  if (count_ == 0) {
    min_seen_ = max_seen_ = value;
  } else {
    min_seen_ = std::min(min_seen_, value);
    max_seen_ = std::max(max_seen_, value);
  }
  ++count_;
  sum_ += value;
  double bin = 0.0;
  if (value > min_value_) {
    bin = (std::log10(value) - log_min_) * bins_per_decade_;
  }
  // Clamp before the cast: +inf (or anything past the top bin) would
  // overflow the integer conversion.
  const double top = static_cast<double>(counts_.size() - 1);
  ++counts_[static_cast<std::size_t>(std::clamp(bin, 0.0, top))];
}

double LatencyHistogram::min() const { return count_ == 0 ? 0.0 : min_seen_; }

double LatencyHistogram::max() const { return count_ == 0 ? 0.0 : max_seen_; }

double LatencyHistogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LatencyHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  // The extreme ranks are tracked exactly; interpolation only applies to
  // interior ranks.
  if (rank <= 0.0) return min_seen_;
  if (rank >= static_cast<double>(count_ - 1)) return max_seen_;
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const double next = cumulative + static_cast<double>(counts_[b]);
    if (rank < next || b == counts_.size() - 1) {
      // Interpolate inside the bin in log space: the bin spans one
      // geometric step starting at 10^(log_min + b / bins_per_decade).
      const double frac =
          std::clamp((rank - cumulative) / static_cast<double>(counts_[b]),
                     0.0, 1.0);
      const double log_lo =
          log_min_ + static_cast<double>(b) / bins_per_decade_;
      const double value =
          std::pow(10.0, log_lo + frac / bins_per_decade_);
      return std::clamp(value, min_seen_, max_seen_);
    }
    cumulative = next;
  }
  return max_seen_;
}

const std::vector<std::string>& latency_summary_columns() {
  static const std::vector<std::string> kColumns{"count", "min", "max",
                                                 "p50",   "p90", "p99"};
  return kColumns;
}

std::vector<double> to_row(const LatencySummary& summary) {
  return {static_cast<double>(summary.count),
          summary.min,
          summary.max,
          summary.p50,
          summary.p90,
          summary.p99};
}

LatencySummary LatencyHistogram::summary() const {
  LatencySummary s;
  s.count = count_;
  s.min = min();
  s.max = max();
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

std::vector<HistogramBinRow> LatencyHistogram::to_rows() const {
  std::vector<HistogramBinRow> rows;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    HistogramBinRow row;
    row.bin = b;
    row.lower = std::pow(10.0, log_min_ + static_cast<double>(b) /
                                              bins_per_decade_);
    row.upper = std::pow(10.0, log_min_ + static_cast<double>(b + 1) /
                                              bins_per_decade_);
    row.count = counts_[b];
    rows.push_back(row);
  }
  return rows;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  // Compare the full configured geometry, not just the derived bin count:
  // different max_values can round to the same bin count (e.g. spans of
  // 999 vs 1000 at 16 bins/decade), which would silently mis-attribute the
  // merged tail.
  require(counts_.size() == other.counts_.size() &&
              min_value_ == other.min_value_ &&
              max_value_ == other.max_value_ &&
              bins_per_decade_ == other.bins_per_decade_,
          "histogram bin configurations differ");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_seen_ = other.min_seen_;
    max_seen_ = other.max_seen_;
  } else {
    min_seen_ = std::min(min_seen_, other.min_seen_);
    max_seen_ = std::max(max_seen_, other.max_seen_);
  }
  for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  count_ += other.count_;
  sum_ += other.sum_;
}

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  require(xs.size() == ys.size(), "x/y size mismatch");
  require(xs.size() >= 2, "need at least two points");
  const double n = static_cast<double>(xs.size());
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  require(sxx > 0.0, "degenerate fit: all x identical");

  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;

  double ss_res = 0.0;
  double max_res = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - evaluate(fit, xs[i]);
    ss_res += r * r;
    max_res = std::max(max_res, std::fabs(r));
  }
  fit.residual_rms = std::sqrt(ss_res / n);
  fit.max_abs_residual = max_res;
  fit.r_squared = (syy > 0.0) ? 1.0 - ss_res / syy : 1.0;
  return fit;
}

}  // namespace idp::util
