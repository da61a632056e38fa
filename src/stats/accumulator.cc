#include "stats/accumulator.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"

namespace cbtree {

void Accumulator::Add(double value) {
  ++count_;
  double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Accumulator::Merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. parallel update.
  double delta = other.mean_ - mean_;
  size_t total = count_ + other.count_;
  double nb = static_cast<double>(other.count_);
  double na = static_cast<double>(count_);
  double nt = static_cast<double>(total);
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ += delta * nb / nt;
  count_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Accumulator::mean() const { return count_ ? mean_ : 0.0; }

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const { return count_ ? min_ : 0.0; }

double Accumulator::max() const { return count_ ? max_ : 0.0; }

double Accumulator::ci95_halfwidth() const {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

void TimeWeightedAccumulator::Update(double now, double value) {
  CBTREE_CHECK_GE(now, last_time_);
  integral_ += current_value_ * (now - last_time_);
  last_time_ = now;
  current_value_ = value;
}

void TimeWeightedAccumulator::Merge(const TimeWeightedAccumulator& other,
                                    double other_now) {
  double elapsed = other.elapsed(other_now) + other.extra_elapsed_;
  if (elapsed <= 0.0) return;
  double integral = other.integral_ +
                    other.current_value_ * (other_now - other.last_time_) +
                    other.extra_integral_;
  extra_integral_ += integral;
  extra_elapsed_ += elapsed;
}

double TimeWeightedAccumulator::Average(double now) const {
  double elapsed = (now - start_time_) + extra_elapsed_;
  if (elapsed <= 0.0) return current_value_;
  double integral = integral_ + current_value_ * (now - last_time_) +
                    extra_integral_;
  return integral / elapsed;
}

Histogram::Histogram(double limit, size_t buckets)
    : limit_(limit), bucket_width_(limit / static_cast<double>(buckets)),
      counts_(buckets + 1, 0) {
  CBTREE_CHECK_GT(limit, 0.0);
  CBTREE_CHECK_GT(buckets, 0u);
}

Histogram Histogram::LogScale(double min, double limit, double growth) {
  CBTREE_CHECK_GT(min, 0.0);
  CBTREE_CHECK_GT(limit, min);
  CBTREE_CHECK_GT(growth, 1.0);
  Histogram hist;
  hist.limit_ = limit;
  hist.min_ = min;
  hist.growth_ = growth;
  const size_t log_buckets = static_cast<size_t>(
      std::ceil(std::log(limit / min) / std::log(growth)));
  hist.counts_.assign(log_buckets + 2, 0);  // + [0, min) + overflow
  return hist;
}

size_t Histogram::BucketOf(double value) const {
  if (value >= limit_) return counts_.size() - 1;
  if (growth_ == 0.0) return static_cast<size_t>(value / bucket_width_);
  if (value < min_) return 0;
  const size_t bucket =
      1 + static_cast<size_t>(std::log(value / min_) / std::log(growth_));
  return std::min(bucket, counts_.size() - 2);
}

double Histogram::LowerEdge(size_t bucket) const {
  if (growth_ == 0.0) return static_cast<double>(bucket) * bucket_width_;
  if (bucket == 0) return 0.0;
  return min_ * std::pow(growth_, static_cast<double>(bucket - 1));
}

void Histogram::Add(double value) {
  CBTREE_CHECK(!counts_.empty()) << "Add on an unconfigured Histogram";
  CBTREE_CHECK_GE(value, 0.0);
  ++counts_[BucketOf(value)];
  ++count_;
  max_seen_ = std::max(max_seen_, value);
}

void Histogram::Merge(const Histogram& other) {
  if (other.counts_.empty()) return;
  if (counts_.empty()) {
    *this = other;
    return;
  }
  CBTREE_CHECK_EQ(counts_.size(), other.counts_.size())
      << "merging histograms with different bucket counts";
  CBTREE_CHECK_EQ(limit_, other.limit_)
      << "merging histograms with different limits";
  CBTREE_CHECK(growth_ == other.growth_ && min_ == other.min_)
      << "merging histograms with different bucket scales";
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  max_seen_ = std::max(max_seen_, other.max_seen_);
}

double Histogram::Quantile(double q) const {
  CBTREE_CHECK_GE(q, 0.0);
  CBTREE_CHECK_LE(q, 1.0);
  if (count_ == 0) return 0.0;  // empty (or unconfigured): defined as 0
  double target = q * static_cast<double>(count_);
  double cum = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      double frac = counts_[i] ? (target - cum) / counts_[i] : 0.0;
      if (i == counts_.size() - 1) {
        // Overflow bucket: interpolate over [limit, max seen], the only
        // range the samples can occupy.
        double hi = std::max(max_seen_, limit_);
        return limit_ + frac * (hi - limit_);
      }
      if (growth_ == 0.0) {
        return (static_cast<double>(i) + frac) * bucket_width_;
      }
      if (i == 0) return frac * min_;
      return LowerEdge(i) * std::pow(growth_, frac);
    }
    cum = next;
  }
  return std::max(max_seen_, limit_);
}

std::string Histogram::ToAscii(size_t width) const {
  size_t peak = 0;
  for (size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    size_t bar = peak ? counts_[i] * width / peak : 0;
    if (i + 1 == counts_.size()) {
      out << ">= " << limit_;
    } else {
      out << "[" << LowerEdge(i) << ", " << LowerEdge(i + 1) << ")";
    }
    out << "  " << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return out.str();
}

}  // namespace cbtree
