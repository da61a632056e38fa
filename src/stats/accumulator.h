// Statistics accumulators used by the simulator and the benches.

#ifndef CBTREE_STATS_ACCUMULATOR_H_
#define CBTREE_STATS_ACCUMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cbtree {

/// Streaming mean/variance/min/max via Welford's algorithm.
class Accumulator {
 public:
  void Add(double value);
  void Merge(const Accumulator& other);

  size_t count() const { return count_; }
  double mean() const;
  /// Unbiased sample variance (0 for fewer than 2 samples).
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(count_); }
  /// Half-width of the ~95% normal confidence interval for the mean.
  double ci95_halfwidth() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Time-weighted average of a piecewise-constant signal, e.g. the number of
/// writers present in a lock queue. Integrates value(t) dt between updates.
class TimeWeightedAccumulator {
 public:
  explicit TimeWeightedAccumulator(double start_time = 0.0)
      : start_time_(start_time), last_time_(start_time) {}

  /// Records that the signal changed to `value` at time `now`; the previous
  /// value is credited for [last_time, now).
  void Update(double now, double value);

  /// Folds another accumulator's closed window [its start, other_now] into
  /// this one as extra observation time: Average then weights each window
  /// by its elapsed time (the pooled time average). The windows may come
  /// from unrelated clocks (e.g. different simulator seeds).
  void Merge(const TimeWeightedAccumulator& other, double other_now);

  /// Closes the current interval at `now` and returns the time average
  /// (including any merged windows).
  double Average(double now) const;
  double elapsed(double now) const { return now - start_time_; }

 private:
  double start_time_;
  double last_time_;
  double current_value_ = 0.0;
  double integral_ = 0.0;
  // Closed windows folded in by Merge.
  double extra_integral_ = 0.0;
  double extra_elapsed_ = 0.0;
};

/// Fixed-bucket histogram over [0, limit) with an overflow bucket; used for
/// response-time distributions.
class Histogram {
 public:
  /// Unconfigured: Merge adopts the first non-empty operand's shape; Add
  /// aborts until then.
  Histogram() = default;
  /// `buckets` equal-width buckets over [0, limit) plus an overflow bucket.
  Histogram(double limit, size_t buckets);
  /// Log-scale buckets over [min, limit), each `growth` times as wide as
  /// the one below it (1.02: every bucket spans 2% of its lower edge, so a
  /// quantile is exact to 2% at any magnitude), plus [0, min) and an
  /// overflow bucket.
  static Histogram LogScale(double min, double limit, double growth);

  void Add(double value);
  /// Adds another histogram's counts. The shapes (limit, bucket count) must
  /// match unless one side is unconfigured/empty.
  void Merge(const Histogram& other);
  size_t count() const { return count_; }
  /// Approximate quantile by interpolation within the bucket (linear, or
  /// geometric for log-scale buckets). An empty histogram reports 0;
  /// quantiles landing in the overflow bucket interpolate over [limit, max
  /// seen value].
  double Quantile(double q) const;
  std::string ToAscii(size_t width = 50) const;
  const std::vector<size_t>& buckets() const { return counts_; }

 private:
  size_t BucketOf(double value) const;
  double LowerEdge(size_t bucket) const;

  double limit_ = 0.0;
  double bucket_width_ = 0.0;
  double min_ = 0.0;     ///< log scale: upper edge of bucket 0
  double growth_ = 0.0;  ///< log scale: bucket width ratio; 0 = linear
  std::vector<size_t> counts_;  // last bucket = overflow
  size_t count_ = 0;
  double max_seen_ = 0.0;
};

}  // namespace cbtree

#endif  // CBTREE_STATS_ACCUMULATOR_H_
