#include "sim/stats.h"

#include <algorithm>
#include <cmath>

namespace hetpipe::sim {

void Accumulator::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double BusyTracker::Utilization(SimTime window_start, SimTime window_end) const {
  size_t cursor = 0;
  return SweepUtilization(&cursor, window_start, window_end);
}

double BusyTracker::SweepUtilization(size_t* cursor, SimTime window_start,
                                     SimTime window_end) const {
  const SimTime window = window_end - window_start;
  if (window <= 0.0) {
    return 0.0;
  }
  // Sorted, disjoint intervals have sorted ends: start at the first interval
  // ending after the window opens, stop at the first starting at or after it
  // closes. Every interval skipped either way overlaps the window by nothing,
  // so the sum adds the same terms in the same order as a full scan.
  size_t i = *cursor;
  while (i < intervals_.size() && intervals_[i].end <= window_start) {
    ++i;
  }
  *cursor = i;
  SimTime busy_in_window = 0.0;
  for (; i < intervals_.size() && intervals_[i].start < window_end; ++i) {
    const SimTime s = std::max(intervals_[i].start, window_start);
    const SimTime e = std::min(intervals_[i].end, window_end);
    if (e > s) {
      busy_in_window += e - s;
    }
  }
  return std::min(1.0, busy_in_window / window);
}

double TimeSeries::ValueAt(double t) const {
  if (points_.empty()) {
    return 0.0;
  }
  if (t <= points_.front().first) {
    return points_.front().second;
  }
  if (t >= points_.back().first) {
    return points_.back().second;
  }
  // Binary search for the segment containing t.
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), t,
      [](const std::pair<double, double>& p, double x) { return p.first < x; });
  const auto [t1, v1] = *it;
  const auto [t0, v0] = *(it - 1);
  if (t1 == t0) {
    return v1;
  }
  const double alpha = (t - t0) / (t1 - t0);
  return v0 + alpha * (v1 - v0);
}

double TimeSeries::FirstTimeAtLeast(double v) const {
  for (size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].second >= v) {
      if (i == 0) {
        return points_[0].first;
      }
      // Interpolate the crossing inside the previous segment.
      const auto [t0, v0] = points_[i - 1];
      const auto [t1, v1] = points_[i];
      if (v1 == v0) {
        return t1;
      }
      const double alpha = (v - v0) / (v1 - v0);
      return t0 + alpha * (t1 - t0);
    }
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace hetpipe::sim
