#pragma once

#include <cassert>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace hetpipe::sim {

// Streaming scalar accumulator (Welford's online algorithm for variance).
class Accumulator {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  // Sample variance / standard deviation; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  size_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Tracks how long a simulated resource (a GPU, a link) was busy, so that
// utilization = busy / elapsed can be reported, as in Fig. 3 of the paper.
//
// Precondition: intervals arrive in time order and never overlap (a GPU
// executes one task at a time, and the simulator's clock only moves
// forward): each interval starts at or after the previous one's end.
// AddBusy asserts it. The utilization scans rely on it to stop early.
class BusyTracker {
 public:
  // Records a busy interval [start, end); empty or reversed intervals are
  // ignored. Inline: a virtual worker calls it once per simulated task.
  void AddBusy(SimTime start, SimTime end) {
    if (end <= start) {
      return;
    }
    assert((intervals_.empty() || intervals_.back().end <= start) &&
           "busy intervals must be added in time order without overlap");
    busy_ += end - start;
    intervals_.push_back({start, end});
  }
  // Reserves room for `n` intervals.
  void Reserve(size_t n) { intervals_.reserve(n); }

  SimTime busy_time() const { return busy_; }
  // Utilization in [0, 1] over the window [window_start, window_end); only
  // busy time that falls inside the window counts. O(intervals up to window_end).
  double Utilization(SimTime window_start, SimTime window_end) const;
  // The same, bit for bit, for windows visited in nondecreasing start order:
  // `*cursor` (0 before the first window) only moves forward, so sweeping n
  // windows costs O(n + intervals).
  double SweepUtilization(size_t* cursor, SimTime window_start, SimTime window_end) const;

 private:
  struct Interval {
    SimTime start;
    SimTime end;
  };
  SimTime busy_ = 0.0;
  std::vector<Interval> intervals_;
};

// Append-only (time, value) series, e.g. accuracy-vs-time curves.
class TimeSeries {
 public:
  void Add(double t, double v) { points_.emplace_back(t, v); }
  const std::vector<std::pair<double, double>>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }

  // Linear interpolation; clamps outside the recorded range.
  double ValueAt(double t) const;
  // First time the series reaches `v` (series assumed nondecreasing);
  // returns +inf if never reached.
  double FirstTimeAtLeast(double v) const;

 private:
  std::vector<std::pair<double, double>> points_;
};

}  // namespace hetpipe::sim
