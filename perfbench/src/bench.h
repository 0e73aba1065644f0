#pragma once

// Shared plumbing of the perfbench binary: options, the result record that
// becomes the final JSON line, timed-loop accounting and small statistics.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Working directory for store files and Chrome traces (inside the checkout).
  std::string work_dir = ".bench_build/perfbench/work";
  // Checked-in golden rows the repro workload compares against.
  std::string golden_dir = "tests/golden";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one run reports. `failed` counts ops that errored or returned a
// wrong answer; any failure (or a failed check outside the timed loop) makes
// the run incorrect.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> info;  // "key value" lines printed before the result
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  // Records a failed check; only the first few messages are kept.
  void Fail(const std::string& why);
};

// Host speed. On a shared VM every vCPU runs up to 50% slower for tens of
// seconds at a time while other tenants are busy: on the 4-vCPU VM this
// benchmark was built on, one repro_cold run had every pass 50% slower than
// the next run's, and a fixed kernel timed between the passes was 46%
// slower too. So the benchmark times a fixed calibration kernel of its own
// (CalibrationNs) next to what it measures, and reports every time scaled
// to a host on which that kernel takes kCalibrationNominalNs: a time t
// measured beside a calibration c is reported as t * kCalibrationNominalNs / c.
// A change to the program moves t and not c.
constexpr double kCalibrationNominalNs = 2.0e6;

// Runs the calibration kernel three times and returns the quickest, in ns.
double CalibrationNs();

// Scales `seconds`, measured just after a calibration of `cal_before_ns`, to
// the nominal host, by the mean of that calibration and one run now.
double Calibrated(double seconds, double cal_before_ns);

// One timed loop, cut into slices of a fixed number of ops chosen so that
// every slice holds the same mix of work. Each slice is followed by a
// calibration, which falls outside every op and every slice. The end-to-end
// metrics are taken over the quicker kQuickShare of the slices, by
// calibrated ops per second, so a stall the calibration missed does not
// move them.
constexpr double kQuickShare = 0.5;

struct LoopStats {
  struct Slice {
    int64_t ops = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double cal_ns = 0.0;  // the calibration run right after the slice
    size_t first_op = 0;  // index of the slice's first op in latency_ns
  };
  std::vector<Slice> slices;
  double start_cal_ns = 0.0;  // the calibration run just before the loop
  std::vector<float> latency_ns;  // every op of the loop, in order
  int64_t ops = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int threads = 0;  // process threads observed at the end of the loop
};

// Builds LoopStats from the ops of a loop, which starts at construction.
class LoopTimer {
 public:
  explicit LoopTimer(int64_t slice_ops);
  void Op(int64_t latency_ns);
  // Ends the loop. A trailing partial slice is left out of the slices (its
  // ops still count in the totals) unless it is the only one.
  LoopStats Finish();

 private:
  void CloseSlice();
  int64_t slice_ops_;
  double start_cal_ns_;  // taken before the loop starts
  LoopStats stats_;
  int64_t start_ns_;
  double start_cpu_;
  int64_t slice_start_ns_;
  double slice_start_cpu_;
  size_t slice_first_op_ = 0;
};

// Process user+system CPU seconds (every thread of the process).
double ProcessCpuSeconds();
// Peak resident set size of the process, in MiB.
double PeakRssMb();
// Threads of this process right now (from /proc/self/status).
int ThreadCount();
int CoreCount();

// Nearest-rank percentile, p in [0, 1]. Empty input gives 0.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

uint64_t Fnv1a(const std::string& bytes, uint64_t hash = 1469598103934665603ULL);
std::string Hex(uint64_t value);

// Appends the end-to-end metrics every workload reports.
void AddEndToEndMetrics(const LoopStats& loop, double setup_s, RunResult* result);

// Keeps every thread of the process on one CPU and moves them together to
// the next CPU each `slice_ns`, so a timed loop samples every CPU it may run
// on for equal time. On a shared VM the vCPUs run at different, slowly
// drifting speeds (up to 40% apart); a thread that stays where the scheduler
// first put it makes a whole run fast or slow by luck. One CPU for all
// threads suits the closed loops here, which run one thread at a time: a
// request's hand-offs between client and server threads are then local
// context switches, whereas waking a thread on another vCPU costs what the
// host's load dictates (plan_warm ran at about 24k requests/s with its
// threads on separate CPUs and 32k on one, and its run-to-run spread over
// five seeds fell from 13% to 10%). Restores the original affinity on
// destruction.
class CpuRotation {
 public:
  explicit CpuRotation(int64_t slice_ns = 100'000'000);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  // Cheap unless a slice has ended; call between ops.
  void Tick() {
    if (NowNs() >= next_ns_) Rotate();
  }

 private:
  void Rotate();
  std::vector<int> cpus_;
  int64_t slice_ns_;
  int64_t next_ns_;
  size_t step_ = 0;
};

// Set-up phases last about 0.1 s each, so they rotate faster to touch every
// CPU; one rotation spans all repeats of a run's set-up.
constexpr int64_t kSetupSliceNs = 20'000'000;

// Deterministic 64-bit generator helpers (std::mt19937_64 is specified by the
// standard; the distributions are not, so the benchmark draws through these).
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  // Uniform in [0, n).
  uint64_t Below(uint64_t n);
  // Uniform in [0, 1).
  double Unit();
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(Below(i));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

 private:
  uint64_t state_[4];
};

}  // namespace perfbench
