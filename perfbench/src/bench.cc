#include "bench.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(why);
  }
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return 0;
}

int CoreCount() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t rank = static_cast<size_t>(
      std::clamp(std::ceil(p * static_cast<double>(values.size())), 1.0,
                 static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

LoopTimer::LoopTimer(int64_t slice_ops)
    : slice_ops_(slice_ops),
      start_cal_ns_(CalibrationNs()),
      start_ns_(NowNs()),
      start_cpu_(ProcessCpuSeconds()),
      slice_start_ns_(start_ns_),
      slice_start_cpu_(start_cpu_) {}

void LoopTimer::Op(int64_t latency_ns) {
  stats_.latency_ns.push_back(static_cast<float>(latency_ns));
  ++stats_.ops;
  if (stats_.ops % slice_ops_ == 0) CloseSlice();
}

void LoopTimer::CloseSlice() {
  LoopStats::Slice slice;
  slice.first_op = slice_first_op_;
  slice.ops = static_cast<int64_t>(stats_.latency_ns.size() - slice_first_op_);
  slice.wall_s = static_cast<double>(NowNs() - slice_start_ns_) * 1e-9;
  slice.cpu_s = ProcessCpuSeconds() - slice_start_cpu_;
  slice.cal_ns = CalibrationNs();
  stats_.slices.push_back(slice);
  slice_first_op_ = stats_.latency_ns.size();
  slice_start_ns_ = NowNs();
  slice_start_cpu_ = ProcessCpuSeconds();
}

LoopStats LoopTimer::Finish() {
  if (stats_.slices.empty() && stats_.ops > 0) CloseSlice();
  stats_.start_cal_ns = start_cal_ns_;
  const int64_t now = NowNs();
  const double cpu = ProcessCpuSeconds();
  stats_.wall_s = static_cast<double>(now - start_ns_) * 1e-9;
  stats_.cpu_s = cpu - start_cpu_;
  stats_.threads = ThreadCount();
  return stats_;
}

namespace {

// Fixed integer, branch, table and heap work, about 2 ms on the VM the
// benchmark was built on; the program never runs it, so no change to the
// program moves its time.
uint64_t CalibrationKernel() {
  static std::vector<uint32_t> table(1 << 15);
  uint64_t x = 88172645463325252ULL;
  uint64_t acc = 0;
  std::vector<double> heap;
  for (int i = 0; i < 70000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint32_t& slot = table[x & (table.size() - 1)];
    if ((x >> 40) & 1) {
      slot += static_cast<uint32_t>(x);
    } else {
      acc += slot;
    }
    heap.push_back(static_cast<double>(x & 0xffff));
    std::push_heap(heap.begin(), heap.end());
    if (heap.size() > 64) {
      std::pop_heap(heap.begin(), heap.end());
      acc += static_cast<uint64_t>(heap.back());
      heap.pop_back();
    }
  }
  return acc;
}

}  // namespace

double CalibrationNs() {
  double best = 0.0;
  for (int i = 0; i < 3; ++i) {
    const int64_t t0 = NowNs();
    volatile uint64_t keep = CalibrationKernel();
    (void)keep;
    const double ns = static_cast<double>(NowNs() - t0);
    best = i == 0 ? ns : std::min(best, ns);
  }
  return best;
}

double Calibrated(double seconds, double cal_before_ns) {
  return seconds * kCalibrationNominalNs / (0.5 * (cal_before_ns + CalibrationNs()));
}

void AddEndToEndMetrics(const LoopStats& loop, double setup_s, RunResult* result) {
  // Host speed during each slice: from the mean of the calibrations just
  // before and just after it.
  const std::vector<LoopStats::Slice>& slices = loop.slices;
  std::vector<double> speed(slices.size());
  for (size_t i = 0; i < slices.size(); ++i) {
    const double before = i == 0 ? loop.start_cal_ns : slices[i - 1].cal_ns;
    speed[i] = kCalibrationNominalNs / (0.5 * (before + slices[i].cal_ns));
  }
  const auto rate = [&](size_t i) {
    return static_cast<double>(slices[i].ops) / (slices[i].wall_s * speed[i]);
  };
  std::vector<size_t> quick(slices.size());
  std::iota(quick.begin(), quick.end(), 0);
  std::sort(quick.begin(), quick.end(), [&](size_t a, size_t b) { return rate(a) > rate(b); });
  quick.resize(static_cast<size_t>(std::ceil(kQuickShare * static_cast<double>(quick.size()))));
  // Latency percentiles are taken within each slice and the median over the
  // quick slices is reported, so a burst of host interrupts in one slice
  // does not set the p99.
  int64_t ops = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> p50_ns;
  std::vector<double> p99_ns;
  for (size_t i : quick) {
    const LoopStats::Slice& s = slices[i];
    ops += s.ops;
    wall_s += s.wall_s * speed[i];
    cpu_s += s.cpu_s * speed[i];
    const auto first = loop.latency_ns.begin() + static_cast<std::ptrdiff_t>(s.first_op);
    const std::vector<double> latency_ns(first, first + s.ops);
    p50_ns.push_back(Percentile(latency_ns, 0.50) * speed[i]);
    p99_ns.push_back(Percentile(latency_ns, 0.99) * speed[i]);
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "slices %zu timed_ops %lld host_speed_q10/q50/q90 %.3f %.3f %.3f", slices.size(),
                static_cast<long long>(ops), Percentile(speed, 0.1), Percentile(speed, 0.5),
                Percentile(speed, 0.9));
  result->info.push_back(line);
  result->Add("setup_s", setup_s, "s");
  result->Add("throughput_ops_s", wall_s > 0.0 ? static_cast<double>(ops) / wall_s : 0.0, "1/s");
  result->Add("latency_ms_p50", Median(p50_ns) * 1e-6, "ms");
  result->Add("latency_ms_p99", Median(p99_ns) * 1e-6, "ms");
  result->Add("cpu_ms_per_op", ops > 0 ? cpu_s * 1e3 / static_cast<double>(ops) : 0.0, "ms");
  result->Add("peak_rss_mb", PeakRssMb(), "MiB");
  const double attempted = static_cast<double>(std::max<int64_t>(result->attempted, 1));
  result->Add("ok_ratio", (attempted - static_cast<double>(result->failed)) / attempted, "ratio");
}

namespace {

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> tids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') tids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
    closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

void SetAffinity(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(tid, sizeof(set), &set);  // best effort: a thread may have exited
}

}  // namespace

CpuRotation::CpuRotation(int64_t slice_ns) : slice_ns_(slice_ns), next_ns_(NowNs()) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
    }
  }
  Rotate();
}

CpuRotation::~CpuRotation() {
  for (pid_t tid : ThreadIds()) SetAffinity(tid, cpus_);
}

// Every thread goes to CPU step mod n.
void CpuRotation::Rotate() {
  next_ns_ = NowNs() + slice_ns_;
  if (cpus_.size() < 2) return;
  const int cpu = cpus_[step_ % cpus_.size()];
  for (pid_t tid : ThreadIds()) SetAffinity(tid, {cpu});
  ++step_;
}

namespace {

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& word : state_) {
    word = SplitMix(&seed);
  }
}

uint64_t Rng::Next() {  // xoshiro256**
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

}  // namespace perfbench
