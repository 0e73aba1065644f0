#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace hetpipe::sim {

// SplitMix64: used to seed Xoshiro and as a cheap standalone generator.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next();

 private:
  uint64_t state_;
};

// xoshiro256**, a fast high-quality PRNG. All stochastic components of the
// repo (synthetic datasets, jittered task times, dataset shuffles) draw from
// this so experiments are reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t NextU64();
  // Uniform in [0, 1).
  double NextDouble();
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);
  // Standard normal via Box-Muller.
  double Normal();
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  // Fisher-Yates shuffle of indices [0, n).
  template <typename T>
  void Shuffle(T* data, size_t n) {
    for (size_t i = n; i > 1; --i) {
      const size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(data[i - 1], data[j]);
    }
  }

 private:
  std::array<uint64_t, 4> state_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

// The standard normals Rng(seed).Normal() returns, in the same order and
// with the same bits, read from a per-thread memo so that runs repeating a
// seed pay for Box-Muller once. Each thread keeps, per seed, the Rng and
// every value it has drawn so far; a stream reads that table and extends it
// by calling the same Rng::Normal() when it reads past the end, so every
// value is one Rng::Normal() result by construction. Streams of one seed on
// one thread share a table at their own positions.
//
// Bounded: a thread memoises at most kMaxSeedsPerThread seeds (the oldest
// evicted first) and kMaxValuesPerSeed values per seed. A stream past the
// value cap continues on a private copy of its table's Rng, which has then
// drawn exactly kMaxValuesPerSeed values; an evicted table lives on while a
// stream holds it. A stream must be read on the thread that made it.
class NormalStream {
 public:
  static constexpr size_t kMaxSeedsPerThread = 16;
  static constexpr size_t kMaxValuesPerSeed = size_t{1} << 15;

  explicit NormalStream(uint64_t seed);

  double Next() {
    const std::vector<double>& values = table_->values;
    return pos_ < values.size() ? values[pos_++] : Extend();
  }

 private:
  struct Table {
    explicit Table(uint64_t s) : seed(s), rng(s) {}
    uint64_t seed;
    Rng rng;                     // has drawn values.size() normals
    std::vector<double> values;  // at most kMaxValuesPerSeed
  };

  static std::shared_ptr<Table> TableFor(uint64_t seed);
  double Extend();

  std::shared_ptr<Table> table_;
  size_t pos_ = 0;
  std::optional<Rng> past_cap_;
};

}  // namespace hetpipe::sim
