#include "sim/rng.h"

#include <cmath>

namespace hetpipe::sim {
namespace {

constexpr double kPi = 3.14159265358979323846;

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : state_) {
    s = sm.Next();
  }
}

uint64_t Rng::NextU64() {
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

double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  // The span in uint64_t: hi - lo overflows int64_t for ranges wider than
  // INT64_MAX. It wraps to 0 only for the full range, where every draw is
  // an answer.
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  const uint64_t draw = NextU64();
  if (span == 0) {
    return static_cast<int64_t>(draw);
  }
  return static_cast<int64_t>(static_cast<uint64_t>(lo) + draw % span);
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = NextDouble();
  const double u2 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * kPi * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

NormalStream::NormalStream(uint64_t seed) : table_(TableFor(seed)) {}

std::shared_ptr<NormalStream::Table> NormalStream::TableFor(uint64_t seed) {
  // A ring of the thread's tables: the next insert overwrites the oldest.
  struct Memo {
    std::array<std::shared_ptr<Table>, kMaxSeedsPerThread> tables;
    size_t next = 0;
  };
  thread_local Memo memo;
  for (const std::shared_ptr<Table>& table : memo.tables) {
    if (table != nullptr && table->seed == seed) {
      return table;
    }
  }
  std::shared_ptr<Table>& slot = memo.tables[memo.next];
  memo.next = (memo.next + 1) % kMaxSeedsPerThread;
  slot = std::make_shared<Table>(seed);
  return slot;
}

double NormalStream::Extend() {
  if (pos_ < kMaxValuesPerSeed) {
    // pos_ == values.size(): this stream is the first to read this far.
    const double value = table_->rng.Normal();
    table_->values.push_back(value);
    ++pos_;
    return value;
  }
  if (!past_cap_) {
    past_cap_.emplace(table_->rng);
  }
  return past_cap_->Normal();
}

}  // namespace hetpipe::sim
