/// \file random.cpp
/// Deterministic noise-source implementations: white, pink (Voss-McCartney
/// style) and Ornstein-Uhlenbeck drift processes with explicit seeds.

#include "util/random.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace idp::util {

namespace {

/// One twist of MT19937-64: the new word from the old word `lo`'s upper
/// 33 bits, word `hi`'s lower 31 bits and the word kM ahead, `far`.
std::uint64_t twist(std::uint64_t lo, std::uint64_t hi, std::uint64_t far) {
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  const std::uint64_t y = (lo & kUpper) | (hi & ~kUpper);
  return far ^ (y >> 1) ^ ((y & 1) != 0 ? 0xb5026f5aa96619e9ULL : 0);
}

}  // namespace

void Mt19937_64::advance() {
  if (pos_ == kN) {
    // A later generation, in libstdc++'s order: words below kN - kM read
    // old words ahead, the rest read the words already twisted.
    for (std::uint32_t k = 0; k < kN - kM; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
    }
    for (std::uint32_t k = kN - kM; k < kN - 1; ++k) {
      x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
    }
    x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
    pos_ = 0;
    ready_ = kN;
    return;
  }
  // The first generation: twist words [begin, end), doubling the twisted
  // prefix per call so a long stream makes ~10 calls here, not 312. Word
  // k < kN - kM reads old words k, k + 1 and k + kM, so seed up to
  // end - 1 + kM first; the later words read words already twisted.
  const std::uint32_t begin = ready_;
  const std::uint32_t end = std::min(kN, std::max(begin + 1, 2 * begin));
  std::uint32_t s = seeded_;
  std::uint64_t prev = x_[s - 1];
  for (; s < std::min(kN, end + kM); ++s) {
    prev = 6364136223846793005ULL * (prev ^ (prev >> 62)) + s;
    x_[s] = prev;
  }
  seeded_ = s;
  for (std::uint32_t k = begin; k < std::min(end, kN - kM); ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
  }
  for (std::uint32_t k = std::max(begin, kN - kM); k < std::min(end, kN - 1);
       ++k) {
    x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
  }
  if (end == kN) x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
  ready_ = end;
}

PinkNoise::PinkNoise(double sigma, std::uint64_t seed) : rng_(seed) {
  // The sum of kRows independent unit-variance rows has variance kRows;
  // normalise so the output RMS is ~sigma.
  scale_ = sigma / std::sqrt(static_cast<double>(kRows));
  for (auto& r : rows_) {
    r = rng_.gaussian();
    running_sum_ += r;
  }
}

double PinkNoise::sample() {
  // Voss-McCartney: on sample k, update row ctz(k) (the number of trailing
  // zeros selects geometrically less frequently updated rows).
  ++counter_;
  const int row = std::countr_zero(counter_) % kRows;
  running_sum_ -= rows_[static_cast<std::size_t>(row)];
  rows_[static_cast<std::size_t>(row)] = rng_.gaussian();
  running_sum_ += rows_[static_cast<std::size_t>(row)];
  return scale_ * running_sum_;
}

DriftProcess::DriftProcess(double sigma, double tau_s, std::uint64_t seed)
    : rng_(seed), sigma_(sigma), tau_(tau_s) {}

double DriftProcess::step(double dt) {
  // Exact discretisation of the OU process.
  const double a = std::exp(-dt / tau_);
  const double q = sigma_ * std::sqrt(1.0 - a * a);
  state_ = a * state_ + rng_.gaussian(q);
  return state_;
}

}  // namespace idp::util
