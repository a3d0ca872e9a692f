/// \file random.hpp
/// Deterministic random sources for noise modelling.
///
/// Every stochastic component of the platform takes an explicit seed so that
/// simulations, tests and benches are bit-reproducible run to run. The
/// engine is Mt19937_64, which returns std::mt19937_64's exact sequence but
/// seeds and twists its first generation only as far as the draws reach:
/// a short read draws 10-30 numbers per stream, where the standard engine
/// pays for 312 seeded and 312 twisted state words up front.
#pragma once

#include <array>
#include <cstdint>
#include <random>

namespace idp::util {

/// The 64-bit Mersenne Twister, output-for-output equal to std::mt19937_64
/// for every seed, with a lazy first generation.
///
/// Seeding stores the seed word alone. The first generation is twisted on
/// demand: a draw past the twisted prefix doubles it (words 0, 1, 2-3,
/// 4-7, ...), seeding first only the words those twists read (twisting
/// word k < 156 reads seeded words k, k+1 and k+156). A read of 20 draws
/// thus seeds 188 words and twists 32, not 312 and 312. Later generations
/// twist all 312 words at once, as libstdc++ does, so a long stream pays
/// the same single branch per draw. Doubling rather than one word per draw
/// keeps a long stream's first generation at ~10 out-of-line calls.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type value) { seed(value); }

  void seed(result_type value) {
    x_[0] = value;
    seeded_ = 1;
    ready_ = 0;
    pos_ = 0;
  }

  result_type operator()() {
    if (pos_ == ready_) [[unlikely]] advance();
    return temper(x_[pos_++]);
  }

 private:
  static constexpr std::uint32_t kN = 312;  ///< state words
  static constexpr std::uint32_t kM = 156;  ///< twist offset

  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Make output pos_ ready: extend the first generation's twisted
  /// prefix, or twist the whole next generation.
  void advance();

  std::array<result_type, kN> x_{};
  std::uint32_t pos_ = 0;     ///< next output word
  std::uint32_t ready_ = 0;   ///< words [0, ready_) hold twisted outputs
  std::uint32_t seeded_ = 0;  ///< first generation: words [0, seeded_) seeded
};

/// Thin deterministic wrapper around Mt19937_64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Standard-normal deviate.
  double gaussian() { return normal_(engine_); }

  /// Normal deviate with the given standard deviation.
  double gaussian(double sigma) { return sigma * normal_(engine_); }

  /// Uniform deviate in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform_(engine_);
  }

  /// Uniform integer in [0, n).
  std::uint64_t index(std::uint64_t n) { return engine_() % n; }

  /// Re-seed (resets the distribution caches too).
  void reseed(std::uint64_t seed) {
    engine_.seed(seed);
    normal_.reset();
    uniform_.reset();
  }

 private:
  Mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

/// Pink (1/f) noise generator, Voss-McCartney algorithm with 16 octave rows.
///
/// Produces samples whose power spectral density falls off as ~1/f over
/// roughly 16 octaves below half the sampling rate. Used to model flicker
/// noise of the analog front-end and slow electrode drift. Output is scaled
/// so that the long-run standard deviation is approximately `sigma`.
class PinkNoise {
 public:
  /// \param sigma   target RMS amplitude of the generated sequence
  /// \param seed    RNG seed (deterministic)
  PinkNoise(double sigma, std::uint64_t seed);

  /// Next pink-noise sample.
  double sample();

 private:
  static constexpr int kRows = 16;
  Rng rng_;
  std::array<double, kRows> rows_{};
  double running_sum_ = 0.0;
  std::uint32_t counter_ = 0;
  double scale_ = 1.0;
};

/// First-order Gauss-Markov (Ornstein-Uhlenbeck) drift process.
///
/// Models slow baseline wander of an electrochemical cell: correlated over
/// `tau` seconds with stationary standard deviation `sigma`.
class DriftProcess {
 public:
  DriftProcess(double sigma, double tau_s, std::uint64_t seed);

  /// Advance by dt seconds and return the new drift value.
  double step(double dt);

  /// Current value without advancing.
  double value() const { return state_; }

  void reset() { state_ = 0.0; }

 private:
  Rng rng_;
  double sigma_;
  double tau_;
  double state_ = 0.0;
};

}  // namespace idp::util
