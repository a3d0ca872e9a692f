#include "util/random.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "util/stats.hpp"

namespace idp::util {
namespace {

// std::mt19937_64 is the oracle: Mt19937_64 must reproduce its sequence
// draw for draw, however its lazy first generation is entered and left.

constexpr std::uint64_t kStride = 0x9e3779b97f4a7c15ULL;

/// Seeds at the edges of the domain plus the engine's per-run derivation
/// (seed + run_id * stride, wrapping).
std::vector<std::uint64_t> oracle_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, ~std::uint64_t{0}, 42};
  for (const std::uint64_t run_id : {1ULL, 7ULL, 1ULL << 42, ~0ULL}) {
    seeds.push_back(1234 + run_id * kStride);
  }
  return seeds;
}

/// Draw `n` outputs from both engines and require them equal.
void expect_same_draws(Mt19937_64& lazy, std::mt19937_64& oracle, int n,
                       std::uint64_t seed, int from) {
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(lazy(), oracle()) << "seed " << seed << ", draw " << from + i;
  }
}

TEST(Mt19937_64, MatchesStdAcrossGenerations) {
  static_assert(Mt19937_64::min() == std::mt19937_64::min());
  static_assert(Mt19937_64::max() == std::mt19937_64::max());
  for (const std::uint64_t seed : oracle_seeds()) {
    Mt19937_64 lazy(seed);
    std::mt19937_64 oracle(seed);
    expect_same_draws(lazy, oracle, 4 * 312 + 17, seed, 0);
  }
}

TEST(Mt19937_64, StoppingAtGenerationEdgesThenContinuingMatchesStd) {
  // Every stop point the lazy prefix can be at: none, the first word, the
  // last word still seeding ahead (155), the first reading a twisted word
  // (156), the generation's last word and the first bulk twist.
  for (const int stop : {0, 1, 2, 3, 155, 156, 157, 255, 256, 311, 312, 313}) {
    for (const std::uint64_t seed : oracle_seeds()) {
      Mt19937_64 lazy(seed);
      std::mt19937_64 oracle(seed);
      expect_same_draws(lazy, oracle, stop, seed, 0);
      // A copy taken here continues exactly like the original.
      Mt19937_64 copy = lazy;
      std::mt19937_64 oracle_copy = oracle;
      expect_same_draws(lazy, oracle, 3 * 312, seed, stop);
      expect_same_draws(copy, oracle_copy, 3 * 312, seed, stop);
    }
  }
}

TEST(Mt19937_64, ReseedMidStreamMatchesStd) {
  for (const int stop : {0, 1, 155, 156, 157, 311, 312, 313, 700}) {
    Mt19937_64 lazy(5);
    std::mt19937_64 oracle(5);
    expect_same_draws(lazy, oracle, stop, 5, 0);
    for (const std::uint64_t seed : oracle_seeds()) {
      lazy.seed(seed);
      oracle.seed(seed);
      expect_same_draws(lazy, oracle, 2 * 312 + 3, seed, 0);
    }
  }
}

TEST(Mt19937_64, DrivesStandardDistributionsLikeStd) {
  for (const std::uint64_t seed : oracle_seeds()) {
    Mt19937_64 lazy(seed);
    std::mt19937_64 oracle(seed);
    std::normal_distribution<double> n_lazy, n_oracle;
    std::uniform_real_distribution<double> u_lazy, u_oracle;
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(n_lazy(lazy)),
                std::bit_cast<std::uint64_t>(n_oracle(oracle)));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(u_lazy(lazy)),
                std::bit_cast<std::uint64_t>(u_oracle(oracle)));
    }
  }
}

/// util::Rng's streams written out against std::mt19937_64: the reference
/// for gaussian / uniform / index and reseed.
struct OracleRng {
  explicit OracleRng(std::uint64_t seed) : engine(seed) {}
  std::mt19937_64 engine;
  std::normal_distribution<double> normal{0.0, 1.0};
  std::uniform_real_distribution<double> uniform{0.0, 1.0};
};

TEST(Rng, StreamsMatchStdOracle) {
  for (const std::uint64_t seed : oracle_seeds()) {
    Rng rng(seed);
    OracleRng ref(seed);
    for (int i = 0; i < 2000; ++i) {
      double got = 0.0;
      double want = 0.0;
      switch (i % 5) {
        case 0:
          got = rng.gaussian();
          want = ref.normal(ref.engine);
          break;
        case 1:
          got = rng.gaussian(2.5);
          want = 2.5 * ref.normal(ref.engine);
          break;
        case 2:
          got = rng.uniform(-1.0, 3.0);
          want = -1.0 + 4.0 * ref.uniform(ref.engine);
          break;
        case 3:
          got = static_cast<double>(rng.index(97));
          want = static_cast<double>(ref.engine() % 97);
          break;
        default:
          if (i == 1004) {  // reseed mid-stream, mid-generation
            rng.reseed(seed ^ 0xabcdef);
            ref.engine.seed(seed ^ 0xabcdef);
            ref.normal.reset();
            ref.uniform.reset();
          }
          got = rng.gaussian();
          want = ref.normal(ref.engine);
          break;
      }
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "seed " << seed << ", call " << i;
    }
    // A copy (engine and the normal distribution's cached deviate)
    // continues exactly like the original.
    Rng copy = rng;
    for (int i = 0; i < 700; ++i) {
      const double want = ref.normal(ref.engine);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.gaussian()),
                std::bit_cast<std::uint64_t>(want));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(copy.gaussian()),
                std::bit_cast<std::uint64_t>(want));
    }
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.gaussian(), b.gaussian());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.gaussian() != b.gaussian()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, GaussianMomentsAreStandard) {
  Rng rng(123);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.gaussian());
  EXPECT_NEAR(mean(xs), 0.0, 0.03);
  EXPECT_NEAR(stddev(xs), 1.0, 0.03);
}

TEST(Rng, ScaledGaussianHasRequestedSigma) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.gaussian(3.0));
  EXPECT_NEAR(stddev(xs), 3.0, 0.1);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, ReseedReproduces) {
  Rng rng(77);
  const double first = rng.gaussian();
  rng.gaussian();
  rng.reseed(77);
  EXPECT_DOUBLE_EQ(rng.gaussian(), first);
}

TEST(PinkNoise, RmsApproximatesSigma) {
  PinkNoise pink(2.0, 42);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(pink.sample());
  EXPECT_NEAR(rms(xs), 2.0, 0.8);  // 1/f processes converge slowly
}

TEST(PinkNoise, DeterministicForSameSeed) {
  PinkNoise a(1.0, 3), b(1.0, 3);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a.sample(), b.sample());
}

TEST(PinkNoise, SpectrumFallsWithFrequency) {
  // Compare variance of coarse-grained (low-frequency) vs first-difference
  // (high-frequency) content: for pink noise the low band must dominate a
  // white sequence's ratio.
  PinkNoise pink(1.0, 99);
  const int n = 1 << 14;
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) xs.push_back(pink.sample());

  // Block means over 64 samples capture f < fs/64 energy.
  std::vector<double> blocks;
  for (int i = 0; i + 64 <= n; i += 64) {
    double s = 0.0;
    for (int k = 0; k < 64; ++k) s += xs[i + k];
    blocks.push_back(s / 64.0);
  }
  // First differences capture the top octave.
  std::vector<double> diffs;
  for (int i = 1; i < n; ++i) diffs.push_back(xs[i] - xs[i - 1]);

  const double low = variance(blocks);
  const double high = variance(diffs) / 2.0;  // diff doubles white variance
  EXPECT_GT(low / high, 0.2);  // white noise would give ~1/64

  Rng rng(1234);
  std::vector<double> white;
  for (int i = 0; i < n; ++i) white.push_back(rng.gaussian());
  std::vector<double> wblocks;
  for (int i = 0; i + 64 <= n; i += 64) {
    double s = 0.0;
    for (int k = 0; k < 64; ++k) s += white[i + k];
    wblocks.push_back(s / 64.0);
  }
  std::vector<double> wdiffs;
  for (int i = 1; i < n; ++i) wdiffs.push_back(white[i] - white[i - 1]);
  const double wratio = variance(wblocks) / (variance(wdiffs) / 2.0);
  EXPECT_GT(low / high, 5.0 * wratio);
}

TEST(DriftProcess, StationaryStdApproachesSigma) {
  DriftProcess drift(4.0, 10.0, 21);
  // Burn in past several time constants, then sample.
  for (int i = 0; i < 2000; ++i) drift.step(0.1);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(drift.step(0.1));
  EXPECT_NEAR(stddev(xs), 4.0, 0.8);
}

TEST(DriftProcess, CorrelatedOverTau) {
  DriftProcess drift(1.0, 100.0, 8);
  for (int i = 0; i < 1000; ++i) drift.step(1.0);
  const double a = drift.value();
  drift.step(1.0);  // dt << tau: little movement expected
  EXPECT_NEAR(drift.value(), a, 0.5);
}

TEST(DriftProcess, ResetZeroes) {
  DriftProcess drift(1.0, 1.0, 4);
  drift.step(5.0);
  drift.reset();
  EXPECT_DOUBLE_EQ(drift.value(), 0.0);
}

}  // namespace
}  // namespace idp::util
