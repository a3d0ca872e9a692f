/// \file calibration_store_test.cpp
/// CalibrationStore semantics: campaign shape, caching, deterministic
/// parallel builds, and the end-to-end round trip -- simulate a known
/// concentration through the measurement engine, quantify it via a
/// store-built curve, and recover the truth within the propagated
/// confidence interval across the probe library's linear ranges.

#include "quant/calibration_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace idp::quant {
namespace {

/// Fast campaign for tests: short chronoamperometry windows, few points.
CampaignConfig test_config() {
  CampaignConfig config;
  config.seed = 20260731;
  config.calibration_points = 5;
  config.blank_measurements = 6;
  config.ca_duration_s = 10.0;
  return config;
}

TEST(CalibrationStore, CampaignProducesTheConfiguredCurveShape) {
  CalibrationStore store(test_config());
  const dsp::CalibrationCurve& curve = store.curve(bio::TargetId::kGlucose);
  EXPECT_EQ(curve.blank_count(), 6u);
  EXPECT_EQ(curve.point_count(), 5u);
  // The sweep spans the probe's specified linear range.
  const bio::TargetSpec& spec = bio::spec(bio::TargetId::kGlucose);
  EXPECT_NEAR(curve.concentrations().back(), spec.linear_hi_mM, 1e-9);
  EXPECT_GE(curve.concentrations().front(), spec.linear_lo_mM - 1e-9);
  // And yields an invertible, positive-sensitivity quantifier.
  const Quantifier& q = store.quantifier(bio::TargetId::kGlucose);
  ASSERT_TRUE(q.valid());
  EXPECT_GT(q.slope(), 0.0);
}

TEST(CalibrationStore, CachesPerTargetAndProtocol) {
  CalibrationStore store(test_config());
  const Quantifier& a = store.quantifier(bio::TargetId::kGlucose);
  const Quantifier& b = store.quantifier(bio::TargetId::kGlucose);
  EXPECT_EQ(&a, &b);  // one campaign, stable address
  EXPECT_EQ(store.cached_count(), 1u);

  // A different protocol for the same target is a distinct entry.
  sim::ChronoamperometryProtocol longer;
  longer.potential = std::get<sim::ChronoamperometryProtocol>(
                         default_protocol_for(store.config(),
                                              bio::TargetId::kGlucose))
                         .potential;
  longer.duration = 20.0;
  const Quantifier& c = store.quantifier(bio::TargetId::kGlucose, longer);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(store.cached_count(), 2u);
}

// (Parallel-prepare bitwise invariance is covered by the campaign workload
// of tests/determinism/determinism_sweep_test.cpp.)

TEST(CalibrationStore, PrepareDedupesTargets) {
  CalibrationStore store(test_config());
  const std::vector<bio::TargetId> targets{bio::TargetId::kGlucose,
                                           bio::TargetId::kGlucose,
                                           bio::TargetId::kLactate};
  store.prepare(targets, 2);
  EXPECT_EQ(store.cached_count(), 2u);
}

TEST(CalibrationStore, RejectsDegenerateCampaigns) {
  CampaignConfig config = test_config();
  config.calibration_points = 2;
  EXPECT_THROW(CalibrationStore{config}, std::invalid_argument);
  config = test_config();
  config.blank_measurements = 1;
  EXPECT_THROW(CalibrationStore{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Campaign equivalence: a campaign runs as one lane group, every run a
// probe clone at its concentration, all through one front end digitising in
// run order. It must equal, bit for bit, the plain sequential campaign --
// one probe and one front end, one engine.run per run id -- on a pristine
// and on an aged sensor, for every lane kernel (oxidase CA, CYP CV, direct
// CA).
// ---------------------------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The reference: recalibrate's blanks and sweep, one run after another.
/// Seeding follows recalibrate's contract (engine seed = config.seed, runs
/// block + 1 ..., front-end seed derived from the block).
Calibration sequential_campaign(const CampaignConfig& config,
                                bio::TargetId target,
                                const fault::SensorState& sensor,
                                std::uint64_t block) {
  sim::EngineConfig engine_config;
  engine_config.seed = config.seed;
  const sim::MeasurementEngine engine(engine_config);
  bio::ProbePtr probe = make_campaign_probe(config, target);
  afe::AnalogFrontEnd frontend(campaign_frontend_config(
      config, config.seed + 0x5ca1ab1eULL + block * 0x9e3779b97f4a7c15ULL));
  const sim::ChannelProtocol protocol = default_protocol_for(config, target);
  const std::string name = bio::to_string(target);

  std::uint64_t run_id = block;
  auto run_once = [&] {
    const sim::MeasurementResult r = engine.run(
        {++run_id, sim::Channel{probe.get(), nullptr, sensor}, protocol,
         &frontend});
    return panel_response(target, r.amperogram, r.voltammogram);
  };
  Calibration calibration;
  probe->set_bulk_concentration(name, 0.0);
  for (int b = 0; b < config.blank_measurements; ++b) {
    calibration.curve.add_blank(run_once());
  }
  const bio::TargetSpec& spec = bio::spec(target);
  const double lo = std::max(spec.linear_lo_mM, 1e-6);
  const double hi = spec.linear_hi_mM;
  const int n = config.calibration_points;
  for (int i = 0; i < n; ++i) {
    const double c =
        lo + static_cast<double>(i) / static_cast<double>(n - 1) * (hi - lo);
    probe->set_bulk_concentration(name, c);
    calibration.curve.add_point(c, run_once());
  }
  calibration.quantifier = Quantifier(calibration.curve, config.quantifier);
  return calibration;
}

void expect_bitwise(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i]), bits(b[i])) << what << " " << i;
  }
}

class CampaignEquivalence : public ::testing::TestWithParam<bio::TargetId> {};

TEST_P(CampaignEquivalence, RecalibrateEqualsTheSequentialLoopBitwise) {
  const bio::TargetId target = GetParam();
  const CampaignConfig config = test_config();
  const CalibrationStore store(config);

  fault::SensorState aged;
  aged.age_days = 12.0;
  aged.enzyme_activity = 0.85;
  aged.membrane_transmission = 0.75;  // fouling
  aged.reference_shift_V = -0.012;
  aged.afe_gain = 1.04;
  aged.afe_offset_A = -3.0e-11;
  const fault::SensorState states[] = {fault::SensorState{}, aged};
  std::uint64_t block = 7 * CalibrationStore::kRunsPerCampaignBlock;
  for (const fault::SensorState& sensor : states) {
    SCOPED_TRACE(sensor.is_identity() ? "pristine sensor" : "aged sensor");
    block += CalibrationStore::kRunsPerCampaignBlock;
    const Calibration lanes = store.recalibrate(
        target, default_protocol_for(config, target), sensor, block);
    const Calibration reference =
        sequential_campaign(config, target, sensor, block);

    expect_bitwise(lanes.curve.blanks(), reference.curve.blanks(), "blank");
    expect_bitwise(lanes.curve.concentrations(),
                   reference.curve.concentrations(), "concentration");
    expect_bitwise(lanes.curve.responses(), reference.curve.responses(),
                   "response");
    const Quantifier& q = lanes.quantifier;
    const Quantifier& r = reference.quantifier;
    ASSERT_EQ(q.valid(), r.valid());
    EXPECT_EQ(bits(q.fit().slope), bits(r.fit().slope));
    EXPECT_EQ(bits(q.fit().intercept), bits(r.fit().intercept));
    EXPECT_EQ(bits(q.fit().r_squared), bits(r.fit().r_squared));
    EXPECT_EQ(bits(q.fit().residual_rms), bits(r.fit().residual_rms));
    EXPECT_EQ(bits(q.c_low()), bits(r.c_low()));
    EXPECT_EQ(bits(q.c_high()), bits(r.c_high()));
    EXPECT_EQ(bits(q.blank_mean()), bits(r.blank_mean()));
    EXPECT_EQ(bits(q.lod_signal()), bits(r.lod_signal()));
    EXPECT_EQ(bits(q.response_sigma()), bits(r.response_sigma()));
  }
}

INSTANTIATE_TEST_SUITE_P(LaneKernels, CampaignEquivalence,
                         ::testing::Values(bio::TargetId::kGlucose,
                                           bio::TargetId::kBenzphetamine,
                                           bio::TargetId::kDopamine),
                         [](const auto& param_info) {
                           return bio::to_string(param_info.param);
                         });

// ---------------------------------------------------------------------------
// Round trip: measure a known concentration the same way the campaign
// calibrated, then invert. The estimate must recover the truth within the
// propagated confidence interval -- the acceptance contract of the
// quantification layer, checked across probe families.
// ---------------------------------------------------------------------------

class RoundTrip : public ::testing::TestWithParam<bio::TargetId> {};

TEST_P(RoundTrip, RecoversTruthWithinConfidenceInterval) {
  const bio::TargetId target = GetParam();
  CampaignConfig config = test_config();
  CalibrationStore store(config);
  const Quantifier& quantifier = store.quantifier(target);
  ASSERT_TRUE(quantifier.valid());

  // Fresh measurement setup: same configuration as the campaign but an
  // independent noise realisation (different engine seed + run ids).
  sim::EngineConfig engine_config;
  engine_config.seed = 777;
  const sim::MeasurementEngine engine(engine_config);
  bio::ProbePtr probe = make_campaign_probe(config, target);
  afe::AnalogFrontEnd frontend(campaign_frontend_config(config, 4242));
  const sim::ChannelProtocol protocol = default_protocol_for(config, target);
  const std::string name = bio::to_string(target);

  // Probe several truths across the calibrated window (clear of the edges,
  // where clamping legitimately kicks in).
  const double lo = quantifier.c_low();
  const double hi = quantifier.c_high();
  std::uint64_t run_id = 0;
  for (double f : {0.3, 0.55, 0.8}) {
    const double truth = lo + f * (hi - lo);
    probe->set_bulk_concentration(name, truth);
    double response = 0.0;
    if (std::holds_alternative<sim::ChronoamperometryProtocol>(protocol)) {
      const sim::Trace trace = engine.run_chronoamperometry_seeded(
          ++run_id, sim::Channel{probe.get(), nullptr},
          std::get<sim::ChronoamperometryProtocol>(protocol), frontend);
      response = panel_response(target, trace, sim::CvCurve{});
    } else {
      const sim::CvCurve curve = engine.run_cyclic_voltammetry_seeded(
          ++run_id, sim::Channel{probe.get(), nullptr},
          std::get<sim::CyclicVoltammetryProtocol>(protocol), frontend);
      response = panel_response(target, sim::Trace{}, curve);
    }

    const ConcentrationEstimate est = quantifier.quantify(response);
    // Detectability is only promised above the *measured* LOD. Glutamate's
    // paper LOD (1574 uM) sits inside its own 0.5-2 mM linear range, so a
    // mid-range glutamate sample flagging below-LOD is correct behaviour.
    const double lod_mM = (quantifier.lod_signal() - quantifier.blank_mean()) /
                          std::fabs(quantifier.slope());
    if (truth > 1.5 * lod_mM) {
      EXPECT_FALSE(est.below_lod()) << name << " at " << truth << " mM";
    }
    EXPECT_LE(est.ci_low, truth) << name << " at " << truth << " mM";
    EXPECT_GE(est.ci_high, truth) << name << " at " << truth << " mM";
    // The point estimate itself lands near the truth (10% of the window
    // plus the CI half-width -- generous, but catches gross inversions).
    const double slack =
        0.10 * (hi - lo) + (est.ci_high - est.ci_low) / 2.0;
    EXPECT_NEAR(est.value, truth, slack) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(ProbeLibrary, RoundTrip,
                         ::testing::Values(bio::TargetId::kGlucose,
                                           bio::TargetId::kLactate,
                                           bio::TargetId::kGlutamate,
                                           bio::TargetId::kBenzphetamine),
                         [](const auto& param_info) {
                           return bio::to_string(param_info.param);
                         });

}  // namespace
}  // namespace idp::quant
