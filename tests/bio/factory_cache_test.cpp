/// Memoised probe factories: every make_probe / make_cyp_probe call returns
/// a clone of a calibrated per-design prototype. These suites pin that a
/// cache hit, a clone and the cold build trace bit for bit alike (so no
/// returned probe shares state with another), that invalid inputs throw on
/// every call (failures are never cached) and that concurrent cold builds
/// of one design agree.
///
/// Each test uses (area, gain) keys no other test in this binary touches,
/// so the first factory call of a key really is the cold build.
#include "bio/library.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <latch>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bio/cyp_probe.hpp"
#include "common/determinism.hpp"
#include "fault/sensor_state.hpp"
#include "sim/engine.hpp"

namespace idp::bio {
namespace {

/// A design: the full factory key. Single-target designs go through
/// make_probe, the dual CYP2B4 film through make_cyp_probe.
struct Design {
  std::vector<TargetId> ids;
  double area;
  double gain;
};

ProbePtr build(const Design& d) {
  return d.ids.size() == 1 ? make_probe(d.ids.front(), d.area, d.gain)
                           : make_cyp_probe(d.ids, d.area, d.gain);
}

/// Digest of one fixed-seed measurement of `probe` at `concentration_mM`
/// on every target: CA for chronoamperometric probes, CV for CYP films.
std::uint64_t trace_digest(Probe& probe, double concentration_mM) {
  for (const std::string& target : probe.targets()) {
    probe.set_bulk_concentration(target, concentration_mM);
  }
  afe::AfeConfig fe_config;
  fe_config.tia = afe::lab_grade_tia();
  fe_config.adc = afe::AdcSpec{
      .bits = 16, .v_low = -10.0, .v_high = 10.0, .sample_rate = 10.0};
  fe_config.seed = 11;
  afe::AnalogFrontEnd fe(fe_config);
  const sim::MeasurementEngine engine;
  const sim::Channel channel{&probe, nullptr, fault::SensorState{}};
  test::BitDigest digest;
  if (probe.technique() == Technique::kChronoamperometry) {
    sim::ChronoamperometryProtocol p;
    p.potential = 0.6;  // inside every oxidase and direct plateau
    p.duration = 5.0;
    test::fold(digest, engine.run_chronoamperometry_seeded(3, channel, p, fe));
  } else {
    sim::CyclicVoltammetryProtocol p;
    p.scan_rate = 0.1;  // a short sweep keeps 40+ CYP designs cheap
    test::fold(digest,
               engine.run_cyclic_voltammetry_seeded(3, channel, p, fe));
  }
  return digest.value();
}

std::vector<Design> every_design(std::array<double, 2> areas,
                                 std::array<double, 2> gains) {
  std::vector<Design> designs;
  for (double area : areas) {
    for (double gain : gains) {
      for (const TargetSpec& s : all_targets()) {
        designs.push_back({{s.id}, area, gain});
      }
      designs.push_back(
          {{TargetId::kBenzphetamine, TargetId::kAminopyrine}, area, gain});
    }
  }
  return designs;
}

std::string label(const Design& d) {
  std::string s;
  for (TargetId id : d.ids) s += to_string(id) + " ";
  return s + "area=" + std::to_string(d.area) +
         " gain=" + std::to_string(d.gain);
}

TEST(FactoryCache, HitAndCloneTraceBitIdenticalToColdBuild) {
  fault::SensorState aged;
  aged.age_days = 20.0;
  aged.enzyme_activity = 0.6;
  aged.membrane_transmission = 0.7;
  std::map<std::uint64_t, std::string> designs_by_digest;
  for (const Design& d : every_design({0.31e-6, 0.47e-6}, {1.0, 1.7})) {
    SCOPED_TRACE(label(d));
    ProbePtr cold = build(d);  // first use of this key in the binary
    const ProbePtr cloned = cold->clone();
    const std::uint64_t cold_digest = trace_digest(*cold, 0.4);
    // The key is complete: designs that differ in targets, area or gain
    // measure differently (direct probes ignore the gain by design).
    const bool gain_applies =
        spec(d.ids.front()).family != ProbeFamily::kDirectOxidation;
    if (gain_applies || d.gain == 1.0) {
      const auto [it, fresh] = designs_by_digest.emplace(cold_digest, label(d));
      EXPECT_TRUE(fresh) << "same trace as " << it->second;
    }

    // Keep abusing the first copy: age it, re-concentrate it, step it.
    cold->apply_sensor_state(aged);
    for (const std::string& target : cold->targets()) {
      cold->set_bulk_concentration(target, 3.0);
    }
    for (int k = 0; k < 50; ++k) (void)cold->step(0.3, 0.05);

    const ProbePtr hit = build(d);
    ASSERT_NE(hit.get(), cold.get());
    EXPECT_EQ(trace_digest(*hit, 0.4), cold_digest);
    EXPECT_EQ(trace_digest(*cloned, 0.4), cold_digest);
  }
}

void expect_invalid_calls_throw() {
  const std::array<TargetId, 2> mixed = {TargetId::kBenzphetamine,
                                         TargetId::kClozapine};
  const std::array<TargetId, 1> not_cyp = {TargetId::kGlucose};
  const std::array<TargetId, 1> benz = {TargetId::kBenzphetamine};
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW(make_probe(TargetId::kGlucose, 0.37e-6, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(make_probe(TargetId::kGlucose, 0.37e-6, -1.0),
                 std::invalid_argument);
    EXPECT_THROW(make_probe(TargetId::kBenzphetamine, 0.37e-6, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(make_cyp_probe(benz, 0.37e-6, -2.0), std::invalid_argument);
    EXPECT_THROW(make_cyp_probe(mixed, 0.37e-6, 1.0), std::invalid_argument);
    EXPECT_THROW(make_cyp_probe(not_cyp, 0.37e-6, 1.0),
                 std::invalid_argument);
    EXPECT_THROW(make_probe(TargetId::kGlucose, -0.37e-6, 1.0),
                 std::invalid_argument);
  }
}

TEST(FactoryCache, InvalidInputsThrowOnEveryCallAndAreNeverCached) {
  expect_invalid_calls_throw();
  // Valid builds of keys that overlap the invalid ones: the same target
  // and area, the first half of the mixed film, the non-CYP target.
  const std::array<TargetId, 1> benz = {TargetId::kBenzphetamine};
  ASSERT_NE(make_probe(TargetId::kGlucose, 0.37e-6, 1.0), nullptr);
  ASSERT_NE(make_cyp_probe(benz, 0.37e-6, 1.0), nullptr);
  ASSERT_NE(make_probe(TargetId::kBenzphetamine, 0.37e-6, 1.0), nullptr);
  expect_invalid_calls_throw();
  // The single-target CYP key is shared by both factories.
  const ProbePtr via_cyp = make_cyp_probe(benz, 0.37e-6, 1.0);
  EXPECT_NE(dynamic_cast<const CypProbe*>(via_cyp.get()), nullptr);
}

TEST(FactoryCache, ConcurrentColdBuildsAgreeBitForBit) {
  constexpr std::size_t kThreads = 8;
  const std::array<Design, 2> designs = {
      Design{{TargetId::kGlucose}, 0.53e-6, 1.1},
      Design{{TargetId::kBenzphetamine, TargetId::kAminopyrine}, 0.53e-6,
             1.1}};
  for (const Design& d : designs) {
    SCOPED_TRACE(label(d));
    std::vector<std::uint64_t> cold_digests(kThreads);
    std::vector<std::uint64_t> hit_digests(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();  // all threads race on the cold key
        cold_digests[t] = trace_digest(*build(d), 0.4);
        // Insert a design of this thread's own while the others still
        // insert or look up the shared one, then hit the shared key.
        Design own = d;
        own.area *= 1.0 + 0.01 * static_cast<double>(t + 1);
        (void)build(own);
        hit_digests[t] = trace_digest(*build(d), 0.4);
      });
    }
    for (std::thread& th : threads) th.join();
    const std::uint64_t expected = trace_digest(*build(d), 0.4);
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(cold_digests[t], expected) << "thread " << t;
      EXPECT_EQ(hit_digests[t], expected) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace idp::bio
