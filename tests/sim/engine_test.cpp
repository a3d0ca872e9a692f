#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "bio/library.hpp"
#include "dsp/peaks.hpp"
#include "quant/calibration_store.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace idp::sim {
namespace {

using namespace idp::util::literals;

afe::AnalogFrontEnd lab_frontend(std::uint64_t seed = 7) {
  afe::AfeConfig c;
  c.tia = afe::lab_grade_tia();
  c.adc = afe::AdcSpec{.bits = 16, .v_low = -10.0, .v_high = 10.0,
                       .sample_rate = 10.0};
  c.seed = seed;
  return afe::AnalogFrontEnd(c);
}

EngineConfig quiet_config() {
  EngineConfig c;
  c.sensor_noise = false;
  return c;
}

TEST(Engine, ChronoamperometryProducesSampledTrace) {
  MeasurementEngine engine(quiet_config());
  auto probe = bio::make_probe(bio::TargetId::kGlucose);
  probe->set_bulk_concentration("glucose", 2.0);
  afe::AnalogFrontEnd fe = lab_frontend();
  ChronoamperometryProtocol p;
  p.potential = 550_mV;
  p.duration = 20.0;
  p.sample_rate = 10.0;
  const Trace t =
      engine.run_chronoamperometry(Channel{probe.get(), nullptr}, p, fe);
  EXPECT_NEAR(static_cast<double>(t.size()), 200.0, 3.0);
  EXPECT_GT(t.time().front(), 0.0);
  EXPECT_LE(t.time().back(), 20.0 + 0.2);
}

TEST(Engine, SamplingInstantsAreExactGridMultiples) {
  // The sampling clock derives instants from an integer counter, so the
  // k-th sample sits at exactly (k+1)*period even over long runs (a naive
  // `next += period` accumulator drifts by an ulp per sample).
  MeasurementEngine engine(quiet_config());
  auto probe = bio::make_probe(bio::TargetId::kGlucose);
  probe->set_bulk_concentration("glucose", 1.0);
  afe::AnalogFrontEnd fe = lab_frontend();
  ChronoamperometryProtocol p;
  p.potential = 550_mV;
  p.duration = 120.0;
  p.sample_rate = 10.0;
  const Trace t =
      engine.run_chronoamperometry(Channel{probe.get(), nullptr}, p, fe);
  ASSERT_GE(t.size(), 1000u);
  const double period = 1.0 / p.sample_rate;
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ(t.time_at(i), static_cast<double>(i + 1) * period);
  }
}

TEST(Engine, CurrentRisesAfterInjection) {
  MeasurementEngine engine(quiet_config());
  auto probe = bio::make_probe(bio::TargetId::kGlucose);
  afe::AnalogFrontEnd fe = lab_frontend();
  ChronoamperometryProtocol p;
  p.potential = 550_mV;
  p.duration = 90.0;
  const InjectionEvent inj{10.0, "glucose", 2.0};
  const Trace t = engine.run_chronoamperometry(Channel{probe.get(), nullptr},
                                               p, fe, {&inj, 1});
  const double before = t.mean_in_window(5.0, 9.5);
  const double after = t.mean_in_window(80.0, 90.0);
  EXPECT_GT(after, before + 50e-9);  // ~2 mM glucose ~= 127 nA
}

TEST(Engine, DeterministicWithSameSeeds) {
  EngineConfig cfg;
  cfg.seed = 42;
  MeasurementEngine e1(cfg), e2(cfg);
  auto p1 = bio::make_probe(bio::TargetId::kGlucose);
  auto p2 = bio::make_probe(bio::TargetId::kGlucose);
  p1->set_bulk_concentration("glucose", 1.0);
  p2->set_bulk_concentration("glucose", 1.0);
  afe::AnalogFrontEnd f1 = lab_frontend(3), f2 = lab_frontend(3);
  ChronoamperometryProtocol p;
  p.potential = 550_mV;
  p.duration = 10.0;
  const Trace t1 = e1.run_chronoamperometry(Channel{p1.get(), nullptr}, p, f1);
  const Trace t2 = e2.run_chronoamperometry(Channel{p2.get(), nullptr}, p, f2);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_DOUBLE_EQ(t1.value_at(i), t2.value_at(i));
  }
}

TEST(Engine, RepeatedRunsDiffer) {
  // Each run consumes fresh noise (needed for honest Eq. 5 blanks).
  MeasurementEngine engine{EngineConfig{}};
  auto probe = bio::make_probe(bio::TargetId::kGlucose);
  afe::AnalogFrontEnd fe = lab_frontend();
  ChronoamperometryProtocol p;
  p.potential = 550_mV;
  p.duration = 10.0;
  const Trace t1 =
      engine.run_chronoamperometry(Channel{probe.get(), nullptr}, p, fe);
  const Trace t2 =
      engine.run_chronoamperometry(Channel{probe.get(), nullptr}, p, fe);
  EXPECT_NE(t1.value_at(5), t2.value_at(5));
}

TEST(Engine, CvSweepsTheProgrammedWindow) {
  MeasurementEngine engine(quiet_config());
  auto probe = bio::make_probe(bio::TargetId::kCholesterol);
  afe::AnalogFrontEnd fe = lab_frontend();
  CyclicVoltammetryProtocol p;
  p.e_start = 0.1;
  p.e_vertex = -0.65;
  p.scan_rate = 20_mV_per_s;
  const CvCurve c =
      engine.run_cyclic_voltammetry(Channel{probe.get(), nullptr}, p, fe);
  EXPECT_NEAR(idp::util::max_value(c.potential()), 0.1, 0.02);
  EXPECT_NEAR(idp::util::min_value(c.potential()), -0.65, 0.02);
  EXPECT_GE(c.segments().size(), 2u);
}

TEST(Engine, CvShowsCholesterolReductionWave) {
  MeasurementEngine engine(quiet_config());
  auto probe = bio::make_probe(bio::TargetId::kCholesterol);
  probe->set_bulk_concentration("cholesterol", 0.045);
  afe::AnalogFrontEnd fe = lab_frontend();
  CyclicVoltammetryProtocol p;
  p.e_start = 0.1;
  p.e_vertex = -0.65;
  p.scan_rate = 20_mV_per_s;
  const CvCurve c =
      engine.run_cyclic_voltammetry(Channel{probe.get(), nullptr}, p, fe);
  const double r = dsp::reduction_response_at(c, -0.400, 0.05);
  EXPECT_GT(r, 5e-9);  // ~11 nA at 45 uM by Table III sensitivity
}

TEST(Engine, ChargingCurrentAddsHysteresis) {
  EngineConfig cfg = quiet_config();
  MeasurementEngine engine(cfg);
  auto probe = bio::make_probe(bio::TargetId::kCholesterol);
  const chem::Electrode we(chem::ElectrodeRole::kWorking,
                           chem::ElectrodeMaterial::kGold,
                           chem::ElectrodeGeometry{0.23e-6},
                           chem::Nanostructure::kCarbonNanotube);
  afe::AnalogFrontEnd fe = lab_frontend();
  CyclicVoltammetryProtocol p;
  p.e_start = 0.1;
  p.e_vertex = -0.3;
  p.scan_rate = 20_mV_per_s;
  const CvCurve with_dl =
      engine.run_cyclic_voltammetry(Channel{probe.get(), &we}, p, fe);
  // At a potential where no faradaic wave exists, forward and reverse
  // currents differ by ~2 * Cdl * v.
  double i_fwd = 0.0, i_rev = 0.0;
  const auto segs = with_dl.segments();
  ASSERT_GE(segs.size(), 2u);
  for (std::size_t i = segs[0].first; i < segs[0].last; ++i) {
    if (std::fabs(with_dl.potential()[i] - (-0.05)) < 0.01) {
      i_fwd = with_dl.current()[i];
    }
  }
  for (std::size_t i = segs[1].first; i < segs[1].last; ++i) {
    if (std::fabs(with_dl.potential()[i] - (-0.05)) < 0.01) {
      i_rev = with_dl.current()[i];
    }
  }
  const double expected_gap = 2.0 * we.charging_current(20_mV_per_s);
  EXPECT_NEAR(i_rev - i_fwd, expected_gap, 0.5 * expected_gap);
}

TEST(Engine, PanelScanSequencesChannels) {
  MeasurementEngine engine(quiet_config());
  auto glucose = bio::make_probe(bio::TargetId::kGlucose);
  auto chol = bio::make_probe(bio::TargetId::kCholesterol);
  glucose->set_bulk_concentration("glucose", 2.0);
  chol->set_bulk_concentration("cholesterol", 0.045);

  afe::AnalogFrontEnd fe1 = lab_frontend(1), fe2 = lab_frontend(2);
  std::vector<Channel> channels{Channel{glucose.get(), nullptr},
                                Channel{chol.get(), nullptr}};
  ChronoamperometryProtocol ca;
  ca.potential = 550_mV;
  ca.duration = 10.0;
  CyclicVoltammetryProtocol cv;
  cv.e_start = 0.1;
  cv.e_vertex = -0.65;
  cv.scan_rate = 20_mV_per_s;
  std::vector<ChannelProtocol> protocols{ca, cv};
  std::vector<afe::AnalogFrontEnd*> fes{&fe1, &fe2};
  afe::AnalogMux mux(afe::MuxSpec{});

  const PanelScanResult result =
      engine.run_panel(channels, protocols, fes, mux);
  ASSERT_EQ(result.entries.size(), 2u);
  EXPECT_EQ(result.entries[0].technique, bio::Technique::kChronoamperometry);
  EXPECT_EQ(result.entries[1].technique, bio::Technique::kCyclicVoltammetry);
  // Sequential: entry 1 starts after entry 0 stops.
  EXPECT_GE(result.entries[1].start_time, result.entries[0].stop_time);
  // Total time ~ 10 s CA + 75 s CV + settling.
  EXPECT_NEAR(result.total_time, 85.0, 2.0);
}

TEST(Engine, PanelRequiresMatchingSpans) {
  MeasurementEngine engine(quiet_config());
  auto probe = bio::make_probe(bio::TargetId::kGlucose);
  afe::AnalogFrontEnd fe = lab_frontend();
  std::vector<Channel> channels{Channel{probe.get(), nullptr}};
  std::vector<ChannelProtocol> protocols;  // wrong size
  std::vector<afe::AnalogFrontEnd*> fes{&fe};
  afe::AnalogMux mux(afe::MuxSpec{});
  EXPECT_THROW(engine.run_panel(channels, protocols, fes, mux),
               std::invalid_argument);
}

TEST(Engine, LaneRuleKeepsEveryWorkerBusy) {
  using Sizes = std::vector<std::size_t>;
  // One worker: the widest jobs.
  EXPECT_EQ(lane_jobs_per_group(Sizes{8}, 0, 1, 8), Sizes{1});
  EXPECT_EQ(lane_jobs_per_group(Sizes{100}, 0, 4, 8), Sizes{13});
  // Too few jobs for the workers: split, but never below 4 lanes a job.
  EXPECT_EQ(lane_jobs_per_group(Sizes{8}, 0, 2, 8), Sizes{2});
  EXPECT_EQ(lane_jobs_per_group(Sizes{8}, 0, 4, 8), Sizes{2});
  EXPECT_EQ(lane_jobs_per_group(Sizes{16}, 0, 3, 8), Sizes{3});
  EXPECT_EQ(lane_jobs_per_group(Sizes{8, 8}, 0, 4, 8), (Sizes{2, 2}));
  // Enough jobs already (lane groups or scalar measurements): stay wide.
  EXPECT_EQ(lane_jobs_per_group(Sizes{8, 8, 8, 8}, 0, 4, 8),
            (Sizes{1, 1, 1, 1}));
  EXPECT_EQ(lane_jobs_per_group(Sizes{8}, 3, 4, 8), Sizes{1});
  // The group with the widest jobs splits first.
  EXPECT_EQ(lane_jobs_per_group(Sizes{6, 16}, 0, 4, 8), (Sizes{1, 3}));
  // With several workers a group that cannot fill 4 lanes runs scalar;
  // one worker serialises every read anyway, so there 2 lanes make a job.
  EXPECT_EQ(lane_jobs_per_group(Sizes{3, 1}, 0, 1, 8), (Sizes{1, 0}));
  EXPECT_EQ(lane_jobs_per_group(Sizes{2}, 0, 1, 8), Sizes{1});
  EXPECT_EQ(lane_jobs_per_group(Sizes{2}, 0, 4, 8), Sizes{0});
  EXPECT_EQ(lane_jobs_per_group(Sizes{3, 2}, 0, 2, 8), (Sizes{0, 0}));
  // Explicit widths cap the job and lower the fill floor with it; width 1
  // disables lanes.
  EXPECT_EQ(lane_jobs_per_group(Sizes{5}, 0, 1, 2), Sizes{3});
  EXPECT_EQ(lane_jobs_per_group(Sizes{8}, 0, 4, 3), Sizes{3});
  EXPECT_EQ(lane_jobs_per_group(Sizes{8}, 0, 1, 1), Sizes{0});
}

TEST(Engine, LaneBatchedMeasurementsMatchScalarAtEveryWidth) {
  // A mixed list: two CA lane classes (different durations; the short one
  // mixes two potentials in one lane group), CYP sweeps of two protocols
  // (one with a working electrode, so its lane adds charging current), a
  // stressed sensor state (reference shift, interference storm, AFE gain
  // and offset) on every third measurement, a direct-probe CA pair
  // (DirectLaneBatch lanes at widths 2 and 3) and measurements no kernel
  // batches (a direct probe and an oxidase under CV). Every width and
  // parallelism must give the scalar results bit for bit, in index order.
  const bio::TargetId ca_targets[] = {
      bio::TargetId::kGlucose, bio::TargetId::kLactate,
      bio::TargetId::kGlutamate, bio::TargetId::kGlucose,
      bio::TargetId::kLactate, bio::TargetId::kGlucose};
  const bio::TargetId cv_targets[] = {
      bio::TargetId::kBenzphetamine, bio::TargetId::kClozapine,
      bio::TargetId::kCholesterol, bio::TargetId::kBenzphetamine,
      bio::TargetId::kErythromycin, bio::TargetId::kClozapine};
  ChronoamperometryProtocol ca_short, ca_short_high, ca_long;
  ca_short.potential = 550_mV;
  ca_short.duration = 2.0;
  ca_short_high = ca_short;
  ca_short_high.potential = 650_mV;
  ca_long.potential = 600_mV;
  ca_long.duration = 3.0;
  CyclicVoltammetryProtocol cv_a, cv_b;
  cv_a.e_start = 0.1;
  cv_a.e_vertex = -0.5;
  cv_a.scan_rate = 0.1;
  cv_b = cv_a;
  cv_b.e_vertex = -0.45;
  const chem::Electrode we(chem::ElectrodeRole::kWorking,
                           chem::ElectrodeMaterial::kGold,
                           chem::ElectrodeGeometry{0.23e-6},
                           chem::Nanostructure::kCarbonNanotube);
  fault::SensorState aged;
  aged.enzyme_activity = 0.9;
  aged.membrane_transmission = 0.8;
  // -80 mV pulls an oxidase off its current plateau, so a lane that
  // dropped the shift would differ after the ADC.
  fault::SensorState stressed = aged;
  stressed.reference_shift_V = -0.08;
  stressed.storm_current_A = 3e-9;
  stressed.storm_noise_mult = 2.5;
  stressed.afe_gain = 1.04;
  stressed.afe_offset_A = -2e-10;

  auto run = [&](std::size_t lanes, std::size_t parallelism) {
    EngineConfig config;
    config.batch_lanes = lanes;
    const MeasurementEngine engine(config);
    std::vector<bio::ProbePtr> probes;
    std::vector<std::unique_ptr<afe::AnalogFrontEnd>> fes;
    std::vector<Measurement> measurements;
    auto add = [&](bio::TargetId id, const ChannelProtocol& protocol,
                   const chem::Electrode* electrode = nullptr) {
      probes.push_back(bio::make_probe(id));
      probes.back()->set_bulk_concentration(bio::to_string(id), 0.01);
      fes.push_back(std::make_unique<afe::AnalogFrontEnd>(
          lab_frontend(measurements.size()).config()));
      measurements.push_back(Measurement{
          40 + measurements.size(),
          Channel{probes.back().get(), electrode,
                  measurements.size() % 3 == 2 ? stressed : aged},
          protocol, fes.back().get()});
    };
    for (std::size_t i = 0; i < 6; ++i) {
      add(ca_targets[i], i % 2 == 0 ? (i == 2 ? ca_short_high : ca_short)
                                    : ca_long);
      add(cv_targets[i], i < 4 ? cv_a : cv_b, i == 1 ? &we : nullptr);
    }
    add(bio::TargetId::kDopamine, cv_a);
    add(bio::TargetId::kGlucose, cv_a);
    add(bio::TargetId::kDopamine, ca_short);
    add(bio::TargetId::kEtoposide, ca_short);
    add(bio::TargetId::kGlucose, ca_short_high);
    add(bio::TargetId::kLactate, ca_short_high);
    std::vector<MeasurementResult> results(measurements.size());
    engine.run_measurements(measurements, parallelism,
                            [&](std::size_t i, MeasurementResult&& r) {
                              results[i] = std::move(r);
                            });
    std::vector<double> flat;
    for (const MeasurementResult& r : results) {
      flat.insert(flat.end(), r.amperogram.value().begin(),
                  r.amperogram.value().end());
      flat.insert(flat.end(), r.voltammogram.current().begin(),
                  r.voltammogram.current().end());
      flat.push_back(static_cast<double>(r.amperogram.size()));
      flat.push_back(static_cast<double>(r.voltammogram.size()));
    }
    return flat;
  };

  const std::vector<double> scalar = run(1, 1);
  for (const std::size_t lanes : {2u, 3u, 4u, 0u}) {
    for (const std::size_t parallelism : {1u, 3u}) {
      const std::vector<double> batched = run(lanes, parallelism);
      ASSERT_EQ(batched.size(), scalar.size());
      for (std::size_t i = 0; i < scalar.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(batched[i]),
                  std::bit_cast<std::uint64_t>(scalar[i]))
            << "lanes " << lanes << ", parallelism " << parallelism
            << ", value " << i;
      }
    }
  }
}

TEST(Engine, TwoReadRequestsMatchSeededRunsAtParallelismOne) {
  // At parallelism 1 two compatible reads -- one two-read request -- step
  // as one 2-lane job: a dopamine + etoposide panel scan (DirectLaneBatch),
  // an oxidase QC blank + standard (OxidaseLaneBatch) and a CYP CV pair
  // (CypLaneBatch), each through the serve layer's short campaign protocol
  // on an aged sensor. Every read must equal its own seeded run bit for
  // bit.
  quant::CampaignConfig campaign;
  campaign.ca_duration_s = 1.0;
  fault::SensorState aged;
  aged.enzyme_activity = 0.9;
  aged.reference_shift_V = -0.02;
  aged.storm_current_A = 1e-9;
  aged.afe_gain = 1.02;
  aged.afe_offset_A = 1e-10;
  struct Read {
    bio::TargetId target;
    double concentration_mM;
  };
  const Read requests[][2] = {
      {{bio::TargetId::kDopamine, 0.02}, {bio::TargetId::kEtoposide, 0.05}},
      {{bio::TargetId::kGlucose, 0.0}, {bio::TargetId::kGlucose, 5.0}},
      {{bio::TargetId::kBenzphetamine, 0.0},
       {bio::TargetId::kBenzphetamine, 1.0}}};
  ASSERT_EQ(lane_jobs_per_group(std::vector<std::size_t>{2}, 0, 1, 8),
            std::vector<std::size_t>{1});

  const MeasurementEngine engine;
  for (const auto& request : requests) {
    std::vector<bio::ProbePtr> probes;
    std::vector<std::unique_ptr<afe::AnalogFrontEnd>> fes;
    std::vector<Measurement> measurements;
    for (std::size_t r = 0; r < 2; ++r) {
      probes.push_back(quant::make_campaign_probe(campaign, request[r].target));
      probes.back()->set_bulk_concentration(
          bio::to_string(request[r].target), request[r].concentration_mM);
      fes.push_back(std::make_unique<afe::AnalogFrontEnd>(
          quant::campaign_frontend_config(campaign, 900 + r)));
      measurements.push_back(Measurement{
          7000 + r, Channel{probes.back().get(), nullptr, aged},
          quant::default_protocol_for(campaign, request[r].target),
          fes.back().get()});
    }
    std::vector<MeasurementResult> batched(2);
    engine.run_measurements(measurements, 1,
                            [&](std::size_t i, MeasurementResult&& r) {
                              batched[i] = std::move(r);
                            });

    for (std::size_t r = 0; r < 2; ++r) {
      const Measurement& m = measurements[r];
      afe::AnalogFrontEnd fe(
          quant::campaign_frontend_config(campaign, 900 + r));
      std::vector<double> expected, got;
      if (const auto* ca =
              std::get_if<ChronoamperometryProtocol>(&m.protocol)) {
        const Trace scalar =
            engine.run_chronoamperometry_seeded(m.run_id, m.channel, *ca, fe);
        expected.assign(scalar.value().begin(), scalar.value().end());
        got.assign(batched[r].amperogram.value().begin(),
                   batched[r].amperogram.value().end());
      } else {
        const CvCurve scalar = engine.run_cyclic_voltammetry_seeded(
            m.run_id, m.channel,
            std::get<CyclicVoltammetryProtocol>(m.protocol), fe);
        expected.assign(scalar.current().begin(), scalar.current().end());
        got.assign(batched[r].voltammogram.current().begin(),
                   batched[r].voltammogram.current().end());
      }
      ASSERT_FALSE(expected.empty());
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(expected[i]))
            << bio::to_string(request[r].target) << " read " << r
            << ", sample " << i;
      }
    }
  }
}

/// `n` glucose probes at distinct concentrations for the sharing tests.
std::vector<bio::ProbePtr> glucose_probes(std::size_t n) {
  std::vector<bio::ProbePtr> probes;
  for (std::size_t i = 0; i < n; ++i) {
    probes.push_back(bio::make_probe(bio::TargetId::kGlucose));
    probes.back()->set_bulk_concentration("glucose",
                                          0.5 * static_cast<double>(i));
  }
  return probes;
}

ChronoamperometryProtocol short_ca() {
  ChronoamperometryProtocol ca;
  ca.potential = 550_mV;
  ca.duration = 2.0;
  return ca;
}

TEST(Engine, RunMeasurementsRejectsASharedProbe) {
  const MeasurementEngine engine;
  auto probes = glucose_probes(1);
  afe::AnalogFrontEnd fe1 = lab_frontend(1), fe2 = lab_frontend(2);
  const std::vector<Measurement> measurements{
      {1, Channel{probes[0].get(), nullptr}, short_ca(), &fe1},
      {2, Channel{probes[0].get(), nullptr}, short_ca(), &fe2}};
  const auto ignore = [](std::size_t, MeasurementResult&&) {};
  EXPECT_THROW(engine.run_measurements(measurements, 1, ignore), util::Error);
}

TEST(Engine, RunMeasurementsRejectsAFrontEndSharedOffParallelismOne) {
  const MeasurementEngine engine;
  auto probes = glucose_probes(4);
  afe::AnalogFrontEnd fe = lab_frontend();
  std::vector<Measurement> measurements;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    measurements.push_back(
        {i + 1, Channel{probes[i].get(), nullptr}, short_ca(), &fe});
  }
  const auto ignore = [](std::size_t, MeasurementResult&&) {};
  EXPECT_THROW(engine.run_measurements(measurements, 2, ignore), util::Error);
  EXPECT_THROW(engine.run_measurements(measurements, 0, ignore), util::Error);
  EXPECT_NO_THROW(engine.run_measurements(measurements, 1, ignore));
}

TEST(Engine, RunMeasurementsRejectsAFrontEndSharedAcrossLaneGroups) {
  const MeasurementEngine engine;
  auto probes = glucose_probes(2);
  auto dopamine = bio::make_probe(bio::TargetId::kDopamine);
  ChronoamperometryProtocol longer = short_ca();
  longer.duration = 3.0;
  CyclicVoltammetryProtocol cv;
  cv.e_start = 0.1;
  cv.e_vertex = -0.3;
  cv.scan_rate = 0.1;
  const auto ignore = [](std::size_t, MeasurementResult&&) {};
  afe::AnalogFrontEnd fe = lab_frontend();
  // Two kernels (oxidase and direct lanes).
  const std::vector<Measurement> kernels{
      {1, Channel{probes[0].get(), nullptr}, short_ca(), &fe},
      {2, Channel{dopamine.get(), nullptr}, short_ca(), &fe}};
  EXPECT_THROW(engine.run_measurements(kernels, 1, ignore), util::Error);
  // One kernel, two timelines.
  const std::vector<Measurement> timelines{
      {1, Channel{probes[0].get(), nullptr}, short_ca(), &fe},
      {2, Channel{probes[1].get(), nullptr}, longer, &fe}};
  EXPECT_THROW(engine.run_measurements(timelines, 1, ignore), util::Error);
  // A lane group and a measurement no kernel batches (oxidase under CV).
  const std::vector<Measurement> scalar{
      {1, Channel{probes[0].get(), nullptr}, short_ca(), &fe},
      {2, Channel{probes[1].get(), nullptr}, cv, &fe}};
  EXPECT_THROW(engine.run_measurements(scalar, 1, ignore), util::Error);
}

TEST(Engine, SharedFrontEndDigitisesInIndexOrder) {
  // A campaign's shape: one lane group through one front end, each run on
  // its own sensor state (so each lane's front-end drift must be set just
  // before that lane is digitised). At every lane width the results equal
  // one run() after another through one front end, bit for bit.
  std::vector<fault::SensorState> sensors(6);
  for (std::size_t i = 0; i < sensors.size(); ++i) {
    sensors[i].afe_gain = 1.0 + 0.01 * static_cast<double>(i);
    sensors[i].afe_offset_A = -1.0e-10 * static_cast<double>(i);
  }
  auto probes = glucose_probes(sensors.size());
  auto measurements_through = [&](afe::AnalogFrontEnd& fe) {
    std::vector<Measurement> measurements;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      measurements.push_back({11 + i,
                              Channel{probes[i].get(), nullptr, sensors[i]},
                              short_ca(), &fe});
    }
    return measurements;
  };

  const MeasurementEngine scalar_engine;
  afe::AnalogFrontEnd reference_fe = lab_frontend();
  std::vector<std::vector<double>> reference;
  for (const Measurement& m : measurements_through(reference_fe)) {
    reference.push_back(scalar_engine.run(m).amperogram.value());
  }

  for (const std::size_t lanes : {1u, 4u, 0u}) {
    EngineConfig config;
    config.batch_lanes = lanes;
    const MeasurementEngine engine(config);
    afe::AnalogFrontEnd fe = lab_frontend();
    std::vector<std::vector<double>> results(probes.size());
    std::vector<std::size_t> order;
    engine.run_measurements(measurements_through(fe), 1,
                            [&](std::size_t i, MeasurementResult&& r) {
                              order.push_back(i);
                              results[i] = r.amperogram.value();
                            });
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(results[i].size(), reference[i].size());
      for (std::size_t s = 0; s < reference[i].size(); ++s) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(results[i][s]),
                  std::bit_cast<std::uint64_t>(reference[i][s]))
            << "lanes " << lanes << ", run " << i << ", sample " << s;
      }
    }
  }
}

TEST(Engine, ProtocolDurationHelper) {
  ChronoamperometryProtocol ca;
  ca.duration = 42.0;
  EXPECT_DOUBLE_EQ(protocol_duration(ca), 42.0);
  CyclicVoltammetryProtocol cv;
  cv.e_start = 0.1;
  cv.e_vertex = -0.9;
  cv.scan_rate = 0.02;
  cv.cycles = 2;
  EXPECT_NEAR(protocol_duration(cv), 200.0, 1e-9);
}

}  // namespace
}  // namespace idp::sim
