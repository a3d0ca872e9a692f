/// \file determinism_sweep_test.cpp
/// The unified bitwise-determinism sweep: one parameterized test drives the
/// eleven parallel workloads -- multiplexed panel scan, design-space
/// explorer, calibration campaigns, the longitudinal cohort (with
/// degradation + adaptive recalibration active), the diagnostics
/// service (a replayed mixed request log with degradation + scheduled
/// recalibration epochs), the 2-shard cluster replay merged across the
/// fault-injecting simulated network, the same replay recovering from
/// loss/crash/partition schedules via retry + failover,
/// the observability surfaces themselves (the canonical trace and
/// the metrics snapshot of a replayed log), the batched-SoA panel
/// scan at lane widths {1, 2, 4, auto}, the live telemetry stream
/// (the encoded frame bytes a complete TelemetryBus subscriber receives
/// during a replay, plus live-aggregator exactness and bus conservation),
/// and a CYP panel replay whose CV reads step in lockstep lanes across
/// requests (checked against sequential execute() as well) -- across 5
/// seeds at parallelism {1, 2, hardware} and asserts digest equality
/// against the sequential run. This replaces the per-subsystem
/// copy-pasted determinism tests; the shared scaffolding lives in
/// tests/common/determinism.hpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/determinism.hpp"
#include "core/explorer.hpp"
#include "netsim/sim_network.hpp"
#include "obs/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "quant/calibration_store.hpp"
#include "scenario/longitudinal.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard_coordinator.hpp"
#include "serve/traffic.hpp"

namespace idp {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 1234, 0xdeadbeef, 2026};
constexpr std::size_t kLevels[] = {1, 2, 0};  // 0 = hardware concurrency

// --- workload drivers -------------------------------------------------------

std::uint64_t panel_digest(std::uint64_t seed, std::size_t parallelism) {
  // Two-channel multiplexed scan: glucose chronoamperometry plus a short
  // cholesterol CYP sweep, the same shape the retired batch_test fixture
  // exercised.
  auto glucose = bio::make_probe(bio::TargetId::kGlucose);
  auto cholesterol = bio::make_probe(bio::TargetId::kCholesterol);
  glucose->set_bulk_concentration("glucose", 2.0);
  cholesterol->set_bulk_concentration("cholesterol", 0.045);

  afe::AfeConfig fe_config;
  fe_config.tia = afe::lab_grade_tia();
  fe_config.adc = afe::AdcSpec{.bits = 16, .v_low = -10.0, .v_high = 10.0,
                               .sample_rate = 10.0};
  fe_config.seed = 11;
  afe::AnalogFrontEnd fe1(fe_config);
  fe_config.seed = 12;
  afe::AnalogFrontEnd fe2(fe_config);

  std::vector<sim::Channel> channels{sim::Channel{glucose.get(), nullptr},
                                     sim::Channel{cholesterol.get(), nullptr}};
  sim::ChronoamperometryProtocol ca;
  ca.potential = 0.55;
  ca.duration = 5.0;
  sim::CyclicVoltammetryProtocol cv;
  cv.e_start = 0.1;
  cv.e_vertex = -0.65;
  cv.scan_rate = 0.02;
  std::vector<sim::ChannelProtocol> protocols{ca, cv};
  std::vector<afe::AnalogFrontEnd*> frontends{&fe1, &fe2};
  afe::AnalogMux mux{afe::MuxSpec{}};

  sim::EngineConfig cfg;
  cfg.seed = seed;
  sim::MeasurementEngine engine(cfg);
  return test::digest_of(
      engine.run_panel(channels, protocols, frontends, mux, parallelism));
}

std::uint64_t simd_digest(std::uint64_t seed, std::size_t parallelism) {
  // The batched-SoA acceptance criterion: one mixed panel -- five oxidase
  // chronoamperometry channels the engine gathers into lockstep lane
  // groups, plus a cholesterol CYP sweep that stays scalar -- scanned at
  // lane widths 1 / 2 / 4 / auto(hw); all four scans must digest
  // bitwise-identically at every seed and parallelism level. Width 1 *is*
  // the scalar path, so this pins the batched kernel to the legacy bit
  // pattern.
  struct Panel {
    std::vector<bio::ProbePtr> probes;
    Panel() {
      const bio::TargetId ids[] = {
          bio::TargetId::kGlucose, bio::TargetId::kLactate,
          bio::TargetId::kGlutamate, bio::TargetId::kGlucose,
          bio::TargetId::kLactate};
      for (bio::TargetId id : ids) {
        probes.push_back(bio::make_probe(id));
        probes.back()->set_bulk_concentration(bio::to_string(id), 1.5);
      }
      probes.push_back(bio::make_probe(bio::TargetId::kCholesterol));
      probes.back()->set_bulk_concentration("cholesterol", 0.045);
    }
  };
  // Calibrating six probes dominates the workload's cost; they are safely
  // shared across scans because every measurement re-applies sensor state
  // and resets the concentration profiles.
  static Panel panel;

  const auto scan = [&](std::size_t lanes) {
    afe::AfeConfig fe_config;
    fe_config.tia = afe::lab_grade_tia();
    fe_config.adc = afe::AdcSpec{.bits = 16, .v_low = -10.0, .v_high = 10.0,
                                 .sample_rate = 10.0};
    std::vector<std::unique_ptr<afe::AnalogFrontEnd>> fes;
    std::vector<afe::AnalogFrontEnd*> frontends;
    std::vector<sim::Channel> channels;
    std::vector<sim::ChannelProtocol> protocols;
    sim::ChronoamperometryProtocol ca;
    ca.potential = 0.55;
    ca.duration = 3.0;
    sim::CyclicVoltammetryProtocol cv;
    cv.e_start = 0.1;
    cv.e_vertex = -0.65;
    cv.scan_rate = 0.02;
    for (std::size_t c = 0; c < panel.probes.size(); ++c) {
      fe_config.seed = 20 + c;
      fes.push_back(std::make_unique<afe::AnalogFrontEnd>(fe_config));
      frontends.push_back(fes.back().get());
      channels.push_back(sim::Channel{panel.probes[c].get(), nullptr});
      if (c + 1 < panel.probes.size()) {
        protocols.emplace_back(ca);
      } else {
        protocols.emplace_back(cv);
      }
    }
    afe::AnalogMux mux{afe::MuxSpec{}};
    sim::EngineConfig cfg;
    cfg.seed = seed;
    cfg.batch_lanes = lanes;
    sim::MeasurementEngine engine(cfg);
    return test::digest_of(
        engine.run_panel(channels, protocols, frontends, mux, parallelism));
  };

  const std::uint64_t scalar = scan(1);
  EXPECT_EQ(scan(2), scalar) << "lane width 2 diverges from the scalar path";
  EXPECT_EQ(scan(4), scalar) << "lane width 4 diverges from the scalar path";
  EXPECT_EQ(scan(0), scalar) << "auto lane width diverges from the scalar path";
  return scalar;
}

std::uint64_t explorer_digest(std::uint64_t seed, std::size_t parallelism) {
  // The explorer is noise-free; the "seed" only varies the ranking
  // weights, and the same design can legitimately win under all of them
  // (hence seeded = false below).
  plat::ExplorerOptions options;
  options.parallelism = parallelism;
  options.weight_area = 1.0 + static_cast<double>(seed % 5);
  options.weight_time = 1.0 + static_cast<double>(seed % 3);
  const plat::ComponentCatalog catalog = plat::ComponentCatalog::standard();
  return test::digest_of(plat::explore(plat::fig4_panel(), catalog, options));
}

std::uint64_t campaign_digest(std::uint64_t seed, std::size_t parallelism) {
  quant::CampaignConfig config;
  config.seed = seed;
  config.calibration_points = 4;
  config.blank_measurements = 4;
  config.ca_duration_s = 6.0;
  quant::CalibrationStore store(config);
  const bio::TargetId targets[] = {bio::TargetId::kGlucose,
                                   bio::TargetId::kLactate};
  store.prepare(targets, parallelism);
  test::BitDigest d;
  for (bio::TargetId t : targets) {
    test::fold(d, store.curve(t));
  }
  return d.value();
}

std::uint64_t cohort_digest(std::uint64_t seed, std::size_t parallelism) {
  // Longitudinal cohort with the full fault stack live: an aging sensor,
  // QC monitoring and a hair-trigger recalibration policy, so the sweep
  // also pins the acceptance criterion that degraded runs stay bitwise
  // identical at parallelism 1 vs N.
  quant::CampaignConfig campaign;
  campaign.seed = 515151;
  campaign.calibration_points = 4;
  campaign.blank_measurements = 4;
  campaign.ca_duration_s = 6.0;
  quant::CalibrationStore store(campaign);

  scenario::AnalytePlan glucose;
  glucose.target = bio::TargetId::kGlucose;
  glucose.baseline_mM = 2.0;
  const std::vector<scenario::AnalytePlan> plans{glucose};

  scenario::CohortSpec spec;
  spec.patients = 2;
  spec.seed = 77;
  const auto cohort = scenario::generate_cohort(spec, plans);

  scenario::LongitudinalConfig config;
  config.sample_times_h = {0.0, 72.0, 144.0};
  config.engine_seed = seed;
  config.parallelism = parallelism;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.08;
  aging.enzyme_decay_per_day = 0.03;
  aging.storms_per_day = 0.3;
  aging.storm_current_A = 5e-9;
  aging.seed = seed ^ 0xabcdef;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration.enabled = true;
  config.recalibration.cusum_threshold = 2.0;  // hair trigger
  config.recalibration.min_interval_h = 48.0;
  const scenario::LongitudinalRunner runner(store, config);
  return test::digest_of(runner.run(plans, cohort));
}

std::uint64_t serve_digest(std::uint64_t seed, std::size_t parallelism) {
  // The service-layer acceptance criterion: one recorded mixed request log
  // (panel scans, quantified reads, QC checks, three priority classes,
  // several sessions) replayed through the diagnostics service, with
  // degradation and scheduled recalibration epochs live so the warm
  // session caches are exercised, digests identically at any parallelism.
  quant::CampaignConfig campaign;
  campaign.seed = 626262;
  campaign.calibration_points = 4;
  campaign.blank_measurements = 4;
  campaign.ca_duration_s = 6.0;
  quant::CalibrationStore store(campaign);

  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = seed;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.seed = seed ^ 0x5e47e;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;
  serve::DiagnosticsService service(store, config);

  serve::TrafficSpec traffic;
  traffic.requests = 24;
  traffic.sessions = 6;
  traffic.seed = 11;  // one fixed log; the *service* seed varies
  traffic.duration_h = 9.0 * 24.0;  // crosses two epoch boundaries
  const std::vector<serve::Request> log =
      serve::synthesize_traffic(traffic, service);

  serve::Scheduler scheduler(service);
  const std::vector<serve::Response> responses =
      scheduler.replay(log, parallelism);
  test::BitDigest d;
  test::fold(d, std::span<const serve::Response>(responses));
  return d.value();
}

std::uint64_t sharded_digest(std::uint64_t seed, std::size_t parallelism) {
  // The distributed acceptance criterion: the serve workload's traffic
  // shape replayed through a 2-shard cluster with the simulated network
  // injecting reorder, bounded delay and duplication between the shards
  // and the coordinator. The fault schedule's seed varies with the
  // parallelism level, so digest equality across levels ALSO proves the
  // merged log is invariant to the transport's fault schedule -- not just
  // to thread scheduling.
  quant::CampaignConfig campaign;
  campaign.seed = 626262;
  campaign.calibration_points = 4;
  campaign.blank_measurements = 4;
  campaign.ca_duration_s = 6.0;
  quant::CalibrationStore store(campaign);

  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = seed;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.seed = seed ^ 0x5e47e;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;

  serve::TrafficSpec traffic;
  traffic.requests = 24;
  traffic.sessions = 6;
  traffic.seed = 11;  // one fixed log; the *service* seed varies
  traffic.duration_h = 9.0 * 24.0;

  serve::ShardClusterConfig cluster_config;
  cluster_config.router.shards = 2;
  serve::ShardCluster cluster(store, config, cluster_config);
  const std::vector<serve::Request> log =
      serve::synthesize_traffic(traffic, cluster.shard(0));

  test::SimNetConfig net;
  net.seed = seed ^ (0xd15ULL + parallelism);  // hostile: varies per level
  net.max_delay_ticks = 32;
  net.duplicate_prob = 0.15;
  test::SimNetTransport transport(net);

  const std::vector<serve::Response> responses =
      cluster.replay(log, parallelism, &transport).responses;
  test::BitDigest d;
  test::fold(d, std::span<const serve::Response>(responses));
  return d.value();
}

std::uint64_t faulted_digest(std::uint64_t seed, std::size_t parallelism) {
  // The fault-tolerance acceptance criterion: the sharded workload again,
  // but under a *lossy* fault profile -- drops, a shard crash window and
  // a partition in the schedule -- recovered by retry + failover. The
  // fault schedule's seed varies with the parallelism level, so digest
  // equality across levels ALSO proves the merged log is invariant to
  // loss, crash and partition schedules -- not just to thread scheduling.
  quant::CampaignConfig campaign;
  campaign.seed = 626262;
  campaign.calibration_points = 4;
  campaign.blank_measurements = 4;
  campaign.ca_duration_s = 6.0;
  quant::CalibrationStore store(campaign);

  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = seed;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.seed = seed ^ 0x5e47e;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;

  serve::TrafficSpec traffic;
  traffic.requests = 24;
  traffic.sessions = 6;
  traffic.seed = 11;  // one fixed log; the *service* seed varies
  traffic.duration_h = 9.0 * 24.0;

  serve::ShardClusterConfig cluster_config;
  cluster_config.router.shards = 2;
  serve::ShardCluster cluster(store, config, cluster_config);
  const std::vector<serve::Request> log =
      serve::synthesize_traffic(traffic, cluster.shard(0));

  test::SimNetConfig net;
  net.seed = seed ^ (0xfa017ULL + parallelism);  // hostile: varies per level
  net.max_delay_ticks = 24;
  net.duplicate_prob = 0.10;
  net.drop_prob = 0.05;
  net.crashes = {{.shard = cluster.route(log[0].session),
                  .from_tick = 10,
                  .until_tick = 300}};
  net.partitions = {{.shard = 1 - cluster.route(log[0].session),
                     .from_tick = 350,
                     .until_tick = 520}};
  test::SimNetTransport transport(net);

  const std::vector<serve::Response> responses =
      cluster.replay(log, parallelism, &transport).responses;
  test::BitDigest d;
  test::fold(d, std::span<const serve::Response>(responses));
  return d.value();
}

std::uint64_t obs_digest(std::uint64_t seed, std::size_t parallelism) {
  // The observability acceptance criterion: the serve workload replayed
  // with a TraceRecorder and a MetricsRegistry attached, digesting the
  // *observability surfaces* instead of the responses. The canonical
  // trace and the metric snapshot (counters plus order-independent
  // histogram summaries) must be pure functions of (log, seed, config) --
  // bitwise identical at any parallelism. Unlike the response workloads,
  // the trace is schedule metadata (leases, run-ids, epochs, counts): a
  // pure function of the *log*, blind to the engine noise seed -- so here
  // the seed varies the traffic log, not the service.
  quant::CampaignConfig campaign;
  campaign.seed = 626262;
  campaign.calibration_points = 4;
  campaign.blank_measurements = 4;
  campaign.ca_duration_s = 6.0;
  quant::CalibrationStore store(campaign);

  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = seed;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.seed = seed ^ 0x5e47e;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;
  serve::DiagnosticsService service(store, config);

  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  service.set_trace(&trace);
  service.set_metrics(&metrics);

  serve::TrafficSpec traffic;
  traffic.requests = 24;
  traffic.sessions = 6;
  traffic.seed = seed;  // the log IS the seed-sensitive input here
  traffic.duration_h = 9.0 * 24.0;  // crosses two epoch boundaries
  const std::vector<serve::Request> log =
      serve::synthesize_traffic(traffic, service);

  serve::Scheduler scheduler(service);
  (void)scheduler.replay(log, parallelism);

  test::BitDigest d;
  for (const obs::TraceEvent& e : trace.sorted()) {
    d.add_u64(e.key);
    d.add_u64(static_cast<std::uint64_t>(e.kind));
    d.add_u64(e.entity);
    d.add_u64(e.sequence);
    d.add_u64(e.tick);
    d.add(e.time_h);
    d.add(e.value);
  }
  d.add_u64(trace.sorted().size());
  for (const obs::MetricSample& s : metrics.snapshot().samples) {
    for (const char c : s.name) {
      d.add_u64(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.tenant)));
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.shard)));
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.priority)));
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.channel)));
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.subscriber)));
    d.add_u64(static_cast<std::uint64_t>(s.type));
    d.add(s.value);
    for (const double v : util::to_row(s.latency)) d.add(v);
  }
  return d.value();
}

std::uint64_t snapshot_digest(const obs::MetricsSnapshot& snapshot) {
  test::BitDigest d;
  for (const obs::MetricSample& s : snapshot.samples) {
    for (const char c : s.name) {
      d.add_u64(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.tenant)));
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.shard)));
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.priority)));
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.channel)));
    d.add_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(s.labels.subscriber)));
    d.add_u64(static_cast<std::uint64_t>(s.type));
    d.add(s.value);
    for (const double v : util::to_row(s.latency)) d.add(v);
  }
  d.add_u64(snapshot.samples.size());
  return d.value();
}

/// Digest of a complete subscriber's concatenated encoded frame bytes.
std::uint64_t frame_bytes_digest(obs::TelemetrySubscriber& subscriber) {
  std::vector<std::uint8_t> bytes;
  obs::Frame frame;
  while (subscriber.pop(frame)) obs::encode_frame(frame, bytes);
  test::BitDigest d;
  for (const std::uint8_t b : bytes) d.add_u64(b);
  d.add_u64(bytes.size());
  return d.value();
}

std::uint64_t stream_digest(std::uint64_t seed, std::size_t parallelism) {
  // The live-streaming acceptance criterion: the obs workload replayed
  // with a TelemetryBus attached, digesting the concatenated *encoded
  // frame bytes* a complete subscriber received -- the per-topic published
  // frame sequences must be pure functions of (log, seed, config), bitwise
  // identical at any parallelism. Riding along: an aggregation subscriber
  // (snapshot-then-delta from the start) must rebuild the end-of-run
  // MetricsSnapshot exactly, and a tight drop-oldest subscriber's overflow
  // must be fully accounted (published == delivered + dropped + pending).
  quant::CampaignConfig campaign;
  campaign.seed = 626262;
  campaign.calibration_points = 4;
  campaign.blank_measurements = 4;
  campaign.ca_duration_s = 6.0;
  quant::CalibrationStore store(campaign);

  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = seed;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.seed = seed ^ 0x5e47e;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;
  serve::DiagnosticsService service(store, config);

  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  service.set_trace(&trace);
  service.set_metrics(&metrics);

  serve::TrafficSpec traffic;
  traffic.requests = 24;
  traffic.sessions = 6;
  traffic.seed = seed;  // the log IS the seed-sensitive input here
  traffic.duration_h = 9.0 * 24.0;  // crosses two epoch boundaries
  const std::vector<serve::Request> log =
      serve::synthesize_traffic(traffic, service);

  obs::TelemetryBus bus;
  obs::SubscriberConfig recorder_config;
  recorder_config.name = "recorder";
  recorder_config.capacity = 1u << 15;
  const auto recorder = bus.subscribe(recorder_config);
  obs::SubscriberConfig tiles_config;
  tiles_config.name = "tiles";
  tiles_config.capacity = 1u << 15;
  tiles_config.topic_prefix = "metrics/";
  const auto tiles = bus.subscribe(tiles_config, metrics.snapshot());
  obs::SubscriberConfig lossy_config;
  lossy_config.name = "lossy";
  lossy_config.capacity = 8;
  lossy_config.policy = obs::OverflowPolicy::kDropOldest;
  const auto lossy = bus.subscribe(lossy_config);

  serve::Scheduler scheduler(service);
  scheduler.set_stream(&bus);
  (void)scheduler.replay(log, parallelism);
  bus.close();

  // The live p50/p90/p99 tiles, rebuilt delta by delta, equal the
  // end-of-run snapshot exactly (the subscription predates all traffic).
  obs::LiveAggregator aggregator;
  aggregator.run(*tiles);
  EXPECT_TRUE(aggregator.exact());
  EXPECT_EQ(snapshot_digest(aggregator.snapshot()),
            snapshot_digest(metrics.snapshot()))
      << "live aggregation diverged from the end-of-run snapshot";

  // Drop-oldest overflow is fully accounted, never silent.
  obs::Frame frame;
  while (lossy->try_pop(frame)) {}
  for (const obs::SubscriberStats& stats : bus.subscriber_stats()) {
    EXPECT_EQ(stats.published,
              stats.delivered + stats.dropped + stats.pending);
  }
  EXPECT_GT(lossy->stats().dropped, 0u) << "the tight subscriber never spilled";

  // The digest: the complete subscriber's concatenated frame bytes.
  return frame_bytes_digest(*recorder);
}

// --- the CYP panel: lane-batched replay vs sequential execute() --------------

/// Factory campaigns of the CYP workload, shared by every run (a campaign
/// is a pure function of its configuration; the store is thread-safe).
quant::CalibrationStore& cyp_store() {
  static quant::CalibrationStore store([] {
    quant::CampaignConfig campaign;
    campaign.seed = 515151;
    campaign.calibration_points = 3;
    campaign.blank_measurements = 3;
    return campaign;
  }());
  return store;
}

/// A benzphetamine + clozapine panel read by cyclic voltammetry on aging
/// sensors (denaturing, fouling, reference drift, interference storms)
/// with a 3-day recalibration cadence.
serve::ServiceConfig cyp_service_config(std::uint64_t seed) {
  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kBenzphetamine, bio::TargetId::kClozapine};
  config.engine_seed = seed;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.03;
  aging.reference_drift_V_per_day = 1.0e-3;
  aging.storms_per_day = 0.5;
  aging.storm_current_A = 1.0e-9;
  aging.seed = seed ^ 0xc1907ULL;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 3.0;
  return config;
}

/// Enough CV reads per target for lockstep lanes, with QC checks on both
/// sides of the first recalibration boundary.
std::vector<serve::Request> cyp_log(const serve::DiagnosticsService& service) {
  serve::TrafficSpec traffic;
  traffic.requests = 24;
  traffic.sessions = 2;
  traffic.seed = 17;  // one fixed log; the *service* seed varies
  traffic.duration_h = 5.0 * 24.0;
  traffic.qc_fraction = 0.3;
  return serve::synthesize_traffic(traffic, service);
}

/// The reference: every request of the log through execute()'s stages,
/// one request at a time in log order, each capture committed to the bus
/// as it completes.
std::uint64_t cyp_execute_digest(std::uint64_t seed) {
  serve::DiagnosticsService service(cyp_store(), cyp_service_config(seed));
  const std::vector<serve::Request> log = cyp_log(service);
  obs::TelemetryBus bus;
  obs::SubscriberConfig recorder_config;
  recorder_config.name = "recorder";
  recorder_config.capacity = 1u << 15;
  const auto recorder = bus.subscribe(recorder_config);
  const obs::TelemetryStream stream{&bus};
  test::BitDigest d;
  std::size_t late_qc = 0;
  for (const serve::Request& request : log) {
    serve::RequestPlan plan = service.plan(request);
    serve::RequestPlan* const plans[] = {&plan};
    service.measure(plans, 1);
    obs::TelemetryCapture capture;
    const serve::Response response = service.finish(plan, capture);
    stream.commit(capture);
    test::fold(d, response);
    if (response.kind == serve::RequestKind::kQcCheck &&
        response.calibration_epoch >= 1) {
      ++late_qc;
    }
  }
  bus.close();
  EXPECT_GT(late_qc, 0u) << "no QC check planned against an epoch >= 1 "
                            "calibration";
  d.add_u64(frame_bytes_digest(*recorder));
  return d.value();
}

std::uint64_t cyp_digest(std::uint64_t seed, std::size_t parallelism) {
  // The lane-batching acceptance criterion: a CYP panel log replayed with
  // its CV reads stepped in lockstep lanes across requests must equal
  // sequential execute() bit for bit -- responses and the encoded stream
  // frames -- at every parallelism (and hence every lane split, which
  // follows the worker count).
  serve::DiagnosticsService service(cyp_store(), cyp_service_config(seed));
  const std::vector<serve::Request> log = cyp_log(service);
  obs::TelemetryBus bus;
  obs::SubscriberConfig recorder_config;
  recorder_config.name = "recorder";
  recorder_config.capacity = 1u << 15;
  const auto recorder = bus.subscribe(recorder_config);
  serve::Scheduler scheduler(service);
  scheduler.set_stream(&bus);
  const std::vector<serve::Response> responses =
      scheduler.replay(log, parallelism);
  bus.close();
  test::BitDigest d;
  for (const serve::Response& response : responses) test::fold(d, response);
  d.add_u64(frame_bytes_digest(*recorder));

  static std::map<std::uint64_t, std::uint64_t> reference;
  auto [it, fresh] = reference.try_emplace(seed, 0);
  if (fresh) it->second = cyp_execute_digest(seed);
  EXPECT_EQ(d.value(), it->second)
      << "replay at parallelism " << parallelism
      << " diverged from sequential execute() at seed " << seed;
  return d.value();
}

// --- the parameterized sweep ------------------------------------------------

struct Workload {
  const char* name;
  std::uint64_t (*run)(std::uint64_t seed, std::size_t parallelism);
  bool seeded = true;  ///< false: noise-free, exempt from seed sensitivity
};

class DeterminismSweep : public ::testing::TestWithParam<Workload> {};

TEST_P(DeterminismSweep, BitwiseIdenticalAcrossSeedsAndParallelism) {
  const Workload& workload = GetParam();
  test::expect_parallelism_invariant(
      kSeeds, kLevels,
      [&](std::uint64_t seed, std::size_t parallelism) {
        return workload.run(seed, parallelism);
      },
      workload.seeded);
}

TEST_P(DeterminismSweep, RepeatedRunsReproduce) {
  const Workload& workload = GetParam();
  EXPECT_EQ(workload.run(kSeeds[0], 2), workload.run(kSeeds[0], 2));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DeterminismSweep,
    ::testing::Values(Workload{"panel", panel_digest},
                      Workload{"explorer", explorer_digest, false},
                      Workload{"campaign", campaign_digest},
                      Workload{"cohort", cohort_digest},
                      Workload{"serve", serve_digest},
                      Workload{"sharded", sharded_digest},
                      Workload{"faulted", faulted_digest},
                      Workload{"obs", obs_digest},
                      Workload{"simd", simd_digest},
                      Workload{"stream", stream_digest},
                      Workload{"cyp", cyp_digest}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

}  // namespace
}  // namespace idp
