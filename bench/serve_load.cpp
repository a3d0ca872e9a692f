/// \file serve_load.cpp
/// Service-runtime load benchmark: open-loop mixed traffic (panel scans,
/// quantified reads, QC checks at stat/routine/batch priority) from
/// thousands of sessions pushed through the live scheduler, reporting
/// sustained throughput plus p50/p90/p99 queue-wait and service-time
/// latency per priority class as benchmark counters, the replay path's
/// parallel scaling, the live telemetry-bus fan-out tax at 0/2/8
/// subscribers, and the sharded replay's throughput under injected loss
/// and a shard-crash failover. Writes google-benchmark JSON
/// to BENCH_serve.json
/// (override with --benchmark_out=...) so successive PRs accumulate a
/// comparable service-workload measurement.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "netsim/sim_network.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard_coordinator.hpp"
#include "serve/traffic.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace idp;

/// Short-protocol campaign: the load bench measures the *service layer*
/// (queueing, dispatch, session state, leasing), so each virtual
/// measurement is kept short -- 1 s of simulated chronoamperometry -- to
/// make a >= 10k-request run affordable in CI.
quant::CampaignConfig bench_campaign() {
  quant::CampaignConfig config;
  config.calibration_points = 4;
  config.blank_measurements = 4;
  config.ca_duration_s = 1.0;
  return config;
}

serve::ServiceConfig bench_service_config() {
  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = 515;
  return config;
}

serve::TrafficSpec bench_traffic(std::size_t requests) {
  serve::TrafficSpec spec;
  spec.requests = requests;
  spec.sessions = 2000;
  spec.tenants = 8;
  spec.devices = 2;
  spec.seed = 17;
  spec.duration_h = 24.0;
  return spec;
}

void report_priority_latency(benchmark::State& state,
                             const serve::Scheduler& scheduler) {
  for (std::size_t p = 0; p < serve::kPriorityCount; ++p) {
    const auto priority = static_cast<serve::Priority>(p);
    const serve::PriorityTelemetry t = scheduler.telemetry(priority);
    const std::string prefix = serve::to_string(priority);
    state.counters[prefix + "_served"] +=
        static_cast<double>(t.completed);
    // One canonical summary row per histogram (the same count/min/max/
    // p50/p90/p99 schema the metrics registry and telemetry CSVs export).
    const std::pair<const char*, util::LatencySummary> series[] = {
        {"queue", t.queue_wait.summary()},
        {"service", t.service_time.summary()}};
    for (const auto& [tag, summary] : series) {
      const std::string base = prefix + "_" + std::string(tag) + "_";
      state.counters[base + "p50_ms"] = 1e3 * summary.p50;
      state.counters[base + "p90_ms"] = 1e3 * summary.p90;
      state.counters[base + "p99_ms"] = 1e3 * summary.p99;
    }
  }
}

/// The headline load run: >= 10k mixed requests from 2000 sessions pushed
/// open-loop (with backpressure) through the live scheduler at hardware
/// worker parallelism.
void BM_ServeLoad(benchmark::State& state) {
  const auto requests = static_cast<std::size_t>(state.range(0));
  static quant::CalibrationStore store(bench_campaign());
  static serve::DiagnosticsService service(store, bench_service_config());
  // Built per invocation (synthesis is milliseconds): a function-local
  // static would freeze the first Arg's log and silently mislabel any
  // additional ->Arg() sizes.
  const std::vector<serve::Request> log =
      serve::synthesize_traffic(bench_traffic(requests), service);

  std::size_t completed = 0;
  for (auto _ : state) {
    serve::SchedulerConfig config;
    config.queue.capacity = 4096;
    config.queue.stat_reserve = 64;
    config.workers = 0;  // hardware concurrency
    serve::Scheduler scheduler(service, config);
    scheduler.start();
    for (const serve::Request& r : log) {
      benchmark::DoNotOptimize(scheduler.submit_wait(r));
    }
    scheduler.drain_and_stop();
    completed += scheduler.completed();
    state.PauseTiming();
    report_priority_latency(state, scheduler);
    state.counters["queue_high_water"] =
        static_cast<double>(scheduler.queue().high_water());
    state.counters["rejected"] +=
        static_cast<double>(scheduler.queue().stats().rejected_full);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
  state.SetLabel(std::to_string(requests) +
                 " mixed requests x 2000 sessions, hw workers");
}
BENCHMARK(BM_ServeLoad)
    ->Arg(10000)
    ->ArgName("requests")
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Replay-path scaling: the same recorded log executed deterministically
/// at parallelism 1 / 2 / 4 / hardware (bitwise identical results; the
/// timing difference is the whole point).
void BM_ServeReplay(benchmark::State& state) {
  static quant::CalibrationStore store(bench_campaign());
  static serve::DiagnosticsService service(store, bench_service_config());
  static const std::vector<serve::Request> log = [] {
    serve::TrafficSpec spec = bench_traffic(512);
    spec.sessions = 128;
    return serve::synthesize_traffic(spec, service);
  }();

  serve::Scheduler scheduler(service);
  std::size_t responses = 0;
  for (auto _ : state) {
    const std::vector<serve::Response> out =
        scheduler.replay(log, static_cast<std::size_t>(state.range(0)));
    responses += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.SetLabel("512-request log, deterministic replay");
}
BENCHMARK(BM_ServeReplay)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->ArgName("parallelism")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Observability tax: the deterministic replay with the full observability
/// stack attached (TraceRecorder spans from every lease/execution/epoch
/// event plus service-level metrics counters) against the bare replay.
/// Target: the observed run stays within 5% of the bare run's wall time
/// -- compare the two variants' real_time in BENCH_serve.json.
void BM_ObsOverhead(benchmark::State& state) {
  static quant::CalibrationStore store(bench_campaign());
  static const std::vector<serve::Request> log = [] {
    serve::DiagnosticsService reference(store, bench_service_config());
    serve::TrafficSpec spec = bench_traffic(512);
    spec.sessions = 128;
    return serve::synthesize_traffic(spec, reference);
  }();

  const bool observed = state.range(0) != 0;
  serve::DiagnosticsService service(store, bench_service_config());
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  if (observed) {
    service.set_trace(&trace);
    service.set_metrics(&metrics);
  }
  serve::Scheduler scheduler(service);
  std::size_t responses = 0;
  for (auto _ : state) {
    if (observed) trace.clear();  // clearing is part of the tracing cost
    const std::vector<serve::Response> out = scheduler.replay(log, 0);
    responses += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  if (observed) {
    state.counters["trace_events"] = static_cast<double>(trace.size());
    state.counters["metric_series"] = static_cast<double>(metrics.size());
  }
  state.SetLabel(std::string("512-request log, hw parallelism, ") +
                 (observed ? "trace + metrics attached (<5% target)"
                           : "bare replay"));
}
BENCHMARK(BM_ObsOverhead)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("observed")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Live-streaming tax: the 512-request deterministic replay with a
/// TelemetryBus attached and N concurrently-draining subscribers fanned
/// out (N = 0 measures pure framing + publish cost, nobody listening).
/// Each subscriber is a large drop-oldest queue drained by its own
/// thread, so the publisher never backpressures and the measured delta
/// is the fan-out itself. Target: the 2-subscriber run stays within 5%
/// of the 0-subscriber run's wall time -- compare the variants'
/// real_time in BENCH_serve.json.
void BM_TelemetryFanout(benchmark::State& state) {
  static quant::CalibrationStore store(bench_campaign());
  static const std::vector<serve::Request> log = [] {
    serve::DiagnosticsService reference(store, bench_service_config());
    serve::TrafficSpec spec = bench_traffic(512);
    spec.sessions = 128;
    return serve::synthesize_traffic(spec, reference);
  }();

  const auto subscribers = static_cast<std::size_t>(state.range(0));
  serve::DiagnosticsService service(store, bench_service_config());
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  service.set_trace(&trace);
  service.set_metrics(&metrics);
  serve::Scheduler scheduler(service);

  std::size_t responses = 0;
  std::uint64_t frames = 0, delivered = 0, dropped = 0;
  for (auto _ : state) {
    trace.clear();
    // A fresh bus per iteration: close() is permanent by design, and the
    // setup cost (a few allocations + thread spawns) is part of what a
    // live dashboard attachment costs.
    obs::TelemetryBus bus;
    std::vector<std::thread> drains;
    for (std::size_t i = 0; i < subscribers; ++i) {
      obs::SubscriberConfig cfg;
      cfg.name = "drain-" + std::to_string(i);
      cfg.capacity = 1u << 14;
      cfg.policy = obs::OverflowPolicy::kDropOldest;
      drains.emplace_back([sub = bus.subscribe(cfg)] {
        obs::Frame frame;
        while (sub->pop(frame)) benchmark::DoNotOptimize(frame.sequence);
      });
    }
    scheduler.set_stream(&bus);
    const std::vector<serve::Response> out = scheduler.replay(log, 0);
    scheduler.set_stream(nullptr);
    bus.close();
    for (std::thread& t : drains) t.join();
    responses += out.size();
    frames = bus.frames_published();
    delivered = dropped = 0;
    for (const obs::SubscriberStats& s : bus.subscriber_stats()) {
      delivered += s.delivered;
      dropped += s.dropped;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["frames_published"] = static_cast<double>(frames);
  state.counters["frames_delivered"] = static_cast<double>(delivered);
  state.counters["frames_dropped"] = static_cast<double>(dropped);
  state.SetLabel("512-request log, hw parallelism, " +
                 std::to_string(subscribers) +
                 " draining subscriber(s)" +
                 (subscribers == 2 ? " (<5% over 0-subscriber target)" : ""));
}
BENCHMARK(BM_TelemetryFanout)
    ->Arg(0)
    ->Arg(2)
    ->Arg(8)
    ->ArgName("subscribers")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Shard-count scaling of the distributed replay path: the same recorded
/// log routed across K in-process shards and merged back through the
/// coordinator (perfect transport; the network cost modelled here is the
/// routing + dispatch + envelope + sorted-merge overhead, not wire
/// latency). K=1 vs
/// BM_ServeReplay isolates the coordinator's own tax.
void BM_ShardedReplay(benchmark::State& state) {
  static quant::CalibrationStore store(bench_campaign());
  static const std::vector<serve::Request> log = [] {
    serve::DiagnosticsService service(store, bench_service_config());
    serve::TrafficSpec spec = bench_traffic(512);
    spec.sessions = 128;
    return serve::synthesize_traffic(spec, service);
  }();

  const auto shards = static_cast<std::size_t>(state.range(0));
  serve::ShardClusterConfig cluster_config;
  cluster_config.router.shards = shards;
  serve::ShardCluster cluster(store, bench_service_config(), cluster_config);
  std::size_t responses = 0;
  for (auto _ : state) {
    const serve::ShardedReplayResult result = cluster.replay(log, 0);
    responses += result.responses.size();
    benchmark::DoNotOptimize(result.responses.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.SetLabel("512-request log, merged across " +
                 std::to_string(shards) + " shard(s), hw parallelism");
}
BENCHMARK(BM_ShardedReplay)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->ArgName("shards")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Fault-tolerance tax of the distributed replay: the same recorded log
/// as BM_ShardedReplay, replayed over the simulated network (5%
/// duplication, 24-tick delay envelope) instead of the perfect transport,
/// at 0% / 1% / 5% message loss across 2 shards, plus a one-shard-crash
/// failover run. The counters expose what the recovery cost in virtual
/// time and extra work; throughput shows what it cost in wall time.
void BM_FaultedReplay(benchmark::State& state) {
  static quant::CalibrationStore store(bench_campaign());
  static const std::vector<serve::Request> log = [] {
    serve::DiagnosticsService service(store, bench_service_config());
    serve::TrafficSpec spec = bench_traffic(512);
    spec.sessions = 128;
    return serve::synthesize_traffic(spec, service);
  }();

  const double drop_prob = static_cast<double>(state.range(0)) / 1000.0;
  const bool crash_one_shard = state.range(1) != 0;
  serve::ShardClusterConfig cluster_config;
  cluster_config.router.shards = 2;
  serve::ShardCluster cluster(store, bench_service_config(), cluster_config);

  std::size_t responses = 0;
  serve::FaultStats faults;
  std::uint64_t iterations = 0;
  for (auto _ : state) {
    test::SimNetConfig net;
    net.seed = 29;
    net.max_delay_ticks = 24;
    net.duplicate_prob = 0.05;
    net.drop_prob = drop_prob;
    if (crash_one_shard) {
      // The 512 initial dispatches alone advance the clock past tick 512,
      // so the outage must reach well into the delivery phase to bite.
      net.crashes = {{.shard = cluster.route(log[0].session),
                      .from_tick = 10,
                      .until_tick = 900}};
    }
    test::SimNetTransport transport(net);
    const serve::ShardedReplayResult result =
        cluster.replay(log, 0, &transport);
    responses += result.responses.size();
    faults = result.faults;  // identical every iteration (seeded)
    ++iterations;
    benchmark::DoNotOptimize(result.responses.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(responses));
  state.counters["retries"] = static_cast<double>(faults.retries);
  state.counters["reroutes"] = static_cast<double>(faults.reroutes);
  state.counters["dropped"] = static_cast<double>(faults.messages_dropped);
  state.counters["failovers"] = static_cast<double>(faults.shard_failovers);
  state.counters["final_tick"] = static_cast<double>(faults.final_tick);
  state.SetLabel("512-request log, 2 shards, drop=" +
                 std::to_string(state.range(0)) + "permille" +
                 (crash_one_shard ? ", one shard crashed [10,900)" : ""));
}
BENCHMARK(BM_FaultedReplay)
    ->Args({0, 0})
    ->Args({10, 0})
    ->Args({50, 0})
    ->Args({10, 1})
    ->ArgNames({"drop_permille", "crash"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Queue-layer micro-benchmark: admission + dispatch cycles per second
/// through the bounded priority queue (no measurement work), the ceiling
/// the service front door imposes.
void BM_RequestQueueCycle(benchmark::State& state) {
  serve::RequestQueue queue(serve::RequestQueueConfig{.capacity = 1024});
  serve::Request request;
  request.priority = serve::Priority::kRoutine;
  std::size_t cycles = 0;
  serve::QueuedRequest out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.try_push(request));
    benchmark::DoNotOptimize(queue.try_pop(out));
    ++cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cycles));
}
BENCHMARK(BM_RequestQueueCycle);

}  // namespace

int main(int argc, char** argv) {
  std::printf("hardware threads: %zu\n",
              idp::util::ThreadPool::default_parallelism());
  // CI uploads BENCH_serve.json next to BENCH_hot_path.json/BENCH_cohort.json.
  return idp::bench::run_benchmarks_with_default_out(argc, argv,
                                                     "BENCH_serve.json");
}
