/// \file engine.cpp
/// Measurement engine implementation: co-simulates probe electrochemistry
/// at millisecond steps with the Fig. 2 acquisition chain (potentiostat,
/// mux, TIA + ADC, noise).

#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "afe/waveform.hpp"
#include "bio/cyp_batch.hpp"
#include "bio/cyp_probe.hpp"
#include "bio/oxidase_batch.hpp"
#include "bio/oxidase_probe.hpp"
#include "sim/batch.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace idp::sim {

namespace {
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;
/// Fewest measurements a lockstep job packs: narrower jobs save too little
/// per read (BM_CypLanes) to pay for serialising their reads onto one
/// worker, and the floor keeps a single request (at most two compatible
/// reads) on the scalar path.
constexpr std::size_t kMinLaneFill = 4;
/// Widest lockstep job under the automatic rule (EngineConfig::batch_lanes
/// = 0): two AVX registers of doubles per solver row.
constexpr std::size_t kMaxAutoLanes = 8;
}  // namespace

/// Per-run noise generators: independent white noise for the signal and
/// blank paths plus one *shared* drift process (same chamber, same solution)
/// that correlated double sampling can cancel.
struct MeasurementEngine::NoiseState {
  util::Rng white_signal;
  util::Rng white_blank;
  util::DriftProcess drift;
  double white_rms;
  bool enabled;

  /// `white_mult` inflates the electrochemical white noise (interference
  /// storms); 1.0 -- the pristine default -- multiplies out exactly.
  NoiseState(const EngineConfig& cfg, const bio::Probe& probe,
             std::uint64_t run_id, double white_mult)
      : white_signal(cfg.seed + run_id * kSeedStride),
        white_blank(cfg.seed + run_id * kSeedStride + 1),
        drift(cfg.drift_scale * probe.blank_noise_rms(), cfg.drift_tau,
              cfg.seed + run_id * kSeedStride + 2),
        white_rms(probe.blank_noise_rms() * white_mult),
        enabled(cfg.sensor_noise) {}

  /// Advance shared drift by one sample period.
  double step_drift(double dt) { return enabled ? drift.step(dt) : 0.0; }

  double signal_white() { return enabled ? white_signal.gaussian(white_rms) : 0.0; }
  double blank_white() { return enabled ? white_blank.gaussian(white_rms) : 0.0; }
};

MeasurementEngine::MeasurementEngine(EngineConfig config) : config_(config) {
  util::require(config_.chem_dt > 0.0, "chem_dt must be positive");
  util::require(config_.drift_scale >= 0.0, "drift_scale must be >= 0");
  util::require(config_.drift_tau > 0.0, "drift_tau must be positive");
}

namespace {

/// Sampling instants are derived from an integer sample counter so that the
/// k-th sample lands at exactly (k+1)*period -- accumulating `next += period`
/// drifts by one ulp per sample over long runs.
struct SamplingClock {
  double period;
  std::size_t samples = 0;
  explicit SamplingClock(double rate) : period(1.0 / rate) {}
  double next() const { return static_cast<double>(samples + 1) * period; }
  bool due(double t) const { return t >= next(); }
  void advance() { ++samples; }
};

}  // namespace

std::uint64_t MeasurementEngine::reserve_run_ids(std::size_t n) {
  const std::uint64_t base = run_counter_;
  run_counter_ += n;
  return base;
}

Trace MeasurementEngine::run_chronoamperometry(
    Channel channel, const ChronoamperometryProtocol& protocol,
    afe::AnalogFrontEnd& fe, std::span<const InjectionEvent> injections) {
  return run_chronoamperometry_seeded(++run_counter_, channel, protocol, fe,
                                      injections);
}

Trace MeasurementEngine::run_chronoamperometry_seeded(
    std::uint64_t run_id, Channel channel,
    const ChronoamperometryProtocol& protocol, afe::AnalogFrontEnd& fe,
    std::span<const InjectionEvent> injections) const {
  util::require(channel.probe != nullptr, "channel has no probe");
  util::require(protocol.duration > 0.0 && protocol.sample_rate > 0.0,
                "invalid protocol");
  const fault::SensorState& sensor = channel.sensor;
  bio::Probe& probe = *channel.probe;
  probe.apply_sensor_state(sensor);
  probe.reset();
  fe.set_drift(sensor.afe_gain, sensor.afe_offset_A);

  NoiseState noise(config_, probe, run_id, sensor.storm_noise_mult);
  afe::Potentiostat pstat(config_.potentiostat);

  std::vector<InjectionEvent> pending(injections.begin(), injections.end());
  std::stable_sort(pending.begin(), pending.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });
  std::size_t next_injection = 0;

  Trace trace;
  trace.reserve(static_cast<std::size_t>(
                    std::ceil(protocol.duration * protocol.sample_rate)) +
                1);
  SamplingClock clock(protocol.sample_rate);
  const double dt = config_.chem_dt;
  double i_prev = 0.0;
  const auto n_steps =
      static_cast<std::size_t>(std::ceil(protocol.duration / dt));
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    while (next_injection < pending.size() &&
           pending[next_injection].time <= t) {
      probe.set_bulk_concentration(pending[next_injection].target,
                                   pending[next_injection].concentration);
      ++next_injection;
    }
    // Reference-electrode drift: the interface sees a shifted potential
    // while the instrument still believes protocol.potential.
    const double e_applied =
        pstat.applied_potential(protocol.potential, i_prev,
                                config_.cell_impedance) +
        sensor.reference_shift_V;
    const double i_far = probe.step(e_applied, dt);
    i_prev = i_far;

    if (clock.due(t + dt)) {
      const double drift = noise.step_drift(clock.period);
      const double i_sig =
          i_far + noise.signal_white() + drift + sensor.storm_current_A;
      // The blank electrode shares solution drift; for directly
      // electroactive targets it also collects part of the signal itself
      // (the Section II-C caveat on CDS). Interference storms are
      // solution-borne, so both electrodes collect them (which is exactly
      // what CDS can exploit).
      const double i_blank = probe.blank_current() +
                             probe.blank_signal_fraction() *
                                 (i_far - probe.blank_current()) +
                             noise.blank_white() + drift +
                             sensor.storm_current_A;
      trace.push(clock.next(), fe.sample(i_sig, i_blank));
      clock.advance();
    }
  }
  return trace;
}

CvCurve MeasurementEngine::run_cyclic_voltammetry(
    Channel channel, const CyclicVoltammetryProtocol& protocol,
    afe::AnalogFrontEnd& fe) {
  return run_cyclic_voltammetry_seeded(++run_counter_, channel, protocol, fe);
}

CvCurve MeasurementEngine::run_cyclic_voltammetry_seeded(
    std::uint64_t run_id, Channel channel,
    const CyclicVoltammetryProtocol& protocol, afe::AnalogFrontEnd& fe) const {
  util::require(channel.probe != nullptr, "channel has no probe");
  util::require(protocol.sample_rate > 0.0, "invalid protocol");
  const fault::SensorState& sensor = channel.sensor;
  bio::Probe& probe = *channel.probe;
  probe.apply_sensor_state(sensor);
  probe.reset();
  fe.set_drift(sensor.afe_gain, sensor.afe_offset_A);

  NoiseState noise(config_, probe, run_id, sensor.storm_noise_mult);
  afe::Potentiostat pstat(config_.potentiostat);
  const afe::TriangleWaveform wf(protocol.e_start, protocol.e_vertex,
                                 protocol.scan_rate, protocol.cycles);

  CvCurve curve;
  curve.reserve(
      static_cast<std::size_t>(std::ceil(wf.duration() * protocol.sample_rate)) +
      1);
  SamplingClock clock(protocol.sample_rate);
  const double dt = config_.chem_dt;
  double i_prev = 0.0;
  const auto n_steps = static_cast<std::size_t>(std::ceil(wf.duration() / dt));
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    const double e_set = wf.value(t);
    // The recorded curve keeps the *programmed* potential; only the probe
    // sees the reference-drift shift.
    const double e_applied =
        pstat.applied_potential(e_set, i_prev, config_.cell_impedance) +
        sensor.reference_shift_V;
    double i_true = probe.step(e_applied, dt);
    if (config_.charging_current && channel.electrode != nullptr) {
      i_true += channel.electrode->charging_current(
          protocol.scan_rate * static_cast<double>(wf.direction(t)));
    }
    i_prev = i_true;

    if (clock.due(t + dt)) {
      const double drift = noise.step_drift(clock.period);
      const double i_sig =
          i_true + noise.signal_white() + drift + sensor.storm_current_A;
      const double i_blank = probe.blank_current() +
                             probe.blank_signal_fraction() *
                                 (i_true - probe.blank_current()) +
                             noise.blank_white() + drift +
                             sensor.storm_current_A;
      const double t_sample = clock.next();
      curve.push(t_sample, wf.value(t_sample), fe.sample(i_sig, i_blank));
      clock.advance();
    }
  }
  return curve;
}

std::vector<std::size_t> lane_jobs_per_group(
    std::span<const std::size_t> group_sizes, std::size_t scalar_jobs,
    std::size_t workers, std::size_t max_width) {
  const std::size_t fill = std::min(kMinLaneFill, max_width);
  std::vector<std::size_t> jobs(group_sizes.size(), 0);
  std::size_t total = scalar_jobs;
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    const std::size_t size = group_sizes[g];
    if (max_width < 2 || size < fill) {
      total += size;  // scalar: one job per measurement
      continue;
    }
    jobs[g] = (size + max_width - 1) / max_width;
    total += jobs[g];
  }
  // Narrow the widest jobs first while workers would sit idle, as long as
  // every job keeps at least `fill` lanes.
  while (total < workers) {
    std::size_t best = group_sizes.size();
    std::size_t best_width = 0;
    for (std::size_t g = 0; g < group_sizes.size(); ++g) {
      if (jobs[g] == 0 || group_sizes[g] / (jobs[g] + 1) < fill) continue;
      const std::size_t width = (group_sizes[g] + jobs[g] - 1) / jobs[g];
      if (width > best_width) {
        best = g;
        best_width = width;
      }
    }
    if (best == group_sizes.size()) break;
    ++jobs[best];
    ++total;
  }
  return jobs;
}

namespace {

/// Which lockstep kernel a measurement can join.
enum class LaneKind { kScalar, kOxidaseCa, kCypCv };

LaneKind lane_kind(const Measurement& m) {
  if (const auto* ca = std::get_if<ChronoamperometryProtocol>(&m.protocol)) {
    // Invalid protocols stay scalar, where the seeded entry point rejects
    // them with its own message.
    if (ca->duration > 0.0 && ca->sample_rate > 0.0 &&
        dynamic_cast<const bio::OxidaseProbe*>(m.channel.probe) != nullptr) {
      return LaneKind::kOxidaseCa;
    }
    return LaneKind::kScalar;
  }
  const auto& cv = std::get<CyclicVoltammetryProtocol>(m.protocol);
  if (cv.sample_rate > 0.0 &&
      dynamic_cast<const bio::CypProbe*>(m.channel.probe) != nullptr) {
    return LaneKind::kCypCv;
  }
  return LaneKind::kScalar;
}

/// True when two measurements of the same lane kind can step in lockstep:
/// one step loop and sampling clock (CA: same duration and sample rate; CV:
/// the identical sweep) over node-identical grids.
bool lane_compatible(LaneKind kind, const Measurement& a, const Measurement& b) {
  if (kind == LaneKind::kOxidaseCa) {
    const auto& pa = std::get<ChronoamperometryProtocol>(a.protocol);
    const auto& pb = std::get<ChronoamperometryProtocol>(b.protocol);
    return pa.duration == pb.duration && pa.sample_rate == pb.sample_rate &&
           bio::OxidaseLaneBatch::compatible(
               static_cast<const bio::OxidaseProbe&>(*a.channel.probe),
               static_cast<const bio::OxidaseProbe&>(*b.channel.probe));
  }
  const auto& pa = std::get<CyclicVoltammetryProtocol>(a.protocol);
  const auto& pb = std::get<CyclicVoltammetryProtocol>(b.protocol);
  return pa.e_start == pb.e_start && pa.e_vertex == pb.e_vertex &&
         pa.scan_rate == pb.scan_rate && pa.cycles == pb.cycles &&
         pa.sample_rate == pb.sample_rate &&
         bio::CypLaneBatch::compatible(
             static_cast<const bio::CypProbe&>(*a.channel.probe),
             static_cast<const bio::CypProbe&>(*b.channel.probe));
}

/// One job of a lane-batched run: a lockstep chunk, or one scalar
/// measurement.
struct LaneJob {
  LaneKind kind;
  std::vector<std::size_t> members;
};

}  // namespace

MeasurementResult MeasurementEngine::run_scalar(const Measurement& m) const {
  MeasurementResult result;
  if (const auto* ca = std::get_if<ChronoamperometryProtocol>(&m.protocol)) {
    result.amperogram =
        run_chronoamperometry_seeded(m.run_id, m.channel, *ca, *m.frontend);
  } else {
    result.voltammogram = run_cyclic_voltammetry_seeded(
        m.run_id, m.channel, std::get<CyclicVoltammetryProtocol>(m.protocol),
        *m.frontend);
  }
  return result;
}

void MeasurementEngine::run_ca_lanes(std::span<const Measurement> all,
                                     std::span<const std::size_t> group,
                                     const MeasurementSink& sink) const {
  const std::size_t w = group.size();

  // Per-lane preamble, mirroring run_chronoamperometry_seeded: sensor state
  // applied to the probe, fresh probe state, front-end drift configured.
  std::vector<bio::OxidaseProbe*> probes(w);
  std::vector<const fault::SensorState*> sensors(w);
  std::vector<double> potentials(w);
  std::vector<NoiseState> noise;
  noise.reserve(w);
  for (std::size_t l = 0; l < w; ++l) {
    const Measurement& m = all[group[l]];
    probes[l] = static_cast<bio::OxidaseProbe*>(m.channel.probe);
    sensors[l] = &m.channel.sensor;
    potentials[l] = std::get<ChronoamperometryProtocol>(m.protocol).potential;
    m.channel.probe->apply_sensor_state(m.channel.sensor);
    m.channel.probe->reset();
    m.frontend->set_drift(m.channel.sensor.afe_gain,
                          m.channel.sensor.afe_offset_A);
    noise.emplace_back(config_, *probes[l], m.run_id,
                       m.channel.sensor.storm_noise_mult);
  }
  bio::OxidaseLaneBatch batch(probes, sensors);
  afe::Potentiostat pstat(config_.potentiostat);

  // All lanes share duration and sample rate (compatibility), so one
  // sampling clock and one step count drive every lane.
  const auto& p0 = std::get<ChronoamperometryProtocol>(all[group[0]].protocol);
  std::vector<Trace> traces(w);
  for (Trace& trace : traces) {
    trace.reserve(
        static_cast<std::size_t>(std::ceil(p0.duration * p0.sample_rate)) + 1);
  }
  SamplingClock clock(p0.sample_rate);
  const double dt = config_.chem_dt;
  std::vector<double> i_prev(w, 0.0), e_applied(w), i_far(w);
  const auto n_steps = static_cast<std::size_t>(std::ceil(p0.duration / dt));
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    for (std::size_t l = 0; l < w; ++l) {
      e_applied[l] = pstat.applied_potential(potentials[l], i_prev[l],
                                             config_.cell_impedance) +
                     sensors[l]->reference_shift_V;
    }
    batch.step(e_applied, dt, i_far);
    for (std::size_t l = 0; l < w; ++l) i_prev[l] = i_far[l];

    if (clock.due(t + dt)) {
      for (std::size_t l = 0; l < w; ++l) {
        const double drift = noise[l].step_drift(clock.period);
        const double i_sig = i_far[l] + noise[l].signal_white() + drift +
                             sensors[l]->storm_current_A;
        const double i_blank = probes[l]->blank_current() +
                               probes[l]->blank_signal_fraction() *
                                   (i_far[l] - probes[l]->blank_current()) +
                               noise[l].blank_white() + drift +
                               sensors[l]->storm_current_A;
        traces[l].push(clock.next(),
                       all[group[l]].frontend->sample(i_sig, i_blank));
      }
      clock.advance();
    }
  }
  for (std::size_t l = 0; l < w; ++l) {
    MeasurementResult result;
    result.amperogram = std::move(traces[l]);
    sink(group[l], std::move(result));
  }
}

void MeasurementEngine::run_cv_lanes(std::span<const Measurement> all,
                                     std::span<const std::size_t> group,
                                     const MeasurementSink& sink) const {
  const std::size_t w = group.size();

  // Per-lane preamble, mirroring run_cyclic_voltammetry_seeded.
  std::vector<bio::CypProbe*> probes(w);
  std::vector<const fault::SensorState*> sensors(w);
  std::vector<NoiseState> noise;
  noise.reserve(w);
  for (std::size_t l = 0; l < w; ++l) {
    const Measurement& m = all[group[l]];
    probes[l] = static_cast<bio::CypProbe*>(m.channel.probe);
    sensors[l] = &m.channel.sensor;
    m.channel.probe->apply_sensor_state(m.channel.sensor);
    m.channel.probe->reset();
    m.frontend->set_drift(m.channel.sensor.afe_gain,
                          m.channel.sensor.afe_offset_A);
    noise.emplace_back(config_, *probes[l], m.run_id,
                       m.channel.sensor.storm_noise_mult);
  }
  bio::CypLaneBatch batch(probes, sensors);
  afe::Potentiostat pstat(config_.potentiostat);

  // Every lane runs the identical sweep (compatibility): one waveform, one
  // sampling clock, one step count.
  const auto& protocol =
      std::get<CyclicVoltammetryProtocol>(all[group[0]].protocol);
  const afe::TriangleWaveform wf(protocol.e_start, protocol.e_vertex,
                                 protocol.scan_rate, protocol.cycles);
  std::vector<CvCurve> curves(w);
  for (CvCurve& curve : curves) {
    curve.reserve(static_cast<std::size_t>(
                      std::ceil(wf.duration() * protocol.sample_rate)) +
                  1);
  }
  SamplingClock clock(protocol.sample_rate);
  const double dt = config_.chem_dt;
  std::vector<double> i_prev(w, 0.0), e_applied(w), i_true(w);
  const auto n_steps = static_cast<std::size_t>(std::ceil(wf.duration() / dt));
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    const double e_set = wf.value(t);
    for (std::size_t l = 0; l < w; ++l) {
      e_applied[l] =
          pstat.applied_potential(e_set, i_prev[l], config_.cell_impedance) +
          sensors[l]->reference_shift_V;
    }
    batch.step(e_applied, dt, i_true);
    for (std::size_t l = 0; l < w; ++l) {
      const chem::Electrode* electrode = all[group[l]].channel.electrode;
      if (config_.charging_current && electrode != nullptr) {
        i_true[l] += electrode->charging_current(
            protocol.scan_rate * static_cast<double>(wf.direction(t)));
      }
      i_prev[l] = i_true[l];
    }

    if (clock.due(t + dt)) {
      const double t_sample = clock.next();
      const double e_sample = wf.value(t_sample);
      for (std::size_t l = 0; l < w; ++l) {
        const double drift = noise[l].step_drift(clock.period);
        const double i_sig = i_true[l] + noise[l].signal_white() + drift +
                             sensors[l]->storm_current_A;
        const double i_blank = probes[l]->blank_current() +
                               probes[l]->blank_signal_fraction() *
                                   (i_true[l] - probes[l]->blank_current()) +
                               noise[l].blank_white() + drift +
                               sensors[l]->storm_current_A;
        curves[l].push(t_sample, e_sample,
                       all[group[l]].frontend->sample(i_sig, i_blank));
      }
      clock.advance();
    }
  }
  for (std::size_t l = 0; l < w; ++l) {
    MeasurementResult result;
    result.voltammogram = std::move(curves[l]);
    sink(group[l], std::move(result));
  }
}

void MeasurementEngine::run_measurements(
    std::span<const Measurement> measurements, std::size_t parallelism,
    const MeasurementSink& sink) const {
  for (const Measurement& m : measurements) {
    util::require(m.channel.probe != nullptr, "channel has no probe");
    util::require(m.frontend != nullptr, "measurement has no front end");
  }

  // Gather compatible measurements into lane groups, in first-appearance
  // order. Grouping is a pure function of the inputs, and lane membership
  // cannot leak into results (every measurement's randomness is seeded by
  // its own run id), so every grouping yields bitwise-identical results.
  const std::size_t max_width =
      config_.batch_lanes == 0 ? kMaxAutoLanes : config_.batch_lanes;
  std::vector<LaneJob> groups;
  std::vector<std::size_t> scalar;
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const LaneKind kind =
        max_width < 2 ? LaneKind::kScalar : lane_kind(measurements[i]);
    if (kind == LaneKind::kScalar) {
      scalar.push_back(i);
      continue;
    }
    const auto group = std::find_if(
        groups.begin(), groups.end(), [&](const LaneJob& g) {
          return g.kind == kind &&
                 lane_compatible(kind, measurements[g.members.front()],
                                 measurements[i]);
        });
    if (group == groups.end()) {
      groups.push_back({kind, {i}});
    } else {
      group->members.push_back(i);
    }
  }

  // Split each group into near-equal lockstep chunks per the lane-width
  // rule; lane jobs go first (they run longest), scalar ones after.
  const BatchRunner runner(parallelism);
  std::vector<std::size_t> sizes;
  sizes.reserve(groups.size());
  for (const LaneJob& g : groups) sizes.push_back(g.members.size());
  const std::vector<std::size_t> chunks =
      lane_jobs_per_group(sizes, scalar.size(), runner.parallelism(),
                          max_width);
  std::vector<LaneJob> jobs;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::vector<std::size_t>& members = groups[g].members;
    if (chunks[g] == 0) {
      scalar.insert(scalar.end(), members.begin(), members.end());
      continue;
    }
    const std::size_t base = members.size() / chunks[g];
    const std::size_t extra = members.size() % chunks[g];
    auto begin = members.begin();
    for (std::size_t c = 0; c < chunks[g]; ++c) {
      const auto end = begin + static_cast<std::ptrdiff_t>(
                                   base + (c < extra ? 1 : 0));
      jobs.push_back({end - begin == 1 ? LaneKind::kScalar : groups[g].kind,
                      std::vector<std::size_t>(begin, end)});
      begin = end;
    }
  }
  std::sort(scalar.begin(), scalar.end());
  for (const std::size_t i : scalar) jobs.push_back({LaneKind::kScalar, {i}});

  runner.run(jobs.size(), [&](std::size_t j) {
    const LaneJob& job = jobs[j];
    switch (job.kind) {
      case LaneKind::kScalar: {
        const std::size_t i = job.members.front();
        sink(i, run_scalar(measurements[i]));
        break;
      }
      case LaneKind::kOxidaseCa:
        run_ca_lanes(measurements, job.members, sink);
        break;
      case LaneKind::kCypCv:
        run_cv_lanes(measurements, job.members, sink);
        break;
    }
  });
}

PanelScanResult MeasurementEngine::run_panel(
    std::span<const Channel> channels,
    std::span<const ChannelProtocol> protocols,
    std::span<afe::AnalogFrontEnd* const> frontends, afe::AnalogMux& mux,
    std::size_t parallelism) {
  util::require(channels.size() == protocols.size(),
                "one protocol per channel required");
  util::require(channels.size() == frontends.size(),
                "one front end per channel required");
  util::require(channels.size() <= mux.spec().channels,
                "more channels than the mux supports");
  const std::size_t n = channels.size();

  // Schedule the scan up front: mux switch instants, channel start/stop
  // times and run ids are all fixed before any chemistry runs, so the
  // channel measurements are independent jobs.
  struct PanelSlot {
    double t_switch = 0.0;  ///< mux switch instant seen by the artifact model
    double t_start = 0.0;   ///< first chemistry step (after settling)
    double t_stop = 0.0;    ///< end of the channel's protocol
  };
  const std::uint64_t base_id = reserve_run_ids(n);
  std::vector<PanelSlot> slots(n);
  std::vector<Measurement> measurements(n);
  double t_global = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    mux.select(c, t_global);
    slots[c].t_switch = mux.last_switch();
    t_global += mux.spec().settle_time;
    slots[c].t_start = t_global;
    if (std::holds_alternative<ChronoamperometryProtocol>(protocols[c])) {
      t_global += std::get<ChronoamperometryProtocol>(protocols[c]).duration;
    } else {
      const auto& p = std::get<CyclicVoltammetryProtocol>(protocols[c]);
      const afe::TriangleWaveform wf(p.e_start, p.e_vertex, p.scan_rate,
                                     p.cycles);
      t_global += wf.duration();
    }
    slots[c].t_stop = t_global;
    measurements[c] = Measurement{base_id + c + 1, channels[c], protocols[c],
                                  frontends[c]};
  }

  PanelScanResult result;
  result.entries.resize(n);
  result.total_time = t_global;
  const double settle = mux.spec().settle_time;
  run_measurements(measurements, parallelism,
                   [&](std::size_t c, MeasurementResult&& raw) {
    PanelEntryResult& entry = result.entries[c];
    entry.probe_name = channels[c].probe->name();
    entry.technique = channels[c].probe->technique();
    entry.start_time = slots[c].t_start;
    entry.stop_time = slots[c].t_stop;
    // The charge-injection artifact decays from the switch instant; fold it
    // into the digitised samples while shifting the channel-local timeline
    // onto the global one -- in place, no copy of the record.
    const auto fold = [&](std::vector<double>& time,
                          std::vector<double>& value) {
      for (std::size_t i = 0; i < time.size(); ++i) {
        const double local_t = time[i];
        value[i] += mux.artifact_current(slots[c].t_start + local_t - settle,
                                         slots[c].t_switch);
        time[i] = slots[c].t_start + local_t;
      }
    };
    if (std::holds_alternative<ChronoamperometryProtocol>(protocols[c])) {
      fold(raw.amperogram.time_mut(), raw.amperogram.value_mut());
      entry.amperogram = std::move(raw.amperogram);
    } else {
      fold(raw.voltammogram.time_mut(), raw.voltammogram.current_mut());
      entry.voltammogram = std::move(raw.voltammogram);
    }
  });
  return result;
}

double protocol_duration(const ChannelProtocol& p) {
  if (std::holds_alternative<ChronoamperometryProtocol>(p)) {
    return std::get<ChronoamperometryProtocol>(p).duration;
  }
  const auto& cv = std::get<CyclicVoltammetryProtocol>(p);
  return 2.0 * std::fabs(cv.e_vertex - cv.e_start) / cv.scan_rate *
         static_cast<double>(cv.cycles);
}

}  // namespace idp::sim
