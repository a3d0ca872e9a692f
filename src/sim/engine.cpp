/// \file engine.cpp
/// Measurement engine implementation: co-simulates probe electrochemistry
/// at millisecond steps with the Fig. 2 acquisition chain (potentiostat,
/// mux, TIA + ADC, noise).

#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "afe/waveform.hpp"
#include "bio/cyp_batch.hpp"
#include "bio/cyp_probe.hpp"
#include "bio/direct_batch.hpp"
#include "bio/direct_probe.hpp"
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

/// Per-run noise generators: independent white noise for the signal and
/// blank paths plus one *shared* drift process (same chamber, same solution)
/// that correlated double sampling can cancel.
struct NoiseState {
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

double sample_rate_of(const ChannelProtocol& p) {
  return std::visit([](const auto& q) { return q.sample_rate; }, p);
}

/// The fallback lane kernel: every lane steps its own probe through
/// Probe::step (every measurement at width 1, and any no batched kernel
/// takes).
/// It also applies a run's timed injections, to every lane, at the first
/// step starting at or after their time.
class ProbeLanes {
 public:
  ProbeLanes(std::vector<bio::Probe*> probes,
             std::span<const InjectionEvent> injections)
      : probes_(std::move(probes)),
        pending_(injections.begin(), injections.end()) {
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const auto& a, const auto& b) { return a.time < b.time; });
  }

  void step(std::span<const double> e, double dt, std::span<double> i_out) {
    const double t = static_cast<double>(steps_++) * dt;
    for (; next_ < pending_.size() && pending_[next_].time <= t; ++next_) {
      for (bio::Probe* probe : probes_) {
        probe->set_bulk_concentration(pending_[next_].target,
                                      pending_[next_].concentration);
      }
    }
    for (std::size_t l = 0; l < probes_.size(); ++l) {
      i_out[l] = probes_[l]->step(e[l], dt);
    }
  }

 private:
  std::vector<bio::Probe*> probes_;
  std::vector<InjectionEvent> pending_;
  std::size_t next_ = 0;
  std::size_t steps_ = 0;
};

/// One lockstep run of measurements that share a timeline (CA: duration
/// and sample rate; CV: the identical sweep): the engine's one measurement
/// loop. The constructor is the per-lane preamble, simulate() steps the
/// physics through a lane kernel and records each lane's raw samples, and
/// digitise() feeds them through each lane's front end afterwards. The
/// split is bit-exact because nothing the front end does feeds back into
/// the physics: the potentiostat regulates on the faradaic current.
class LaneRun {
 public:
  LaneRun(const EngineConfig& config, std::span<const Measurement> all,
          std::span<const std::size_t> group)
      : config_(config), all_(all), group_(group) {
    for (const std::size_t i : group) {
      const Measurement& m = all[i];
      util::require(m.channel.probe != nullptr, "channel has no probe");
      const auto* ca = std::get_if<ChronoamperometryProtocol>(&m.protocol);
      util::require(sample_rate_of(m.protocol) > 0.0 &&
                        (ca == nullptr || ca->duration > 0.0),
                    "invalid protocol");
      bio::Probe& probe = *m.channel.probe;
      const fault::SensorState& sensor = m.channel.sensor;
      probe.apply_sensor_state(sensor);
      probe.reset();
      noise_.emplace_back(config, probe, m.run_id, sensor.storm_noise_mult);
      probes_.push_back(&probe);
      sensors_.push_back(&sensor);
      blank_current_.push_back(probe.blank_current());
      blank_fraction_.push_back(probe.blank_signal_fraction());
      setpoint_.push_back(ca != nullptr ? ca->potential : 0.0);
    }
    const ChannelProtocol& first = all[group[0]].protocol;
    duration_ = protocol_duration(first);
    sample_rate_ = sample_rate_of(first);
    if (const auto* cv = std::get_if<CyclicVoltammetryProtocol>(&first)) {
      sweep_.emplace(cv->e_start, cv->e_vertex, cv->scan_rate, cv->cycles);
    }
  }

  /// The lane probes, as the kernel's probe type.
  template <class P>
  std::vector<P*> probes() const {
    std::vector<P*> typed;
    for (bio::Probe* p : probes_) typed.push_back(static_cast<P*>(p));
    return typed;
  }
  std::span<const fault::SensorState* const> sensors() const { return sensors_; }

  /// Step every lane's physics through `kernel` (any type with
  /// step(span<const double> e, double dt, span<double> i_out)), recording
  /// per sampling instant the time, the programmed potential (sweeps) and
  /// each lane's noisy signal and blank currents.
  template <class Kernel>
  void simulate(Kernel&& kernel) {
    const std::size_t w = probes_.size();
    const auto n_samples =
        static_cast<std::size_t>(std::ceil(duration_ * sample_rate_)) + 1;
    t_.reserve(n_samples);
    e_.reserve(sweep_ ? n_samples : 0);
    i_sig_.reserve(n_samples * w);
    i_blank_.reserve(n_samples * w);
    const afe::Potentiostat pstat(config_.potentiostat);
    SamplingClock clock(sample_rate_);
    const double dt = config_.chem_dt;
    // i[l] is lane l's faradaic current (plus charging current on sweeps):
    // the kernel's output, and the next step's potentiostat load.
    std::vector<double> e_applied(w), i(w, 0.0);
    const auto n_steps = static_cast<std::size_t>(std::ceil(duration_ / dt));
    for (std::size_t k = 0; k < n_steps; ++k) {
      const double t = static_cast<double>(k) * dt;
      if (sweep_) std::fill(setpoint_.begin(), setpoint_.end(), sweep_->value(t));
      // Reference-electrode drift: the interface sees a shifted potential
      // while the instrument still believes (and records) the setpoint.
      for (std::size_t l = 0; l < w; ++l) {
        e_applied[l] = pstat.applied_potential(setpoint_[l], i[l],
                                               config_.cell_impedance) +
                       sensors_[l]->reference_shift_V;
      }
      kernel.step(e_applied, dt, i);
      if (sweep_ && config_.charging_current) {
        for (std::size_t l = 0; l < w; ++l) {
          const chem::Electrode* electrode = all_[group_[l]].channel.electrode;
          if (electrode != nullptr) {
            i[l] += electrode->charging_current(
                sweep_->scan_rate() * static_cast<double>(sweep_->direction(t)));
          }
        }
      }

      if (clock.due(t + dt)) {
        t_.push_back(clock.next());
        if (sweep_) e_.push_back(sweep_->value(clock.next()));
        for (std::size_t l = 0; l < w; ++l) {
          const double drift = noise_[l].step_drift(clock.period);
          const double storm = sensors_[l]->storm_current_A;
          i_sig_.push_back(i[l] + noise_[l].signal_white() + drift + storm);
          // The blank electrode shares solution drift; for directly
          // electroactive targets it also collects part of the signal
          // itself (the Section II-C caveat on CDS). Interference storms
          // are solution-borne, so both electrodes collect them (which is
          // exactly what CDS can exploit).
          i_blank_.push_back(blank_current_[l] +
                             blank_fraction_[l] * (i[l] - blank_current_[l]) +
                             noise_[l].blank_white() + drift + storm);
        }
        clock.advance();
      }
    }
  }

  /// Digitise each lane's raw samples through its own front end, in run
  /// order: lane l's result is the amperogram (CA) or voltammogram (CV).
  /// Each lane's front-end drift is set just before that lane is digitised,
  /// so lanes sharing one front end (a campaign's) each read through their
  /// own sensor state, exactly as one run after another would.
  std::vector<MeasurementResult> digitise() const {
    const std::size_t w = probes_.size();
    std::vector<MeasurementResult> results(w);
    for (std::size_t l = 0; l < w; ++l) {
      afe::AnalogFrontEnd& fe = *all_[group_[l]].frontend;
      fe.set_drift(sensors_[l]->afe_gain, sensors_[l]->afe_offset_A);
      MeasurementResult& r = results[l];
      r.amperogram.reserve(sweep_ ? 0 : t_.size());
      r.voltammogram.reserve(sweep_ ? t_.size() : 0);
      for (std::size_t s = 0; s < t_.size(); ++s) {
        const double value = fe.sample(i_sig_[s * w + l], i_blank_[s * w + l]);
        if (sweep_) {
          r.voltammogram.push(t_[s], e_[s], value);
        } else {
          r.amperogram.push(t_[s], value);
        }
      }
    }
    return results;
  }

 private:
  const EngineConfig& config_;
  std::span<const Measurement> all_;
  std::span<const std::size_t> group_;
  std::vector<bio::Probe*> probes_;
  std::vector<const fault::SensorState*> sensors_;
  std::vector<NoiseState> noise_;
  std::vector<double> blank_current_, blank_fraction_;
  std::vector<double> setpoint_;  ///< CA: each lane's potential; CV: the sweep
  std::optional<afe::TriangleWaveform> sweep_;  ///< CV only
  double duration_ = 0.0;
  double sample_rate_ = 0.0;
  // Raw samples: shared instants and programmed potentials, lane currents
  // sample-major ([s * w + l]).
  std::vector<double> t_, e_, i_sig_, i_blank_;
};

/// One measurement through the ProbeLanes kernel at width 1.
MeasurementResult run_probe(const EngineConfig& config, const Measurement& m,
                            std::span<const InjectionEvent> injections) {
  const std::size_t index = 0;
  LaneRun lanes(config, {&m, 1}, {&index, 1});
  lanes.simulate(ProbeLanes(lanes.probes<bio::Probe>(), injections));
  return std::move(lanes.digitise().front());
}

}  // namespace

MeasurementEngine::MeasurementEngine(EngineConfig config) : config_(config) {
  util::require(config_.chem_dt > 0.0, "chem_dt must be positive");
  util::require(config_.drift_scale >= 0.0, "drift_scale must be >= 0");
  util::require(config_.drift_tau > 0.0, "drift_tau must be positive");
}

std::uint64_t MeasurementEngine::reserve_run_ids(std::size_t n) {
  const std::uint64_t base = run_counter_;
  run_counter_ += n;
  return base;
}

MeasurementResult MeasurementEngine::run(const Measurement& m) const {
  return run_probe(config_, m, {});
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
  return run_probe(config_, Measurement{run_id, channel, protocol, &fe},
                   injections)
      .amperogram;
}

CvCurve MeasurementEngine::run_cyclic_voltammetry(
    Channel channel, const CyclicVoltammetryProtocol& protocol,
    afe::AnalogFrontEnd& fe) {
  return run_cyclic_voltammetry_seeded(++run_counter_, channel, protocol, fe);
}

CvCurve MeasurementEngine::run_cyclic_voltammetry_seeded(
    std::uint64_t run_id, Channel channel,
    const CyclicVoltammetryProtocol& protocol, afe::AnalogFrontEnd& fe) const {
  return run(Measurement{run_id, channel, protocol, &fe}).voltammogram;
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

/// Which lane kernel a measurement runs on: kScalar runs alone on
/// ProbeLanes, the others join lockstep jobs of their batched kernel.
enum class LaneKind { kScalar, kOxidaseCa, kDirectCa, kCypCv };

LaneKind lane_kind(const Measurement& m) {
  const bio::Probe* probe = m.channel.probe;
  if (const auto* ca = std::get_if<ChronoamperometryProtocol>(&m.protocol)) {
    // Invalid protocols stay scalar, where the seeded entry point rejects
    // them with its own message.
    if (ca->duration <= 0.0 || ca->sample_rate <= 0.0) return LaneKind::kScalar;
    if (dynamic_cast<const bio::OxidaseProbe*>(probe) != nullptr) {
      return LaneKind::kOxidaseCa;
    }
    if (dynamic_cast<const bio::DirectProbe*>(probe) != nullptr) {
      return LaneKind::kDirectCa;
    }
    return LaneKind::kScalar;
  }
  const auto& cv = std::get<CyclicVoltammetryProtocol>(m.protocol);
  if (cv.sample_rate > 0.0 &&
      dynamic_cast<const bio::CypProbe*>(probe) != nullptr) {
    return LaneKind::kCypCv;
  }
  return LaneKind::kScalar;
}

/// True when two measurements share one step loop and sampling clock -- CA:
/// same duration and sample rate; CV: the identical sweep.
bool same_timeline(const Measurement& a, const Measurement& b) {
  if (const auto* pa = std::get_if<ChronoamperometryProtocol>(&a.protocol)) {
    const auto* pb = std::get_if<ChronoamperometryProtocol>(&b.protocol);
    return pb != nullptr && pa->duration == pb->duration &&
           pa->sample_rate == pb->sample_rate;
  }
  const auto& pa = std::get<CyclicVoltammetryProtocol>(a.protocol);
  const auto* pb = std::get_if<CyclicVoltammetryProtocol>(&b.protocol);
  return pb != nullptr && pa.e_start == pb->e_start &&
         pa.e_vertex == pb->e_vertex && pa.scan_rate == pb->scan_rate &&
         pa.cycles == pb->cycles && pa.sample_rate == pb->sample_rate;
}

/// The kernel's own compatibility rule (node-identical grids) for two
/// probes of its type.
template <class Kernel, class P>
bool kernel_compatible(const Measurement& a, const Measurement& b) {
  return Kernel::compatible(static_cast<const P&>(*a.channel.probe),
                            static_cast<const P&>(*b.channel.probe));
}

/// True when two measurements of the same lane kind can step in lockstep:
/// one timeline over node-identical grids.
bool lane_compatible(LaneKind kind, const Measurement& a, const Measurement& b) {
  if (!same_timeline(a, b)) return false;
  switch (kind) {
    case LaneKind::kOxidaseCa:
      return kernel_compatible<bio::OxidaseLaneBatch, bio::OxidaseProbe>(a, b);
    case LaneKind::kDirectCa:
      return kernel_compatible<bio::DirectLaneBatch, bio::DirectProbe>(a, b);
    case LaneKind::kCypCv:
      return kernel_compatible<bio::CypLaneBatch, bio::CypProbe>(a, b);
    case LaneKind::kScalar:
      break;
  }
  return false;
}

/// The sharing contract of run_measurements. A probe holds one
/// measurement's physics state, so no two measurements may share one. A
/// front end carries a noise stream every sample advances, so measurements
/// may share one only where the engine digitises them in index order: at
/// parallelism 1 and within one lane group (`group_of[i]`, the measurements
/// no kernel batches counting as one group).
void check_sharing(std::span<const Measurement> measurements,
                   std::span<const std::size_t> group_of,
                   std::size_t parallelism) {
  std::vector<std::pair<const void*, std::size_t>> probes, frontends;
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    probes.emplace_back(measurements[i].channel.probe, i);
    frontends.emplace_back(measurements[i].frontend, i);
  }
  std::sort(probes.begin(), probes.end());
  std::sort(frontends.begin(), frontends.end());
  // Messages are built only on failure: this runs before every batch.
  const auto fail = [](const char* what, std::size_t a, std::size_t b) {
    util::ensure(false, std::string(what) + " (measurements " +
                            std::to_string(a) + " and " + std::to_string(b) +
                            ")");
  };
  for (std::size_t k = 1; k < probes.size(); ++k) {
    if (probes[k].first == probes[k - 1].first) {
      fail("probe shared by two measurements", probes[k - 1].second,
           probes[k].second);
    }
  }
  for (std::size_t k = 1; k < frontends.size(); ++k) {
    if (frontends[k].first != frontends[k - 1].first) continue;
    const std::size_t a = frontends[k - 1].second;
    const std::size_t b = frontends[k].second;
    if (parallelism != 1) fail("front end shared at parallelism != 1", a, b);
    if (group_of[a] != group_of[b]) {
      fail("front end shared across lane groups", a, b);
    }
  }
}

/// One job of a lane-batched run: a lockstep chunk, or one scalar
/// measurement.
struct LaneJob {
  LaneKind kind;
  std::vector<std::size_t> members;
};

}  // namespace

void MeasurementEngine::run_measurements(
    std::span<const Measurement> measurements, std::size_t parallelism,
    const MeasurementSink& sink) const {
  for (const Measurement& m : measurements) {
    util::require(m.channel.probe != nullptr, "channel has no probe");
    util::require(m.frontend != nullptr, "measurement has no front end");
  }

  // Gather compatible measurements into lane groups, in first-appearance
  // order. Grouping is a pure function of the inputs (the lane width only
  // decides how groups split into jobs), and lane membership cannot leak
  // into results (every measurement's randomness is seeded by its own run
  // id), so every grouping yields bitwise-identical results.
  const std::size_t max_width =
      config_.batch_lanes == 0 ? kMaxAutoLanes : config_.batch_lanes;
  std::vector<LaneJob> groups;
  std::vector<std::size_t> scalar;
  std::vector<std::size_t> group_of(measurements.size());
  for (std::size_t i = 0; i < measurements.size(); ++i) {
    const LaneKind kind = lane_kind(measurements[i]);
    if (kind == LaneKind::kScalar) {
      scalar.push_back(i);
      group_of[i] = measurements.size();  // beyond every group index
      continue;
    }
    const auto group = std::find_if(
        groups.begin(), groups.end(), [&](const LaneJob& g) {
          return g.kind == kind &&
                 lane_compatible(kind, measurements[g.members.front()],
                                 measurements[i]);
        });
    group_of[i] = static_cast<std::size_t>(group - groups.begin());
    if (group == groups.end()) {
      groups.push_back({kind, {i}});
    } else {
      group->members.push_back(i);
    }
  }
  check_sharing(measurements, group_of, parallelism);

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
    LaneRun lanes(config_, measurements, job.members);
    switch (job.kind) {
      case LaneKind::kScalar:
        lanes.simulate(ProbeLanes(lanes.probes<bio::Probe>(), {}));
        break;
      case LaneKind::kOxidaseCa:
        lanes.simulate(bio::OxidaseLaneBatch(
            lanes.probes<bio::OxidaseProbe>(), lanes.sensors()));
        break;
      case LaneKind::kDirectCa:
        lanes.simulate(bio::DirectLaneBatch(lanes.probes<bio::DirectProbe>()));
        break;
      case LaneKind::kCypCv:
        lanes.simulate(bio::CypLaneBatch(lanes.probes<bio::CypProbe>(),
                                         lanes.sensors()));
        break;
    }
    std::vector<MeasurementResult> results = lanes.digitise();
    for (std::size_t l = 0; l < results.size(); ++l) {
      sink(job.members[l], std::move(results[l]));
    }
  });
}

std::vector<MeasurementResult> MeasurementEngine::run_campaign(
    const Campaign& campaign) const {
  util::require(campaign.prototype != nullptr, "campaign has no probe");
  const std::size_t n = campaign.blanks + campaign.concentrations.size();
  std::vector<bio::ProbePtr> probes;
  std::vector<Measurement> measurements;
  probes.reserve(n);
  measurements.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t b = campaign.blanks;
    probes.push_back(campaign.prototype->clone());
    probes.back()->set_bulk_concentration(
        campaign.target, r < b ? 0.0 : campaign.concentrations[r - b]);
    measurements.push_back(Measurement{
        campaign.first_run_id + r + 1,
        Channel{probes.back().get(), campaign.electrode, campaign.sensor},
        campaign.protocol, campaign.frontend});
  }
  std::vector<MeasurementResult> results(n);
  run_measurements(measurements, 1,
                   [&](std::size_t r, MeasurementResult&& result) {
                     results[r] = std::move(result);
                   });
  return results;
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
    t_global += protocol_duration(protocols[c]);
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
