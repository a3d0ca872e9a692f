/// \file engine.hpp
/// The measurement engine: co-simulates the electrochemical probe physics
/// (millisecond steps) with the acquisition chain of Fig. 2 (potentiostat
/// regulation, multiplexing, TIA + ADC sampling, noise).
///
/// Time-scale separation: electrode electronics settle in microseconds while
/// the chemistry evolves over seconds, so the engine treats the potentiostat
/// and TIA quasi-statically and reserves the microsecond-resolution loop
/// simulation for the dedicated Fig. 1 bench (Potentiostat::step_response).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "afe/frontend.hpp"
#include "afe/mux.hpp"
#include "afe/potentiostat.hpp"
#include "bio/probe.hpp"
#include "chem/cell.hpp"
#include "chem/electrode.hpp"
#include "fault/sensor_state.hpp"
#include "sim/protocol.hpp"
#include "sim/trace.hpp"

namespace idp::sim {

/// One working electrode hooked to the engine: the probe physics plus the
/// (optional) physical electrode used for capacitive background and the
/// sensor's current degradation state (fault subsystem). The default state
/// is the identity -- a pristine sensor -- and leaves every measurement
/// bitwise unchanged.
struct Channel {
  bio::Probe* probe = nullptr;             ///< non-owning, required
  const chem::Electrode* electrode = nullptr;  ///< optional: adds i_dl on sweeps
  fault::SensorState sensor{};             ///< condition consulted at scan time
};

/// Result of a multiplexed panel scan (Fig. 4 usage).
struct PanelEntryResult {
  std::string probe_name;
  bio::Technique technique;
  Trace amperogram;   ///< filled for chronoamperometry channels
  CvCurve voltammogram;  ///< filled for CV channels
  double start_time = 0.0;
  double stop_time = 0.0;
};

struct PanelScanResult {
  std::vector<PanelEntryResult> entries;
  double total_time = 0.0;  ///< wall-clock of the whole scan incl. settling
};

/// One independent measurement of a lane-batched run: what the `_seeded`
/// entry points take, as data.
struct Measurement {
  std::uint64_t run_id = 0;     ///< seeds the measurement's noise
  Channel channel;
  ChannelProtocol protocol;
  afe::AnalogFrontEnd* frontend = nullptr;  ///< non-owning, required
};

/// What one measurement recorded: the amperogram of a chronoamperometry or
/// the voltammogram of a sweep (the other stays empty).
struct MeasurementResult {
  Trace amperogram;
  CvCurve voltammogram;
};

/// One calibration campaign's measurements: Eq. 5 blank repeats, then a
/// concentration sweep of one target, all through one shared front end.
struct Campaign {
  /// Cloned once per run (never stepped itself); every other target keeps
  /// the concentration set on it.
  const bio::Probe* prototype = nullptr;
  std::string target;                  ///< the swept target
  std::size_t blanks = 0;              ///< zero-concentration runs, first
  std::span<const double> concentrations;  ///< one run each, after the blanks
  const chem::Electrode* electrode = nullptr;  ///< optional: i_dl on sweeps
  fault::SensorState sensor{};
  ChannelProtocol protocol;
  afe::AnalogFrontEnd* frontend = nullptr;  ///< non-owning, shared by every run
  /// Run r (0-based) uses run id first_run_id + r + 1.
  std::uint64_t first_run_id = 0;
};

/// Receives measurement `index`'s result on the worker thread that ran it.
using MeasurementSink =
    std::function<void(std::size_t index, MeasurementResult&& result)>;

/// The lane-width rule of every lane-batched run. Group i holds
/// group_sizes[i] mutually compatible measurements; `scalar_jobs` other
/// measurements run alone. Returns, per group, the number of lockstep jobs
/// it splits into (near-equal consecutive chunks), or 0 when it runs
/// scalar. Groups start at `max_width` lanes a job and split further only
/// while there are fewer jobs than `workers`, never below min(4,
/// max_width) lanes a job; a group that cannot fill that many lanes runs
/// scalar, and so does everything when max_width < 2.
/// Lockstep lanes cut the cost per measurement (one SoA solve for W
/// systems) but serialise W measurements onto one worker: wide lanes win
/// only while they still leave every worker a job.
std::vector<std::size_t> lane_jobs_per_group(
    std::span<const std::size_t> group_sizes, std::size_t scalar_jobs,
    std::size_t workers, std::size_t max_width);

/// Measurement engine configuration.
struct EngineConfig {
  double chem_dt = 5.0e-3;     ///< physics step [s]
  std::uint64_t seed = 1234;   ///< sensor-noise seed
  bool sensor_noise = true;    ///< add electrochemical blank noise
  bool charging_current = true;  ///< add C_dl * dE/dt on sweeps
  /// Shared-solution drift: Ornstein-Uhlenbeck process whose RMS is
  /// drift_scale times the probe's blank noise, correlated with time
  /// constant drift_tau. The same realisation is seen by every channel in
  /// the chamber (which is what CDS exploits). The default 1.0 makes the
  /// blank-to-blank spread track the probe's designed sigma_b, landing the
  /// Eq. 5 LODs near their Table III values.
  double drift_scale = 1.0;
  double drift_tau = 60.0;     ///< [s]
  /// Widest lockstep job of the batched SoA kernels: compatible
  /// measurements -- chronoamperometry on oxidase or direct probes with
  /// node-identical grids and the same duration and sample rate, or cyclic
  /// voltammetry on CYP probes with node-identical grids and an identical
  /// protocol -- are gathered in jobs of up to this many measurements and
  /// stepped through one structure-of-arrays tridiagonal solve (see
  /// lane_jobs_per_group).
  /// 0 = automatic (up to 8); 1 disables cross-measurement batching (the
  /// scalar path). Results are bitwise identical at every width -- the
  /// kernel-equivalence property tests and the `simd` and `cyp`
  /// determinism-sweep workloads pin this.
  std::size_t batch_lanes = 0;
  afe::PotentiostatSpec potentiostat;
  chem::CellImpedance cell_impedance;
};

/// Executes protocols against channels through an analog front end.
///
/// One measurement loop: every run -- a single `_seeded` measurement or a
/// lane group of run_measurements -- is one lockstep loop over W lanes
/// that share a timeline, generic over a lane kernel with
/// `step(span<const double> e, double dt, span<double> i_out)`. Four
/// kernels exist: bio::OxidaseLaneBatch (CA on oxidase probes),
/// bio::DirectLaneBatch (CA on direct-oxidation probes), bio::CypLaneBatch
/// (CV on CYP films) and a fallback that calls each lane's Probe::step
/// (every measurement at width 1, and any no batched kernel takes).
/// The loop steps physics first -- per-lane setpoint, reference shift,
/// charging current on sweeps, potentiostat load, drift and white noise --
/// and records each lane's raw signal and blank currents; only then does
/// each lane's front end digitise its samples, in run order. Nothing the
/// front end does feeds back into the physics (the potentiostat regulates
/// on the faradaic current), so the split is bit-exact.
///
/// Concurrency model: every measurement derives its noise realisation from
/// an explicit *run id* (seed = config.seed + run_id * stride). The
/// convenience overloads draw ids from an internal counter -- the legacy
/// sequential behaviour -- while the `_seeded` variants take the id from the
/// caller and are `const`, so independent measurements (distinct probes and
/// front ends) can execute concurrently on one engine; run_measurements
/// enforces that contract. `reserve_run_ids` hands out a contiguous id
/// block up front, which keeps batched results bitwise identical to
/// sequential execution at any parallelism.
class MeasurementEngine {
 public:
  explicit MeasurementEngine(EngineConfig config = EngineConfig{});

  /// Fixed-potential measurement with optional timed injections.
  /// The returned trace holds digitised current estimates at the ADC rate.
  Trace run_chronoamperometry(Channel channel,
                              const ChronoamperometryProtocol& protocol,
                              afe::AnalogFrontEnd& fe,
                              std::span<const InjectionEvent> injections = {});

  /// Potential-sweep measurement; the curve records the *programmed*
  /// potential (what the instrument reports) against digitised current.
  CvCurve run_cyclic_voltammetry(Channel channel,
                                 const CyclicVoltammetryProtocol& protocol,
                                 afe::AnalogFrontEnd& fe);

  /// Explicit-run-id variants (thread-safe w.r.t. the engine: channel,
  /// probe and front end still belong exclusively to the caller).
  Trace run_chronoamperometry_seeded(
      std::uint64_t run_id, Channel channel,
      const ChronoamperometryProtocol& protocol, afe::AnalogFrontEnd& fe,
      std::span<const InjectionEvent> injections = {}) const;
  CvCurve run_cyclic_voltammetry_seeded(
      std::uint64_t run_id, Channel channel,
      const CyclicVoltammetryProtocol& protocol,
      afe::AnalogFrontEnd& fe) const;

  /// One measurement under either protocol: the `_seeded` entry point its
  /// protocol names, with the result in the matching field.
  MeasurementResult run(const Measurement& m) const;

  /// Run independent measurements over `parallelism` workers (0 =
  /// hardware). Compatible measurements form one lane group and share
  /// lockstep jobs of the OxidaseLaneBatch, DirectLaneBatch or CypLaneBatch
  /// kernel (see EngineConfig::batch_lanes and lane_jobs_per_group); every
  /// other measurement is its own job at width 1 on the Probe::step
  /// fallback. Those stay width 1 on purpose: the fallback steps each
  /// lane's probe on its own, so a wider job would save no solver work and
  /// only serialise independent measurements onto one worker. Each result
  /// is bitwise identical to run() with the same measurement, whatever the
  /// lane width, lane order or parallelism; `sink` receives it as soon as
  /// its job finishes. If measurements throw, the error of the
  /// lowest-numbered failing job is rethrown after every job finished.
  ///
  /// Sharing contract (violations throw util::Error before anything
  /// runs): no probe may serve two measurements. A front end may serve
  /// several only at parallelism 1 and within one lane group (the
  /// measurements no kernel batches count as one group). Those
  /// measurements are then digitised in index order -- jobs run inline in
  /// order, a group's jobs are consecutive chunks of it, and each job
  /// digitises its lanes in order -- so the shared front end's noise
  /// stream and drift advance exactly as in one run() after another.
  /// Campaigns rely on this.
  void run_measurements(std::span<const Measurement> measurements,
                        std::size_t parallelism,
                        const MeasurementSink& sink) const;

  /// Run a calibration campaign as one lane group at parallelism 1: one
  /// prototype clone per run at that run's concentration, run ids
  /// first_run_id + 1, + 2, ..., and the shared front end digitising in run
  /// order. Results come back in run order (blanks first), bitwise identical
  /// to one run() per run id on one probe and that front end.
  std::vector<MeasurementResult> run_campaign(const Campaign& campaign) const;

  /// Reserve `n` consecutive run ids; returns the pre-reservation counter
  /// value, so the reserved ids are base+1 .. base+n -- exactly what the
  /// counter-based overloads would have consumed sequentially.
  std::uint64_t reserve_run_ids(std::size_t n);

  /// Activate every channel through a shared mux (the Fig. 4 five-electrode
  /// platform). Channels run their own protocol through their own front end
  /// (oxidase- and CYP-grade readouts coexist on one platform); mux settling
  /// time is inserted between channels and the charge-injection artifact
  /// corrupts the first samples after each switch. The scan timeline and all
  /// run ids are scheduled up front, so the channel measurements are
  /// independent: they go through run_measurements (lockstep lanes where
  /// compatible, `parallelism` workers, 0 = hardware) and the scan is
  /// bitwise identical to the sequential one at any parallelism and lane
  /// width.
  PanelScanResult run_panel(std::span<const Channel> channels,
                            std::span<const ChannelProtocol> protocols,
                            std::span<afe::AnalogFrontEnd* const> frontends,
                            afe::AnalogMux& mux, std::size_t parallelism = 1);

  const EngineConfig& config() const { return config_; }

 private:
  EngineConfig config_;
  std::uint64_t run_counter_ = 0;
};

}  // namespace idp::sim
