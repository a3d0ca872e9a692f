/// \file probe.hpp
/// The bio-electrical probe abstraction: a functionalised working electrode
/// that turns target concentration into faradaic current.
///
/// Two concrete families implement it, matching Section I-B of the paper:
///   * OxidaseProbe  -- enzyme membrane producing H2O2, read by
///                      chronoamperometry at a fixed potential;
///   * CypProbe      -- surface-confined cytochrome P450 film with direct
///                      electron transfer, read by cyclic voltammetry.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/sensor_state.hpp"

namespace idp::bio {

/// Electrochemical technique a probe is read with (Section I-B).
enum class Technique {
  kChronoamperometry,  ///< fixed potential, current vs time
  kCyclicVoltammetry,  ///< swept potential, current peaks vs potential
};

std::string to_string(Technique t);

/// A functionalised working electrode. Implementations own whatever internal
/// state they need (diffusion fields, surface coverages) and advance it in
/// lock-step with the measurement engine.
class Probe {
 public:
  virtual ~Probe() = default;

  /// Deep copy of the probe's whole state: calibrated kinetics, diffusion
  /// fields, bulk concentrations and applied sensor condition. The copy
  /// steps independently of the original and produces bit-identical
  /// traces to it from the same state.
  virtual std::unique_ptr<Probe> clone() const = 0;

  /// Descriptive name, e.g. "glucose oxidase / MWCNT".
  virtual const std::string& name() const = 0;

  /// Technique this probe is designed for.
  virtual Technique technique() const = 0;

  /// Geometric electrode area [m^2].
  virtual double area() const = 0;

  /// Target molecules this probe responds to (one, or two for dual-target
  /// CYP films such as CYP2B4 benzphetamine+aminopyrine).
  virtual std::vector<std::string> targets() const = 0;

  /// Set the bulk concentration of one target [mol/m^3]. Unknown target
  /// names throw std::invalid_argument.
  virtual void set_bulk_concentration(const std::string& target, double c) = 0;

  /// Advance the probe physics by dt [s] with the working electrode at
  /// potential e [V vs Ag/AgCl]; returns faradaic current [A], anodic
  /// positive (so CYP reduction peaks are negative).
  virtual double step(double e, double dt) = 0;

  /// Return to the initial (equilibrated, pre-injection) state.
  virtual void reset() = 0;

  /// Constant background (blank) faradaic current [A] -- the paper's Vb term
  /// in the LOD definition (Eq. 5) before noise.
  virtual double blank_current() const = 0;

  /// Intrinsic sensor noise RMS [A] (electrochemical blank fluctuations);
  /// the AFE adds its own electronic noise on top.
  virtual double blank_noise_rms() const = 0;

  /// Fraction of the faradaic *signal* that an enzyme-free blank working
  /// electrode in the same solution would also collect. Zero for enzymatic
  /// probes (the blank sees only background), close to one for directly
  /// electroactive targets -- which is precisely why Section II-C says the
  /// extra blank WE "is not helpful" for dopamine and etoposide: correlated
  /// double sampling would subtract the signal itself.
  virtual double blank_signal_fraction() const { return 0.0; }

  /// Apply a time-varying sensor condition (fault/degradation subsystem).
  /// The measurement engine calls this at scan start with the channel's
  /// SensorState; probes that model aging consult the enzyme-activity and
  /// membrane-transmission fields. The condition is orthogonal to reset():
  /// it persists until the next apply call. Default: ignore (pristine
  /// behaviour for probes without a degradation model).
  virtual void apply_sensor_state(const fault::SensorState& state) {
    (void)state;
  }
};

using ProbePtr = std::unique_ptr<Probe>;

}  // namespace idp::bio
