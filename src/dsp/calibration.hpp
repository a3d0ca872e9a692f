/// \file calibration.hpp
/// Calibration-curve metrology implementing the paper's definitions:
///   * Eq. 5: LOD = Vb + 3 sigma_b (ACS rule, < 7% false-positive risk);
///   * Eq. 6: average sensitivity Savg = dV / dC over the measured range;
///   * Eq. 7: maximum non-linearity NLmax = max |V_C - V_C0 - Savg (C-C0)|;
/// plus regression-based sensitivity and automatic linear-range detection.
#pragma once

#include <cstddef>
#include <vector>

#include "util/stats.hpp"

namespace idp::dsp {

/// Contiguous concentration window over which the response is linear.
struct LinearRange {
  bool found = false;
  double c_low = 0.0;      ///< [mol/m^3]
  double c_high = 0.0;     ///< [mol/m^3]
  std::size_t first = 0;   ///< index of first point in the window
  std::size_t last = 0;    ///< index of last point (inclusive)
  util::LinearFit fit;     ///< fit over the window
};

/// Calibration data set: response vs concentration plus repeated blanks.
class CalibrationCurve {
 public:
  /// Add a (concentration [mol/m^3], response) pair. Points may arrive in
  /// any order; they are kept sorted by concentration.
  void add_point(double concentration, double response);

  /// Add one blank (zero-concentration) measurement.
  void add_blank(double response);

  std::size_t point_count() const { return c_.size(); }
  std::size_t blank_count() const { return blanks_.size(); }
  /// Number of *distinct* concentration values among the points (replicate
  /// measurements at one concentration count once). Fitting needs >= 2,
  /// linear-range certification >= 3.
  std::size_t distinct_concentration_count() const;
  const std::vector<double>& concentrations() const { return c_; }
  const std::vector<double>& responses() const { return v_; }
  /// Blank responses in the order they were added.
  const std::vector<double>& blanks() const { return blanks_; }

  /// Mean of the blank measurements (Vb). Requires >= 1 blank.
  double blank_mean() const;
  /// Standard deviation of the blanks (sigma_b). Requires >= 2 blanks.
  double blank_sigma() const;
  /// Eq. 5: the LOD expressed in *signal* units, Vb + 3 sigma_b.
  double lod_signal() const;

  /// Least-squares fit over all points. Requires >= 2 points at >= 2
  /// distinct concentrations (replicate-only data has no slope and throws
  /// std::invalid_argument instead of producing a degenerate fit).
  util::LinearFit fit() const;
  /// Regression sensitivity: slope of fit() [signal / (mol/m^3)].
  double sensitivity() const { return fit().slope; }

  /// Eq. 6: endpoint average sensitivity dV/dC over the measured range.
  double average_sensitivity() const;

  /// Eq. 7: maximum non-linearity relative to reference point `ref_index`
  /// using the endpoint Savg.
  double max_nonlinearity(std::size_t ref_index = 0) const;

  /// LOD in concentration units: the concentration whose *fitted* signal
  /// equals lod_signal(), i.e. (Vb + 3 sigma_b - Vb) / S = 3 sigma_b / S
  /// evaluated with the regression sensitivity over the linear range when
  /// available, the global fit otherwise.
  double lod_concentration(double linear_tolerance = 0.05) const;

  /// Longest contiguous window (>= 3 points at >= 3 *distinct*
  /// concentrations -- replicates alone cannot certify linearity) whose fit
  /// residuals stay below `tolerance` times the response span of the window.
  LinearRange linear_range(double tolerance = 0.05) const;

 private:
  std::vector<double> c_;
  std::vector<double> v_;
  std::vector<double> blanks_;
};

}  // namespace idp::dsp
