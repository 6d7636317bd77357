// Device-level NBTI threshold-voltage-shift model.
//
// Long-term NBTI: a PMOS under negative gate stress accumulates a Vth
// shift; removing stress partially anneals it. For the multi-year horizons
// studied here only the *average* stress ratio matters (paper cites [14]),
// so we model
//
//     dVth(s, t) = A * s^alpha * (t / t_ref)^beta          [volts]
//
// with s the long-term stress ratio of the transistor (fraction of lifetime
// under stress), beta the reaction-diffusion time exponent (~1/6), and
// alpha the stress-ratio exponent. The paper's evaluation is anchored to
// the SNM degradation numbers of its references (see SnmParams in
// aging/device_model.hpp); this class exposes the raw physics layer so
// other device models can be plugged in, as the paper explicitly invites.
#pragma once

namespace dnnlife::aging {

struct NbtiParams {
  double amplitude_v = 0.05;   ///< A: shift at full stress after t_ref
  double stress_exponent = 1.0;///< alpha
  double time_exponent = 1.0 / 6.0;  ///< beta (reaction-diffusion n)
  double t_ref_years = 7.0;    ///< reference horizon
};

class NbtiModel {
 public:
  explicit NbtiModel(NbtiParams params = {});

  /// Vth shift (volts) of a transistor stressed for fraction `stress_ratio`
  /// of `years` years. stress_ratio in [0, 1], years >= 0.
  double vth_shift(double stress_ratio, double years) const;

  /// Stress ratio experienced by the more-stressed of the two PMOS
  /// transistors of a 6T cell with duty-cycle `duty` (fraction of time
  /// storing '1'): one PMOS is stressed while the cell holds '1', the
  /// other while it holds '0'; the cell ages like its most-aged device.
  static double cell_stress_ratio(double duty);

  const NbtiParams& params() const noexcept { return params_; }

 private:
  NbtiParams params_;
};

/// Arrhenius acceleration factor of a thermally activated degradation
/// mechanism: exp((Ea / k_B) * (1/T_ref - 1/T)) with temperatures in °C
/// (converted to Kelvin internally). Exactly 1.0 at T == T_ref, > 1 when
/// hotter. `activation_energy_ev` is the mechanism's apparent activation
/// energy in electron-volts (NBTI Vth shift: ~0.05-0.1 eV).
double arrhenius_acceleration(double temperature_c,
                              double reference_temperature_c,
                              double activation_energy_ev);

}  // namespace dnnlife::aging
