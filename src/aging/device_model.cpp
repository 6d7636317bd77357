#include "aging/device_model.hpp"

#include <cmath>
#include <limits>

#include "aging/nbti_model.hpp"
#include "util/check.hpp"
#include "util/root_find.hpp"

namespace dnnlife::aging {

namespace {

/// Shared timeline validation: total positive weight, and the single
/// positive-weight segment when there is exactly one (the bit-identical
/// single-operating-point shortcut).
struct TimelineScan {
  double total_weight = 0.0;
  const StressSegment* single = nullptr;  ///< set iff exactly one segment
};

TimelineScan scan_timeline(std::span<const StressSegment> timeline) {
  DNNLIFE_EXPECTS(!timeline.empty(), "empty stress timeline");
  TimelineScan scan;
  std::size_t positive = 0;
  for (const StressSegment& segment : timeline) {
    DNNLIFE_EXPECTS(std::isfinite(segment.weight) && segment.weight >= 0.0,
                    "segment weight must be finite and non-negative");
    if (segment.weight <= 0.0) continue;
    scan.total_weight += segment.weight;
    scan.single = ++positive == 1 ? &segment : nullptr;
  }
  DNNLIFE_EXPECTS(scan.total_weight > 0.0,
                  "stress timeline has no positive-weight segment");
  return scan;
}

/// Relative step of the central finite differences below: cbrt(epsilon),
/// the accuracy-optimal choice for a central difference.
constexpr double kFiniteDifferenceStep = 6e-6;

}  // namespace

// ---- generic (non-power-law) evaluation --------------------------------------

double DeviceAgingModel::degradation_slope(double duty, double years,
                                           const EnvironmentSpec& env) const {
  // Central difference with a relative step; at years == 0 the stencil
  // degenerates to a forward difference from the origin (degradation is
  // only defined for non-negative time).
  double scale = years;
  if (scale <= 0.0) scale = reference_years() > 0.0 ? reference_years() : 1.0;
  const double h = scale * kFiniteDifferenceStep;
  const double below = years > h ? years - h : 0.0;
  const double above = years + h;
  return (degradation(duty, above, env) - degradation(duty, below, env)) /
         (above - below);
}

double DeviceAgingModel::years_to_reach(double duty, double target,
                                        const EnvironmentSpec& env) const {
  DNNLIFE_EXPECTS(target >= 0.0, "negative degradation target");
  if (target <= 0.0) return 0.0;
  // Bracket the crossing by doubling from the reference horizon, then run
  // safeguarded Newton on the (monotone non-decreasing) degradation curve.
  // A flat or undefined slope falls back to a bisection step, and an
  // unbracketable target (zero-stress environment) reports +inf.
  return util::invert_monotone(
      [&](double years) { return degradation(duty, years, env); },
      [&](double years) { return degradation_slope(duty, years, env); },
      target, reference_years());
}

double DeviceAgingModel::degradation_on_timeline(
    std::span<const StressSegment> timeline, double years) const {
  const TimelineScan scan = scan_timeline(timeline);
  if (scan.single != nullptr)
    return degradation(scan.single->duty, years, scan.single->environment);
  DNNLIFE_EXPECTS(years >= 0.0, "negative time");
  double total = 0.0;
  for (const StressSegment& segment : timeline) {
    if (segment.weight <= 0.0) continue;
    const double share = years * (segment.weight / scan.total_weight);
    double equivalent = 0.0;
    if (total > 0.0) {
      equivalent = years_to_reach(segment.duty, total, segment.environment);
      // A segment that cannot even reproduce the degradation reached so
      // far (e.g. fully power-gated) adds nothing; degradation never
      // anneals below its running maximum in this composition.
      if (!std::isfinite(equivalent)) continue;
    }
    total = degradation(segment.duty, equivalent + share, segment.environment);
  }
  return total;
}

double DeviceAgingModel::years_to_failure(std::span<const StressSegment> timeline,
                                          double threshold) const {
  const TimelineScan scan = scan_timeline(timeline);
  if (scan.single != nullptr)
    return years_to_reach(scan.single->duty, threshold,
                          scan.single->environment);
  DNNLIFE_EXPECTS(threshold >= 0.0, "negative failure threshold");
  if (threshold <= 0.0) return 0.0;
  // Same safeguarded Newton as years_to_reach, over the composed timeline
  // curve. The composition has no model-provided derivative, so the slope
  // is a central finite difference — still ~10x fewer curve evaluations
  // than bisection, and each evaluation's inner equivalent-time inversions
  // are themselves Newton solves now.
  const auto curve = [&](double years) {
    return degradation_on_timeline(timeline, years);
  };
  const auto slope = [&](double years) {
    const double scale = years > 0.0 ? years : 1.0;
    const double h = scale * kFiniteDifferenceStep;
    const double below = years > h ? years - h : 0.0;
    return (curve(years + h) - curve(below)) / (years + h - below);
  };
  return util::invert_monotone(curve, slope, threshold, reference_years());
}

// ---- power-law family --------------------------------------------------------

PowerLawDeviceModel::PowerLawDeviceModel(double t_ref_years,
                                         double time_exponent)
    : t_ref_years_(t_ref_years), time_exponent_(time_exponent) {
  DNNLIFE_EXPECTS(t_ref_years_ > 0.0, "reference horizon");
  DNNLIFE_EXPECTS(time_exponent_ > 0.0, "time exponent");
}

double PowerLawDeviceModel::degradation(double duty, double years,
                                        const EnvironmentSpec& env) const {
  DNNLIFE_EXPECTS(years >= 0.0, "negative time");
  return amplitude(duty, env) * std::pow(years / t_ref_years_, time_exponent_);
}

double PowerLawDeviceModel::degradation_slope(double duty, double years,
                                              const EnvironmentSpec& env) const {
  DNNLIFE_EXPECTS(years >= 0.0, "negative time");
  // d/dt [ g * (t/t_ref)^beta ] = g * beta / t_ref * (t/t_ref)^(beta - 1);
  // +inf at t = 0 for the sublinear exponents BTI follows (the solver's
  // safeguard handles that iterate).
  return amplitude(duty, env) * (time_exponent_ / t_ref_years_) *
         std::pow(years / t_ref_years_, time_exponent_ - 1.0);
}

double PowerLawDeviceModel::years_to_reach(double duty, double target,
                                           const EnvironmentSpec& env) const {
  DNNLIFE_EXPECTS(target >= 0.0, "negative degradation target");
  if (target <= 0.0) return 0.0;
  const double at_reference = amplitude(duty, env);
  if (at_reference <= 0.0) return std::numeric_limits<double>::infinity();
  return t_ref_years_ *
         std::pow(target / at_reference, 1.0 / time_exponent_);
}

double PowerLawDeviceModel::degradation_on_timeline(
    std::span<const StressSegment> timeline, double years) const {
  const TimelineScan scan = scan_timeline(timeline);
  if (scan.single != nullptr)
    return degradation(scan.single->duty, years, scan.single->environment);
  DNNLIFE_EXPECTS(years >= 0.0, "negative time");
  return effective_amplitude(timeline, scan.total_weight) *
         std::pow(years / t_ref_years_, time_exponent_);
}

double PowerLawDeviceModel::years_to_failure(
    std::span<const StressSegment> timeline, double threshold) const {
  const TimelineScan scan = scan_timeline(timeline);
  if (scan.single != nullptr)
    return years_to_reach(scan.single->duty, threshold,
                          scan.single->environment);
  DNNLIFE_EXPECTS(threshold >= 0.0, "negative failure threshold");
  if (threshold <= 0.0) return 0.0;
  const double effective = effective_amplitude(timeline, scan.total_weight);
  if (effective <= 0.0) return std::numeric_limits<double>::infinity();
  return t_ref_years_ *
         std::pow(threshold / effective, 1.0 / time_exponent_);
}

double PowerLawDeviceModel::effective_amplitude(
    std::span<const StressSegment> timeline, double total_weight) const {
  // Equivalent-time composition of same-exponent power laws collapses to
  // an effective amplitude: g_eff^(1/beta) = sum_i w_i * g_i^(1/beta).
  const double inv_beta = 1.0 / time_exponent_;
  double root_sum = 0.0;
  for (const StressSegment& segment : timeline) {
    if (segment.weight <= 0.0) continue;
    root_sum += (segment.weight / total_weight) *
                std::pow(amplitude(segment.duty, segment.environment), inv_beta);
  }
  return std::pow(root_sum, time_exponent_);
}

// ---- calibrated NBTI (the default engine) ------------------------------------

CalibratedNbtiDeviceModel::CalibratedNbtiDeviceModel(SnmParams params)
    : PowerLawDeviceModel(params.t_ref_years, params.time_exponent),
      params_(params) {
  DNNLIFE_EXPECTS(params_.snm_at_balanced > 0.0, "balanced anchor");
  DNNLIFE_EXPECTS(params_.snm_at_full_stress > params_.snm_at_balanced,
                  "full-stress anchor must exceed balanced anchor");
  // snm(s) = S_max * s^alpha with snm(0.5) = S_mid  =>  alpha = log2(S_max/S_mid).
  alpha_ = std::log2(params_.snm_at_full_stress / params_.snm_at_balanced);
}

double CalibratedNbtiDeviceModel::amplitude(double duty,
                                            const EnvironmentSpec& env) const {
  // activity_scale == 1 multiplies by exactly 1.0, so the default
  // environment is the paper's closed form bit-for-bit.
  const double stress = NbtiModel::cell_stress_ratio(duty) * env.activity_scale;
  return params_.snm_at_full_stress * std::pow(stress, alpha_);
}

// ---- Arrhenius-accelerated NBTI ----------------------------------------------

ArrheniusNbtiDeviceModel::ArrheniusNbtiDeviceModel(SnmParams params,
                                                   ThermalParams thermal)
    : CalibratedNbtiDeviceModel(params), thermal_(thermal) {
  DNNLIFE_EXPECTS(thermal_.activation_energy_ev >= 0.0,
                  "negative activation energy");
  DNNLIFE_EXPECTS(thermal_.vdd_exponent >= 0.0, "negative vdd exponent");
}

double ArrheniusNbtiDeviceModel::amplitude(double duty,
                                           const EnvironmentSpec& env) const {
  // Both factors are exactly 1.0 at the nominal environment (exp(0) and
  // pow(1, gamma)), so the model coincides with the default engine there.
  return CalibratedNbtiDeviceModel::amplitude(duty, env) *
         arrhenius_acceleration(env.temperature_c, kNominalTemperatureC,
                                thermal_.activation_energy_ev) *
         std::pow(env.vdd / kNominalVdd, thermal_.vdd_exponent);
}

// ---- PBTI + HCI variant ------------------------------------------------------

PbtiHciDeviceModel::PbtiHciDeviceModel(Params params) : params_(params) {
  const SnmParams& pbti = params_.pbti;
  DNNLIFE_EXPECTS(pbti.snm_at_balanced > 0.0, "balanced anchor");
  DNNLIFE_EXPECTS(pbti.snm_at_full_stress > pbti.snm_at_balanced,
                  "full-stress anchor must exceed balanced anchor");
  DNNLIFE_EXPECTS(pbti.t_ref_years > 0.0, "reference horizon");
  DNNLIFE_EXPECTS(pbti.time_exponent > 0.0, "PBTI time exponent");
  DNNLIFE_EXPECTS(params_.recovery_floor >= 0.0 && params_.recovery_floor < 1.0,
                  "recovery floor out of [0, 1)");
  DNNLIFE_EXPECTS(params_.hci_amplitude >= 0.0, "negative HCI amplitude");
  DNNLIFE_EXPECTS(params_.hci_time_exponent > 0.0, "HCI time exponent");
  DNNLIFE_EXPECTS(params_.activation_energy_ev >= 0.0,
                  "negative activation energy");
  DNNLIFE_EXPECTS(params_.vdd_exponent >= 0.0, "negative vdd exponent");
  alpha_ = std::log2(pbti.snm_at_full_stress / pbti.snm_at_balanced);
}

PbtiHciDeviceModel::Terms PbtiHciDeviceModel::amplitude_terms(
    double duty, const EnvironmentSpec& env) const {
  const Params& p = params_;
  // Different stress mapping from the NBTI chain: the worst NMOS keeps a
  // residual stress floor even at balanced duty (weak PBTI recovery), and
  // the HCI term is switching-driven — independent of duty entirely.
  const double stress =
      (p.recovery_floor +
       (1.0 - p.recovery_floor) * NbtiModel::cell_stress_ratio(duty)) *
      env.activity_scale;
  Terms terms;
  terms.scale = arrhenius_acceleration(env.temperature_c, kNominalTemperatureC,
                                       p.activation_energy_ev) *
                std::pow(env.vdd / kNominalVdd, p.vdd_exponent);
  terms.pbti = p.pbti.snm_at_full_stress * std::pow(stress, alpha_);
  terms.hci = p.hci_amplitude * env.activity_scale;
  return terms;
}

double PbtiHciDeviceModel::curve(const Terms& terms, double years) const {
  const double t_norm = years / params_.pbti.t_ref_years;
  return terms.scale *
         (terms.pbti * std::pow(t_norm, params_.pbti.time_exponent) +
          terms.hci * std::pow(t_norm, params_.hci_time_exponent));
}

double PbtiHciDeviceModel::slope(const Terms& terms, double years) const {
  // Term-wise power-law derivative of the two-exponent sum (+inf at t = 0,
  // where both exponents are sublinear — the solver bisects that iterate).
  const double t_ref = params_.pbti.t_ref_years;
  const double t_norm = years / t_ref;
  const double b1 = params_.pbti.time_exponent;
  const double b2 = params_.hci_time_exponent;
  return terms.scale *
         (terms.pbti * (b1 / t_ref) * std::pow(t_norm, b1 - 1.0) +
          terms.hci * (b2 / t_ref) * std::pow(t_norm, b2 - 1.0));
}

double PbtiHciDeviceModel::degradation(double duty, double years,
                                       const EnvironmentSpec& env) const {
  DNNLIFE_EXPECTS(years >= 0.0, "negative time");
  return curve(amplitude_terms(duty, env), years);
}

double PbtiHciDeviceModel::degradation_slope(double duty, double years,
                                             const EnvironmentSpec& env) const {
  DNNLIFE_EXPECTS(years >= 0.0, "negative time");
  return slope(amplitude_terms(duty, env), years);
}

double PbtiHciDeviceModel::years_to_reach(double duty, double target,
                                          const EnvironmentSpec& env) const {
  DNNLIFE_EXPECTS(target >= 0.0, "negative degradation target");
  if (target <= 0.0) return 0.0;
  // The generic solve with amplitude_terms() hoisted out of the iteration:
  // curve() and slope() are degradation() and degradation_slope() on the
  // same terms, so invert_monotone walks the identical iterate sequence.
  const Terms terms = amplitude_terms(duty, env);
  return util::invert_monotone(
      [&](double years) { return curve(terms, years); },
      [&](double years) { return slope(terms, years); }, target,
      reference_years());
}

// ---- dual BTI as a device model ----------------------------------------------

DualBtiDeviceModel::DualBtiDeviceModel(Params params)
    : PowerLawDeviceModel(params.nbti.t_ref_years, params.nbti.time_exponent),
      params_(params) {
  DNNLIFE_EXPECTS(params_.pbti_ratio >= 0.0 && params_.pbti_ratio <= 1.0,
                  "PBTI ratio out of [0,1]");
  const SnmParams& nbti = params_.nbti;
  DNNLIFE_EXPECTS(nbti.snm_at_full_stress > nbti.snm_at_balanced,
                  "full-stress anchor must exceed balanced anchor");
  alpha_ = std::log2(nbti.snm_at_full_stress / nbti.snm_at_balanced);
}

double DualBtiDeviceModel::amplitude(double duty,
                                     const EnvironmentSpec& env) const {
  DNNLIFE_EXPECTS(duty >= 0.0 && duty <= 1.0, "duty out of [0,1]");
  const SnmParams& nbti = params_.nbti;
  const auto stress_term = [&](double s) {
    return s <= 0.0 ? 0.0 : std::pow(s, alpha_);
  };
  // activity_scale == 1 multiplies each stress fraction by exactly 1.0
  // (the nominal environment is the plain dual-BTI closed form).
  const double a = env.activity_scale;
  const auto inverter = [&](double pmos_duty) {
    // NBTI on the PMOS (stressed while output high) + weaker PBTI on the
    // NMOS (stressed while output low).
    return nbti.snm_at_full_stress *
           (stress_term(pmos_duty * a) +
            params_.pbti_ratio * stress_term((1.0 - pmos_duty) * a));
  };
  return std::max(inverter(duty), inverter(1.0 - duty));
}

}  // namespace dnnlife::aging
