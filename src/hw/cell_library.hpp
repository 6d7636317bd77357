// Standard-cell library for the structural hardware cost model.
//
// Substitution: the paper synthesises its transducers with Cadence Genus
// on TSMC 65 nm, a proprietary flow and library that cannot be shipped. We
// model a small 65 nm-class cell library with consistent per-cell area
// (NAND2-equivalents), propagation delay, leakage and per-output-toggle
// switching energy, which preserves the *relative* costs Table II reports.
//
// The TRBG is a macro-cell: the paper realises it as a 5-stage ring
// oscillator plus a sampling flop; a free-running ring inside a gate-level
// netlist would be a combinational cycle, so the macro-cell carries the
// aggregate area/power of the ring + sampler and its output is treated as
// a registered pseudo-random source.
#pragma once

#include <cstdint>
#include <string>

namespace dnnlife::hw {

enum class CellType : std::uint8_t {
  kInv,
  kBuf,
  kNand2,
  kNor2,
  kAnd2,
  kOr2,
  kXor2,
  kXnor2,
  kMux2,  ///< inputs: {a, b, sel}; out = sel ? b : a
  kDff,   ///< input: {d}; output q (clock implicit)
  kTrbg,  ///< macro: 5-stage ring oscillator + sampling flop; no inputs
};

constexpr std::size_t kCellTypeCount = 11;

struct CellInfo {
  const char* name;
  unsigned input_count;
  double area;              ///< NAND2-equivalent units
  double delay_ps;          ///< propagation delay (clk-to-q for kDff/kTrbg)
  double leakage_nw;        ///< static power
  double switch_energy_fj;  ///< energy per output toggle
  double intrinsic_dynamic_nw;  ///< free-running dynamic power (ring osc.)
};

class CellLibrary {
 public:
  /// The 65 nm-class library used by all evaluations.
  static const CellLibrary& generic65();

  const CellInfo& info(CellType type) const;

  /// DFF setup time (added to paths terminating at a D input).
  double dff_setup_ps() const noexcept { return setup_ps_; }

 private:
  CellLibrary();
  CellInfo cells_[kCellTypeCount];
  double setup_ps_ = 45.0;
};

std::string to_string(CellType type);

}  // namespace dnnlife::hw
