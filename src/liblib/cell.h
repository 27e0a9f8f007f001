// Standard-cell model.
//
// The paper's flow maps circuits with Synopsys DC onto the lsi_10k library;
// we model the properties the experiments consume: a cell's Boolean function,
// area, per-pin pin-to-output delay, and switching energy (for the dynamic
// power overhead columns of Table 2). Delays are load-independent — the same
// fixed-delay abstraction the paper's worked example uses (inverter 1 unit,
// 2-input gates 2 units).
#pragma once

#include <string>
#include <vector>

#include "boolean/sop.h"
#include "boolean/truth_table.h"

namespace sm {

// Widest cell a library may hold. AllPrimes enumerates 3^pins cubes, and the
// batched simulator keeps per-pin cursors in arrays of this size.
inline constexpr int kMaxCellPins = 10;

class Cell {
 public:
  Cell(std::string name, TruthTable function, double area,
       std::vector<double> pin_delays, double switch_energy);

  const std::string& name() const { return name_; }
  int num_pins() const { return function_.num_vars(); }
  const TruthTable& function() const { return function_; }
  double area() const { return area_; }
  double pin_delay(int pin) const;
  const std::vector<double>& pin_delays() const { return pin_delays_; }
  double max_delay() const;
  double switch_energy() const { return switch_energy_; }

  // Prime-implicant covers of the on-set and off-set — the P set of Eqn. 1.
  // Computed at construction: a library's cells are read by every worker
  // thread at once, so a cell holds no lazily filled state.
  const Sop& OnSetPrimes() const { return on_primes_; }
  const Sop& OffSetPrimes() const { return off_primes_; }
  // Irredundant on-set cover (ISOP), computed at construction like the
  // primes: the cubes that word-level simulation and the Verilog writer
  // evaluate. Empty for TIE0, one universe cube for TIE1.
  const Sop& Cover() const { return cover_; }

  bool IsConstant() const { return num_pins() == 0; }
  bool IsInverter() const;
  bool IsBuffer() const;

 private:
  std::string name_;
  TruthTable function_;
  double area_;
  std::vector<double> pin_delays_;
  double switch_energy_;
  Sop on_primes_;
  Sop off_primes_;
  Sop cover_;
};

}  // namespace sm
