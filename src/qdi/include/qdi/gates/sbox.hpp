// Balanced 1-of-N table-lookup generator (DIMS style).
//
// Secured QDI S-Boxes are built as a *decode / re-encode* structure:
//   1. a Muller C-element tree decodes the N dual-rail inputs into a
//      one-hot bundle of 2^N minterm lines — exactly one line fires per
//      codeword, after exactly N-1 C-levels, for every input value;
//   2. per output rail, a balanced OR tree merges the minterm lines that
//      map to that rail.
// For bijective tables (AES S-Box) and balanced tables (DES S-Boxes) both
// rails of every output bit merge the same number of lines, so the OR
// trees have identical shape and the whole block is balanced: the number
// of transitions Nt per computation is a constant independent of data —
// the property section II of the paper requires of secured QDI blocks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "qdi/gates/builder.hpp"

namespace qdi::gates {

struct LutResult {
  std::vector<DualRail> outputs;       ///< out_bits channels
  std::vector<NetId> minterm_lines;    ///< the 2^N one-hot bundle
  int decode_levels = 0;               ///< C-tree depth
};

/// Build the lookup structure for `table` : [0, 2^in.size()) -> out_bits
/// wide values. Bit k of the minterm index corresponds to in[k]. Throws
/// std::invalid_argument naming the LUT (and the bit) for 0 or more than
/// 16 inputs, out_bits outside 1..16, or an output bit that is constant
/// over every minterm; the netlist is left unchanged then.
LutResult build_balanced_lut(Builder& b, std::span<const DualRail> in,
                             int out_bits,
                             const std::function<unsigned(unsigned)>& table,
                             const std::string& name);

/// AES SubBytes S-Box over one byte (8 dual-rail channels in and out).
LutResult build_aes_sbox(Builder& b, std::span<const DualRail> in,
                         const std::string& name);

/// DES S-Box `box` (6 dual-rail in, 4 out).
LutResult build_des_sbox(Builder& b, int box, std::span<const DualRail> in,
                         const std::string& name);

}  // namespace qdi::gates
