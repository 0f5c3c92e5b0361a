#include "qdi/gates/sbox.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "qdi/crypto/aes.hpp"
#include "qdi/crypto/des.hpp"

namespace qdi::gates {

LutResult build_balanced_lut(Builder& b, std::span<const DualRail> in,
                             int out_bits,
                             const std::function<unsigned(unsigned)>& table,
                             const std::string& name) {
  // Every check runs before the first cell is built, so a rejected
  // table leaves the netlist as it was.
  const auto reject = [&](const std::string& what) {
    throw std::invalid_argument("build_balanced_lut '" + name + "': " + what);
  };
  if (in.empty() || in.size() > 16)
    reject(std::to_string(in.size()) + " inputs (1 to 16 supported)");
  if (out_bits < 1 || out_bits > 16)
    reject("out_bits " + std::to_string(out_bits) + " (1 to 16 supported)");
  std::vector<unsigned> values(std::size_t{1} << in.size());
  for (std::size_t m = 0; m < values.size(); ++m)
    values[m] = table(static_cast<unsigned>(m));
  for (int bit = 0; bit < out_bits; ++bit) {
    // A constant output bit has an empty OR tree for one of its rails:
    // not a dual-rail function.
    const auto ones = std::count_if(
        values.begin(), values.end(),
        [&](unsigned v) { return ((v >> bit) & 1u) != 0; });
    if (ones == 0 || static_cast<std::size_t>(ones) == values.size())
      reject("output bit " + std::to_string(bit) + " is constant " +
             (ones == 0 ? "0" : "1") + " over every minterm");
  }
  Builder::HierScope scope(b, name);

  LutResult res;

  // --- decode: one-hot minterm lines --------------------------------------
  // lines[m] is high iff input k equals bit k of m, for all k. Every
  // decode level is a 1-of-2^(k+1) code group and is registered as a
  // channel so the dissymmetry criterion (and the repair pass) covers it:
  // an unbalanced decode level would fingerprint the input word.
  std::vector<NetId> lines = {in[0].r0, in[0].r1};
  for (std::size_t k = 1; k < in.size(); ++k) {
    std::vector<NetId> next(lines.size() * 2);
    for (std::size_t m = 0; m < lines.size(); ++m) {
      next[m] = b.muller2(lines[m], in[k].r0,
                          "dec" + std::to_string(k) + "_" + std::to_string(m));
      next[m + lines.size()] =
          b.muller2(lines[m], in[k].r1,
                    "dec" + std::to_string(k) + "_" +
                        std::to_string(m + lines.size()));
    }
    lines = std::move(next);
    b.netlist().add_channel(
        b.hier().empty() ? "dec_l" + std::to_string(k)
                         : b.hier() + "/dec_l" + std::to_string(k),
        lines);
  }
  res.minterm_lines = lines;
  res.decode_levels = static_cast<int>(in.size()) - 1;

  // --- re-encode: per-rail OR trees ---------------------------------------
  // Balanced tables (AES, DES: every output column half ones) get paired,
  // shape-identical trees whose layers are registered as group channels;
  // unbalanced tables fall back to independent trees (still functionally
  // correct, but with weaker balance guarantees — documented in
  // DESIGN.md).
  res.outputs.reserve(static_cast<std::size_t>(out_bits));
  for (int bit = 0; bit < out_bits; ++bit) {
    std::vector<NetId> ones, zeros;
    for (std::size_t m = 0; m < lines.size(); ++m) {
      if ((values[m] >> bit) & 1u)
        ones.push_back(lines[m]);
      else
        zeros.push_back(lines[m]);
    }
    const std::string bit_name = "out" + std::to_string(bit);
    const bool paired = ones.size() == zeros.size() &&
                        (ones.size() & (ones.size() - 1)) == 0;
    if (paired) {
      res.outputs.push_back(b.or_tree_pair(zeros, ones, bit_name));
    } else {
      const NetId r1 = b.or_tree(ones, bit_name + "_1t");
      const NetId r0 = b.or_tree(zeros, bit_name + "_0t");
      res.outputs.push_back(b.as_dual_rail(r0, r1, bit_name));
    }
  }
  return res;
}

LutResult build_aes_sbox(Builder& b, std::span<const DualRail> in,
                         const std::string& name) {
  assert(in.size() == 8);
  return build_balanced_lut(
      b, in, 8,
      [](unsigned x) { return static_cast<unsigned>(crypto::aes_sbox(static_cast<std::uint8_t>(x))); },
      name);
}

LutResult build_des_sbox(Builder& b, int box, std::span<const DualRail> in,
                         const std::string& name) {
  assert(in.size() == 6);
  return build_balanced_lut(
      b, in, 4,
      [box](unsigned x) {
        return static_cast<unsigned>(crypto::des_sbox(box, static_cast<std::uint8_t>(x)));
      },
      name);
}

}  // namespace qdi::gates
