#include "qdi/campaign/target.hpp"

#include <memory>
#include <stdexcept>

#include "qdi/crypto/aes.hpp"
#include "qdi/crypto/des.hpp"
#include "qdi/gates/builder.hpp"
#include "qdi/gates/des_datapath.hpp"
#include "qdi/gates/testbench.hpp"

namespace qdi::campaign {

TargetInstance CircuitTarget::build(std::uint64_t key) const {
  if (!build_)
    throw std::invalid_argument("CircuitTarget: empty target (no build fn)");
  TargetInstance inst = build_(key);
  inst.name = name_;
  return inst;
}

namespace {

/// Bits of `value` (LSB first) as 1-of-2 channel values.
void push_bits(std::vector<int>& values, unsigned value, int bits) {
  for (int b = 0; b < bits; ++b) values.push_back((value >> b) & 1);
}

/// Bits of `value` (LSB first) as a golden output vector.
std::vector<int> bit_outputs(unsigned value, int bits) {
  std::vector<int> out;
  for (int b = 0; b < bits; ++b) out.push_back((value >> b) & 1);
  return out;
}

/// Analysis side of the DES S-box victims (des_sbox_slice and
/// des_sbox_sync): a random 6-bit plaintext against the 6-bit subkey
/// `key6`, box `box`'s selection bits and Hamming-weight model, its
/// golden output and its DFA model.
void des_sbox_analysis(TargetInstance& inst, int box, std::uint8_t key6) {
  inst.stimulus = [key6](util::Rng& rng, std::size_t, Stimulus& st) {
    const auto p = static_cast<std::uint8_t>(rng.below(64));
    st.values.clear();
    push_bits(st.values, p, 6);
    push_bits(st.values, key6, 6);
    st.plaintext.assign(1, p);
  };
  inst.num_guesses = 64;
  inst.true_guess = key6;
  for (int b = 0; b < 4; ++b)
    inst.selection_bits.push_back(dpa::des_sbox_selection(box, b));
  inst.leakage = dpa::des_sbox_hw_model(box);
  inst.golden = [box, key6](const std::vector<std::uint8_t>& pt) {
    return bit_outputs(
        crypto::des_sbox(box, static_cast<std::uint8_t>(pt.at(0) ^ key6)), 4);
  };
  inst.dfa = dpa::des_sbox_dfa_model(box);
}

}  // namespace

CircuitTarget aes_byte_slice(double period_ps) {
  return CircuitTarget("aes_byte_slice", [period_ps](std::uint64_t key) {
    gates::AesByteSlice slice = gates::build_aes_byte_slice(period_ps);
    const auto key_byte = static_cast<std::uint8_t>(key & 0xff);
    TargetInstance inst;
    inst.nl = std::move(slice.nl);
    inst.env = std::move(slice.env);
    inst.stimulus = [key_byte](util::Rng& rng, std::size_t, Stimulus& st) {
      const std::uint8_t p = rng.byte();
      st.values.clear();
      push_bits(st.values, p, 8);
      push_bits(st.values, key_byte, 8);
      st.plaintext.assign(1, p);
    };
    inst.num_guesses = 256;
    inst.true_guess = key_byte;
    for (int b = 0; b < 8; ++b)
      inst.selection_bits.push_back(dpa::aes_sbox_selection(0, b));
    inst.leakage = dpa::aes_sbox_hw_model(0);
    inst.golden = [key_byte](const std::vector<std::uint8_t>& pt) {
      return bit_outputs(crypto::aes_sbox(
                             static_cast<std::uint8_t>(pt.at(0) ^ key_byte)),
                         8);
    };
    inst.dfa = dpa::aes_sbox_dfa_model();
    return inst;
  });
}

CircuitTarget des_sbox_slice(int box, double period_ps) {
  return CircuitTarget("des_sbox_slice", [box, period_ps](std::uint64_t key) {
    gates::DesSboxSlice slice = gates::build_des_sbox_slice(box, period_ps);
    TargetInstance inst;
    inst.nl = std::move(slice.nl);
    inst.env = std::move(slice.env);
    des_sbox_analysis(inst, box, static_cast<std::uint8_t>(key & 0x3f));
    return inst;
  });
}

CircuitTarget des_sbox_sync(int box, double period_ps) {
  return CircuitTarget("des_sbox_sync", [box, period_ps](std::uint64_t key) {
    gates::DesSboxSync sync = gates::build_des_sbox_sync(box, period_ps);
    TargetInstance inst;
    inst.nl = std::move(sync.nl);
    inst.env = std::move(sync.env);
    des_sbox_analysis(inst, box, static_cast<std::uint8_t>(key & 0x3f));
    return inst;
  });
}

CircuitTarget xor_stage(double period_ps) {
  return CircuitTarget("xor_stage", [period_ps](std::uint64_t) {
    gates::XorStage x = gates::build_xor_stage(period_ps);
    TargetInstance inst;
    inst.nl = std::move(x.nl);
    inst.env = std::move(x.env);
    inst.stimulus = [](util::Rng& rng, std::size_t, Stimulus& st) {
      const int a = static_cast<int>(rng.below(2));
      const int b = static_cast<int>(rng.below(2));
      st.values.assign({a, b});
      st.plaintext.assign({static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b)});
    };
    inst.golden = [](const std::vector<std::uint8_t>& pt) {
      return std::vector<int>{pt.at(0) ^ pt.at(1)};
    };
    return inst;
  });
}

CircuitTarget des_round(double period_ps) {
  return CircuitTarget("des_round", [period_ps](std::uint64_t key) {
    gates::DesRoundSlice slice = gates::build_des_round_slice(period_ps);
    const std::uint64_t subkey = key & 0xffffffffffffULL;
    TargetInstance inst;
    inst.nl = std::move(slice.nl);
    inst.env = std::move(slice.env);
    // Random R half (L = 0) against the fixed round key; plaintext(i)
    // records SBOX1's 6-bit input E(R)[1..6] so D can re-derive classes.
    inst.stimulus = [subkey](util::Rng& rng, std::size_t, Stimulus& st) {
      const auto r = static_cast<std::uint32_t>(rng.next());
      st.values.clear();
      for (int i = 0; i < 32; ++i) st.values.push_back(0);  // L = 0
      for (int i = 0; i < 32; ++i)
        st.values.push_back(static_cast<int>((r >> (31 - i)) & 1));
      for (int i = 0; i < 48; ++i)
        st.values.push_back(static_cast<int>((subkey >> (47 - i)) & 1));
      std::uint8_t six = 0;
      const auto et = crypto::des_expansion_table();
      for (int j = 0; j < 6; ++j) {
        const int bit = static_cast<int>(
            (r >> (32 - et[static_cast<std::size_t>(j)])) & 1);
        six = static_cast<std::uint8_t>((six << 1) | bit);
      }
      st.plaintext.assign(1, six);
    };
    inst.num_guesses = 64;
    inst.true_guess = static_cast<unsigned>((subkey >> 42) & 0x3f);
    for (int b = 0; b < 4; ++b)
      inst.selection_bits.push_back(dpa::des_sbox_selection(0, b));
    inst.leakage = dpa::des_sbox_hw_model(0);
    return inst;
  });
}

CircuitTarget dual_rail_pair(double period_ps) {
  return CircuitTarget("dual_rail_pair", [period_ps](std::uint64_t) {
    TargetInstance inst;
    inst.nl = netlist::Netlist("dual_rail_pair");
    gates::Builder b(inst.nl);
    gates::DualRail lo = b.dr_input("lo");
    gates::DualRail hi = b.dr_input("hi");
    for (const gates::DualRail* d : {&lo, &hi}) {
      const netlist::NetId q0 = b.buf(d->r0);
      const netlist::NetId q1 = b.buf(d->r1);
      const gates::DualRail out = b.as_dual_rail(q0, q1, "q");
      b.dr_output(out, "q");
      inst.env.outputs.push_back(out.ch);
    }
    inst.env.inputs = {lo.ch, hi.ch};
    inst.env.period_ps = period_ps;
    inst.stimulus = [](util::Rng&, std::size_t index, Stimulus& st) {
      const int v = static_cast<int>(index % 4);
      st.values.assign({v & 1, (v >> 1) & 1});
      st.plaintext.assign(1, static_cast<std::uint8_t>(v));
    };
    inst.golden = [](const std::vector<std::uint8_t>& pt) {
      return std::vector<int>{pt.at(0) & 1, (pt.at(0) >> 1) & 1};
    };
    return inst;
  });
}

CircuitTarget one_of_four(double period_ps) {
  return CircuitTarget("one_of_four", [period_ps](std::uint64_t) {
    TargetInstance inst;
    inst.nl = netlist::Netlist("one_of_four");
    gates::Builder b(inst.nl);
    gates::OneOfN q = b.one_of_n_input("q", 4);
    std::vector<netlist::NetId> out_rails;
    for (netlist::NetId r : q.rails) out_rails.push_back(b.buf(r));
    const netlist::ChannelId out_ch = inst.nl.add_channel("qo", out_rails);
    for (std::size_t i = 0; i < out_rails.size(); ++i)
      b.output(out_rails[i], "qo" + std::to_string(i));
    inst.env.inputs = {q.ch};
    inst.env.outputs = {out_ch};
    inst.env.period_ps = period_ps;
    inst.stimulus = [](util::Rng&, std::size_t index, Stimulus& st) {
      const int v = static_cast<int>(index % 4);
      st.values.assign(1, v);
      st.plaintext.assign(1, static_cast<std::uint8_t>(v));
    };
    inst.golden = [](const std::vector<std::uint8_t>& pt) {
      return std::vector<int>{pt.at(0)};
    };
    return inst;
  });
}

namespace {

/// Software reference for one aes_core handshake (validated against the
/// gate netlist on both dsel parities): the key path derives
///   x = sel_key ? RotWord(w) : w;  subkey = SubWord(x);  subkey[0] ^= rc
/// and the cipher path computes
///   sr = ShiftRow(SubWord(data ^ subkey))
///   data_out = (dsel ? sr : MixColumn(sr)) ^ subkey,  nk_out = subkey.
/// Byte i of a word is bits [8i, 8i+8) — the channel-group order.
void aes_core_iteration(std::uint32_t data, std::uint32_t key_w,
                        std::uint8_t rc, int sel_key, int dsel,
                        std::uint32_t* data_out, std::uint32_t* nk_out) {
  const auto byte = [](std::uint32_t w, int i) {
    return static_cast<std::uint8_t>(w >> (8 * i));
  };
  const std::uint32_t x = sel_key ? ((key_w >> 8) | (key_w << 24)) : key_w;
  std::uint32_t subkey = 0;
  for (int i = 0; i < 4; ++i) {
    std::uint8_t sk = crypto::aes_sbox(byte(x, i));
    if (i == 0) sk = static_cast<std::uint8_t>(sk ^ rc);
    subkey |= static_cast<std::uint32_t>(sk) << (8 * i);
  }
  *nk_out = subkey;
  const std::uint32_t a0 = data ^ subkey;
  std::uint32_t sr = 0;
  for (int i = 0; i < 4; ++i)
    sr |= static_cast<std::uint32_t>(crypto::aes_sbox(byte(a0, (i + 1) % 4)))
          << (8 * i);
  if (dsel == 1) {
    *data_out = sr ^ subkey;
    return;
  }
  crypto::Block col{};
  for (int i = 0; i < 4; ++i) col[static_cast<std::size_t>(i)] = byte(sr, i);
  crypto::mix_columns(col);
  std::uint32_t mix = 0;
  for (int i = 0; i < 4; ++i)
    mix |= static_cast<std::uint32_t>(col[static_cast<std::size_t>(i)])
           << (8 * i);
  *data_out = mix ^ subkey;
}

}  // namespace

CircuitTarget aes_core(gates::AesCoreParams params) {
  return CircuitTarget("aes_core", [params](std::uint64_t key) {
    gates::AesCoreNetlist core = gates::build_aes_core(params);
    TargetInstance inst;

    // Reduced builds (no key path / no interface) lack the env ports:
    // they stay flow/criterion-only like the pre-env core did.
    const bool full = !core.data_in_channels.empty() &&
                      !core.key_in_channels.empty() &&
                      !core.data_out_channels.empty() &&
                      !core.nk_out_channels.empty();
    if (!full) {
      inst.nl = std::move(core.nl);
      inst.simulatable = false;
      return inst;
    }

    // The campaign key's low 32 bits are the round-key word in flight;
    // sel_key=1 routes it through RotWord, so the first subkey byte —
    // the CPA target — is sbox(byte1(w)) ^ rc.
    const auto key_w = static_cast<std::uint32_t>(key);
    const std::uint8_t rc = 0x01;

    inst.nl = std::move(core.nl);
    for (netlist::ChannelId c : core.data_in_channels)
      inst.env.inputs.push_back(c);
    for (netlist::ChannelId c : core.key_in_channels)
      inst.env.inputs.push_back(c);
    for (netlist::ChannelId c : core.rc_channels) inst.env.inputs.push_back(c);
    inst.env.inputs.push_back(core.sel_key_channel);
    inst.env.inputs.push_back(core.ctrl_key_channel);
    inst.env.inputs.push_back(core.round_sel_channel);
    inst.env.inputs.push_back(core.path_sel_channel);
    inst.env.inputs.push_back(core.loop_sel_channel);
    inst.env.inputs.push_back(core.bank_sel_channel);
    inst.env.inputs.push_back(core.dsel_channel);
    for (netlist::ChannelId c : core.data_out_channels)
      inst.env.outputs.push_back(c);
    for (netlist::ChannelId c : core.nk_out_channels)
      inst.env.outputs.push_back(c);
    inst.env.acks_to_block = {core.gack};
    inst.env.reset = core.reset;
    // Measured handshake: outputs valid ~4 ns, return-to-zero complete
    // ~8 ns after the input phase; 20 ns leaves QDI slack.
    inst.env.period_ps = 20000.0;

    // Random data word per trace; dsel alternates so both the MixColumn
    // round path and the final-round bypass are exercised. round_sel and
    // bank_sel stay 0 (they must agree for the recirculation banks to
    // hand off). Plaintext record = the four data bytes + dsel, so the
    // golden reference is a pure function of the record.
    inst.stimulus = [key_w, rc](util::Rng& rng, std::size_t index,
                                Stimulus& st) {
      const auto data = static_cast<std::uint32_t>(rng.next());
      const int dsel = static_cast<int>(index % 2);
      st.values.clear();
      push_bits(st.values, data, 32);
      push_bits(st.values, key_w, 32);
      push_bits(st.values, rc, 8);
      st.values.push_back(1);     // sel_key: RotWord path
      st.values.push_back(0);     // ctrl_key
      st.values.push_back(0);     // round_sel (== bank_sel)
      st.values.push_back(0);     // path_sel
      st.values.push_back(0);     // loop_sel
      st.values.push_back(0);     // bank_sel
      st.values.push_back(dsel);  // 0 = MixColumn round, 1 = last round
      st.plaintext.assign({static_cast<std::uint8_t>(data),
                           static_cast<std::uint8_t>(data >> 8),
                           static_cast<std::uint8_t>(data >> 16),
                           static_cast<std::uint8_t>(data >> 24),
                           static_cast<std::uint8_t>(dsel)});
    };

    // The hardware computes sbox(data_byte0 ^ subkey_byte0) in the
    // cipher path's BYTESUB: first-round AES CPA with the subkey byte as
    // the guess, exactly the aes_byte_slice analysis side.
    inst.num_guesses = 256;
    inst.true_guess = static_cast<unsigned>(
        crypto::aes_sbox(static_cast<std::uint8_t>(key_w >> 8)) ^ rc);
    for (int b = 0; b < 8; ++b)
      inst.selection_bits.push_back(dpa::aes_sbox_selection(0, b));
    inst.leakage = dpa::aes_sbox_hw_model(0);
    inst.golden = [key_w, rc](const std::vector<std::uint8_t>& pt) {
      const std::uint32_t data =
          static_cast<std::uint32_t>(pt.at(0)) |
          (static_cast<std::uint32_t>(pt.at(1)) << 8) |
          (static_cast<std::uint32_t>(pt.at(2)) << 16) |
          (static_cast<std::uint32_t>(pt.at(3)) << 24);
      const int dsel = pt.at(4);
      std::uint32_t data_out = 0, nk_out = 0;
      aes_core_iteration(data, key_w, rc, /*sel_key=*/1, dsel, &data_out,
                         &nk_out);
      std::vector<int> out = bit_outputs(data_out, 32);
      const std::vector<int> nk = bit_outputs(nk_out, 32);
      out.insert(out.end(), nk.begin(), nk.end());
      return out;
    };
    return inst;
  });
}

CircuitTarget prebuilt(TargetInstance inst) {
  auto shared = std::make_shared<const TargetInstance>(std::move(inst));
  return CircuitTarget(shared->name.empty() ? "prebuilt" : shared->name,
                       [shared](std::uint64_t) { return *shared; });
}

namespace {

/// One table drives both the listing and the lookup, so the two can
/// never drift apart.
struct RegistryEntry {
  const char* name;
  CircuitTarget (*make)();
};

const RegistryEntry kRegistry[] = {
    {"aes_byte_slice", [] { return aes_byte_slice(); }},
    {"des_sbox_slice", [] { return des_sbox_slice(); }},
    {"des_sbox_sync", [] { return des_sbox_sync(); }},
    {"xor_stage", [] { return xor_stage(); }},
    {"des_round", [] { return des_round(); }},
    {"dual_rail_pair", [] { return dual_rail_pair(); }},
    {"one_of_four", [] { return one_of_four(); }},
    {"aes_core", [] { return aes_core(); }},
};

}  // namespace

std::vector<std::string> list_targets() {
  std::vector<std::string> names;
  for (const RegistryEntry& e : kRegistry) names.emplace_back(e.name);
  return names;
}

CircuitTarget find_target(const std::string& name) {
  for (const RegistryEntry& e : kRegistry)
    if (name == e.name) return e.make();
  throw std::invalid_argument("find_target: unknown target '" + name + "'");
}

}  // namespace qdi::campaign
