// Engine traits: the vocabulary that lets one scheme-session implementation
// run on either simulation backend.
//
// A coverage campaign executes the same march session logic whether it
// simulates one fault universe at a time (Memory + MarchRunner + Misr) or
// 64 bit-parallel universes per pass (PackedMemory + PackedMarchRunner +
// PackedMisr).  The two backends differ only in their *data plane*:
//
//   ScalarEngine          Verdict = bool     one universe per session
//   PackedEngineT<Block>  Verdict = Block    lane k of every value/verdict
//                                            belongs to universe k; Block is
//                                            std::uint64_t (64 lanes — the
//                                            PackedEngine alias), a wide
//                                            LaneBlock<K> (256/512 lanes,
//                                            compiled per width), or a
//                                            LaneTile<Inner, T> (4096/32768
//                                            lanes, memsim/lane_tile.h) —
//                                            selected at runtime via
//                                            core/simd.h
//
// Each trait struct maps the shared vocabulary — verdict algebra, fault
// injection, the engine entry points, and the word/mask/signature
// operations the TOMT and symmetric sessions are written in — onto its
// backend.  core/scheme_session.h instantiates the session templates with
// either engine; the Memory vs PackedMemory *write semantics* stay
// deliberately independent implementations so the differential check in
// tests/coverage_backend_test.cpp keeps its power — only the orchestration
// above the memory port is unified here.
//
// The contract a new backend (a new Block type, or a whole new Engine
// struct) must honour — docs/ARCHITECTURE.md walks through each rule with
// rationale; the short form:
//
//   * Verdict semantics: bit k of a Verdict is a latch for "universe k has
//     detected its fault".  Session code only ORs verdicts together;
//     nothing may ever clear a detection bit.
//   * Golden lane: lane 0 carries no fault and must read back the
//     fault-free memory image exactly.  `bit(v, slot)` therefore maps
//     fault slot s to lane s+1, and `used_mask(count)` covers lanes
//     1..count only — a partial final batch must neither report phantom
//     universes nor mask the golden lane.
//   * Brake monotonicity: SessionBrake::should_stop answers "are all used
//     lanes settled"; once true for a verdict v it must stay true for any
//     v' ⊇ v.  The settle-exit schedule relies on this to cut sessions
//     short without changing any verdict bit that the full run would set.
//   * Differential proof: a backend is correct when its VerdictMatrix is
//     byte-identical to ScalarEngine's across every scheme — that check
//     lives in tests/coverage_backend_test.cpp and
//     tests/tiled_engine_test.cpp and is the required template for
//     qualifying any new backend.
#ifndef TWM_CORE_ENGINE_TRAITS_H
#define TWM_CORE_ENGINE_TRAITS_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bist/engine.h"
#include "bist/misr.h"
#include "bist/packed_engine.h"
#include "memsim/fault.h"
#include "memsim/memory.h"
#include "memsim/packed_memory.h"
#include "util/bitvec.h"

namespace twm {

// Order-insensitive XOR compactor (the symmetric scheme's signature
// register), one universe.
class XorAccumulator final : public ReadSink {
 public:
  explicit XorAccumulator(unsigned width) : acc_(BitVec::zeros(width)) {}
  void on_read(std::size_t, const BitVec& value) override { acc_ ^= value; }
  const BitVec& value() const { return acc_; }

 private:
  BitVec acc_;
};

// One XOR accumulator per lane: signature bit j across all lanes is acc()[j].
template <class Block>
class PackedXorAccumulatorT final : public PackedReadSinkT<Block> {
 public:
  explicit PackedXorAccumulatorT(unsigned width) : acc_(width) {}
  void on_read(std::size_t, const Block* value) override {
    for (std::size_t j = 0; j < acc_.size(); ++j) acc_[j] ^= value[j];
  }
  void on_read_uniform(std::size_t, std::uint64_t bits, unsigned) override {
    for (; bits; bits &= bits - 1)
      acc_[static_cast<std::size_t>(std::countr_zero(bits))] ^= block_ones<Block>();
  }
  const std::vector<Block>& value() const { return acc_; }

 private:
  std::vector<Block> acc_;
};

using PackedXorAccumulator = PackedXorAccumulatorT<std::uint64_t>;

// Scalar counterpart of SessionBrakeT (bist/packed_engine.h): one lane, so
// "every target lane settled" degenerates to "the fault was detected".
// The scalar reference engine does not abort sessions mid-march (it IS the
// reference); the brake still carries the settle predicate the TOMT
// session's stop-on-failure sweep and the scheduler's counters share.
struct ScalarSessionBrake {
  bool target = true;
  bool already = false;
  bool exit_enabled = false;
  std::uint64_t elements_entered = 0;

  bool should_stop(bool verdict) const { return exit_enabled && (verdict || already); }
  void on_element_end(bool /*verdict*/) {}
};

struct ScalarEngine {
  using Verdict = bool;  // detected?
  using Memory = twm::Memory;
  using Runner = MarchRunner;
  using Misr = twm::Misr;
  using Word = BitVec;       // one word's value
  using Mask = BitVec;       // a per-op data mask, precompiled
  using Signature = BitVec;  // an XOR-accumulator state
  using Accumulator = XorAccumulator;
  using Brake = ScalarSessionBrake;

  // One fault universe per session.
  static constexpr unsigned kFaultsPerUnit = 1;

  static Brake make_brake(Memory& /*mem*/, Verdict used, bool exit_enabled) {
    Brake b;
    b.target = used;
    b.exit_enabled = exit_enabled;
    return b;
  }

  // --- verdict algebra (Verdicts also combine with plain &, |, ==) ------
  static Verdict used_mask(unsigned /*count*/) { return true; }
  static bool bit(Verdict v, unsigned /*slot*/) { return v; }
  // Every universe has detected; nothing further can change the verdict.
  static bool saturated(Verdict v) { return v; }

  // --- fault injection --------------------------------------------------
  static void inject(Memory& mem, const Fault& f, unsigned /*slot*/) { mem.inject(f); }

  // --- engine entry points ----------------------------------------------
  // The scalar engine ignores the brake's exit (one universe, reference
  // semantics) but reports its elements for the progress counters.
  static Verdict run_direct(Runner& runner, const MarchTest& test, Brake* brake = nullptr) {
    if (brake) brake->elements_entered += test.elements.size();
    return runner.run_direct(test).mismatch;
  }
  struct TransparentVerdicts {
    Verdict exact;
    Verdict misr;
  };
  static TransparentVerdicts run_transparent(Runner& runner, const MarchTest& test,
                                             const MarchTest& prediction, unsigned misr_width,
                                             Brake* brake = nullptr, bool /*want_exact*/ = true,
                                             bool /*want_misr*/ = true) {
    if (brake) brake->elements_entered += test.elements.size() + prediction.elements.size();
    const TransparentOutcome out = runner.run_transparent_session(test, prediction, misr_width);
    return {out.detected_exact, out.detected_misr};
  }

  // --- word vocabulary (the TOMT session's working registers) -----------
  static Word make_word(unsigned width) { return BitVec::zeros(width); }
  static Mask make_mask(const BitVec& mask) { return mask; }
  static void read_word(Memory& mem, std::size_t addr, Word& out) { out = mem.read(addr); }
  static void write_word(Memory& mem, std::size_t addr, const Word& data) {
    mem.write(addr, data);
  }
  static void xor_word(Word& dst, const Word& src, const Mask& mask) { dst = src ^ mask; }
  static Verdict parity_mismatch(const Word& w, bool expected) { return w.parity() != expected; }
  static Verdict differs(const Word& a, const Word& b) { return a != b; }

  // --- signature vocabulary (the symmetric session's compactor) ---------
  static Signature signature(const Accumulator& acc) { return acc.value(); }
  static Verdict signature_mismatch(const Accumulator& acc, const BitVec& expected) {
    return acc.value() != expected;
  }
};

template <class Block>
struct PackedEngineT {
  using Verdict = Block;  // lane k: universe k detected
  using Memory = PackedMemoryT<Block>;
  using Runner = PackedMarchRunnerT<Block>;
  using Misr = PackedMisrT<Block>;
  using Word = std::vector<Block>;  // [bit] -> lane block
  using Mask = std::vector<Block>;  // broadcast op mask
  using Signature = std::vector<Block>;
  using Accumulator = PackedXorAccumulatorT<Block>;
  using Brake = SessionBrakeT<Block>;

  // Lane 0 stays fault-free (golden); faults occupy the remaining lanes.
  static constexpr unsigned kFaultsPerUnit = block_lanes_v<Block> - 1;

  // An armed brake also drops settled lanes' faults from the memory's
  // per-address index buckets (fault dropping inside a live batch).
  static Brake make_brake(Memory& mem, Verdict used, bool exit_enabled) {
    Brake b;
    b.target = used;
    b.exit_enabled = exit_enabled;
    b.retire_from = &mem;
    return b;
  }

  // Lanes 1..count — a partial final batch must neither report phantom
  // universes nor mask the golden lane (lane_block.h documents the rule).
  static Verdict used_mask(unsigned count) { return block_used_mask<Block>(count); }
  static bool bit(Verdict v, unsigned slot) { return block_bit(v, slot + 1); }
  static bool saturated(Verdict v) { return v == block_ones<Block>(); }

  static void inject(Memory& mem, const Fault& f, unsigned slot) {
    mem.inject(f, block_lane<Block>(slot + 1));
  }

  static Verdict run_direct(Runner& runner, const MarchTest& test, Brake* brake = nullptr) {
    return runner.run_direct(test, brake);
  }
  struct TransparentVerdicts {
    Verdict exact;
    Verdict misr;
  };
  static TransparentVerdicts run_transparent(Runner& runner, const MarchTest& test,
                                             const MarchTest& prediction, unsigned misr_width,
                                             Brake* brake = nullptr, bool want_exact = true,
                                             bool want_misr = true) {
    const PackedTransparentOutcomeT<Block> out =
        runner.run_transparent_session(test, prediction, misr_width, brake, want_exact,
                                       want_misr);
    return {out.detected_exact, out.detected_misr};
  }

  static Word make_word(unsigned width) { return Word(width); }
  static Mask make_mask(const BitVec& mask) { return broadcast_block<Block>(mask); }
  static void read_word(Memory& mem, std::size_t addr, Word& out) {
    // The port's pointer is invalidated by the next port op; take a copy.
    const Block* v = mem.read(addr);
    std::copy(v, v + out.size(), out.begin());
  }
  static void write_word(Memory& mem, std::size_t addr, const Word& data) {
    mem.write(addr, data.data());
  }
  static void xor_word(Word& dst, const Word& src, const Mask& mask) {
    for (std::size_t j = 0; j < dst.size(); ++j) dst[j] = src[j] ^ mask[j];
  }
  static Verdict parity_mismatch(const Word& w, bool expected) {
    Block parity{};
    for (const Block& lanes : w) parity ^= lanes;
    return expected ? parity ^ block_ones<Block>() : parity;
  }
  static Verdict differs(const Word& a, const Word& b) {
    Verdict d{};
    for (std::size_t j = 0; j < a.size(); ++j) d |= a[j] ^ b[j];
    return d;
  }

  static Signature signature(const Accumulator& acc) { return acc.value(); }
  static Verdict signature_mismatch(const Accumulator& acc, const BitVec& expected) {
    const Signature want = broadcast_block<Block>(expected);
    Verdict d{};
    for (std::size_t j = 0; j < want.size(); ++j) d |= acc.value()[j] ^ want[j];
    return d;
  }
};

// The PR 1 64-lane engine.
using PackedEngine = PackedEngineT<std::uint64_t>;

}  // namespace twm

#endif  // TWM_CORE_ENGINE_TRAITS_H
