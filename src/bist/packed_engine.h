// Lane-parallel march test execution over PackedMemoryT: the batched
// counterpart of bist/engine.h, evaluating one fault universe per lane of
// the Block it is templated over (64, 256 or 512 per pass; see
// memsim/lane_block.h).
//
// Execution styles mirror MarchRunner operation-for-operation:
//
//  * run_direct()     — nontransparent tests; returns the lane mask of
//                       lanes in which at least one Read mismatched its
//                       absolute expected value.
//  * run_test()       — transparent test pass; Write data is derived
//                       per lane from the most recent Read of the same word
//                       (base-estimate XOR operation mask).
//  * run_prediction() — read-only signature-prediction pass feeding
//                       read-value XOR operation-mask per lane.
//
// run_transparent_session() bundles both passes and reports, per lane, the
// exact stream comparison and the MISR signature comparison.  PackedMisrT
// runs one Galois MISR per lane at once by keeping each signature bit as a
// lane block; it reproduces Misr (bist/misr.h) exactly, including the input
// folding rule, so lane verdicts match the scalar engine's.
//
// Lane-uniform fast path.  At every address the runner first tries the
// memory's lane-uniform port (PackedMemoryT::read_uniform/write_uniform):
// a word on a non-packed page is fault-free and identical in every lane,
// so it travels as plain scalar bits — the op masks carry a scalar form
// next to their broadcast blocks, the transparent base-estimate register
// stays scalar while its word is uniform, and reads reach the sinks
// through PackedReadSinkT::on_read_uniform.  The lane-block path runs only
// for words on packed pages (fault footprints and divergent-write spill).
// A sink that does not override on_read_uniform gets the word broadcast
// into lane blocks, so it stays correct without knowing the fast path.
//
// Like the packed memory, the implementation is header-only so each SIMD
// width compiles in its own arch-flagged translation unit; the 64-lane
// aliases (PackedReadSink, PackedMisr, PackedMarchRunner) keep the PR 1
// spelling and are pinned in packed_engine.cpp.
#ifndef TWM_BIST_PACKED_ENGINE_H
#define TWM_BIST_PACKED_ENGINE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bist/address_gen.h"
#include "bist/misr.h"
#include "march/test.h"
#include "memsim/packed_memory.h"

namespace twm {

// Receives the lane blocks of every Read operation.  `value` spans the
// word width and is only valid for the duration of the call.
//
// on_read_uniform delivers a lane-uniform read (every lane holds the same
// word) as its scalar bits: bit j of `bits` is bit j of the word, `width`
// <= 64.  The default broadcasts it and forwards to on_read; sinks on the
// hot path override it to skip the lane blocks altogether.
template <class Block>
class PackedReadSinkT {
 public:
  virtual ~PackedReadSinkT() = default;
  virtual void on_read(std::size_t addr, const Block* value) = 0;
  virtual void on_read_uniform(std::size_t addr, std::uint64_t bits, unsigned width) {
    expand_.resize(width);
    for (unsigned j = 0; j < width; ++j)
      expand_[j] = (bits >> j) & 1u ? block_ones<Block>() : Block{};
    on_read(addr, expand_.data());
  }

 private:
  std::vector<Block> expand_;
};

// One Galois MISR per lane with the same feedback polynomial; signature bit
// i across all lanes is state()[i].
template <class Block>
class PackedMisrT {
 public:
  explicit PackedMisrT(unsigned width) : state_(width), taps_(Misr::default_taps(width)) {
    if (width == 0) throw std::invalid_argument("PackedMisr: zero width");
  }

  unsigned width() const { return static_cast<unsigned>(state_.size()); }

  // Folds one packed input word (input_width lane blocks) into all lane
  // signatures; replicates Misr::feed (shift, conditional feedback, XOR of
  // the width-folded input).
  void feed(const Block* input, unsigned input_width) {
    const unsigned w = width();
    step();
    // Fold the input into width-sized chunks (Misr::feed's rule, per lane).
    for (unsigned i = 0; i < input_width; ++i) state_[i % w] ^= input[i];
  }

  // feed() of a lane-uniform input word given as its scalar bits (a word
  // of at most 64 bits): the step, then all-ones into the fold target of
  // every set bit.
  void feed_uniform(std::uint64_t bits) {
    const unsigned w = width();
    step();
    for (; bits; bits &= bits - 1)
      state_[static_cast<unsigned>(std::countr_zero(bits)) % w] ^= block_ones<Block>();
  }

  const std::vector<Block>& state() const { return state_; }

  // Lanes whose signature differs from `other`'s.
  Block diff(const PackedMisrT& other) const {
    if (width() != other.width())
      throw std::invalid_argument("PackedMisr::diff: width mismatch");
    Block m{};
    for (unsigned i = 0; i < width(); ++i) m |= state_[i] ^ other.state_[i];
    return m;
  }

 private:
  void step() {
    const unsigned w = width();
    const Block carry = state_[w - 1];  // lanes whose MSB shifts out
    for (unsigned i = w; i-- > 1;) state_[i] = state_[i - 1];
    state_[0] = Block{};
    for (unsigned t : taps_) state_[t] ^= carry;
  }

  std::vector<Block> state_;    // [bit] -> lane block
  std::vector<unsigned> taps_;  // set bits of the feedback pattern
};

template <class Block>
struct PackedTransparentOutcomeT {
  Block detected_exact{};  // prediction/test read streams differ
  Block detected_misr{};   // MISR signatures differ
};

// Cooperative mid-session brake for sessions whose per-lane verdict is
// MONOTONE (exact stream/value comparison: a lane's bit, once set, is
// final).  The repack scheduler (analysis/campaign_exec.h) arms one per
// unit so a session can
//
//   * abort the remaining march work once every lane in `target` has a
//     final verdict (settle-exit — checked after each address's ops), and
//   * drop the faults of lanes that settled mid-session from the packed
//     memory's index buckets (retire_lanes, at element boundaries), so the
//     write path stops paying for universes whose verdict is already known.
//
// Both actions are verdict-preserving only for monotone verdicts; sessions
// with order-insensitive compaction (XOR accumulator) or signature
// compression (MISR) must not arm `exit_enabled` — their lanes' verdicts
// are not final until the session ends (aliasing can cancel a mismatch).
// With exit_enabled false the brake still counts march elements entered,
// which is what the scheduler's occupancy/forward-progress counters read.
template <class Block>
struct SessionBrakeT {
  Block target{};    // lanes whose verdicts the caller needs (fault lanes)
  Block already{};   // verdict contribution of earlier passes (e.g. SMarch)
  bool exit_enabled = false;
  PackedMemoryT<Block>* retire_from = nullptr;  // optional fault dropping
  Block retired{};                              // lanes already dropped
  std::uint64_t elements_entered = 0;           // march elements started

  // Every target lane's verdict is final -> abort the rest of the session.
  bool should_stop(const Block& verdict) const {
    if (!exit_enabled || !block_any(target)) return false;
    return ((verdict | already) & target) == target;
  }

  // Element boundary: drop the faults of lanes that settled since the last
  // boundary (only meaningful for monotone sessions, hence the exit gate).
  void on_element_end(const Block& verdict) {
    if (!exit_enabled || !retire_from) return;
    const Block settled = (verdict | already) & target & ~retired;
    if (!block_any(settled)) return;
    retired |= settled;
    retire_from->retire_lanes(retired);
  }
};

template <class Block>
class PackedMarchRunnerT {
 public:
  explicit PackedMarchRunnerT(PackedMemoryT<Block>& mem) : mem_(mem) {}

  // `brake`, when non-null, is polled after each address's ops: the sweep
  // aborts once every brake-target lane's mismatch bit is set (the verdict
  // is monotone — an abort returns exactly the final verdict of the target
  // lanes), and lanes that settle mid-march have their faults dropped from
  // the memory at element boundaries.
  Block run_direct(const MarchTest& test, SessionBrakeT<Block>* brake = nullptr) {
    const unsigned w = mem_.word_width();
    Block mismatch{};
    sweep_braked(
        test,
        [&](std::size_t addr, const Op& op, const OpMask& mask) {
          if (op.data.relative)
            throw std::invalid_argument(
                "run_direct: test contains transparent (relative) operations");
          // For absolute specs, mask(w) == value(w, ·): the expected read
          // value / the write data, broadcast over lanes.
          if (op.is_write()) {
            write_absolute(addr, mask);
            return;
          }
          std::uint64_t bits;
          if (mem_.read_uniform(addr, bits)) {
            // A uniform word mismatches in every lane or in none.
            if (bits != mask.bits) mismatch = block_ones<Block>();
            return;
          }
          const Block* actual = mem_.read(addr);
          for (unsigned j = 0; j < w; ++j) mismatch |= actual[j] ^ mask.blocks[j];
        },
        brake, [&] { return mismatch; });
    return mismatch;
  }

  void run_test(const MarchTest& test, PackedReadSinkT<Block>& sink) {
    run_test_braked(test, sink, nullptr, [] { return Block{}; });
  }

  // run_test with an armed brake: `verdict` reports the caller's current
  // (monotone) detection state — here that is the exact stream comparison
  // accumulated by the sink, which the runner itself cannot see.
  template <typename VerdictFn>
  void run_test_braked(const MarchTest& test, PackedReadSinkT<Block>& sink,
                       SessionBrakeT<Block>* brake, VerdictFn&& verdict) {
    const unsigned w = mem_.word_width();
    std::vector<Block> data(w);

    // A read sets its word's base estimate (the value read XOR the op
    // mask): scalar `bits` when the word reads lane-uniform, lane `blocks`
    // otherwise.  Returns which of the two it set.
    auto read_base = [&](std::size_t addr, const OpMask& mask, Block* blocks,
                         std::uint64_t& bits) {
      if (mem_.read_uniform(addr, bits)) {
        sink.on_read_uniform(addr, bits, w);
        bits ^= mask.bits;
        return true;
      }
      const Block* v = mem_.read(addr);
      sink.on_read(addr, v);
      for (unsigned j = 0; j < w; ++j) blocks[j] = v[j] ^ mask.blocks[j];
      return false;
    };
    // A word that read uniform is still on its non-packed page: only a
    // lane-divergent write promotes a page, and a uniform base yields none.
    auto write_relative = [&](std::size_t addr, const OpMask& mask, const Block* blocks,
                              std::uint64_t bits, bool uniform) {
      if (uniform) {
        if (!mem_.write_uniform(addr, bits ^ mask.bits))
          throw std::logic_error("run_test: lane-uniform base of a packed word");
        return;
      }
      for (unsigned j = 0; j < w; ++j) data[j] = blocks[j] ^ mask.blocks[j];
      mem_.write(addr, data.data());
    };

    if (history_free_relative(test)) {
      // Every relative write is preceded by a read of the same word earlier
      // in its element's op list, so by the time the write fires the "most
      // recent read of this word" is the one just performed at the current
      // address: the base estimate register shrinks to O(width) instead of
      // an O(words x width) shadow copy of the memory.
      std::vector<Block> cur(w);
      std::uint64_t cur_bits = 0;
      bool cur_uniform = false;
      std::size_t cur_addr = static_cast<std::size_t>(-1);
      sweep_braked(
          test,
          [&](std::size_t addr, const Op& op, const OpMask& mask) {
            if (op.is_read()) {
              cur_uniform = read_base(addr, mask, cur.data(), cur_bits);
              cur_addr = addr;
            } else if (op.data.relative) {
              if (cur_addr != addr)
                throw std::logic_error("run_test: transparent write before any read of word");
              write_relative(addr, mask, cur.data(), cur_bits, cur_uniform);
            } else {
              write_absolute(addr, mask);
            }
          },
          brake, std::forward<VerdictFn>(verdict));
      return;
    }

    // General fallback for tests whose relative writes consume a read from
    // an earlier element: the full per-lane base estimate of each word's
    // initial content (the transparent BIST's word register, one copy per
    // universe).
    enum : char { kNoBase, kUniformBase, kBlockBase };
    std::vector<Block> base(mem_.num_words() * w);
    std::vector<std::uint64_t> base_bits(mem_.num_words());
    std::vector<char> state(mem_.num_words(), kNoBase);

    sweep_braked(
        test,
        [&](std::size_t addr, const Op& op, const OpMask& mask) {
          Block* b = &base[addr * w];
          if (op.is_read()) {
            state[addr] = read_base(addr, mask, b, base_bits[addr]) ? kUniformBase : kBlockBase;
          } else if (op.data.relative) {
            if (state[addr] == kNoBase)
              throw std::logic_error("run_test: transparent write before any read of word");
            write_relative(addr, mask, b, base_bits[addr], state[addr] == kUniformBase);
          } else {
            write_absolute(addr, mask);
          }
        },
        brake, std::forward<VerdictFn>(verdict));
  }

  void run_prediction(const MarchTest& prediction, PackedReadSinkT<Block>& sink) {
    const unsigned w = mem_.word_width();
    std::vector<Block> predicted(w);
    sweep(prediction, [&](std::size_t addr, const Op& op, const OpMask& mask) {
      if (op.is_write())
        throw std::invalid_argument("run_prediction: prediction test must be read-only");
      std::uint64_t bits;
      if (mem_.read_uniform(addr, bits)) {
        sink.on_read_uniform(addr, bits ^ mask.bits, w);
        return;
      }
      const Block* raw = mem_.read(addr);
      for (unsigned j = 0; j < w; ++j) predicted[j] = raw[j] ^ mask.blocks[j];
      sink.on_read(addr, predicted.data());
    });
  }

  // `want_exact` / `want_misr` select which verdicts the caller will
  // consume; the unused checker's work (stream recording + comparison, or
  // the per-read MISR folds) is skipped and its outcome member is
  // meaningless.  A brake may only arm exit_enabled when want_misr is
  // false (the exact stream comparison is monotone; MISR signatures are
  // not final until the session ends).
  PackedTransparentOutcomeT<Block> run_transparent_session(const MarchTest& test,
                                                           const MarchTest& prediction,
                                                           unsigned misr_width,
                                                           SessionBrakeT<Block>* brake = nullptr,
                                                           bool want_exact = true,
                                                           bool want_misr = true);

 private:
  // An op's data mask in both port forms: broadcast lane blocks for the
  // lane-block port, scalar word bits for the lane-uniform port (only
  // meaningful when the memory has one, i.e. words of <= 64 bits).
  struct OpMask {
    std::vector<Block> blocks;
    std::uint64_t bits = 0;
  };

  // True when every relative write is preceded by a read somewhere earlier
  // in the SAME element's op list — the transparent-march normal form.  The
  // ops of one element run back-to-back at each address, so the read that
  // precedes the write in the op list is also the most recent read of that
  // word, and the per-word base history is unnecessary.
  static bool history_free_relative(const MarchTest& test) {
    for (const MarchElement& e : test.elements) {
      bool read_seen = false;
      for (const Op& op : e.ops) {
        if (op.is_read())
          read_seen = true;
        else if (op.data.relative && !read_seen)
          return false;
      }
    }
    return true;
  }

  // A pass that runs to completion regardless of the brake (the prediction
  // pass) still reports its march elements to the progress counters.
  static void sweep_count_only(const MarchTest& test, SessionBrakeT<Block>* brake) {
    if (brake) brake->elements_entered += test.elements.size();
  }

  // Per-op masks of a test, flattened as [element][op].
  static std::vector<std::vector<OpMask>> op_masks(const MarchTest& test, unsigned w) {
    std::vector<std::vector<OpMask>> masks(test.elements.size());
    for (std::size_t e = 0; e < test.elements.size(); ++e) {
      masks[e].reserve(test.elements[e].ops.size());
      for (const Op& op : test.elements[e].ops) {
        const BitVec m = op.data.mask(w);
        OpMask om{broadcast_block<Block>(m), 0};
        for (unsigned j = 0; j < w && j < 64; ++j)
          if (m.get(j)) om.bits |= std::uint64_t{1} << j;
        masks[e].push_back(std::move(om));
      }
    }
    return masks;
  }

  // An absolute write: mask(w) == value(w, ·), lane-uniform.
  void write_absolute(std::size_t addr, const OpMask& mask) {
    if (!mem_.write_uniform(addr, mask.bits)) mem_.write(addr, mask.blocks.data());
  }

  // Visits every (element, op, address) in march order, precomputing the
  // masks of each op once per element.
  template <typename PerOp>
  void sweep(const MarchTest& test, PerOp&& per_op) {
    sweep_braked(test, std::forward<PerOp>(per_op), nullptr, [] { return Block{}; });
  }

  // sweep with an optional SessionBrake: counts elements entered, polls the
  // settle predicate after each address, drops settled lanes' faults at
  // element boundaries.  `verdict` yields the caller's current monotone
  // detection state.
  template <typename PerOp, typename VerdictFn>
  void sweep_braked(const MarchTest& test, PerOp&& per_op, SessionBrakeT<Block>* brake,
                    VerdictFn&& verdict) {
    const unsigned w = mem_.word_width();
    const auto masks = op_masks(test, w);
    for (std::size_t e = 0; e < test.elements.size(); ++e) {
      const MarchElement& elem = test.elements[e];
      if (brake) ++brake->elements_entered;
      if (elem.pause_before) mem_.elapse(1);
      if (elem.ops.empty()) continue;
      // Software-pipelined address loop: the generator runs one address
      // ahead of the ops, and the NEXT address's cell span is prefetched
      // while the CURRENT address's ops execute.  A packed word spans
      // width x sizeof(Block) bytes — eight cache lines for an 8-bit word
      // of 512-lane blocks — and descending elements walk against the
      // hardware streamer, so the hint starts that span early.  Its gain
      // at lane-block widths is unmeasured; on non-packed pages it is one
      // early-out branch per address.
      AddressGen gen(elem.order, mem_.num_words());
      std::size_t addr = gen.current();
      for (;;) {
        gen.advance();
        const bool last = gen.done();
        if (!last) mem_.prefetch(gen.current());
        for (std::size_t i = 0; i < elem.ops.size(); ++i) per_op(addr, elem.ops[i], masks[e][i]);
        if (brake && brake->should_stop(verdict())) return;
        if (last) break;
        addr = gen.current();
      }
      if (brake) brake->on_element_end(verdict());
    }
  }

  PackedMemoryT<Block>& mem_;
};

namespace packed_detail {

// Records the packed read stream, compressed.  Reads of unfaulted words are
// lane-uniform (every lane holds the golden value), so the common case
// stores one bit per bit-plane — appended straight from the uniform port's
// scalar bits, with no lane blocks in sight; only reads whose lanes diverge
// — a bounded set, proportional to the fault footprint, not the geometry —
// keep their full lane blocks in a position-sorted side table.  This turns
// the prediction stream of a W-word march from O(W x width x sizeof(Block))
// into O(W x width / 8) bytes plus the divergent tail.
template <class Block>
class StreamRecorder final : public PackedReadSinkT<Block> {
 public:
  explicit StreamRecorder(unsigned width) : width_(width) {}
  void reserve_reads(std::size_t reads) { bits_.reserve((reads * width_ + 63) / 64); }

  void on_read(std::size_t, const Block* value) override {
    bool divergent = false;
    for (unsigned j = 0; j < width_ && !divergent; ++j)
      divergent = block_any(value[j]) && block_any(~value[j]);
    const std::size_t base = grow();
    if (divergent) {
      divergent_.push_back({count_ - 1, blocks_.size()});
      blocks_.insert(blocks_.end(), value, value + width_);
      return;
    }
    for (unsigned j = 0; j < width_; ++j)
      if (block_any(value[j])) bits_[(base + j) >> 6] |= std::uint64_t{1} << ((base + j) & 63);
  }

  void on_read_uniform(std::size_t, std::uint64_t bits, unsigned) override {
    set_limb_bits(bits_.data(), grow(), width_, bits);
  }

  std::size_t reads() const { return count_; }

  // Lane blocks of read `i` if it was divergent, else nullptr.  `cursor`
  // is the caller's position in the divergent table: lookups must come in
  // non-decreasing `i` order (a stream comparison's order), which turns
  // the search into a forward walk.
  const Block* divergent_at(std::size_t i, std::size_t& cursor) const {
    while (cursor < divergent_.size() && divergent_[cursor].pos < i) ++cursor;
    if (cursor < divergent_.size() && divergent_[cursor].pos == i)
      return &blocks_[divergent_[cursor].offset];
    return nullptr;
  }

  // Bit j of a non-divergent read `i`.
  bool uniform_bit(std::size_t i, unsigned j) const {
    const std::size_t pos = i * width_ + j;
    return (bits_[pos >> 6] >> (pos & 63)) & 1u;
  }
  // All bits of a non-divergent read `i` (words of <= 64 bits).
  std::uint64_t uniform_bits(std::size_t i) const {
    return get_limb_bits(bits_.data(), i * width_, width_);
  }

 private:
  struct Entry {
    std::size_t pos;     // read index in the stream
    std::size_t offset;  // into blocks_ (width_ lane blocks per entry)
  };

  // Appends one read's (zeroed) bit slots; returns its first bit position.
  std::size_t grow() {
    const std::size_t base = count_++ * width_;
    bits_.resize((base + width_ + 63) / 64, 0);
    return base;
  }

  unsigned width_;
  std::size_t count_ = 0;
  std::vector<std::uint64_t> bits_;  // [pos * width + j] -> uniform lane bit
  std::vector<Entry> divergent_;     // appended in stream order => sorted
  std::vector<Block> blocks_;
};

// Feeds reads into a packed MISR and/or diffs them against a recorded
// prediction stream position-by-position; either checker may be absent
// (nullptr) when its verdict is not wanted.  A uniform read compared with a
// uniform prediction is one XOR of scalar bits; any difference there is a
// difference in every lane, exactly as the lane-block comparison finds.
template <class Block>
class SessionTestSink final : public PackedReadSinkT<Block> {
 public:
  SessionTestSink(unsigned width, const StreamRecorder<Block>* prediction,
                  PackedMisrT<Block>* misr)
      : width_(width), prediction_(prediction), misr_(misr) {}

  void on_read(std::size_t, const Block* value) override {
    if (misr_) misr_->feed(value, width_);
    if (prediction_ && pos_ < prediction_->reads()) {
      if (const Block* p = prediction_->divergent_at(pos_, cursor_)) {
        for (unsigned j = 0; j < width_; ++j) stream_diff_ |= value[j] ^ p[j];
      } else {
        for (unsigned j = 0; j < width_; ++j)
          stream_diff_ |= prediction_->uniform_bit(pos_, j) ? ~value[j] : value[j];
      }
    }
    ++pos_;
  }

  void on_read_uniform(std::size_t, std::uint64_t bits, unsigned) override {
    if (misr_) misr_->feed_uniform(bits);
    if (prediction_ && pos_ < prediction_->reads()) {
      if (const Block* p = prediction_->divergent_at(pos_, cursor_)) {
        for (unsigned j = 0; j < width_; ++j) stream_diff_ |= (bits >> j) & 1u ? ~p[j] : p[j];
      } else if (bits != prediction_->uniform_bits(pos_)) {
        stream_diff_ = block_ones<Block>();
      }
    }
    ++pos_;
  }

  std::size_t reads() const { return pos_; }
  Block stream_diff() const { return stream_diff_; }

 private:
  unsigned width_;
  const StreamRecorder<Block>* prediction_;
  PackedMisrT<Block>* misr_;
  std::size_t pos_ = 0;
  std::size_t cursor_ = 0;  // into the prediction's divergent table
  Block stream_diff_{};
};

// Feeds reads into a packed MISR and optionally records them (the
// recorder is skipped when the exact comparison is not wanted).
template <class Block>
class MisrFeedSink final : public PackedReadSinkT<Block> {
 public:
  MisrFeedSink(unsigned width, PackedMisrT<Block>& misr, StreamRecorder<Block>* rec)
      : width_(width), misr_(misr), rec_(rec) {}
  void on_read(std::size_t addr, const Block* value) override {
    misr_.feed(value, width_);
    if (rec_) rec_->on_read(addr, value);
  }
  void on_read_uniform(std::size_t addr, std::uint64_t bits, unsigned width) override {
    misr_.feed_uniform(bits);
    if (rec_) rec_->on_read_uniform(addr, bits, width);
  }

 private:
  unsigned width_;
  PackedMisrT<Block>& misr_;
  StreamRecorder<Block>* rec_;
};

}  // namespace packed_detail

template <class Block>
PackedTransparentOutcomeT<Block> PackedMarchRunnerT<Block>::run_transparent_session(
    const MarchTest& test, const MarchTest& prediction, unsigned misr_width,
    SessionBrakeT<Block>* brake, bool want_exact, bool want_misr) {
  const unsigned w = mem_.word_width();
  PackedTransparentOutcomeT<Block> out;

  packed_detail::StreamRecorder<Block> pred_stream(w);
  // The prediction is read-only, so its exact read count is known up front;
  // reserving avoids reallocating the (lanes x width)-sized stream as it
  // grows.
  if (want_exact) pred_stream.reserve_reads(prediction.op_count() * mem_.num_words());
  PackedMisrT<Block> pred_misr(want_misr ? misr_width : 1);
  if (want_misr) {
    packed_detail::MisrFeedSink<Block> pred_sink(w, pred_misr,
                                                 want_exact ? &pred_stream : nullptr);
    // The prediction pass has no comparison yet, so the brake only counts
    // its elements; the settle predicate cannot fire before the test pass.
    sweep_count_only(prediction, brake);
    run_prediction(prediction, pred_sink);
  } else {
    sweep_count_only(prediction, brake);
    run_prediction(prediction, pred_stream);
  }

  PackedMisrT<Block> test_misr(want_misr ? misr_width : 1);
  packed_detail::SessionTestSink<Block> test_sink(w, want_exact ? &pred_stream : nullptr,
                                                  want_misr ? &test_misr : nullptr);
  run_test_braked(test, test_sink, brake, [&] { return test_sink.stream_diff(); });

  out.detected_exact = test_sink.stream_diff();
  // A read-count mismatch makes the scalar stream comparison fail outright,
  // in every lane — unless the brake aborted the test pass, in which case
  // every target lane's bit is already (finally) set and the short count is
  // expected.
  const bool aborted = brake && brake->should_stop(test_sink.stream_diff());
  if (want_exact && !aborted && test_sink.reads() != pred_stream.reads())
    out.detected_exact = block_ones<Block>();
  if (want_misr) out.detected_misr = pred_misr.diff(test_misr);
  return out;
}

// The PR 1 64-lane spellings.
using PackedReadSink = PackedReadSinkT<std::uint64_t>;
using PackedMisr = PackedMisrT<std::uint64_t>;
using PackedTransparentOutcome = PackedTransparentOutcomeT<std::uint64_t>;
using PackedMarchRunner = PackedMarchRunnerT<std::uint64_t>;

extern template class PackedMisrT<std::uint64_t>;
extern template class PackedMarchRunnerT<std::uint64_t>;

}  // namespace twm

#endif  // TWM_BIST_PACKED_ENGINE_H
