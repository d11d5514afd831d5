// Bit-parallel batched fault simulator: one fault universe per lane of a
// lane block (64, 256 or 512 universes per machine pass).
//
// PackedMemoryT<Block> models the same N x B functional RAM as Memory
// (memory.h), but stores each cell (word, bit) as a lane block: lane k of
// the stored Block is the cell's value in universe k.  Block is any type
// satisfying the concept in memsim/lane_block.h — std::uint64_t (the
// original 64-lane layout; PackedMemory aliases it) or LaneBlock<K> for
// K x 64 lanes.  Faults are injected with a Block-typed lane mask
// restricting them to a subset of lanes, so one memory simulates up to
// block_lanes_v<Block> different fault configurations — by convention lane
// 0 is kept fault-free (the golden universe batched coverage evaluation
// uses as a self-check).
//
// The write semantics are the documented five steps of Memory::write
// (transition suppression, commit, CFid/CFin aggressor-fire, CFst
// enforcement, SAF dominance) plus RET aging and the AF decoder-fault
// port distortions, each implemented as lane-masked bitwise operations
// instead of per-fault branches; faults are applied in injection order, so
// every lane observes exactly the effect sequence the scalar simulator
// would produce for its fault subset (tests/packed_memory_test.cpp proves
// this differentially).
//
// Storage is PAGED, not dense.  A dense [addr * width + bit] lane-block
// array costs words x width x sizeof(Block) — ~8 GiB for 16M words at
// width 8 on the 512-lane backend — which caps workloads at toy
// geometries.  Instead the address space is split into fixed 64-word
// pages, each in one of three states:
//
//   * background — no page object at all; every cell reads as the fill
//     background (a broadcast pattern, or one word of a seeded/loaded
//     per-word bit baseline).  This is what fill()/fill_seeded() leave
//     behind: an O(live pages) reset instead of an O(words) rewrite.
//   * scalar — the page has been written, but only with lane-uniform
//     (broadcast) data and holds no fault; it stores one bit per cell
//     (64 x width bits), a ~sizeof(Block)*8 compression.  March sweeps
//     over fault-free regions stay in this representation.
//   * packed — full lane blocks plus the per-word fault index buckets.
//     Every word in any injected fault's footprint (victim, aggressor,
//     alias target) is materialized packed at inject() time and stays
//     packed until the faults are cleared; a lane-divergent write to a
//     fault-free page also promotes it.
//
// The invariant that fault footprints are always packed is what keeps the
// port fast paths sound: an operation on a non-packed page can touch no
// fault (its buckets are empty by construction) and lane-uniform state,
// so it skips the fault machinery entirely.  Pages freed by a refill go
// to a free-list and are reused, so the repack scheduler's
// clear_faults()/fill() round rebuild allocates nothing in steady state.
//
// The same invariant gives the memory a second, LANE-UNIFORM port:
// read_uniform()/write_uniform() move a word on a non-packed page as its
// plain scalar bits (bit j of a std::uint64_t is bit j of the word), never
// as width lane blocks.  They return false, touching nothing, on a packed
// page (or for words wider than 64 bits), and the caller takes the
// lane-block port instead; a successful call counts one port operation,
// exactly like read()/write(), so op_count() is the same whichever port
// served a word.  The march runner (bist/packed_engine.h) tries this port
// first at every address, so a fault-free word is read, written, recorded
// and compared as scalar bits through the whole sweep and only fault
// footprints pay for lane blocks.
//
// Wide batches carry proportionally more faults per memory, so the port
// operations must not scan the whole fault list: faults are indexed by
// class and address at injection time (in per-page buckets), and
// static-fault enforcement after a write walks only the CFst/SAF faults
// whose aggressor or victim lives in a word the write disturbed.  Entries
// the walk skips are idempotent no-ops: statics were already enforced
// after the previous operation, nothing in their words changed since, and
// — the load-bearing condition — no *other* fault's effect can
// re-activate them, because every injected lane mask is pairwise disjoint
// (one fault per universe, the campaign contract), so cross-fault CFst
// chains cannot exist.  The moment two faults share a lane (multi-fault
// universes, as the differential tests build) the simulator detects the
// overlap at inject time and falls back to the global two-pass
// enforcement the scalar Memory performs.
//
// A packed word is passed around as `const Block*` / `Block*` spanning
// word_width() entries; entry j is bit j of the word across all lanes.
// Data identical in every lane ("broadcast") represents fault-free inputs,
// e.g. absolute march write data.
//
// The whole implementation lives in this header: each SIMD width is
// compiled in its own translation unit with the matching arch flags (see
// src/analysis/campaign_w256.cpp / campaign_w512.cpp) so the per-block
// loops auto-vectorize; packed_memory.cpp pins the 64-lane instantiation.
#ifndef TWM_MEMSIM_PACKED_MEMORY_H
#define TWM_MEMSIM_PACKED_MEMORY_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

#include "memsim/fault.h"
#include "memsim/lane_block.h"
#include "util/bitvec.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace twm {

inline constexpr unsigned kPackedLanes = 64;

// Bit k set = the fault / event applies to (happened in) lane k.  The
// 64-lane backend's mask type; wide backends use their Block as the mask.
using LaneMask = std::uint64_t;

// Page geometry shared by the packed and scalar paged simulators: 64 words
// per page keeps a packed page (64 x width lane blocks + fault buckets)
// tens of KiB even at 512 lanes, while the page table stays words/64
// pointers.
inline constexpr unsigned kMemPageShift = 6;
inline constexpr std::size_t kMemPageWords = std::size_t{1} << kMemPageShift;
inline constexpr std::size_t kMemPageMask = kMemPageWords - 1;

// Broadcasts a lane-uniform (fault-free) word into packed form: entry j is
// the all-ones or all-zero lane block of the word's bit j.
template <class Block>
std::vector<Block> broadcast_block(const BitVec& word) {
  std::vector<Block> out(word.width());
  for (unsigned j = 0; j < word.width(); ++j)
    out[j] = word.get(j) ? block_ones<Block>() : Block{};
  return out;
}

inline std::vector<std::uint64_t> broadcast_word(const BitVec& word) {
  return broadcast_block<std::uint64_t>(word);
}

// The `width` (<= 64) bits starting at bit `pos` of a limb array, where bit
// i of limb k is bit 64k + i: one word of a scalar page, a baseline or a
// recorded read stream.  A span that straddles a limb boundary needs the
// next limb to exist.
inline std::uint64_t get_limb_bits(const std::uint64_t* limbs, std::size_t pos,
                                   unsigned width) {
  const unsigned sh = pos & 63;
  std::uint64_t v = limbs[pos >> 6] >> sh;
  if (sh + width > 64) v |= limbs[(pos >> 6) + 1] << (64 - sh);
  return width >= 64 ? v : v & ((std::uint64_t{1} << width) - 1);
}
// Overwrites that span with the low `width` bits of `bits`.
inline void set_limb_bits(std::uint64_t* limbs, std::size_t pos, unsigned width,
                          std::uint64_t bits) {
  const std::uint64_t mask = width >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
  bits &= mask;
  const unsigned sh = pos & 63;
  std::uint64_t* l = limbs + (pos >> 6);
  l[0] = (l[0] & ~(mask << sh)) | (bits << sh);
  if (sh + width > 64) l[1] = (l[1] & ~(mask >> (64 - sh))) | (bits >> (64 - sh));
}

template <class Block>
class PackedMemoryT {
 public:
  PackedMemoryT(std::size_t num_words, unsigned word_width)
      : words_(num_words),
        width_(word_width),
        old_(word_width),
        next_(word_width),
        read_buf_(word_width),
        peek_buf_(word_width) {
    if (num_words == 0 || word_width == 0)
      throw std::invalid_argument("PackedMemory: empty geometry");
    table_.resize((num_words + kMemPageWords - 1) / kMemPageWords);
    bg_pattern_ = BitVec::zeros(width_);
    pattern_limbs_.assign(width_, 0);  // 64 copies of the all-zero pattern
  }

  // The background baseline pointers reference this object's own storage;
  // copying would leave the copy aliasing the original.  Nothing copies a
  // packed memory (workers construct their own), so forbid it outright.
  PackedMemoryT(const PackedMemoryT&) = delete;
  PackedMemoryT& operator=(const PackedMemoryT&) = delete;
  PackedMemoryT(PackedMemoryT&&) = default;
  PackedMemoryT& operator=(PackedMemoryT&&) = default;

  unsigned word_width() const { return width_; }
  std::size_t num_words() const { return words_; }

  // --- the memory port -------------------------------------------------
  // Returned pointer spans word_width() lane blocks and stays valid until
  // the next port operation (read/write/elapse) or load to the memory.
  const Block* read(std::size_t addr) {
    ++ops_;
    if (addr >= words_) throw std::out_of_range("PackedMemory::read");
    const Page* p = table_[addr >> kMemPageShift].get();
    if (!p || !p->packed) {
      // Fault footprints are always packed, so no decoder fault can
      // distort this port read — broadcast the scalar value.
      expand_word(addr, p, read_buf_.data());
      return read_buf_.data();
    }
    const std::size_t rd_local = addr & kMemPageMask;
    const Block* word = &p->cells[rd_local * width_];
    if (!bucket_nonempty(*p, kAf, rd_local)) return word;
    // AF port distortion, per fault in injection order: AFna lanes see the
    // floating bus (zeros), AFaw lanes the wired-AND of every decoded cell.
    std::copy(word, word + width_, read_buf_.begin());
    for (const std::uint32_t i : p->buckets[kAf * kMemPageWords + rd_local]) {
      const LaneFault& lf = faults_[i];
      const Block keep = ~lf.lanes;
      if (lf.fault.cls == FaultClass::AFna) {
        for (unsigned j = 0; j < width_; ++j) read_buf_[j] &= keep;
      } else {
        for (unsigned j = 0; j < width_; ++j)
          read_buf_[j] &= keep | cell({lf.fault.aggressor.word, j});
      }
    }
    return read_buf_.data();
  }

  // --- the lane-uniform port (see the header comment) -------------------
  // True when words are narrow enough (<= 64 bits) for the uniform port.
  bool uniform_port() const { return width_ <= 64; }

  // Scalar bits of a word on a non-packed page; false (no op counted) on a
  // packed page or without a uniform port.
  bool read_uniform(std::size_t addr, std::uint64_t& bits) {
    if (addr >= words_) throw std::out_of_range("PackedMemory::read");
    const Page* p = table_[addr >> kMemPageShift].get();
    if (!uniform_port() || (p && p->packed)) return false;
    ++ops_;
    bits = scalar_word(addr, p);
    return true;
  }

  // Stores the low word_width() bits of `bits` into a word on a non-packed
  // page; false (nothing written, no op counted) on a packed page or
  // without a uniform port.  Like a lane-uniform write(): the page holds
  // no fault, so nothing can trigger, suppress or disturb anything.
  bool write_uniform(std::size_t addr, std::uint64_t bits) {
    if (addr >= words_) throw std::out_of_range("PackedMemory::write");
    const std::size_t pi = addr >> kMemPageShift;
    Page* p = table_[pi].get();
    if (!uniform_port() || (p && p->packed)) return false;
    ++ops_;
    Page& sp = p ? *p : materialize_scalar(pi);
    set_limb_bits(sp.bits.data(), (addr & kMemPageMask) * width_, width_, bits);
    return true;
  }

  // `data` spans word_width() lane blocks (per-lane write data).
  void write(std::size_t addr, const Block* data) {
    ++ops_;
    if (addr >= words_) throw std::out_of_range("PackedMemory::write");
    const std::size_t pi = addr >> kMemPageShift;
    Page* p = table_[pi].get();
    if (!p || !p->packed) {
      // No fault lives anywhere on this page (footprints are packed), so
      // the write cannot trigger, suppress or disturb anything: store the
      // scalar value — unless the data itself is lane-divergent, which
      // forces the full lane-block representation.
      bool uniform = true;
      for (unsigned j = 0; j < width_; ++j) {
        const Block& b = data[j];
        if (block_any(b) && block_any(~b)) {
          uniform = false;
          break;
        }
      }
      if (uniform) {
        Page& sp = p ? *p : materialize_scalar(pi);
        const std::size_t base = (addr & kMemPageMask) * width_;
        for (unsigned j = 0; j < width_; ++j)
          set_limb_bit(sp.bits.data(), base + j, block_any(data[j]));
        return;
      }
      p = &materialize_packed(pi);
    }
    const std::size_t local = addr & kMemPageMask;
    Block* word = &p->cells[local * width_];
    std::copy(word, word + width_, old_.begin());
    std::copy(data, data + width_, next_.begin());
    touched_.clear();
    touched_.push_back(addr);

    // Step 0: an AFna address decodes to no cell — the write is lost in the
    // faulted lanes (the cells keep their old value, so the later steps see
    // no transitions there).
    const bool has_af = bucket_nonempty(*p, kAf, local);
    if (has_af)
      for (const std::uint32_t i : p->buckets[kAf * kMemPageWords + local]) {
        const LaneFault& lf = faults_[i];
        if (lf.fault.cls != FaultClass::AFna) continue;
        for (unsigned j = 0; j < width_; ++j)
          next_[j] = (next_[j] & ~lf.lanes) | (old_[j] & lf.lanes);
      }

    // Step 1: transition faults suppress the failing transition (per lane).
    if (bucket_nonempty(*p, kTf, local))
      for (const std::uint32_t i : p->buckets[kTf * kMemPageWords + local]) {
        const LaneFault& lf = faults_[i];
        const Fault& f = lf.fault;
        const Block o = old_[f.victim.bit];
        const Block n = next_[f.victim.bit];
        const Block transitioning = f.trans == Transition::Up ? (~o & n) : (o & ~n);
        const Block suppressed = transitioning & lf.lanes;
        next_[f.victim.bit] = (n & ~suppressed) | (o & suppressed);
      }

    // Step 2: commit.
    std::copy(next_.begin(), next_.end(), word);

    // Step 3: dynamic coupling faults triggered by aggressor transitions
    // caused by this write.  The aggressor is sampled from the live state,
    // so earlier coupling effects on the same word are seen — matching the
    // scalar simulator's fault-by-fault ordering per lane.
    if (bucket_nonempty(*p, kDyn, local))
      for (const std::uint32_t i : p->buckets[kDyn * kMemPageWords + local]) {
        const LaneFault& lf = faults_[i];
        const Fault& f = lf.fault;
        const Block o = old_[f.aggressor.bit];
        const Block n = cell(f.aggressor);
        const Block transitioning = f.trans == Transition::Up ? (~o & n) : (o & ~n);
        const Block fired = transitioning & lf.lanes;
        if (f.cls == FaultClass::CFid)
          force(cell(f.victim), f.value, fired);
        else
          cell(f.victim) ^= fired;
        touch(f.victim.word);
      }

    // Step 3.5: an AFaw address additionally decodes to the alias word —
    // the committed value is raw-copied there in the faulted lanes (no
    // TF/coupling interplay at the target; statics are re-enforced below).
    if (has_af)
      for (const std::uint32_t i : p->buckets[kAf * kMemPageWords + local]) {
        const LaneFault& lf = faults_[i];
        if (lf.fault.cls != FaultClass::AFaw) continue;
        const Block keep = ~lf.lanes;
        for (unsigned j = 0; j < width_; ++j) {
          Block& target = cell({lf.fault.aggressor.word, j});
          target = (target & keep) | (cell({addr, j}) & lf.lanes);
        }
        touch(lf.fault.aggressor.word);
      }

    // A write refreshes the retention clock of any leaky cell it targets
    // (the row strobe happens even when a decoder fault loses the data).
    // The refresh is lane-independent: every lane performs the same write.
    if (bucket_nonempty(*p, kRet, local))
      for (const std::uint32_t e : p->buckets[kRet * kMemPageWords + local])
        ret_entries_[e].age = 0;

    // Steps 4 and 5, over the candidates the touched words can reach.
    enforce_statics_touched();
  }

  // Prefetch hint for the cell span of `addr`.  The march sweep issues
  // this one address ahead of the operation it is about to execute
  // (bist/packed_engine.h), so a tile-sized lane-block span starts
  // streaming toward L1 while the current address's ops still run.  Only
  // the head of the span is touched — the hardware streamer follows the
  // sequential access; the hint's job is to start the stream early.
  // Non-packed pages need no hint (a scalar word is a few resident limbs).
  void prefetch(std::size_t addr) const {
#if defined(__GNUC__) || defined(__clang__)
    if (addr >= words_) return;
    const Page* p = table_[addr >> kMemPageShift].get();
    if (!p || !p->packed) return;
    const Block* word = &p->cells[(addr & kMemPageMask) * width_];
    const char* c = reinterpret_cast<const char*>(word);
    const char* end = reinterpret_cast<const char*>(word + width_);
    constexpr std::ptrdiff_t kLine = 64, kMaxLines = 8;
    if (end - c > kLine * kMaxLines) end = c + kLine * kMaxLines;
    for (; c < end; c += kLine) __builtin_prefetch(c, 1, 3);
#else
    (void)addr;
#endif
  }

  void elapse(unsigned units) {
    if (ret_entries_.empty()) return;
    touched_.clear();
    for (RetEntry& e : ret_entries_) {
      if (e.dead) continue;
      const LaneFault& lf = faults_[e.idx];
      e.age += units;
      if (e.age >= lf.fault.retention) force(cell(lf.fault.victim), lf.fault.value, lf.lanes);
      touch(lf.fault.victim.word);
    }
    // Decay may expose cells to static coupling conditions.
    enforce_statics_touched();
  }

  // --- fault management ------------------------------------------------
  void inject(const Fault& f, Block lanes) {
    auto check = [this](const CellAddr& c) {
      if (c.word >= words_ || c.bit >= width_)
        throw std::out_of_range("PackedMemory::inject: cell outside memory");
    };
    if (f.is_decoder()) {
      if (f.victim.word >= words_ || (f.cls == FaultClass::AFaw && f.aggressor.word >= words_))
        throw std::out_of_range("PackedMemory::inject: address outside memory");
      if (f.cls == FaultClass::AFaw && f.aggressor.word == f.victim.word)
        throw std::invalid_argument("PackedMemory::inject: alias == address");
    } else {
      check(f.victim);
      if (f.is_coupling()) {
        check(f.aggressor);
        if (f.aggressor == f.victim)
          throw std::invalid_argument("PackedMemory::inject: aggressor == victim");
      }
    }
    const std::uint32_t idx = static_cast<std::uint32_t>(faults_.size());
    // Lane overlap disables the disjoint-lanes fast path for statics.
    if (block_any(lanes & lanes_union_)) lanes_overlap_ = true;
    lanes_union_ |= lanes;
    // Re-injecting into a previously retired lane revives it: the new
    // fault's lanes leave the retired set, or a later retire_lanes call
    // would silently drop the live fault.
    retired_union_ &= ~lanes;
    faults_.push_back({f, lanes});
    seen_.push_back(0);
    retired_.push_back(0);
    // The fault's whole footprint must live in packed pages before any of
    // its effects (or any port op near it) can be applied.
    materialize_footprint(f);
    switch (f.cls) {
      case FaultClass::SAF: saf_all_.push_back(idx); break;
      case FaultClass::CFst: cfst_all_.push_back(idx); break;
      default: break;
    }
    if (f.cls == FaultClass::RET) {
      bucket_push(f.victim.word, kRet, static_cast<std::uint32_t>(ret_entries_.size()));
      ret_entries_.push_back({idx, 0});
    } else {
      index_fault_buckets(idx);
    }
    // Enforce the new fault's static condition.  With pairwise-disjoint
    // lane masks only the new fault itself can be newly active (its lanes
    // hold no other fault to chain with, and it cannot disturb other
    // lanes), so batch construction stays O(faults) instead of the
    // O(faults^2) a global re-enforcement per inject would cost.  Any lane
    // overlap falls back to the scalar Memory's global walk.
    if (lanes_overlap_) {
      enforce_static_faults();
    } else if (f.cls == FaultClass::SAF) {
      force(cell(f.victim), f.value, lanes);
    } else if (f.cls == FaultClass::CFst) {
      apply_cfst(idx);
    }
  }

  void clear_faults() {
    faults_.clear();
    seen_.clear();
    retired_.clear();
    saf_all_.clear();
    cfst_all_.clear();
    ret_entries_.clear();
    for (const std::size_t pi : materialized_) {
      Page& p = *table_[pi];
      if (!p.packed) continue;
      for (auto& b : p.buckets) b.clear();
      p.nonempty.fill(0);
    }
    lanes_union_ = Block{};
    lanes_overlap_ = false;
    retired_union_ = Block{};
  }

  // Retires (drops) every fault whose lane mask lies entirely inside the
  // accumulated `lanes` set: its index-bucket entries are removed, so the
  // port operations stop paying for it — classic fault dropping, per lane.
  //
  // Retiring is only sound when the caller no longer cares how the retired
  // lanes evolve (their verdicts are final and monotone — the repack
  // scheduler's settle-exit contract): from this call on the retired lanes
  // behave as if their fault was never injected, while the other lanes are
  // unaffected (lane masks are pairwise disjoint in campaign use).  The
  // batch stays live: inject() keeps working afterwards, so a freed lane
  // can be reused for a new fault (lane reuse is detected as an overlap
  // with lanes_union_, which conservatively re-enables the global
  // static-enforcement walk — correct, just slower).
  void retire_lanes(Block lanes) {
    retired_union_ |= lanes;
    if (retired_.size() < faults_.size()) retired_.resize(faults_.size(), 0);
    for (std::uint32_t i = 0; i < faults_.size(); ++i) {
      if (retired_[i]) continue;
      const LaneFault& lf = faults_[i];
      if (block_any(lf.lanes & ~retired_union_)) continue;  // still-live lanes
      retired_[i] = 1;
      const Fault& f = lf.fault;
      switch (f.cls) {
        case FaultClass::SAF:
          unindex(saf_all_, i);
          bucket_unindex(f.victim.word, kSaf, i);
          break;
        case FaultClass::TF: bucket_unindex(f.victim.word, kTf, i); break;
        case FaultClass::CFst:
          unindex(cfst_all_, i);
          bucket_unindex(f.aggressor.word, kCfst, i);
          if (f.victim.word != f.aggressor.word) bucket_unindex(f.victim.word, kCfst, i);
          break;
        case FaultClass::CFid:
        case FaultClass::CFin: bucket_unindex(f.aggressor.word, kDyn, i); break;
        case FaultClass::RET:
          for (std::size_t e = 0; e < ret_entries_.size(); ++e)
            if (ret_entries_[e].idx == i) {
              ret_entries_[e].dead = true;
              bucket_unindex(f.victim.word, kRet, static_cast<std::uint32_t>(e));
            }
          break;
        case FaultClass::AFna:
        case FaultClass::AFaw: bucket_unindex(f.victim.word, kAf, i); break;
      }
    }
  }

  // --- backdoor access (broadcast: every lane gets the same contents) --
  void load(const std::vector<BitVec>& contents) {
    if (contents.size() != words_)
      throw std::invalid_argument("PackedMemory::load: word count mismatch");
    for (const auto& w : contents)
      if (w.width() != width_) throw std::invalid_argument("PackedMemory::load: width mismatch");
    loaded_bits_.assign(table_.size() * width_, 0);
    for (std::size_t a = 0; a < words_; ++a)
      for (unsigned j = 0; j < width_; ++j)
        set_limb_bit(loaded_bits_.data(), a * width_ + j, contents[a].get(j));
    set_background_bits(loaded_bits_.data());
  }

  void fill(const BitVec& pattern) {
    if (pattern.width() != width_)
      throw std::invalid_argument("PackedMemory::fill: width mismatch");
    bg_pattern_ = pattern;
    bg_bits_ = nullptr;
    pattern_limbs_.assign(width_, 0);
    for (std::size_t w = 0; w < kMemPageWords; ++w)
      for (unsigned j = 0; j < width_; ++j)
        set_limb_bit(pattern_limbs_.data(), w * width_ + j, pattern.get(j));
    reset_to_background();
  }

  void fill_random(Rng& rng) {
    // Consumes the generator exactly like Memory::fill_random, so the same
    // seed broadcasts the same contents the scalar evaluation path sees.
    generate_bits(rng, loaded_bits_);
    set_background_bits(loaded_bits_.data());
  }

  // Contents of fill_random(Rng(seed)) for seed != 0, fill(zeros) for seed
  // 0 — the campaign unit contract — but with the generated baseline
  // cached per seed, so the repack scheduler's seed-major rounds pay the
  // O(words) generation once per (worker, seed) instead of once per unit.
  void fill_seeded(std::uint64_t seed) {
    if (seed == 0) {
      fill(BitVec::zeros(width_));
      return;
    }
    auto& bits = baselines_[seed];
    if (bits.empty()) {
      Rng rng(seed);
      generate_bits(rng, bits);
    }
    set_background_bits(bits.data());
  }

  // Lane extraction for differential checking against the scalar Memory.
  bool lane_bit(unsigned lane, std::size_t addr, unsigned bit) const {
    if (lane >= block_lanes_v<Block>) throw std::out_of_range("PackedMemory::lane_bit");
    if (addr >= words_ || bit >= width_) throw std::out_of_range("PackedMemory::lane_bit");
    const Page* p = table_[addr >> kMemPageShift].get();
    if (p && p->packed)
      return block_bit(p->cells[(addr & kMemPageMask) * width_ + bit], lane);
    return scalar_bit(addr, p, bit);
  }
  BitVec lane_word(unsigned lane, std::size_t addr) const {
    BitVec v(width_);
    for (unsigned j = 0; j < width_; ++j) v.set(j, lane_bit(lane, addr, j));
    return v;
  }

  // Direct cell access (no port-op accounting, no AF port distortion).
  // Non-packed words are expanded into an internal buffer, valid until the
  // next peek or port operation.
  const Block* peek(std::size_t addr) const {
    if (addr >= words_) throw std::out_of_range("PackedMemory::peek");
    const Page* p = table_[addr >> kMemPageShift].get();
    if (p && p->packed) return &p->cells[(addr & kMemPageMask) * width_];
    expand_word(addr, p, peek_buf_.data());
    return peek_buf_.data();
  }

  std::uint64_t op_count() const { return ops_; }
  void reset_op_count() { ops_ = 0; }

  // --- page accounting (bench/stats surface) ----------------------------
  std::size_t pages_live() const { return materialized_.size(); }
  std::size_t pages_peak() const { return pages_peak_; }
  // Pages holding full lane blocks — the expensive representation (64 x
  // width lane blocks vs a scalar page's width limbs).  Bounded by the
  // batch's fault footprint plus lane-divergent write spill, not by
  // `words`: this is the memory-budget claim for huge geometries in one
  // number.
  std::size_t packed_pages_live() const { return packed_pages_; }
  std::size_t packed_pages_peak() const { return packed_pages_peak_; }
  // Fresh heap allocations; stays flat across refill rounds once the
  // free-list is warm (the allocation-free repack contract).
  std::uint64_t page_allocations() const { return page_allocs_; }

 private:
  struct LaneFault {
    Fault fault;
    Block lanes{};
  };
  struct RetEntry {
    std::uint32_t idx;  // into faults_
    unsigned age;       // pause units since the cell's last write
    bool dead = false;  // retired via retire_lanes; skipped by elapse()
  };
  // Per-page fault buckets, one per class kind per local word.
  static constexpr unsigned kTf = 0, kDyn = 1, kAf = 2, kRet = 3, kCfst = 4, kSaf = 5;
  static constexpr unsigned kBucketKinds = 6;

  struct Page {
    bool packed = false;
    // scalar representation: bit (local * width + j); width limbs total.
    std::vector<std::uint64_t> bits;
    // packed representation: [local * width + bit] lane blocks.
    std::vector<Block> cells;
    // [kind * kMemPageWords + local] -> fault indexes, injection order.
    // Sized only for packed pages.
    std::vector<std::vector<std::uint32_t>> buckets;
    // nonempty[kind] bit `local` set <=> the bucket above is non-empty.
    // The port hot paths test one resident bit per kind instead of chasing
    // the bucket vector's heap header — on a packed page whose words carry
    // few faults (the common repack case) that indirection was the single
    // hottest cache miss of the write path.  kMemPageWords == 64, so one
    // word per kind covers the page exactly.
    std::array<std::uint64_t, kBucketKinds> nonempty{};
  };

  static bool bucket_nonempty(const Page& p, unsigned kind, std::size_t local) {
    return (p.nonempty[kind] >> local) & 1u;
  }

  static bool get_limb_bit(const std::uint64_t* limbs, std::size_t pos) {
    return (limbs[pos >> 6] >> (pos & 63)) & 1u;
  }
  static void set_limb_bit(std::uint64_t* limbs, std::size_t pos, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (pos & 63);
    if (v)
      limbs[pos >> 6] |= m;
    else
      limbs[pos >> 6] &= ~m;
  }

  // Scalar value of bit j of a word on a non-packed page.
  bool scalar_bit(std::size_t addr, const Page* p, unsigned j) const {
    if (p) return get_limb_bit(p->bits.data(), (addr & kMemPageMask) * width_ + j);
    if (bg_bits_) return get_limb_bit(bg_bits_, addr * width_ + j);
    return bg_pattern_.get(j);
  }

  // Scalar bits of a word (width_ <= 64) on a non-packed page.  Pages and
  // baselines hold whole 64-word pages, so a straddling word's second limb
  // always exists.
  std::uint64_t scalar_word(std::size_t addr, const Page* p) const {
    if (p) return get_limb_bits(p->bits.data(), (addr & kMemPageMask) * width_, width_);
    if (bg_bits_) return get_limb_bits(bg_bits_, addr * width_, width_);
    return get_limb_bits(pattern_limbs_.data(), 0, width_);
  }

  // Broadcasts a non-packed word into `dst` (width_ blocks).
  void expand_word(std::size_t addr, const Page* p, Block* dst) const {
    for (unsigned j = 0; j < width_; ++j)
      dst[j] = scalar_bit(addr, p, j) ? block_ones<Block>() : Block{};
  }

  // --- page lifecycle ----------------------------------------------------
  Page& acquire_page(std::size_t pi) {
    std::unique_ptr<Page>& slot = table_[pi];
    if (!free_.empty()) {
      slot = std::move(free_.back());
      free_.pop_back();
    } else {
      // Chaos hook for allocation exhaustion, same bad_alloc a genuine OOM
      // raises here.  (Note the wide backends run inside twm_wide.so with
      // its own failpoint registry — it self-configures from TWM_FAILPOINTS,
      // so env-activated runs cover every width; in-process configure_
      // calls only reach backends living in this image, e.g. --simd 64.)
      if (TWM_FAILPOINT("page.alloc")) throw std::bad_alloc();
      slot = std::make_unique<Page>();
      ++page_allocs_;
    }
    materialized_.push_back(pi);
    pages_peak_ = std::max(pages_peak_, materialized_.size());
    return *slot;
  }

  // Materializes a background page in scalar form.
  Page& materialize_scalar(std::size_t pi) {
    Page& p = acquire_page(pi);
    p.packed = false;
    p.bits.assign(width_, 0);
    if (bg_bits_)
      std::copy(bg_bits_ + pi * width_, bg_bits_ + (pi + 1) * width_, p.bits.begin());
    else
      std::copy(pattern_limbs_.begin(), pattern_limbs_.end(), p.bits.begin());
    return p;
  }

  // Materializes (or promotes) a page to the full lane-block form.
  Page& materialize_packed(std::size_t pi) {
    Page* p = table_[pi].get();
    if (p && p->packed) return *p;
    const bool from_scalar = p != nullptr;
    if (!p) p = &acquire_page(pi);
    p->cells.resize(kMemPageWords * width_);
    const std::size_t base_bit = pi * kMemPageWords * width_;
    for (std::size_t pos = 0; pos < kMemPageWords * width_; ++pos) {
      bool bit;
      if (from_scalar)
        bit = get_limb_bit(p->bits.data(), pos);
      else if (bg_bits_)
        bit = get_limb_bit(bg_bits_, base_bit + pos);
      else
        bit = get_limb_bit(pattern_limbs_.data(), pos);
      p->cells[pos] = bit ? block_ones<Block>() : Block{};
    }
    p->bits.clear();
    if (p->buckets.size() != kBucketKinds * kMemPageWords)
      p->buckets.resize(kBucketKinds * kMemPageWords);
    p->packed = true;
    ++packed_pages_;
    packed_pages_peak_ = std::max(packed_pages_peak_, packed_pages_);
    return *p;
  }

  // Releases every materialized page to the free-list; the whole memory
  // reads as the background afterwards.  Bucket entries are cleared here so
  // recycled pages come back empty (capacity retained — no allocation).
  void drop_pages() {
    for (const std::size_t pi : materialized_) {
      std::unique_ptr<Page>& slot = table_[pi];
      Page& p = *slot;
      if (p.packed) {
        for (auto& b : p.buckets) b.clear();
        p.nonempty.fill(0);
        p.cells.clear();
        p.packed = false;
      }
      p.bits.clear();
      free_.push_back(std::move(slot));
    }
    materialized_.clear();
    packed_pages_ = 0;
  }

  // After a background switch: every live fault footprint is re-packed and
  // re-indexed (injection order preserved), then statics re-enforced — the
  // same result as the dense simulator's O(words) broadcast fill.
  void reset_to_background() {
    drop_pages();
    for (std::uint32_t i = 0; i < faults_.size(); ++i) {
      if (retired_[i]) continue;
      const Fault& f = faults_[i].fault;
      materialize_footprint(f);
      if (f.cls != FaultClass::RET) index_fault_buckets(i);
    }
    for (std::size_t e = 0; e < ret_entries_.size(); ++e) {
      if (ret_entries_[e].dead) continue;
      const Fault& f = faults_[ret_entries_[e].idx].fault;
      bucket_push(f.victim.word, kRet, static_cast<std::uint32_t>(e));
    }
    enforce_static_faults();
  }

  void set_background_bits(const std::uint64_t* bits) {
    bg_bits_ = bits;
    reset_to_background();
  }

  // Per-word baseline bits, padded to whole pages; consumes the generator
  // exactly like the scalar Memory::fill_random (next_word per word).
  void generate_bits(Rng& rng, std::vector<std::uint64_t>& bits) {
    bits.assign(table_.size() * width_, 0);
    for (std::size_t a = 0; a < words_; ++a)
      for (unsigned j = 0; j < width_; ++j)
        set_limb_bit(bits.data(), a * width_ + j, rng.next_bool());
  }

  void materialize_footprint(const Fault& f) {
    materialize_packed(f.victim.word >> kMemPageShift);
    if (f.is_coupling() || f.cls == FaultClass::AFaw)
      materialize_packed(f.aggressor.word >> kMemPageShift);
  }

  // Registers a non-RET fault in its page buckets (RET buckets hold
  // ret_entries_ positions and are handled by the callers).
  void index_fault_buckets(std::uint32_t idx) {
    const Fault& f = faults_[idx].fault;
    switch (f.cls) {
      case FaultClass::SAF: bucket_push(f.victim.word, kSaf, idx); break;
      case FaultClass::TF: bucket_push(f.victim.word, kTf, idx); break;
      case FaultClass::CFst:
        bucket_push(f.aggressor.word, kCfst, idx);
        if (f.victim.word != f.aggressor.word) bucket_push(f.victim.word, kCfst, idx);
        break;
      case FaultClass::CFid:
      case FaultClass::CFin: bucket_push(f.aggressor.word, kDyn, idx); break;
      case FaultClass::RET: break;
      case FaultClass::AFna:
      case FaultClass::AFaw: bucket_push(f.victim.word, kAf, idx); break;
    }
  }

  // Appends to the bucket of a word known to live on a packed page (fault
  // footprints), keeping the page's nonempty bitmap in sync.
  void bucket_push(std::size_t word, unsigned kind, std::uint32_t value) {
    Page& p = *table_[word >> kMemPageShift];
    const std::size_t local = word & kMemPageMask;
    p.buckets[kind * kMemPageWords + local].push_back(value);
    p.nonempty[kind] |= std::uint64_t{1} << local;
  }
  // Removes one index from a word's bucket (bitmap kept in sync).
  void bucket_unindex(std::size_t word, unsigned kind, std::uint32_t idx) {
    Page& p = *table_[word >> kMemPageShift];
    const std::size_t local = word & kMemPageMask;
    std::vector<std::uint32_t>& b = p.buckets[kind * kMemPageWords + local];
    unindex(b, idx);
    if (b.empty()) p.nonempty[kind] &= ~(std::uint64_t{1} << local);
  }
  const std::vector<std::uint32_t>& bucket_or_empty(std::size_t word, unsigned kind) const {
    static const std::vector<std::uint32_t> kEmpty;
    const Page* p = table_[word >> kMemPageShift].get();
    if (!p || !p->packed || !bucket_nonempty(*p, kind, word & kMemPageMask)) return kEmpty;
    return p->buckets[kind * kMemPageWords + (word & kMemPageMask)];
  }

  // Cell of a word known to live on a packed page (fault footprints are
  // materialized packed at inject time and stay packed).
  Block& cell(const CellAddr& c) {
    return table_[c.word >> kMemPageShift]->cells[(c.word & kMemPageMask) * width_ + c.bit];
  }
  // Forces `value` into the cell for the lanes in `mask`, leaving the other
  // lanes untouched.
  static void force(Block& cell, bool value, const Block& mask) {
    cell = value ? (cell | mask) : (cell & ~mask);
  }

  void touch(std::size_t w) {
    for (const std::size_t t : touched_)
      if (t == w) return;
    touched_.push_back(w);
  }

  // Removes one index from a bucket, preserving the injection order of the
  // remaining entries (the order static enforcement must apply in).
  static void unindex(std::vector<std::uint32_t>& bucket, std::uint32_t idx) {
    for (std::size_t i = 0; i < bucket.size(); ++i)
      if (bucket[i] == idx) {
        bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
  }

  // One CFst application (lane-masked); `i` indexes faults_.
  void apply_cfst(std::uint32_t i) {
    const LaneFault& lf = faults_[i];
    const Fault& f = lf.fault;
    const Block agg = cell(f.aggressor);
    const Block active = (f.state ? agg : ~agg) & lf.lanes;
    force(cell(f.victim), f.value, active);
  }

  // CFst chains are resolved in injection order; two passes give a fixpoint
  // for all single-fault and non-cyclic multi-fault configurations (the
  // same contract as the scalar Memory).  Then SAF dominance.
  void apply_statics(const std::vector<std::uint32_t>& cfst,
                     const std::vector<std::uint32_t>& saf) {
    for (int pass = 0; pass < 2; ++pass)
      for (const std::uint32_t i : cfst) apply_cfst(i);
    for (const std::uint32_t i : saf)
      force(cell(faults_[i].fault.victim), faults_[i].fault.value, faults_[i].lanes);
  }

  // Global enforcement — inject/load/fill disturb arbitrary state.
  void enforce_static_faults() { apply_statics(cfst_all_, saf_all_); }

  // Enforcement restricted to the statics whose aggressor or victim lives
  // in a word the current operation disturbed.  Correct only under the
  // pairwise-disjoint lane masks the campaign injects (no cross-fault
  // chains possible — see the header comment); any overlap falls back to
  // the global two-pass walk.
  void enforce_statics_touched() {
    if (cfst_all_.empty() && saf_all_.empty()) return;
    if (lanes_overlap_) {
      enforce_static_faults();
      return;
    }
    if (touched_.size() == 1) {
      const std::size_t w = touched_.front();
      apply_statics(bucket_or_empty(w, kCfst), bucket_or_empty(w, kSaf));
      return;
    }
    merge_cfst_.clear();
    merge_saf_.clear();
    for (const std::size_t w : touched_) {
      for (const std::uint32_t i : bucket_or_empty(w, kCfst))
        if (!seen_[i]) {
          seen_[i] = 1;
          merge_cfst_.push_back(i);
        }
      for (const std::uint32_t i : bucket_or_empty(w, kSaf))
        if (!seen_[i]) {
          seen_[i] = 1;
          merge_saf_.push_back(i);
        }
    }
    // Index order == injection order, the order the passes must apply in.
    std::sort(merge_cfst_.begin(), merge_cfst_.end());
    std::sort(merge_saf_.begin(), merge_saf_.end());
    apply_statics(merge_cfst_, merge_saf_);
    for (const std::uint32_t i : merge_cfst_) seen_[i] = 0;
    for (const std::uint32_t i : merge_saf_) seen_[i] = 0;
  }

  std::size_t words_;
  unsigned width_;

  // [addr >> kMemPageShift] -> page, or null while the page still reads as
  // the background.  O(words / 64) pointers — the only per-word-scaling
  // allocation left.
  std::vector<std::unique_ptr<Page>> table_;
  std::vector<std::unique_ptr<Page>> free_;  // recycled pages (capacity kept)
  std::vector<std::size_t> materialized_;    // page indexes with a live page
  std::size_t pages_peak_ = 0;
  std::size_t packed_pages_ = 0;  // subset of materialized_ in lane-block form
  std::size_t packed_pages_peak_ = 0;
  std::uint64_t page_allocs_ = 0;

  // Background: what an unmaterialized page reads as.  Either a broadcast
  // pattern (pattern_limbs_ caches one page worth of it) or a per-word bit
  // baseline (seeded/loaded; bg_bits_ points into baselines_ or
  // loaded_bits_ — this object's own storage, hence no copying).
  BitVec bg_pattern_;
  std::vector<std::uint64_t> pattern_limbs_;
  const std::uint64_t* bg_bits_ = nullptr;
  std::vector<std::uint64_t> loaded_bits_;
  std::map<std::uint64_t, std::vector<std::uint64_t>> baselines_;

  std::vector<LaneFault> faults_;
  std::vector<std::uint32_t> cfst_all_, saf_all_;  // statics, injection order
  std::vector<RetEntry> ret_entries_;
  Block lanes_union_{};          // OR of every injected lane mask
  bool lanes_overlap_ = false;   // two faults share a lane -> global statics
  Block retired_union_{};        // lanes handed to retire_lanes so far
  std::vector<char> retired_;    // [fault idx] dropped via retire_lanes

  std::vector<Block> old_, next_;  // write-path scratch (one word each)
  std::vector<Block> read_buf_;    // AF-merged / broadcast read scratch
  mutable std::vector<Block> peek_buf_;             // peek() expansion scratch
  std::vector<std::size_t> touched_;                // words disturbed by the current op
  std::vector<std::uint32_t> merge_cfst_, merge_saf_;  // candidate-merge scratch
  std::vector<char> seen_;                          // [fault idx] merge dedup flag
  std::uint64_t ops_ = 0;
};

// The PR 1 backend: 64 universes per std::uint64_t lane vector.
using PackedMemory = PackedMemoryT<std::uint64_t>;

extern template class PackedMemoryT<std::uint64_t>;

}  // namespace twm

#endif  // TWM_MEMSIM_PACKED_MEMORY_H
