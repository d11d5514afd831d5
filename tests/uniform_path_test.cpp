// Differential proof of the lane-uniform fast path.
//
// A word on a non-packed page of PackedMemoryT is fault-free and identical
// in every lane, so the march runner reads, writes, records and compares it
// as plain scalar bits (PackedMemoryT::read_uniform/write_uniform,
// PackedReadSinkT::on_read_uniform) and only fault footprints travel as
// lane blocks.  These tests pin that the fast path changes nothing a caller
// can observe:
//
//   * the uniform port returns the same bits as the lane-block port, also
//     for words that straddle a 64-bit limb, and declines (no op counted)
//     on packed pages and for words wider than 64 bits;
//   * VerdictMatrix byte-equality with the scalar engine for all eight
//     schemes at every supported single-block width and a tiled width, on
//     multi-page memories whose middle pages are fault-free while the
//     outer pages carry cross-page AFaw aliases, inter-word coupling
//     aggressors and retention faults that decay at pause elements;
//   * a transparent test whose writes consume a read from an EARLIER
//     element (the per-word base-register path) matches the scalar
//     runner's read stream lane by lane;
//   * op_count() after a session equals the scalar Memory's, and the
//     uniform MISR fold leaves the state the lane-block fold does.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign.h"
#include "bist/engine.h"
#include "bist/misr.h"
#include "bist/packed_engine.h"
#include "core/nicolaidis.h"
#include "core/scheme_session.h"
#include "core/simd.h"
#include "march/library.h"
#include "march/parser.h"
#include "march/word_expand.h"
#include "memsim/memory.h"
#include "memsim/packed_memory.h"
#include "util/rng.h"

namespace twm {
namespace {

// Three pages: faults live on the first (words 0..63) and last (128..149)
// pages only, so page 1 and most of page 2's neighbours stay fault-free.
// 150 is deliberately not a multiple of the 64-word page.
constexpr std::size_t kWords = 150;
constexpr unsigned kWidths[] = {1, 3, 5, 8, 33, 63, 64, 65};

std::vector<Fault> mixed_faults(std::size_t words, unsigned width) {
  const std::size_t last = words - 1;
  const unsigned hi = width - 1, mid = width / 2;
  std::vector<Fault> f;
  f.push_back(Fault::saf({0, 0}, true));
  f.push_back(Fault::saf({last, hi}, false));
  f.push_back(Fault::tf({1, mid}, Transition::Up));
  f.push_back(Fault::tf({last - 1, hi}, Transition::Down));
  // Inter-word couplings whose aggressor and victim sit on different pages.
  f.push_back(Fault::cfid({last, hi}, Transition::Up, {2, 0}, true));
  f.push_back(Fault::cfid({3, mid}, Transition::Down, {last - 2, hi}, false));
  f.push_back(Fault::cfin({last - 3, 0}, Transition::Up, {4, hi}));
  f.push_back(Fault::cfst({5, 0}, true, {last - 4, mid}, false));
  if (width > 1) f.push_back(Fault::cfid({6, 0}, Transition::Up, {6, hi}, true));
  // Decoder faults, two aliasing across the fault-free middle page.
  f.push_back(Fault::af_no_access(7));
  f.push_back(Fault::af_alias(8, last - 5));
  f.push_back(Fault::af_alias(last - 6, 9));
  // Retention faults: decay at March G's pause elements.
  f.push_back(Fault::ret({10, hi}, true, 1));
  f.push_back(Fault::ret({last - 7, 0}, false, 1));
  f.push_back(Fault::ret({11, mid}, true, 2));
  return f;
}

std::vector<simd::Request> packed_widths() {
  std::vector<simd::Request> out{simd::Request::W64};
  if (simd::supported(simd::Width::W256)) out.push_back(simd::Request::W256);
  if (simd::supported(simd::Width::W512)) out.push_back(simd::Request::W512);
  return out;
}

VerdictMatrix run_matrix(SchemeKind k, const MarchTest& march, unsigned width,
                         CoverageBackend backend, simd::Request simd) {
  CoverageOptions o;
  o.backend = backend;
  o.simd = simd;
  o.threads = 1;
  return CampaignRunner(kWords, width, o)
      .matrix(k, march, mixed_faults(kWords, width), {0, 11});
}

BitVec bits_word(std::uint64_t bits, unsigned width) {
  BitVec v(width);
  for (unsigned j = 0; j < width; ++j) v.set(j, (bits >> j) & 1u);
  return v;
}

TEST(UniformPort, ReadsAgreeWithLaneBlocksAndDeclineOnPackedPages) {
  for (const unsigned width : kWidths) {
    PackedMemory mem(kWords, width);
    mem.fill_seeded(3);
    mem.inject(Fault::saf({5, width - 1}, true), 2);  // packs page 0 only
    EXPECT_EQ(mem.uniform_port(), width <= 64);
    for (std::size_t a = 0; a < kWords; ++a) {
      const std::uint64_t before = mem.op_count();
      std::uint64_t bits = 0;
      const bool uniform = mem.read_uniform(a, bits);
      EXPECT_EQ(uniform, width <= 64 && a >= 64) << "width " << width << " addr " << a;
      EXPECT_EQ(mem.op_count(), before + (uniform ? 1 : 0));
      if (uniform) {
        EXPECT_EQ(bits_word(bits, width), mem.lane_word(0, a)) << width << "/" << a;
      }
    }
    std::uint64_t bits = 0;
    EXPECT_FALSE(mem.write_uniform(5, 1));
    EXPECT_FALSE(mem.read_uniform(5, bits));
  }
}

TEST(UniformPort, WritesLandOnTheirWordOnlyAcrossLimbStraddles) {
  for (const unsigned width : {1u, 3u, 5u, 8u, 33u, 63u, 64u}) {
    PackedMemory mem(kWords, width);
    mem.fill_seeded(9);
    std::vector<BitVec> model;
    for (std::size_t a = 0; a < kWords; ++a) model.push_back(mem.lane_word(0, a));
    Rng rng(width);
    for (int i = 0; i < 400; ++i) {
      const std::size_t a = rng.next_below(kWords);
      const std::uint64_t v = rng.next_u64();  // high bits beyond the width are ignored
      ASSERT_TRUE(mem.write_uniform(a, v));
      model[a] = bits_word(v, width);
    }
    for (std::size_t a = 0; a < kWords; ++a) {
      EXPECT_EQ(mem.lane_word(0, a), model[a]) << width << "/" << a;
      EXPECT_EQ(mem.lane_word(63, a), model[a]) << width << "/" << a;
    }
  }
}

// feed_uniform must leave exactly the state feed() of the broadcast word
// does, lane for lane the scalar Misr's signature.  (Verdict tests cannot
// see a wrong step here: prediction and test pass would share the error.)
TEST(UniformPort, MisrFeedUniformMatchesBroadcastFeed) {
  for (const unsigned misr_width : {1u, 5u, 16u, 64u})
    for (const unsigned input_width : {1u, 3u, 33u, 64u}) {
      PackedMisr uniform(misr_width), blocks(misr_width);
      Misr scalar(misr_width);
      Rng rng(misr_width * 100 + input_width);
      for (int i = 0; i < 200; ++i) {
        const BitVec word = bits_word(rng.next_u64(), input_width);
        std::uint64_t bits = 0;
        for (unsigned j = 0; j < input_width; ++j)
          if (word.get(j)) bits |= std::uint64_t{1} << j;
        uniform.feed_uniform(bits);
        blocks.feed(broadcast_word(word).data(), input_width);
        scalar.feed(word);
      }
      const std::string where =
          "misr " + std::to_string(misr_width) + " input " + std::to_string(input_width);
      EXPECT_EQ(uniform.state(), blocks.state()) << where;
      EXPECT_EQ(uniform.state(), broadcast_word(scalar.signature())) << where;
    }
}

// Campaign level: every scheme needs power-of-two words (the paper's B =
// 2^m), so the matrices cover 1, 8 and 64 bits; the >64-bit lane-block
// fallback and the limb-straddling widths are proven lane by lane against
// the scalar runner below.  March G carries the pause elements the
// retention faults need.
constexpr unsigned kSchemeWidths[] = {1, 8, 64};

TEST(UniformPath, VerdictMatrixMatchesScalarForEverySchemeAndWidth) {
  const MarchTest march = march_by_name("March G");
  for (const unsigned width : kSchemeWidths)
    for (const SchemeKind k : kAllSchemes) {
      const VerdictMatrix scalar =
          run_matrix(k, march, width, CoverageBackend::Scalar, simd::Request::Auto);
      for (const simd::Request r : packed_widths())
        EXPECT_EQ(scalar.bits, run_matrix(k, march, width, CoverageBackend::Packed, r).bits)
            << to_string(k) << " width " << width << " --simd " << simd::to_string(r);
    }
}

// The tiled backend shares the runner and sinks; one narrow width keeps
// its (large) pages affordable.
TEST(UniformPath, TiledVerdictMatrixMatchesScalar) {
  const MarchTest march = march_by_name("March G");
  for (const SchemeKind k : kAllSchemes)
    EXPECT_EQ(run_matrix(k, march, 8, CoverageBackend::Scalar, simd::Request::Auto).bits,
              run_matrix(k, march, 8, CoverageBackend::Packed, simd::Request::Tiled4096).bits)
        << to_string(k);
}

TEST(UniformPath, SessionOpCountMatchesScalarMemory) {
  const MarchTest march = march_by_name("March G");
  for (const unsigned width : kSchemeWidths) {
    const std::vector<Fault> faults = mixed_faults(kWords, width);
    for (const SchemeKind k : kAllSchemes) {
      const SchemePlan plan = make_scheme_plan(k, march, width);
      // Scalar: fault-free, so TOMT's stop-on-failure sweep runs full
      // length like the packed one (its golden lane never detects).
      Memory scalar(kWords, width);
      scalar.fill_seeded(4);
      std::vector<bool> ledger;
      if (k == SchemeKind::TomtModel) ledger = make_parity_ledger(scalar);
      (void)run_scheme_session<ScalarEngine>(scalar, plan, ledger);

      PackedMemory packed(kWords, width);
      packed.fill_seeded(4);
      for (unsigned i = 0; i < faults.size(); ++i) PackedEngine::inject(packed, faults[i], i);
      (void)run_scheme_session<PackedEngine>(packed, plan, ledger);
      EXPECT_EQ(packed.op_count(), scalar.op_count()) << to_string(k) << " width " << width;
    }
  }
}

// Runner level, at every width (limb-straddling and >64-bit words
// included): records the read stream of chosen lanes.  Relies on the
// default on_read_uniform (broadcast, then on_read).
template <class Block>
class LaneStreams final : public PackedReadSinkT<Block> {
 public:
  LaneStreams(unsigned width, std::vector<unsigned> lanes)
      : width_(width), lanes_(std::move(lanes)), streams_(lanes_.size()) {}
  void on_read(std::size_t, const Block* value) override {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      BitVec v(width_);
      for (unsigned j = 0; j < width_; ++j) v.set(j, block_bit(value[j], lanes_[l]));
      streams_[l].push_back(v);
    }
  }
  const std::vector<BitVec>& stream(std::size_t l) const { return streams_[l]; }

 private:
  unsigned width_;
  std::vector<unsigned> lanes_;
  std::vector<std::vector<BitVec>> streams_;
};

// One memory runs a transparent session, then a transparent test whose
// second element writes without reading first (its data comes from the
// word's read in element one: the per-word base-register path), then a
// nontransparent march.  Each fault universe must see exactly what the
// scalar runner sees for its fault, and the port-op count must match.
template <class Block>
void expect_runner_matches_scalar(unsigned width, std::uint64_t seed) {
  const MarchTest bit = march_by_name("March G");
  const MarchTest trans = nicolaidis_transparent(solid_march(bit));
  const MarchTest pred = prediction_test(trans);
  MarchTest history = nicolaidis_transparent(
      solid_march(parse_march("{ any(w0); up(r0,w1); down(r1,w0); del any(r0,w1); up(r1,w0) }")));
  ASSERT_TRUE(history.elements[1].ops.front().is_read());
  history.elements[1].ops.erase(history.elements[1].ops.begin());
  const MarchTest direct = solid_march(bit);

  const std::vector<Fault> faults = mixed_faults(kWords, width);
  // Fault lanes 1..n on 64 lanes; 5, 9, ..., 65 on wider blocks, so they
  // span more than one 64-lane word.  Lane 0 stays golden.
  std::vector<unsigned> lanes{0};
  for (unsigned i = 0; i < faults.size(); ++i)
    lanes.push_back((i + 1) * (block_lanes_v<Block> / 64) + (block_lanes_v<Block> > 64 ? 1 : 0));

  PackedMemoryT<Block> packed(kWords, width);
  packed.fill_seeded(seed);
  for (unsigned i = 0; i < faults.size(); ++i)
    packed.inject(faults[i], block_lane<Block>(lanes[i + 1]));
  PackedMarchRunnerT<Block> runner(packed);
  const PackedTransparentOutcomeT<Block> session = runner.run_transparent_session(trans, pred, 16);
  LaneStreams<Block> streams(width, lanes);
  runner.run_test(history, streams);
  const Block mismatch = runner.run_direct(direct);

  for (std::size_t l = 0; l < lanes.size(); ++l) {
    Memory mem(kWords, width);
    mem.fill_seeded(seed);
    if (l > 0) mem.inject(faults[l - 1]);
    MarchRunner scalar(mem);
    const TransparentOutcome expect = scalar.run_transparent_session(trans, pred, 16);
    StreamRecorder expect_stream;
    scalar.run_test(history, expect_stream);
    const bool expect_mismatch = scalar.run_direct(direct).mismatch;

    const std::string where = "width " + std::to_string(width) + " lanes " +
                              std::to_string(block_lanes_v<Block>) + " lane " +
                              std::to_string(lanes[l]);
    EXPECT_EQ(block_bit(session.detected_exact, lanes[l]), expect.detected_exact) << where;
    EXPECT_EQ(block_bit(session.detected_misr, lanes[l]), expect.detected_misr) << where;
    EXPECT_EQ(streams.stream(l), expect_stream.stream()) << where;
    EXPECT_EQ(block_bit(mismatch, lanes[l]), expect_mismatch) << where;
    if (l == 0) {
      EXPECT_EQ(packed.op_count(), mem.op_count()) << where;
    }
  }
}

TEST(UniformPath, RunnerMatchesScalarPerLaneAtEveryWidth) {
  for (const unsigned width : kWidths)
    for (const std::uint64_t seed : {0ull, 5ull}) {
      expect_runner_matches_scalar<std::uint64_t>(width, seed);
      expect_runner_matches_scalar<LaneBlock<4>>(width, seed);
    }
}

// With no fault injected every word takes the uniform port.  A prediction
// that disagrees with the test pass must still fail the exact comparison
// in every lane, as it fails the scalar one.
TEST(UniformPath, MispredictedFaultFreeSessionFailsInEveryLane) {
  const MarchTest trans = nicolaidis_transparent(solid_march(march_by_name("March C-")));
  MarchTest wrong_pred = prediction_test(trans);
  wrong_pred.elements.back().ops.back().data.complement ^= true;
  for (const unsigned width : kWidths) {
    Memory scalar(kWords, width);
    scalar.fill_seeded(6);
    ASSERT_TRUE(MarchRunner(scalar).run_transparent_session(trans, wrong_pred, 16).detected_exact);
    PackedMemory packed(kWords, width);
    packed.fill_seeded(6);
    EXPECT_EQ(PackedMarchRunner(packed).run_transparent_session(trans, wrong_pred, 16)
                  .detected_exact,
              ~std::uint64_t{0})
        << "width " << width;
  }
}

}  // namespace
}  // namespace twm
