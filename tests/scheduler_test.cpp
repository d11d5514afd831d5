// Tests for the survivor-repacking lane scheduler (analysis/campaign_exec.h
// run_campaign_repack + analysis/campaign.cpp collapsing dispatch):
//
//   * the hard invariant — a byte-identical VerdictMatrix between an
//     oracle that simulates every (fault, seed) pair on its own (one
//     scalar Memory + MarchRunner session, outside any scheduler) and
//     every campaign the scheduler runs: scalar and packed backends, for
//     every scheme, at every supported lane-block width (64/256/512), with
//     collapsing on and off,
//   * structural fault collapsing (analysis/fault_list.h collapse_faults):
//     bucket structure of each rule, expansion == uncollapsed run,
//   * per-lane retire + reinject on a live PackedMemory batch,
//   * partial units far smaller than one lane block,
//   * the scheduler's forward-progress counters (settle-exit actually
//     skips march elements; collapsing actually simulates fewer faults;
//     seed rounds rebuild batches without allocating pages).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "core/scheme_session.h"
#include "core/simd.h"
#include "march/library.h"
#include "march/word_expand.h"
#include "memsim/packed_memory.h"

namespace twm {
namespace {

constexpr std::size_t kWords = 4;
constexpr unsigned kWidth = 4;

// The lane-block widths this CPU executes (always includes 64).
std::vector<simd::Request> supported_widths() {
  std::vector<simd::Request> widths{simd::Request::W64};
  if (simd::supported(simd::Width::W256)) widths.push_back(simd::Request::W256);
  if (simd::supported(simd::Width::W512)) widths.push_back(simd::Request::W512);
  return widths;
}

// Every fault class, including RETs (undetected by a Del-free March C-, so
// they exercise the dropping path) and decoder faults.
std::vector<Fault> mixed_faults() {
  std::vector<Fault> faults = all_safs(kWords, kWidth);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  for (auto& f : all_rets(kWords, kWidth, 1)) faults.push_back(f);
  for (auto& f : all_afs(kWords)) faults.push_back(f);
  for (auto& f : all_cfs(kWords, kWidth, FaultClass::CFst, CfScope::Both)) faults.push_back(f);
  for (auto& f : all_cfs(kWords, kWidth, FaultClass::CFin, CfScope::IntraWord))
    faults.push_back(f);
  // Duplicates exercise the always-on dedup rule.
  faults.push_back(faults.front());
  faults.push_back(faults[1]);
  return faults;
}

CoverageOptions options(CoverageBackend backend, simd::Request w, bool collapse,
                        unsigned threads = 2) {
  return {backend, threads, w, collapse};
}

// The differential reference, independent of the scheduler: every
// (fault, seed) pair simulated on its own by one scalar Memory +
// MarchRunner session (run_campaign_unit), no batching, dropping,
// settle-exit or collapsing.
VerdictMatrix oracle_matrix(SchemeKind k, const MarchTest& march,
                            const std::vector<Fault>& faults,
                            const std::vector<std::uint64_t>& seeds) {
  const SchemePlan plan = make_scheme_plan(k, march, kWidth);
  VerdictMatrix m;
  m.num_faults = faults.size();
  m.num_seeds = seeds.size();
  m.bits.resize(faults.size() * seeds.size());
  for (std::size_t i = 0; i < faults.size(); ++i)
    for (std::size_t s = 0; s < seeds.size(); ++s)
      m.bits[i * seeds.size() + s] =
          run_campaign_unit<ScalarEngine>(plan, kWords, &faults[i], 1, seeds[s]);
  return m;
}

// --- the hard invariant: every backend == the oracle, byte for byte -----

TEST(SchedulerDifferential, MatrixMatchesScalarOracleForEverySchemeWidthAndCollapse) {
  const MarchTest march = march_by_name("March C-");
  const auto faults = mixed_faults();
  std::vector<CoverageOptions> runs;
  for (bool collapse : {false, true}) {
    runs.push_back(options(CoverageBackend::Scalar, simd::Request::Auto, collapse));
    for (simd::Request w : supported_widths())
      runs.push_back(options(CoverageBackend::Packed, w, collapse));
  }
  // Zero-only seeds activate every collapsing rule; the mixed set runs
  // several seed rounds (settle-exit and retirement inside each).
  for (const std::vector<std::uint64_t>& seeds :
       {std::vector<std::uint64_t>{0}, std::vector<std::uint64_t>{0, 1, 2}}) {
    for (SchemeKind k : kAllSchemes) {
      const VerdictMatrix want = oracle_matrix(k, march, faults, seeds);
      for (const CoverageOptions& o : runs)
        EXPECT_EQ(want.bits, CampaignRunner(kWords, kWidth, o).matrix(k, march, faults, seeds).bits)
            << to_string(k) << " " << to_string(o.backend) << " simd=" << simd::to_string(o.simd)
            << " collapse=" << o.collapse << " seeds=" << seeds.size();
    }
  }
}

// per_fault exercises the dropping path (no matrix -> decided faults leave
// the live set between rounds), evaluate the all+any bookkeeping.
TEST(SchedulerDifferential, PerFaultAndAggregatesMatchScalarOracle) {
  const MarchTest march = march_by_name("March C-");
  const auto faults = mixed_faults();
  const std::vector<std::uint64_t> seeds{0, 1, 2};
  for (SchemeKind k : kAllSchemes) {
    const VerdictMatrix m = oracle_matrix(k, march, faults, seeds);
    std::vector<bool> want(faults.size());
    CoverageOutcome a;
    a.total = faults.size();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      want[i] = m.detected_all(i);
      a.detected_all += m.detected_all(i);
      a.detected_any += m.detected_any(i);
    }
    for (const CoverageBackend backend : {CoverageBackend::Scalar, CoverageBackend::Packed}) {
      for (simd::Request w : supported_widths()) {
        const CampaignRunner runner(kWords, kWidth, options(backend, w, true));
        const std::string ctx = to_string(k) + " " + to_string(backend) + " simd=" +
                                simd::to_string(w);
        EXPECT_EQ(want, runner.per_fault(k, march, faults, seeds)) << ctx;
        const CoverageOutcome b = runner.evaluate(k, march, faults, seeds);
        EXPECT_EQ(a.detected_all, b.detected_all) << ctx;
        EXPECT_EQ(a.detected_any, b.detected_any) << ctx;
        EXPECT_EQ(a.total, b.total) << ctx;
        if (backend == CoverageBackend::Scalar) break;  // the width is a packed knob
      }
    }
  }
}

// A fault list of three faults in a unit of hundreds of lanes: lane 0
// stays golden, verdicts match the oracle, and the aggregate counts report
// no phantom universes — over several seed rounds, so the partial unit is
// also rebuilt from survivors.
TEST(SchedulerDifferential, PartialUnitFarSmallerThanOneBlock) {
  const MarchTest march = march_by_name("March C-");
  const auto all = mixed_faults();
  const std::vector<Fault> few{all[0], all[40], all[100]};
  const std::vector<std::uint64_t> seeds{0, 7};
  const auto want = oracle_matrix(SchemeKind::ProposedExact, march, few, seeds);
  for (simd::Request w : supported_widths()) {
    const CampaignRunner packed(kWords, kWidth, options(CoverageBackend::Packed, w, true));
    EXPECT_EQ(want.bits, packed.matrix(SchemeKind::ProposedExact, march, few, seeds).bits)
        << "simd=" << simd::to_string(w);
    const auto counts = packed.evaluate(SchemeKind::ProposedExact, march, few, seeds);
    EXPECT_EQ(counts.total, few.size());
    EXPECT_LE(counts.detected_any, few.size())
        << "phantom universes at simd=" << simd::to_string(w);
  }
}

// --- structural fault collapsing ----------------------------------------

TEST(FaultCollapse, ExpandedVerdictsMatchUncollapsedRun) {
  const MarchTest march = march_by_name("March C-");
  const auto faults = mixed_faults();
  const std::vector<std::uint64_t> seeds{0};  // zero contents arm every rule
  for (SchemeKind k : kAllSchemes) {
    const CampaignRunner off(kWords, kWidth,
                             options(CoverageBackend::Packed, simd::Request::W64, false));
    const CampaignRunner on(kWords, kWidth,
                            options(CoverageBackend::Packed, simd::Request::W64, true));
    EXPECT_EQ(off.per_fault(k, march, faults, seeds), on.per_fault(k, march, faults, seeds))
        << to_string(k);
  }
}

TEST(FaultCollapse, DuplicatesAlwaysCollapse) {
  const SchemePlan plan =
      make_scheme_plan(SchemeKind::ProposedMisr, march_by_name("March C-"), kWidth);
  std::vector<Fault> faults{Fault::saf({1, 2}, true), Fault::saf({1, 2}, true),
                            Fault::tf({0, 0}, Transition::Down)};
  // Random contents: only the dedup rule may apply.
  const FaultCollapse fc = collapse_faults(faults, plan, {7});
  ASSERT_EQ(fc.representatives.size(), 2u);
  EXPECT_EQ(fc.bucket_of[0], fc.bucket_of[1]);
  EXPECT_NE(fc.bucket_of[0], fc.bucket_of[2]);
  EXPECT_EQ(fc.members[fc.bucket_of[0]].size(), 2u);
}

TEST(FaultCollapse, SafTfEquivalenceRequiresZeroContents) {
  const SchemePlan plan =
      make_scheme_plan(SchemeKind::ProposedMisr, march_by_name("March C-"), kWidth);
  std::vector<Fault> faults{Fault::saf({1, 2}, false), Fault::tf({1, 2}, Transition::Up),
                            Fault::saf({1, 2}, true), Fault::tf({1, 2}, Transition::Down)};
  // All-zero contents: a cell that starts at 0 and cannot rise IS stuck-0.
  const FaultCollapse zero = collapse_faults(faults, plan, {0});
  EXPECT_EQ(zero.representatives.size(), 3u);
  EXPECT_EQ(zero.bucket_of[0], zero.bucket_of[1]);
  EXPECT_NE(zero.bucket_of[2], zero.bucket_of[0]);  // SAF1 stays alone
  EXPECT_NE(zero.bucket_of[3], zero.bucket_of[0]);  // TF down stays alone
  // Any random seed disarms the rule.
  const FaultCollapse rnd = collapse_faults(faults, plan, {0, 5});
  EXPECT_EQ(rnd.representatives.size(), 4u);
}

// A hand-built plan with solid data everywhere: bit addresses collapse for
// cell and coupling faults (word-level structure only), decoder faults
// only deduplicate.
TEST(FaultCollapse, BitSymmetricPlanCollapsesBitAddresses) {
  SchemePlan plan;
  plan.scheme = SchemeKind::WordOrientedMarch;
  plan.width = kWidth;
  plan.direct_a = solid_march(march_by_name("March C-"));
  ASSERT_TRUE(plan_bit_symmetric(plan));

  std::vector<Fault> faults;
  for (unsigned b = 0; b < kWidth; ++b) faults.push_back(Fault::saf({2, b}, true));
  for (unsigned b = 0; b < kWidth; ++b) faults.push_back(Fault::tf({1, b}, Transition::Down));
  // Inter-word CFins with every bit placement of the same word pair.
  for (unsigned ab = 0; ab < kWidth; ++ab)
    for (unsigned vb = 0; vb < kWidth; ++vb)
      faults.push_back(Fault::cfin({0, ab}, Transition::Up, {3, vb}));
  faults.push_back(Fault::af_no_access(0));
  faults.push_back(Fault::af_no_access(1));

  const FaultCollapse fc = collapse_faults(faults, plan, {0});
  // One SAF1 bucket, one TF-down bucket, one CFin bucket, two AFs.
  EXPECT_EQ(fc.representatives.size(), 5u);
  EXPECT_EQ(fc.members[fc.bucket_of[0]].size(), kWidth);
  EXPECT_EQ(fc.members[fc.bucket_of[2 * kWidth]].size(),
            static_cast<std::size_t>(kWidth) * kWidth);

  // And the collapsed campaign still reproduces the uncollapsed verdicts
  // for a scheme whose generated plan IS bit-symmetric is covered above;
  // here prove the predicate rejects the background-bearing plans.
  const SchemePlan twm_plan =
      make_scheme_plan(SchemeKind::ProposedExact, march_by_name("March C-"), kWidth);
  EXPECT_FALSE(plan_bit_symmetric(twm_plan));
  const SchemePlan misr_plan =
      make_scheme_plan(SchemeKind::ProposedMisr, march_by_name("March C-"), kWidth);
  EXPECT_FALSE(plan_bit_symmetric(misr_plan));
}

// --- per-lane retire + reinject into a live batch -----------------------

TEST(RetireLanes, RetiredLaneBehavesFaultFreeOthersKeepTheirFault) {
  PackedMemory mem(kWords, kWidth);
  mem.inject(Fault::saf({1, 2}, true), block_lane<std::uint64_t>(1));
  mem.inject(Fault::saf({1, 2}, true), block_lane<std::uint64_t>(2));
  EXPECT_TRUE(mem.lane_bit(1, 1, 2));  // stuck value enforced at inject
  EXPECT_TRUE(mem.lane_bit(2, 1, 2));

  mem.retire_lanes(block_lane<std::uint64_t>(1));
  // A write of zeros now sticks in the retired lane, stays forced in the
  // live one, and leaves the golden lane untouched.
  const auto zeros = broadcast_word(BitVec::zeros(kWidth));
  mem.write(1, zeros.data());
  EXPECT_FALSE(mem.lane_bit(1, 1, 2)) << "retired lane must accept the write";
  EXPECT_TRUE(mem.lane_bit(2, 1, 2)) << "live lane must keep its stuck-at";
  EXPECT_FALSE(mem.lane_bit(0, 1, 2));
}

TEST(RetireLanes, RetireCoversEveryClassAndElapse) {
  PackedMemory mem(kWords, kWidth);
  mem.inject(Fault::tf({0, 1}, Transition::Up), block_lane<std::uint64_t>(1));
  mem.inject(Fault::cfst({0, 0}, true, {2, 3}, true), block_lane<std::uint64_t>(2));
  mem.inject(Fault::cfin({1, 0}, Transition::Up, {2, 0}), block_lane<std::uint64_t>(3));
  mem.inject(Fault::ret({3, 0}, true, 1), block_lane<std::uint64_t>(4));
  mem.inject(Fault::af_no_access(2), block_lane<std::uint64_t>(5));
  mem.retire_lanes(~0ull & ~1ull);  // retire every fault lane

  // After retiring, every port op behaves fault-free in every lane.
  const auto ones = broadcast_word(BitVec::ones(kWidth));
  for (std::size_t a = 0; a < kWords; ++a) mem.write(a, ones.data());
  mem.elapse(5);  // dead RET entries must not decay
  for (unsigned lane : {0u, 1u, 2u, 3u, 4u, 5u})
    for (std::size_t a = 0; a < kWords; ++a)
      EXPECT_EQ(mem.lane_word(lane, a), BitVec::ones(kWidth)) << "lane " << lane;

  // Reinjecting into a freed lane keeps working (the batch is still live).
  mem.inject(Fault::saf({0, 0}, false), block_lane<std::uint64_t>(1));
  EXPECT_FALSE(mem.lane_bit(1, 0, 0));
  const auto ones2 = broadcast_word(BitVec::ones(kWidth));
  mem.write(0, ones2.data());
  EXPECT_FALSE(mem.lane_bit(1, 0, 0)) << "reinjected stuck-at-0 must hold";
  EXPECT_TRUE(mem.lane_bit(0, 0, 0));

  // Re-injection revives the lane: a LATER retire of a different lane must
  // not sweep the reinjected fault into the previously retired set.
  mem.retire_lanes(block_lane<std::uint64_t>(6));
  mem.write(0, ones2.data());
  EXPECT_FALSE(mem.lane_bit(1, 0, 0)) << "reinjected fault must survive later retires";
}

// --- forward-progress counters ------------------------------------------

TEST(SchedulerStats, SettleExitSkipsElementsAndCollapseShrinksTheList) {
  const MarchTest march = march_by_name("March C-");
  // All-SAF workload: every fault is detected early in the session, so the
  // settle-exit must cut march elements, and SAF0 collapses with TF up.
  std::vector<Fault> faults = all_safs(kWords, kWidth);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  const std::vector<std::uint64_t> seeds{0};

  CampaignStats stats;
  const CampaignRunner repack(kWords, kWidth,
                              options(CoverageBackend::Packed, simd::Request::W64, true, 1));
  std::vector<char> all, any;
  repack.run(SchemeKind::ProposedExact, march, faults, seeds, false, all, any, nullptr, nullptr,
             &stats);
  EXPECT_LT(stats.faults_simulated.load(), faults.size()) << "collapse must bite";
  EXPECT_LT(stats.elements_executed.load(), stats.elements_total.load())
      << "settle-exit must cut march elements";
  EXPECT_GT(stats.units.load(), 0u);
  EXPECT_GT(stats.mean_live_lanes(), 0.0);

  // Collapsing off simulates every fault; neither mode moves a verdict.
  CampaignStats uncollapsed;
  const CampaignRunner no_collapse(kWords, kWidth,
                                   options(CoverageBackend::Packed, simd::Request::W64, false, 1));
  std::vector<char> uall, uany;
  no_collapse.run(SchemeKind::ProposedExact, march, faults, seeds, false, uall, uany, nullptr,
                  nullptr, &uncollapsed);
  EXPECT_EQ(uncollapsed.faults_simulated.load(), faults.size());
  const VerdictMatrix oracle = oracle_matrix(SchemeKind::ProposedExact, march, faults, seeds);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(all[i] != 0, oracle.detected_all(i)) << faults[i].describe();
    EXPECT_EQ(uall[i] != 0, oracle.detected_all(i)) << faults[i].describe();
  }
}

// The allocation-free round rebuild: worker memories persist across seed
// rounds, so a campaign with three times the rounds performs exactly the
// same number of fresh page allocations (the free-list absorbs every
// refill).  This pins the CampaignStats::page_allocs contract.
TEST(SchedulerStats, RepackRoundRebuildAllocatesNoNewPages) {
  const MarchTest march = march_by_name("March C-");
  const auto faults = mixed_faults();
  for (simd::Request w : supported_widths()) {
    CampaignStats short_run, long_run;
    const std::vector<std::uint64_t> two{0, 7};
    const std::vector<std::uint64_t> six{0, 7, 11, 13, 17, 19};
    const CampaignRunner packed(kWords, kWidth, options(CoverageBackend::Packed, w, true, 1));
    packed.per_fault(SchemeKind::ProposedExact, march, faults, two, &short_run);
    packed.per_fault(SchemeKind::ProposedExact, march, faults, six, &long_run);
    EXPECT_GT(short_run.page_allocs.load(), 0u) << simd::to_string(w);
    EXPECT_EQ(short_run.page_allocs.load(), long_run.page_allocs.load())
        << "extra rounds allocated pages at --simd " << simd::to_string(w);
  }
}

// Streamed unit records of a collapsed campaign: one record per ORIGINAL
// fault, each carrying its bucket's expanded verdict.
class RecordingObserver : public UnitObserver {
 public:
  void on_unit_settled(std::size_t first, unsigned count, const char* all,
                       const char* any) override {
    for (unsigned i = 0; i < count; ++i) {
      records.push_back(first + i);
      alls.push_back(all[i]);
      anys.push_back(any[i]);
    }
  }
  std::vector<std::size_t> records;
  std::vector<char> alls, anys;
};

TEST(SchedulerObserver, CollapsedCampaignStreamsOneRecordPerOriginalFault) {
  const MarchTest march = march_by_name("March C-");
  std::vector<Fault> faults = all_safs(kWords, kWidth);
  for (auto& f : all_tfs(kWords, kWidth)) faults.push_back(f);
  const std::vector<std::uint64_t> seeds{0};
  const CampaignRunner repack(kWords, kWidth,
                              options(CoverageBackend::Packed, simd::Request::W64, true, 1));
  RecordingObserver obs;
  std::vector<char> all, any;
  repack.run(SchemeKind::ProposedExact, march, faults, seeds, true, all, any, nullptr, &obs);
  ASSERT_EQ(obs.records.size(), faults.size());
  std::vector<char> seen(faults.size(), 0);
  for (std::size_t i = 0; i < obs.records.size(); ++i) {
    ASSERT_LT(obs.records[i], faults.size());
    EXPECT_FALSE(seen[obs.records[i]]) << "duplicate record for fault " << obs.records[i];
    seen[obs.records[i]] = 1;
    EXPECT_EQ(obs.alls[i], all[obs.records[i]]);
    EXPECT_EQ(obs.anys[i], any[obs.records[i]]);
  }
}

}  // namespace
}  // namespace twm
