// Verdict canary: a fingerprint of the engine's verdicts, pinned next to
// engine_revision().
//
// The disk result cache, campaign checkpoints and explore state trust
// engine_revision() to tell whether stored verdicts are still the ones the
// engine computes.  The revision is bumped by hand, so a verdict-affecting
// change that forgets the bump would silently serve stale verdicts.  This
// test hashes the VerdictMatrix of a fixed small campaign over every
// scheme x fault class (two pages, so both the lane-uniform and the
// lane-block paths run) and pins the hash with the revision it belongs to:
// change the verdicts and this fails until both pins move together.
#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "api/spec.h"
#include "march/library.h"

namespace twm {
namespace {

constexpr std::string_view kRevision = "twm-engine-r6";
constexpr std::uint64_t kVerdictHash = 16368051941846875670ull;

constexpr std::size_t kWords = 72;  // one full page and a partial one
constexpr unsigned kWidth = 4;

// Every `stride`-th entry: a fixed, library-independent sample of a list.
std::vector<Fault> every_nth(const std::vector<Fault>& all, std::size_t stride) {
  std::vector<Fault> out;
  for (std::size_t i = 0; i < all.size(); i += stride) out.push_back(all[i]);
  return out;
}

// One fault list per FaultClass, in enum order.
std::vector<std::vector<Fault>> class_lists() {
  std::vector<std::vector<Fault>> lists;
  lists.push_back(every_nth(all_safs(kWords, kWidth), 23));
  lists.push_back(every_nth(all_tfs(kWords, kWidth), 23));
  for (const FaultClass cls : {FaultClass::CFst, FaultClass::CFid, FaultClass::CFin})
    lists.push_back(every_nth(all_cfs(kWords, kWidth, cls, CfScope::Both), 8191));
  lists.push_back(every_nth(all_rets(kWords, kWidth, 1), 23));
  std::vector<Fault> na, aw;
  for (const Fault& f : all_afs(kWords)) (f.cls == FaultClass::AFna ? na : aw).push_back(f);
  lists.push_back(every_nth(na, 5));
  lists.push_back(every_nth(aw, 421));
  return lists;
}

VerdictMatrix matrix(SchemeKind k, const std::vector<Fault>& faults, CoverageBackend backend) {
  CoverageOptions o;
  o.backend = backend;
  o.simd = simd::Request::W64;
  o.threads = 1;
  return CampaignRunner(kWords, kWidth, o).matrix(k, march_by_name("March G"), faults, {0, 7});
}

// FNV-1a, 64-bit.
void mix(std::uint64_t& h, std::uint64_t byte) {
  h ^= byte;
  h *= 0x100000001b3ull;
}

TEST(VerdictCanary, MatrixHashIsPinnedToTheEngineRevision) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const SchemeKind k : kAllSchemes)
    for (const std::vector<Fault>& faults : class_lists()) {
      ASSERT_FALSE(faults.empty());
      const VerdictMatrix scalar = matrix(k, faults, CoverageBackend::Scalar);
      EXPECT_EQ(scalar.bits, matrix(k, faults, CoverageBackend::Packed).bits)
          << to_string(k) << " " << to_string(faults.front().cls);
      for (const char bit : scalar.bits) mix(h, static_cast<unsigned char>(bit));
      mix(h, 0xff);  // cell separator
    }
  EXPECT_EQ(api::engine_revision(), kRevision);
  EXPECT_EQ(h, kVerdictHash)
      << "the engine's verdicts changed: bump engine_revision() (src/api/spec.cpp) so "
         "cached verdicts are invalidated, then re-pin kRevision and kVerdictHash";
}

}  // namespace
}  // namespace twm
