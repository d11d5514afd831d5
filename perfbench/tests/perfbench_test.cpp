// Tests of the benchmark's own machinery: the tail-percentile rule, the
// order-independent record digest, and failure accounting of service
// submits (an error frame injected through the TWM_FAILPOINTS registry).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "api/runner.h"
#include "api/sink.h"
#include "common.h"
#include "layers.h"
#include "service/client.h"
#include "service/protocol.h"
#include "util/failpoint.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> shuffled_ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  std::shuffle(v.begin(), v.end(), std::mt19937(static_cast<unsigned>(n)));
  return v;
}

TEST(TailPercentile, TakesP95WhenTenSamplesLieBeyondIt) {
  const Tail t = tail_percentile(shuffled_ramp(200));
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 190.0);  // 191..200 lie beyond
  EXPECT_EQ(t.samples, 200u);
}

TEST(TailPercentile, FallsBackToHighestPercentileWithTenBeyond) {
  for (std::size_t n = 22; n <= 400; ++n) {
    const Tail t = tail_percentile(shuffled_ramp(n));
    ASSERT_GT(t.percentile, 50.0) << n;
    const std::size_t beyond = n - static_cast<std::size_t>(t.value);
    EXPECT_GE(beyond, 10u) << n;
    // One rank higher would leave fewer than 10 beyond, unless p95 capped it.
    if (t.percentile < 95.0) {
      EXPECT_EQ(beyond, 10u) << n;
    }
    EXPECT_LE(t.percentile, 95.0) << n;
  }
  const Tail t100 = tail_percentile(shuffled_ramp(100));
  EXPECT_DOUBLE_EQ(t100.percentile, 90.0);
  EXPECT_DOUBLE_EQ(t100.value, 90.0);
  const Tail t30 = tail_percentile(shuffled_ramp(30));
  EXPECT_DOUBLE_EQ(t30.value, 20.0);
  EXPECT_NEAR(t30.percentile, 66.67, 0.01);
}

TEST(TailPercentile, NeverReportsATailBelowTheMedian) {
  for (std::size_t n = 1; n < 22; ++n) {
    const Tail t = tail_percentile(shuffled_ramp(n));
    EXPECT_DOUBLE_EQ(t.percentile, 50.0) << n;
    EXPECT_DOUBLE_EQ(t.value, (static_cast<double>(n) + 1.0) / 2.0) << n;
    EXPECT_EQ(t.samples, n);
  }
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

Digest digest_of(const std::vector<std::string>& lines) {
  DigestStream stream;
  std::ostream out(&stream);
  for (const std::string& l : lines) out << l << '\n';
  EXPECT_EQ(stream.bytes(), [&] {
    std::size_t n = 0;
    for (const std::string& l : lines) n += l.size() + 1;
    return n;
  }());
  return stream.digest();
}

const std::vector<std::string> kRecords = {
    R"({"type":"campaign_begin","name":"t","words":4})",
    R"({"type":"unit","scheme":"twm","class":"saf","fault":0,"describe":"SAF0 @0.0","detected_all":true,"detected_any":true})",
    R"({"type":"unit","scheme":"twm","class":"saf","fault":1,"describe":"SAF1 @0.0","detected_all":false,"detected_any":true})",
    R"({"type":"unit","scheme":"twm","class":"tf","fault":0,"describe":"TF up @0.0","detected_all":true,"detected_any":true})",
    R"({"type":"campaign_end","cancelled":false,"units":3,"seconds":0.012345,"cells":[]})",
};

TEST(Digest, UnchangedWhenRecordsArePermuted) {
  std::vector<std::string> lines = kRecords;
  const Digest reference = digest_of(lines);
  std::sort(lines.begin(), lines.end());
  do {
    EXPECT_EQ(digest_of(lines), reference);
  } while (std::next_permutation(lines.begin(), lines.end()));
}

TEST(Digest, ChangesWhenOneVerdictFlips) {
  std::vector<std::string> lines = kRecords;
  const Digest reference = digest_of(lines);
  const std::size_t at = lines[2].find("\"detected_all\":false");
  lines[2].replace(at, 20, "\"detected_all\":true");
  const Digest flipped = digest_of(lines);
  EXPECT_NE(flipped.units, reference.units);
  EXPECT_NE(flipped.all, reference.all);
}

TEST(Digest, IgnoresOnlyTheCampaignSeconds) {
  std::vector<std::string> lines = kRecords;
  const Digest reference = digest_of(lines);
  lines[4] = R"({"type":"campaign_end","cancelled":false,"units":3,"seconds":9.5,"cells":[]})";
  EXPECT_EQ(digest_of(lines), reference);
  lines[4] = R"({"type":"campaign_end","cancelled":false,"units":4,"seconds":9.5,"cells":[]})";
  EXPECT_NE(digest_of(lines).all, reference.all);
}

TEST(Digest, EqualAcrossThreadedRunsOfOneSpec) {
  const twm::api::CampaignSpec spec = twm::api::spec_from_json(
      R"({"memory":{"words":16,"width":8},"march":"March C-","schemes":["twm","sym"],)"
      R"("classes":["saf","cfid:intra"],"seeds":[5,6],"run":{"threads":2}})");
  Digest first;
  for (int i = 0; i < 3; ++i) {
    DigestStream stream;
    std::ostream out(&stream);
    twm::api::JsonLinesSink sink(out);
    (void)twm::api::run_campaign(spec, &sink);
    if (i == 0) first = stream.digest();
    EXPECT_EQ(stream.digest(), first);
    EXPECT_GT(stream.unit_records(), 0u);
  }
}

std::string small_spec(std::uint64_t seed) {
  // simd "64" keeps the campaign on the portable backend compiled into the
  // static library, whose failpoint registry failpoints_configure reaches.
  return R"({"memory":{"words":16,"width":8},"march":"March C-","schemes":["twm"],)"
         R"("classes":["saf"],"seeds":[)" +
         std::to_string(seed) + R"(],"run":{"threads":2,"simd":"64"}})";
}

TEST(FailedFrac, CountsAnInjectedErrorFrame) {
  InProcessServer server;
  twm::service::LineClient client;
  std::string error;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;

  std::vector<JudgedSubmit> submits;
  const auto submit = [&](std::uint64_t spec_id, std::uint64_t seed) {
    JudgedSubmit js;
    js.spec_id = spec_id;
    js.outcome = submit_frame_and_drain(
        client, twm::service::submit_frame(twm::api::spec_from_json(small_spec(seed))));
    submits.push_back(js);
  };
  submit(1, 11);
  submit(1, 11);  // replayed from the cache, same digest
  ASSERT_TRUE(twm::util::failpoints_configure("campaign.worker=err"));
  submit(2, 22);  // fresh cells: the engine runs and its worker fails
  twm::util::failpoints_clear();

  ASSERT_TRUE(submits[0].outcome.ok) << submits[0].outcome.error;
  EXPECT_TRUE(submits[1].outcome.hit());
  EXPECT_FALSE(submits[2].outcome.ok);
  EXPECT_TRUE(twm::service::parse_error_frame(submits[2].outcome.error).has_value());

  RunResult r;
  judge_submits(submits, r);
  EXPECT_EQ(r.attempted, 3u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_FALSE(r.correct());
}

TEST(FailedFrac, CountsADigestMismatchAgainstTheFirstResponse) {
  SubmitOutcome ok;
  ok.ok = true;
  ok.digest.units = 1;
  SubmitOutcome changed = ok;
  changed.digest.units = 2;
  RunResult r;
  judge_submits({{7, ok}, {7, ok}, {7, changed}}, r);
  EXPECT_EQ(r.attempted, 3u);
  EXPECT_EQ(r.failed, 1u);
}

}  // namespace
}  // namespace perfbench
