// Chaos harness tests: the failpoint registry itself, and the failure
// semantics it exists to prove — cache disk faults degrade to memory-only,
// checkpoint save failures warn-and-continue, allocation and worker faults
// surface as typed retryable errors, campaigns stop at run.deadline_ms
// with an exact prefix of the fault-free record stream, and the service
// survives socket faults with typed error frames instead of crashes.
//
// Failpoints are process-global; every test holds a FailpointGuard so a
// failing assertion cannot leak an armed failpoint into later tests.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/checkpoint.h"
#include "api/error.h"
#include "api/json.h"
#include "api/runner.h"
#include "api/sink.h"
#include "api/spec.h"
#include "cli/cli.h"
#include "service/cache.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "util/failpoint.h"
#include "util/fs.h"

namespace twm {
namespace {

struct FailpointGuard {
  FailpointGuard() { util::failpoints_clear(); }
  ~FailpointGuard() { util::failpoints_clear(); }
};

std::filesystem::path temp_dir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("twm_chaos_" + std::to_string(::getpid()) + "_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Scalar + 1 thread: units stream in deterministic fault order, so
// cancellation (and a deadline) cuts an exact prefix.
api::CampaignSpec scalar_spec() {
  api::CampaignSpec s;
  s.name = "chaos-test";
  s.words = 2;
  s.width = 2;
  s.march = "March C-";
  s.schemes = {SchemeKind::ProposedExact};
  s.classes = {{api::ClassKind::Saf, CfScope::Both}};  // 2*2*2 = 8 faults
  s.seeds = {0, 1};
  s.backend = CoverageBackend::Scalar;
  s.threads = 1;
  return s;
}

// Big enough that a millisecond deadline always expires mid-run (2048
// scalar units), small enough that the fault-free reference completes in
// test time.
api::CampaignSpec big_scalar_spec() {
  api::CampaignSpec s = scalar_spec();
  s.name = "chaos-test-big";
  s.words = 64;
  s.width = 8;
  s.classes = {{api::ClassKind::Saf, CfScope::Both}, {api::ClassKind::Tf, CfScope::Both}};
  return s;
}

// ---- failpoint registry --------------------------------------------------

TEST(Failpoint, SpecParsesActionsAndTriggerForms) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("a=err;b=oom@3;c=drop:0.5;d=eintr"));
  EXPECT_TRUE(util::failpoints_enabled());
  const std::vector<std::string> want = {"a", "b", "c", "d"};
  EXPECT_EQ(util::failpoint_names(), want);
}

TEST(Failpoint, MalformedSpecIsRejectedAndThePreviousConfigSurvives) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("keep=err"));
  for (const char* bad : {"x", "a=bogus", "a=err@0", "a=err@x", "a=drop:0", "a=drop:1.5",
                          "=err", "a="}) {
    std::string error;
    EXPECT_FALSE(util::failpoints_configure(bad, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
  const std::vector<std::string> want = {"keep"};
  EXPECT_EQ(util::failpoint_names(), want);
}

TEST(Failpoint, EmptySpecDeactivatesEverything) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("a=err"));
  ASSERT_TRUE(util::failpoints_configure(""));
  EXPECT_FALSE(util::failpoints_enabled());
  EXPECT_FALSE(TWM_FAILPOINT("a").has_value());
}

TEST(Failpoint, CountTriggerFiresExactlyOnTheNthHitOnce) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("f=err@3"));
  for (int hit = 1; hit <= 6; ++hit) {
    const auto fired = TWM_FAILPOINT("f");
    if (hit == 3) {
      ASSERT_TRUE(fired.has_value());
      EXPECT_EQ(*fired, util::FailAction::Err);
    } else {
      EXPECT_FALSE(fired.has_value()) << "hit " << hit;
    }
  }
  EXPECT_EQ(util::failpoint_trips("f"), 1u);
}

TEST(Failpoint, BareActionFiresOnEveryHit) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("f=oom"));
  for (int hit = 0; hit < 5; ++hit) EXPECT_EQ(TWM_FAILPOINT("f"), util::FailAction::Oom);
  EXPECT_EQ(util::failpoint_trips("f"), 5u);
  EXPECT_FALSE(TWM_FAILPOINT("unconfigured").has_value());
  EXPECT_EQ(util::failpoint_trips("unconfigured"), 0u);
}

TEST(Failpoint, ProbabilityTriggerIsDeterministicPerSeed) {
  FailpointGuard guard;
  const auto sample = [] {
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(TWM_FAILPOINT("p").has_value());
    return fired;
  };
  util::failpoints_set_seed(42);
  ASSERT_TRUE(util::failpoints_configure("p=drop:0.5"));
  const std::vector<bool> first = sample();
  ASSERT_TRUE(util::failpoints_configure("p=drop:0.5"));  // re-arm, same seed
  EXPECT_EQ(sample(), first);  // a chaos failure reproduces

  const std::size_t fires = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 50u);  // p=0.5 over 200 draws: loose sanity band
  EXPECT_LT(fires, 150u);

  util::failpoints_set_seed(43);
  ASSERT_TRUE(util::failpoints_configure("p=drop:0.5"));
  EXPECT_NE(sample(), first);  // different seed, different trajectory
  util::failpoints_set_seed(1);
}

// ---- typed error taxonomy ------------------------------------------------

TEST(TypedErrors, ClassifyExceptionMapsTheTaxonomy) {
  const api::Error oom = api::classify_exception(std::bad_alloc());
  EXPECT_EQ(oom.category, api::ErrorCategory::Resource);
  EXPECT_TRUE(oom.retryable);

  const api::Error spec = api::classify_exception(
      api::SpecValidationError(std::vector<api::SpecError>{{"memory.words", "must be > 0"}}));
  EXPECT_EQ(spec.category, api::ErrorCategory::Spec);
  EXPECT_FALSE(spec.retryable);

  const api::Error logic = api::classify_exception(std::logic_error("bug"));
  EXPECT_EQ(logic.category, api::ErrorCategory::Engine);
  EXPECT_FALSE(logic.retryable);

  const api::Error runtime = api::classify_exception(std::runtime_error("transient"));
  EXPECT_EQ(runtime.category, api::ErrorCategory::Engine);
  EXPECT_TRUE(runtime.retryable);

  // A CampaignError's payload passes through unchanged.
  const api::Error wrapped = api::classify_exception(
      api::CampaignError({api::ErrorCategory::Timeout, true, "idle"}));
  EXPECT_EQ(wrapped.category, api::ErrorCategory::Timeout);
  EXPECT_TRUE(wrapped.retryable);
  EXPECT_EQ(wrapped.detail, "idle");
}

TEST(TypedErrors, ErrorFrameRoundTripsThroughTheParser) {
  const api::Error e{api::ErrorCategory::Timeout, true, "idle timeout: no frame in 100 ms"};
  const std::string frame = service::error_frame(e);
  const auto info = service::parse_error_frame(frame);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->scope, "timeout");
  EXPECT_TRUE(info->retryable);
  EXPECT_EQ(info->message, e.detail);

  EXPECT_FALSE(service::parse_error_frame("{\"type\":\"pong\"}").has_value());
  EXPECT_FALSE(service::parse_error_frame("not json").has_value());
  // Legacy builder defaults to non-retryable.
  const auto legacy = service::parse_error_frame(service::error_frame("frame", "bad json"));
  ASSERT_TRUE(legacy.has_value());
  EXPECT_FALSE(legacy->retryable);
}

// ---- crash-atomic writes -------------------------------------------------

TEST(AtomicWrite, ReplacesTheFileAndLeavesNoTempDroppings) {
  const auto dir = temp_dir("atomic_write");
  const std::string path = (dir / "target.json").string();
  ASSERT_TRUE(util::atomic_write_file(path, "first"));
  ASSERT_TRUE(util::atomic_write_file(path, "second"));
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "second");
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // no abandoned tmp files
  std::filesystem::remove_all(dir);
}

// ---- result cache under disk faults -------------------------------------

TEST(CacheChaos, RepeatedDiskWriteFailuresDegradeToMemoryOnly) {
  FailpointGuard guard;
  const auto dir = temp_dir("cache_degrade");
  service::ResultCache cache({dir.string(), 8});
  const api::CellRecords records{{{0, true, true}}};

  ASSERT_TRUE(util::failpoints_configure("cache.disk_write=err"));
  for (int i = 0; i < 5; ++i)
    cache.store("k" + std::to_string(i), "id" + std::to_string(i), records);

  const service::ResultCache::Counters c = cache.counters();
  EXPECT_EQ(c.disk_errors, 3u);  // ladder trips at kMaxConsecutiveDiskFailures
  EXPECT_TRUE(c.disk_degraded);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  // The memory tier is untouched: every entry still serves.
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(cache.lookup("k" + std::to_string(i), "id" + std::to_string(i)).has_value());

  // Degradation is for the cache's lifetime — clearing the failpoint does
  // not re-enable a disk that proved unreliable.
  util::failpoints_clear();
  cache.store("k9", "id9", records);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(CacheChaos, OneDiskFailureIsCountedButDoesNotDegrade) {
  FailpointGuard guard;
  const auto dir = temp_dir("cache_one_fail");
  const api::CellRecords records{{{0, true, true}}};
  // Real identities are canonical JSON; the entry file embeds them
  // verbatim, so test identities must be valid JSON too.
  const std::string id1 = R"("id1")", id2 = R"("id2")";
  {
    service::ResultCache cache({dir.string(), 8});
    ASSERT_TRUE(util::failpoints_configure("cache.disk_write=err@1"));
    cache.store("k1", id1, records);  // disk write fails, memory keeps it
    cache.store("k2", id2, records);  // success resets the ladder
    const service::ResultCache::Counters c = cache.counters();
    EXPECT_EQ(c.disk_errors, 1u);
    EXPECT_FALSE(c.disk_degraded);
  }
  // A cold cache sees exactly what reached the disk.
  service::ResultCache cold({dir.string(), 8});
  EXPECT_FALSE(cold.lookup("k1", id1).has_value());
  EXPECT_TRUE(cold.lookup("k2", id2).has_value());
  std::filesystem::remove_all(dir);
}

TEST(CacheChaos, DiskReadFailureIsAMissNotAnAbort) {
  FailpointGuard guard;
  const auto dir = temp_dir("cache_read_fail");
  const api::CellRecords records{{{0, true, true}}};
  const std::string id1 = R"("id1")";
  {
    service::ResultCache cache({dir.string(), 8});
    cache.store("k1", id1, records);
  }
  service::ResultCache cold({dir.string(), 8});
  ASSERT_TRUE(util::failpoints_configure("cache.disk_read=err@1"));
  EXPECT_FALSE(cold.lookup("k1", id1).has_value());  // injected failure
  EXPECT_TRUE(cold.lookup("k1", id1).has_value());   // disk recovered
  const service::ResultCache::Counters c = cold.counters();
  EXPECT_EQ(c.disk_errors, 1u);
  EXPECT_FALSE(c.disk_degraded);
  std::filesystem::remove_all(dir);
}

// ---- checkpoint under save/load faults -----------------------------------

TEST(CheckpointChaos, FailedSaveLeavesThePreviousFileIntact) {
  FailpointGuard guard;
  const auto dir = temp_dir("ck_save");
  const std::string path = (dir / "ck.json").string();

  api::CheckpointFile file;
  file.regions = 2;
  file.cells.push_back({"cell-identity", 0, {{0, true, true}}});
  ASSERT_TRUE(api::save_checkpoint(path, file));

  api::CheckpointFile newer = file;
  newer.cells.push_back({"cell-identity", 1, {{1, true, false}}});
  ASSERT_TRUE(util::failpoints_configure("checkpoint.save=err"));
  EXPECT_FALSE(api::save_checkpoint(path, newer));

  util::failpoints_clear();
  const auto loaded = api::load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cells.size(), 1u);  // the failed save changed nothing

  ASSERT_TRUE(util::failpoints_configure("checkpoint.load=err"));
  EXPECT_FALSE(api::load_checkpoint(path).has_value());  // degraded to "no resume"
  std::filesystem::remove_all(dir);
}

TEST(CheckpointChaos, CampaignWarnsAndContinuesWhenEverySaveFails) {
  FailpointGuard guard;
  const auto dir = temp_dir("ck_campaign");
  const std::string path = (dir / "ck.json").string();

  api::CampaignSpec spec = scalar_spec();
  spec.words = 16;
  spec.regions = 4;

  api::CollectingSink clean;
  const api::CampaignSummary want = api::run_campaign(spec, &clean);

  ASSERT_TRUE(util::failpoints_configure("checkpoint.save=err"));
  api::CollectingSink sink;
  const api::CampaignSummary got =
      api::run_campaign(spec, &sink, nullptr, nullptr, path);
  util::failpoints_clear();

  // Persistence failed; the campaign itself must be untouched.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(got.cancelled);
  EXPECT_EQ(got.units_emitted, want.units_emitted);
  ASSERT_EQ(got.cells.size(), want.cells.size());
  for (std::size_t i = 0; i < got.cells.size(); ++i) {
    EXPECT_EQ(got.cells[i].outcome.total, want.cells[i].outcome.total);
    EXPECT_EQ(got.cells[i].outcome.detected_all, want.cells[i].outcome.detected_all);
    EXPECT_EQ(got.cells[i].outcome.detected_any, want.cells[i].outcome.detected_any);
  }

  // With the failpoint gone the same call persists a resumable file.
  api::CollectingSink again;
  api::run_campaign(spec, &again, nullptr, nullptr, path);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(api::load_checkpoint(path).has_value());
  std::filesystem::remove_all(dir);
}

// ---- engine faults become typed errors ------------------------------------

TEST(EngineChaos, PageAllocOomBecomesATypedResourceError) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("page.alloc=oom@1"));
  api::CollectingSink sink;
  try {
    api::run_campaign(scalar_spec(), &sink);
    FAIL() << "expected CampaignError";
  } catch (const api::CampaignError& e) {
    EXPECT_EQ(e.error().category, api::ErrorCategory::Resource);
    EXPECT_TRUE(e.error().retryable);
  }
  // The stream ended in an error record, not a campaign_end.
  ASSERT_EQ(sink.errors.size(), 1u);
  EXPECT_EQ(sink.errors[0].category, api::ErrorCategory::Resource);
  EXPECT_EQ(sink.ends, 0u);

  // The failure was the one-shot injection: the same campaign now runs.
  util::failpoints_clear();
  api::CollectingSink clean;
  EXPECT_NO_THROW(api::run_campaign(scalar_spec(), &clean));
  EXPECT_EQ(clean.ends, 1u);
}

TEST(EngineChaos, WorkerDeathBecomesATypedEngineError) {
  FailpointGuard guard;
  ASSERT_TRUE(util::failpoints_configure("campaign.worker=err"));
  api::CampaignSpec spec = scalar_spec();
  spec.threads = 2;
  api::CollectingSink sink;
  try {
    api::run_campaign(spec, &sink);
    FAIL() << "expected CampaignError";
  } catch (const api::CampaignError& e) {
    EXPECT_EQ(e.error().category, api::ErrorCategory::Engine);
    EXPECT_TRUE(e.error().retryable);
    EXPECT_NE(e.error().detail.find("injected worker failure"), std::string::npos);
  }
  ASSERT_EQ(sink.errors.size(), 1u);
  EXPECT_EQ(sink.errors[0].category, api::ErrorCategory::Engine);
}

TEST(EngineChaos, SpecValidationStillThrowsItsOwnType) {
  // The typed-error wrapper must not swallow the pre-run validation
  // contract: callers branch on SpecValidationError's field paths.
  api::CampaignSpec bad = scalar_spec();
  bad.words = 0;
  EXPECT_THROW(api::run_campaign(bad), api::SpecValidationError);
}

// ---- run.deadline_ms ------------------------------------------------------

TEST(DeadlineChaos, DeadlineRoundTripsThroughSpecJsonOnlyWhenSet) {
  api::CampaignSpec s = scalar_spec();
  EXPECT_EQ(api::to_json(s).find("deadline_ms"), std::string::npos);
  s.deadline_ms = 1500;
  const std::string json = api::to_json(s);
  EXPECT_NE(json.find("\"deadline_ms\": 1500"), std::string::npos);
  const auto parsed = api::specs_from_json(json);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], s);
}

TEST(DeadlineChaos, UnexpiredDeadlineChangesNothing) {
  api::CampaignSpec spec = scalar_spec();
  spec.deadline_ms = 60'000;
  api::CollectingSink sink;
  const api::CampaignSummary summary = api::run_campaign(spec, &sink);
  EXPECT_FALSE(summary.cancelled);
  EXPECT_FALSE(summary.timed_out);
  EXPECT_EQ(sink.units.size(), 8u);
}

TEST(DeadlineChaos, TimedOutCampaignEmitsAnExactPrefixOfTheFaultFreeStream) {
  api::CollectingSink full;
  api::run_campaign(big_scalar_spec(), &full);
  ASSERT_EQ(full.units.size(), 2048u);

  api::CampaignSpec limited = big_scalar_spec();
  limited.deadline_ms = 1;
  api::CollectingSink cut;
  const api::CampaignSummary summary = api::run_campaign(limited, &cut);

  // THE acceptance criterion: the deadline is an outcome, not an error —
  // begin and end both fire, the summary carries timed_out (which implies
  // cancelled), and the streamed records are exactly the first K of the
  // fault-free run.
  EXPECT_TRUE(summary.timed_out);
  EXPECT_TRUE(summary.cancelled);
  EXPECT_EQ(cut.begins, 1u);
  EXPECT_EQ(cut.ends, 1u);
  EXPECT_TRUE(cut.errors.empty());
  ASSERT_LT(cut.units.size(), full.units.size());
  for (std::size_t i = 0; i < cut.units.size(); ++i) {
    EXPECT_EQ(cut.units[i].scheme, full.units[i].scheme);
    EXPECT_EQ(cut.units[i].cls, full.units[i].cls);
    EXPECT_EQ(cut.units[i].fault_index, full.units[i].fault_index);
    EXPECT_EQ(cut.units[i].detected_all, full.units[i].detected_all);
    EXPECT_EQ(cut.units[i].detected_any, full.units[i].detected_any);
  }
}

TEST(DeadlineChaos, JsonLinesEndRecordCarriesTimedOut) {
  std::ostringstream out;
  api::JsonLinesSink sink(out);
  api::run_campaign(scalar_spec(), &sink);
  EXPECT_NE(out.str().find("\"timed_out\":false"), std::string::npos);

  api::CampaignSpec limited = big_scalar_spec();
  limited.deadline_ms = 1;
  std::ostringstream tout;
  api::JsonLinesSink tsink(tout);
  api::run_campaign(limited, &tsink);
  EXPECT_NE(tout.str().find("\"timed_out\":true"), std::string::npos);
}

// ---- service under chaos ---------------------------------------------------

class ServiceChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::failpoints_clear();
    dir_ = temp_dir(std::string("svc_") +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }

  void TearDown() override {
    util::failpoints_clear();
    stop_server();
    std::filesystem::remove_all(dir_);
  }

  std::uint16_t start_server(service::ServerConfig config = {}) {
    if (config.cache_dir.empty()) config.cache_dir = dir_.string();
    server_ = std::make_unique<service::ServiceServer>(std::move(config));
    const std::uint16_t port = server_->start();
    serve_thread_ = std::thread([this] { server_->serve_forever(); });
    return port;
  }

  void stop_server() {
    if (server_) server_->stop();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }

  service::LineClient connect(std::uint16_t port) {
    service::LineClient c;
    std::string error;
    EXPECT_TRUE(c.connect("127.0.0.1", port, &error)) << error;
    return c;
  }

  std::filesystem::path dir_;
  std::unique_ptr<service::ServiceServer> server_;
  std::thread serve_thread_;
};

TEST_F(ServiceChaosTest, SyntheticEintrOnEverySocketCallIsInvisible) {
  // Every send/recv/accept gets one synthetic EINTR before the real call:
  // the retry loops must make the whole exchange byte-for-byte normal.
  ASSERT_TRUE(
      util::failpoints_configure("socket.send=eintr;socket.recv=eintr;socket.accept=eintr"));
  const auto port = start_server();
  service::LineClient c = connect(port);
  ASSERT_TRUE(c.send_line(service::submit_frame(scalar_spec())));
  std::vector<std::string> lines;
  while (true) {
    const auto line = c.recv_line();
    ASSERT_TRUE(line) << "stream ended before the terminator";
    lines.push_back(*line);
    if (line->find("\"type\":\"campaign_stats\"") != std::string::npos) break;
    ASSERT_FALSE(service::parse_error_frame(*line).has_value()) << *line;
  }
  // begin + 8 units + end + stats.
  EXPECT_EQ(lines.size(), 11u);
}

TEST_F(ServiceChaosTest, AcceptFailureDropsOneConnectionNotTheDaemon) {
  // Armed after the daemon may already block in accept: the failpoint must
  // still hit the next connection.  Each receive has a deadline, so a
  // connection the daemon wrongly keeps open fails the test, not the run.
  constexpr int kRecvDeadlineMs = 10000;
  const auto port = start_server();
  ASSERT_TRUE(util::failpoints_configure("socket.accept=err@1"));
  service::LineClient first;
  // The kernel completes the handshake, then the injected accept failure
  // hangs up; connect() may or may not observe it, recv always does.
  first.connect("127.0.0.1", port);
  ASSERT_TRUE(first.wait_readable(kRecvDeadlineMs)) << "the daemon kept the connection open";
  EXPECT_FALSE(first.recv_line().has_value());

  service::LineClient second = connect(port);
  ASSERT_TRUE(second.send_line(service::ping_frame()));
  ASSERT_TRUE(second.wait_readable(kRecvDeadlineMs)) << "no answer from the daemon";
  const auto pong = second.recv_line();
  ASSERT_TRUE(pong.has_value());
  EXPECT_NE(pong->find("\"type\":\"pong\""), std::string::npos);
}

TEST_F(ServiceChaosTest, EngineFaultReachesTheClientAsARetryableErrorFrame) {
  const auto port = start_server();
  service::LineClient c = connect(port);

  ASSERT_TRUE(util::failpoints_configure("page.alloc=oom@1"));
  ASSERT_TRUE(c.send_line(service::submit_frame(scalar_spec())));
  std::optional<service::ErrorInfo> info;
  while (true) {
    const auto line = c.recv_line();
    ASSERT_TRUE(line) << "connection died instead of delivering the typed error";
    info = service::parse_error_frame(*line);
    if (info) break;
    ASSERT_EQ(line->find("\"type\":\"campaign_stats\""), std::string::npos)
        << "campaign completed despite the injected OOM";
  }
  EXPECT_EQ(info->scope, "resource");
  EXPECT_TRUE(info->retryable);
  EXPECT_EQ(server_->counters().campaigns_failed, 1u);

  // `retryable` is honest: the connection survived and the resubmit (the
  // one-shot failpoint is spent) completes.
  util::failpoints_clear();
  ASSERT_TRUE(c.send_line(service::submit_frame(scalar_spec())));
  bool completed = false;
  while (true) {
    const auto line = c.recv_line();
    ASSERT_TRUE(line);
    if (line->find("\"type\":\"campaign_stats\"") != std::string::npos) {
      completed = true;
      break;
    }
    ASSERT_FALSE(service::parse_error_frame(*line).has_value()) << *line;
  }
  EXPECT_TRUE(completed);
}

TEST_F(ServiceChaosTest, IdleClientIsDroppedWithATypedTimeoutFrame) {
  service::ServerConfig config;
  config.idle_timeout_ms = 100;
  const auto port = start_server(std::move(config));
  service::LineClient c = connect(port);
  // Send nothing: the server must cut us loose, with the reason first.
  const auto line = c.recv_line();
  ASSERT_TRUE(line.has_value());
  const auto info = service::parse_error_frame(*line);
  ASSERT_TRUE(info.has_value()) << *line;
  EXPECT_EQ(info->scope, "timeout");
  EXPECT_TRUE(info->retryable);
  EXPECT_FALSE(c.recv_line().has_value());  // then hung up
  EXPECT_EQ(server_->counters().clients_timed_out, 1u);

  // A fresh connection that does talk is served normally.
  service::LineClient again = connect(port);
  ASSERT_TRUE(again.send_line(service::ping_frame()));
  EXPECT_TRUE(again.recv_line().has_value());
}

// ---- CLI plumbing ---------------------------------------------------------

TEST(ChaosCli, FailpointsFlagRejectsMalformedSpecs) {
  FailpointGuard guard;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"simd", "--failpoints", "cache.disk_write=bogus"}, out, err), 1);
  EXPECT_NE(err.str().find("--failpoints"), std::string::npos);
}

TEST(ChaosCli, FailpointsFlagArmsTheRegistryForAnyCommand) {
  FailpointGuard guard;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"simd", "--failpoints", "cache.disk_write=err@2"}, out, err), 0);
  const std::vector<std::string> want = {"cache.disk_write"};
  EXPECT_EQ(util::failpoint_names(), want);
}

TEST(ChaosCli, RunDeadlineOverrideReportsTimedOut) {
  api::CampaignSpec spec = big_scalar_spec();
  const std::string path = ::testing::TempDir() + "twm_chaos_deadline_spec.json";
  {
    std::ofstream f(path);
    f << api::to_json(spec);
  }
  std::ostringstream out, err;
  const int rc =
      run_cli({"run", path, "--sink", "jsonl", "--deadline-ms", "1"}, out, err);
  EXPECT_EQ(rc, 0);  // a deadline is an outcome, not an error
  EXPECT_NE(out.str().find("\"timed_out\":true"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ChaosCli, SubmitRetriesWithBackoffBeforeGivingUp) {
  std::ostringstream out, err;
  // Nothing listens on port 1: every attempt is a fast connect refusal.
  const int rc = run_cli(
      {"submit", "--stats", "--port", "1", "--retries", "2", "--backoff-ms", "1"}, out, err);
  EXPECT_EQ(rc, 1);
  std::size_t warnings = 0;
  for (std::size_t pos = 0; (pos = err.str().find("retrying in", pos)) != std::string::npos;
       ++pos)
    ++warnings;
  EXPECT_EQ(warnings, 2u) << err.str();
  EXPECT_NE(err.str().find("error: connect failed"), std::string::npos) << err.str();
}

}  // namespace
}  // namespace twm
