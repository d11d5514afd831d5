// The benchmark's calls into the program's layers, each through a public
// surface: service submits (ServiceServer + LineClient), the per-cell
// decomposition of a campaign (spec_from_json, make_scheme_plan,
// build_fault_list, collapse_faults, CampaignRunner + CampaignStats,
// JsonLinesSink), a timed run_campaign_unit sweep, ResultCache probes, the
// scalar oracle and the paper's complexity pin.
#ifndef TWM_PERFBENCH_LAYERS_H
#define TWM_PERFBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/spec.h"
#include "common.h"
#include "service/client.h"
#include "service/server.h"
#include "trace.h"

namespace perfbench {

// ---- service -----------------------------------------------------------

// A ServiceServer with the default configuration (127.0.0.1, ephemeral
// port, memory-only 256-entry LRU) accepting on its own thread.  The
// destructor stops it and joins the thread.
class InProcessServer {
 public:
  InProcessServer();
  ~InProcessServer();
  InProcessServer(const InProcessServer&) = delete;
  InProcessServer& operator=(const InProcessServer&) = delete;

  std::uint16_t port() const { return port_; }
  twm::service::ServiceServer& server() { return server_; }

 private:
  twm::service::ServiceServer server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

// One submit frame sent and its response stream drained to the closing
// campaign_stats frame (or an error frame / lost connection).
struct SubmitOutcome {
  bool ok = false;     // campaign_stats received and no error frame
  std::string error;   // what went wrong when !ok
  Clock::time_point sent{}, begin{}, first_unit{}, done{};
  double engine_ms = 0.0;  // server-reported campaign_end.seconds
  std::uint64_t units = 0, frames = 0, bytes = 0;
  std::uint64_t cells = 0, cached = 0, simulated = 0;
  Digest digest;  // every frame but campaign_stats

  double latency_ms() const { return ms_between(sent, done); }
  double queue_ms() const { return ms_between(sent, begin); }
  double first_unit_ms() const { return ms_between(sent, first_unit); }
  // Latency not explained by queueing behind the engine or by the engine
  // itself: framing, socket writes and reads.
  double stream_ms() const { return latency_ms() - queue_ms() - engine_ms; }
  bool hit() const { return ok && simulated == 0; }
};

SubmitOutcome submit_frame_and_drain(twm::service::LineClient& client, const std::string& frame);

// ---- per-layer decomposition of a campaign ------------------------------

// Counters and timings of the decomposed run of one or more specs.
struct LayerStats {
  std::vector<double> spec_parse_us, plan_compile_us, fault_list_ms, collapse_ms, cell_s;
  double sink_s = 0.0;
  std::uint64_t sink_records = 0, sink_bytes = 0;
  std::uint64_t faults = 0, faults_simulated = 0;
  std::uint64_t units = 0, lane_slots = 0, lane_capacity = 0;
  std::uint64_t elements_total = 0, elements_executed = 0;
  double word_ops = 0.0;  // estimated from the settle-exit counters
  std::uint64_t pages_peak = 0, packed_pages_peak = 0, page_allocs = 0;
};

// Verdicts of one cell, indexed by fault: -1 not streamed, else
// detected_all + 2 * detected_any.
using CellVerdicts = std::vector<signed char>;
// Keyed by "<scheme id>|<class spelling>".
using VerdictMap = std::map<std::string, CellVerdicts>;
std::string cell_name(twm::SchemeKind scheme, const twm::api::ClassSel& cls);

// Runs the campaign `spec_text` denotes cell by cell through the lower
// public surfaces, one span per call, and accumulates `stats`.  Unit
// records are serialized by a JsonLinesSink after each cell's runner call;
// the returned digest of those records must equal the unit digest of a
// live run_campaign of the same spec.  `records`, when non-null, receives
// each cell's CachedUnit stream (ResultCache probe input).
Digest decompose_campaign(const std::string& spec_text, Tracer& tracer, LayerStats& stats,
                          std::map<std::string, std::vector<twm::api::CachedUnit>>* records);

// Word operations one unit session of `plan` performs on `words` words.
double plan_word_ops(const twm::SchemePlan& plan, std::size_t words);

// Timed run_campaign_unit (64-lane packed engine) on a batch of the spec's
// first scheme x class cell, repeated for at least `seconds`; returns
// word operations per second.
double sweep_word_ops_per_s(const twm::api::CampaignSpec& spec, double seconds, Tracer& tracer);

// ResultCache probes on `records`: median lookup and store time of the
// memory tier (us), and the median store time of a disk-backed cache
// rooted at `disk_dir` (ms; the directory is removed afterwards).
struct CacheProbe {
  double lookup_us = 0.0, store_us = 0.0, disk_store_ms = 0.0;
  std::size_t cells = 0;
};
CacheProbe probe_result_cache(const twm::api::CampaignSpec& spec,
                              const std::map<std::string, std::vector<twm::api::CachedUnit>>& records,
                              const std::string& disk_dir, Tracer& tracer);

// ---- correctness -----------------------------------------------------------

// Re-verdicts a seeded slice of `per_cell` faults of every cell with the
// scalar backend and compares against `reference` (a live packed run's
// verdicts); one check per cell goes into `result`.
void oracle_check(const twm::api::CampaignSpec& spec, const VerdictMap& reference,
                  std::uint64_t seed, std::size_t per_cell, RunResult& result);

// The paper's headline numbers from core/complexity.h: March C- at B = 32
// gives the proposed scheme TCM = 35N, and its total cost is 55.6% of
// scheme 1 [12] and 19.0% of TOMT [13].
void paper_pin_check(RunResult& result);

}  // namespace perfbench

#endif  // TWM_PERFBENCH_LAYERS_H
