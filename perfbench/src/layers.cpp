#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <ostream>

#include "analysis/campaign.h"
#include "analysis/fault_list.h"
#include "api/json.h"
#include "api/runner.h"
#include "api/sink.h"
#include "core/complexity.h"
#include "core/engine_traits.h"
#include "core/scheme_session.h"
#include "march/library.h"
#include "service/cache.h"
#include "service/protocol.h"
#include "util/rng.h"

namespace perfbench {

using namespace twm;

namespace {

bool starts_with(const std::string& s, std::string_view p) {
  return std::string_view(s).substr(0, p.size()) == p;
}

double us_between(Clock::time_point a, Clock::time_point b) { return 1e6 * seconds_between(a, b); }

}  // namespace

// ---- service -----------------------------------------------------------------

InProcessServer::InProcessServer() : server_(service::ServerConfig{}) {
  port_ = server_.start();
  thread_ = std::thread([this] { server_.serve_forever(); });
}

InProcessServer::~InProcessServer() {
  server_.stop();
  thread_.join();
}

SubmitOutcome submit_frame_and_drain(service::LineClient& client, const std::string& frame) {
  SubmitOutcome o;
  o.sent = Clock::now();
  if (!client.send_line(frame)) {
    o.error = "send failed";
    o.done = Clock::now();
    return o;
  }
  while (std::optional<std::string> line = client.recv_line()) {
    const Clock::time_point now = Clock::now();
    ++o.frames;
    o.bytes += line->size() + 1;
    if (starts_with(*line, "{\"type\":\"campaign_stats\"")) {
      o.done = now;
      try {
        const api::JsonValue v = api::json_parse(*line);
        const auto num = [&](const char* key) {
          const api::JsonValue* m = v.find(key);
          return m && m->is_number() ? m->as_u64().value_or(0) : 0;
        };
        o.cells = num("cells");
        o.cached = num("cached");
        o.simulated = num("simulated");
        const api::JsonValue* cancelled = v.find("cancelled");
        o.ok = !(cancelled && cancelled->is_bool() && cancelled->as_bool());
        if (!o.ok) o.error = "campaign cancelled";
      } catch (const std::exception& e) {
        o.error = std::string("bad campaign_stats frame: ") + e.what();
      }
      return o;
    }
    if (service::parse_error_frame(*line)) {
      o.error = *line;
      o.done = now;
      return o;
    }
    if (starts_with(*line, "{\"type\":\"campaign_begin\"")) o.begin = now;
    if (starts_with(*line, "{\"type\":\"campaign_end\"")) {
      const std::size_t at = line->find("\"seconds\":");
      if (at != std::string::npos) o.engine_ms = 1e3 * std::strtod(line->c_str() + at + 10, nullptr);
    }
    if (digest_line(o.digest, *line) && o.units++ == 0) o.first_unit = now;
  }
  o.error = "connection closed mid-response";
  o.done = Clock::now();
  return o;
}

// ---- decomposition -------------------------------------------------------

std::string cell_name(SchemeKind scheme, const api::ClassSel& cls) {
  return api::scheme_id(scheme) + "|" + api::to_string(cls);
}

double plan_word_ops(const SchemePlan& plan, std::size_t words) {
  double per_word = static_cast<double>(plan.direct_a.op_count() + plan.direct_b.op_count() +
                                        plan.trans.op_count() + plan.prediction.op_count() +
                                        plan.sym.test.op_count());
  // TOMT runs its per-word sweep without a compiled march.
  if (plan.scheme == SchemeKind::TomtModel)
    per_word = static_cast<double>(measured_tomt(plan.width).total());
  return per_word * static_cast<double>(words);
}

namespace {

// Buffers one cell's settled verdicts in arrival order (worker threads).
class BufferingObserver : public UnitObserver {
 public:
  void on_unit_settled(std::size_t first, unsigned count, const char* all,
                       const char* any) override {
    const std::lock_guard<std::mutex> lock(mu_);
    for (unsigned i = 0; i < count; ++i) units.push_back({first + i, all[i] != 0, any[i] != 0});
  }

  std::mutex mu_;
  std::vector<api::CachedUnit> units;  // guarded by mu_ while the runner runs
};

}  // namespace

Digest decompose_campaign(const std::string& spec_text, Tracer& tracer, LayerStats& stats,
                          std::map<std::string, std::vector<api::CachedUnit>>* records) {
  Clock::time_point t0 = Clock::now();
  api::CampaignSpec spec;
  {
    const auto s = tracer.span("api.spec_from_json");
    spec = api::spec_from_json(spec_text);
  }
  stats.spec_parse_us.push_back(us_between(t0, Clock::now()));

  MarchTest march;
  {
    const auto s = tracer.span("march.resolve");
    march = api::resolve_march(spec);
  }

  std::vector<SchemePlan> plans;
  for (const SchemeKind scheme : spec.schemes) {
    t0 = Clock::now();
    {
      const auto s = tracer.span("core.make_scheme_plan");
      plans.push_back(make_scheme_plan(scheme, march, spec.width));
    }
    stats.plan_compile_us.push_back(us_between(t0, Clock::now()));
  }

  std::vector<std::vector<Fault>> lists;
  for (const api::ClassSel& cls : spec.classes) {
    t0 = Clock::now();
    {
      const auto s = tracer.span("analysis.build_fault_list");
      lists.push_back(api::build_fault_list(cls, spec.words, spec.width));
    }
    stats.fault_list_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }

  const unsigned faults_per_unit = simd::lanes(simd::resolve(spec.simd)) - 1;
  const CampaignRunner runner(spec.words, spec.width, spec.options());
  DigestStream stream;
  std::ostream out(&stream);
  api::JsonLinesSink sink(out);

  for (std::size_t p = 0; p < plans.size(); ++p) {
    const double word_ops_per_session = plan_word_ops(plans[p], spec.words);
    for (std::size_t c = 0; c < spec.classes.size(); ++c) {
      const std::vector<Fault>& faults = lists[c];
      t0 = Clock::now();
      {
        const auto s = tracer.span("analysis.collapse_faults");
        (void)collapse_faults(faults, plans[p], spec.seeds);
      }
      stats.collapse_ms.push_back(1e3 * seconds_between(t0, Clock::now()));

      BufferingObserver observer;
      CampaignStats cs;
      std::vector<char> all, any;
      t0 = Clock::now();
      {
        const auto s = tracer.span("analysis.campaign_runner");
        runner.run(spec.schemes[p], march, faults, spec.seeds, /*need_any=*/true, all, any,
                   /*out_matrix=*/nullptr, &observer, &cs);
      }
      stats.cell_s.push_back(seconds_between(t0, Clock::now()));

      const std::uint64_t bytes_before = stream.bytes();
      t0 = Clock::now();
      {
        const auto s = tracer.span("api.sink");
        for (const api::CachedUnit& u : observer.units) {
          api::UnitRecord r;
          r.scheme = spec.schemes[p];
          r.cls = spec.classes[c];
          r.fault_index = u.fault_index;
          r.fault = &faults[u.fault_index];
          r.detected_all = u.detected_all;
          r.detected_any = u.detected_any;
          sink.on_unit(r);
        }
      }
      stats.sink_s += seconds_between(t0, Clock::now());
      stats.sink_records += observer.units.size();
      stats.sink_bytes += stream.bytes() - bytes_before;
      if (records) (*records)[cell_name(spec.schemes[p], spec.classes[c])] = observer.units;

      stats.faults += faults.size();
      stats.faults_simulated += cs.faults_simulated.load();
      stats.units += cs.units.load();
      stats.lane_slots += cs.lane_slots.load();
      stats.lane_capacity += cs.units.load() * faults_per_unit;
      stats.elements_total += cs.elements_total.load();
      stats.elements_executed += cs.elements_executed.load();
      if (cs.elements_total.load() > 0)
        stats.word_ops += static_cast<double>(cs.units.load()) * word_ops_per_session *
                          static_cast<double>(cs.elements_executed.load()) /
                          static_cast<double>(cs.elements_total.load());
      stats.pages_peak = std::max<std::uint64_t>(stats.pages_peak, cs.pages_peak.load());
      stats.packed_pages_peak =
          std::max<std::uint64_t>(stats.packed_pages_peak, cs.packed_pages_peak.load());
      stats.page_allocs += cs.page_allocs.load();
    }
  }
  return stream.digest();
}

double sweep_word_ops_per_s(const api::CampaignSpec& spec, double seconds, Tracer& tracer) {
  const MarchTest march = api::resolve_march(spec);
  const SchemePlan plan = make_scheme_plan(spec.schemes.front(), march, spec.width);
  const std::vector<Fault> faults =
      api::build_fault_list(spec.classes.front(), spec.words, spec.width);
  const unsigned count =
      static_cast<unsigned>(std::min<std::size_t>(PackedEngine::kFaultsPerUnit, faults.size()));
  const double ops = plan_word_ops(plan, spec.words);
  const Clock::time_point t0 = Clock::now();
  std::size_t reps = 0;
  do {
    const auto s = tracer.span("core.run_campaign_unit");
    (void)run_campaign_unit<PackedEngine>(plan, spec.words, faults.data(), count,
                                          spec.seeds.front());
    ++reps;
  } while (reps < 3 || seconds_between(t0, Clock::now()) < seconds);
  return ops * static_cast<double>(reps) / seconds_between(t0, Clock::now());
}

CacheProbe probe_result_cache(const api::CampaignSpec& spec,
                              const std::map<std::string, std::vector<api::CachedUnit>>& records,
                              const std::string& disk_dir, Tracer& tracer) {
  struct Cell {
    std::string key, identity;
    api::CellRecords records;
  };
  std::vector<Cell> cells;
  for (const SchemeKind scheme : spec.schemes)
    for (const api::ClassSel& cls : spec.classes) {
      const auto it = records.find(cell_name(scheme, cls));
      if (it == records.end()) continue;
      const std::string identity = api::cell_identity_json(spec, scheme, cls);
      cells.push_back({api::content_key(identity), identity, {it->second}});
    }

  CacheProbe probe;
  std::vector<double> store_us, lookup_us, disk_ms;
  service::ResultCache memory({"", 256});
  for (const Cell& c : cells) {
    Clock::time_point t0 = Clock::now();
    {
      const auto s = tracer.span("service.cache_store");
      memory.store(c.key, c.identity, c.records);
    }
    store_us.push_back(us_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      const auto s = tracer.span("service.cache_lookup");
      (void)memory.lookup(c.key, c.identity);
    }
    lookup_us.push_back(us_between(t0, Clock::now()));
  }
  {
    service::ResultCache disk({disk_dir, 256});
    for (const Cell& c : cells) {
      const Clock::time_point t0 = Clock::now();
      {
        const auto s = tracer.span("service.cache_disk_store");
        disk.store(c.key, c.identity, c.records);
      }
      disk_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(disk_dir, ec);
  probe.lookup_us = median(lookup_us);
  probe.store_us = median(store_us);
  probe.disk_store_ms = median(disk_ms);
  probe.cells = cells.size();
  return probe;
}

// ---- correctness -----------------------------------------------------------

void oracle_check(const api::CampaignSpec& spec, const VerdictMap& reference, std::uint64_t seed,
                  std::size_t per_cell, RunResult& result) {
  const MarchTest march = api::resolve_march(spec);
  CoverageOptions options = spec.options();
  options.backend = CoverageBackend::Scalar;
  const CampaignRunner oracle(spec.words, spec.width, options);
  std::uint64_t salt = 0;
  for (const SchemeKind scheme : spec.schemes)
    for (const api::ClassSel& cls : spec.classes) {
      const std::string name = cell_name(scheme, cls);
      const auto ref = reference.find(name);
      if (ref == reference.end()) {
        result.check(false, "oracle: no reference verdicts for cell " + name);
        continue;
      }
      const std::vector<Fault> faults = api::build_fault_list(cls, spec.words, spec.width);
      Rng rng(mix64(seed ^ ++salt));
      std::vector<std::size_t> picked;
      std::vector<Fault> slice;
      for (std::size_t k = 0; k < std::min(per_cell, faults.size()); ++k) {
        picked.push_back(rng.next_below(faults.size()));
        slice.push_back(faults[picked.back()]);
      }
      std::vector<char> all, any;
      oracle.run(scheme, march, slice, spec.seeds, /*need_any=*/true, all, any);
      bool same = true;
      for (std::size_t k = 0; k < picked.size(); ++k)
        same &= picked[k] < ref->second.size() &&
                ref->second[picked[k]] == (all[k] != 0) + 2 * (any[k] != 0);
      result.check(same, "oracle: scalar verdicts differ from the packed run in cell " + name);
    }
}

void paper_pin_check(RunResult& result) {
  const MarchInfo& info = march_info("March C-");
  const SchemeComplexity proposed = formula_proposed(info.ops, info.reads, 32);
  const auto pct = [](double r) { return std::round(1000.0 * r) / 10.0; };
  const double vs_scheme1 =
      pct(static_cast<double>(proposed.total()) /
          static_cast<double>(formula_scheme1(info.ops, info.reads, 32).total()));
  const double vs_tomt = pct(static_cast<double>(proposed.total()) /
                             static_cast<double>(formula_tomt(32).total()));
  result.check(proposed.tcm == 35, "paper pin: March C- B=32 TWMarch TCM is not 35N");
  result.check(vs_scheme1 == 55.6, "paper pin: cost ratio to [12] is not 55.6%");
  result.check(vs_tomt == 19.0, "paper pin: cost ratio to [13] is not 19.0%");
}

}  // namespace perfbench
