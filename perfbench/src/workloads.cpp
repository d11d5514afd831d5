#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "api/runner.h"
#include "api/sink.h"
#include "service/cache.h"
#include "service/protocol.h"
#include "util/rng.h"

namespace perfbench {

using namespace twm;

namespace {

// Set-ups per run (setup_s is their median): a campaign set-up includes a
// full warm-up campaign, a service set-up only a small warm-up submit.
constexpr int kCampaignSetupRuns = 3;
constexpr int kServiceSetupRuns = 9;
constexpr unsigned kClients = 2;
constexpr std::size_t kStreamLength = 4000;  // submits per client, never exhausted
// Per block of fresh specs (one of each shape), the two shapes whose specs
// are not repeated: 10 repeats per 22 submits, 45% of the stream.
constexpr unsigned kUnrepeatedShapes[] = {0, 7};
constexpr std::size_t kServiceProbeSpecs = 4;

std::uint64_t content_seed(std::uint64_t seed, std::uint64_t salt) {
  const std::uint64_t s = mix64(seed * 0x9e3779b97f4a7c15ull + salt);
  return s ? s : 1;  // seed 0 would mean all-zero contents
}

std::string u64_list(const std::vector<std::uint64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(v[i]);
  }
  return out + "]";
}

// Streams like JsonLinesSink and keeps every unit verdict for the oracle.
class VerdictTapSink : public api::JsonLinesSink {
 public:
  VerdictTapSink(std::ostream& out, VerdictMap& verdicts) : JsonLinesSink(out), verdicts_(verdicts) {}

  void on_unit(const api::UnitRecord& r) override {
    CellVerdicts& v = verdicts_[cell_name(r.scheme, r.cls)];
    if (v.size() <= r.fault_index) v.resize(r.fault_index + 1, -1);
    v[r.fault_index] = static_cast<signed char>(r.detected_all + 2 * r.detected_any);
    JsonLinesSink::on_unit(r);
  }

 private:
  VerdictMap& verdicts_;
};

std::string scratch_path(const Options& o, const std::string& what) {
  return o.out_dir + "/" + what + "-" + o.workload + "-" + std::to_string(::getpid());
}

void print_deciles(const char* what, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::printf("%s deciles:", what);
  for (int d = 1; d < 10 && !v.empty(); ++d) std::printf(" %.1f", v[v.size() * d / 10]);
  std::printf("\n");
}

void print_self_times(const Tracer& tracer) {
  std::printf("layer self time (s, traced run):\n");
  for (const auto& [layer, s] : tracer.self_seconds_by_layer())
    std::printf("  %-10s %.6f\n", layer.c_str(), s);
}

void finish_trace(const Options& o, const Tracer& tracer, RunResult& r) {
  print_self_times(tracer);
  const std::string path =
      o.out_dir + "/trace_" + o.workload + "_" + std::to_string(o.seed) + ".json";
  r.check(tracer.write_chrome_json(path), "trace: cannot write " + path);
  std::printf("trace: %zu spans written to %s\n", tracer.spans().size(), path.c_str());
}

// Per-layer metrics every workload reports in its traced run.
struct LayerReport {
  LayerStats decomposition;
  double sweep_word_ops_per_s = 0.0;
  CacheProbe cache;
  std::vector<SubmitOutcome> submits;  // ok submits only
  std::vector<double> first_unit_ms;   // request start to first unit record
  service::ResultCache::Counters service_cache;
  double faults_per_s = 0.0, traced_faults_per_s = 0.0;
};

void add_layer_metrics(RunResult& r, const LayerReport& lr) {
  const LayerStats& ls = lr.decomposition;
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  r.add("analysis.lane_occupancy", ratio(d(ls.lane_slots), d(ls.lane_capacity)), "ratio");
  r.add("analysis.settle_exit_frac", 1.0 - ratio(d(ls.elements_executed), d(ls.elements_total)),
        "ratio");
  r.add("analysis.units", d(ls.units), "count");
  r.add("analysis.collapse_ratio", ratio(d(ls.faults_simulated), d(ls.faults)), "ratio");
  r.add("analysis.cell_s", median(ls.cell_s), "s", ls.cell_s.size());
  r.add("core.sweep_word_ops_per_s", lr.sweep_word_ops_per_s, "1/s");
  r.add("memsim.word_ops_per_fault", ratio(ls.word_ops, d(ls.faults)), "count");
  r.add("memsim.pages_peak", d(ls.pages_peak), "count");
  r.add("memsim.packed_pages_peak", d(ls.packed_pages_peak), "count");
  r.add("memsim.page_allocs", d(ls.page_allocs), "count");
  r.add("api.sink_ns_per_record", 1e9 * ratio(ls.sink_s, d(ls.sink_records)), "ns",
        ls.sink_records);
  r.add("api.sink_bytes_per_record", ratio(d(ls.sink_bytes), d(ls.sink_records)), "B",
        ls.sink_records);
  r.add("api.first_unit_ms_p50", median(lr.first_unit_ms), "ms", lr.first_unit_ms.size());
  r.add("api.spec_parse_us", median(ls.spec_parse_us), "us", ls.spec_parse_us.size());
  r.add("core.plan_compile_us", median(ls.plan_compile_us), "us", ls.plan_compile_us.size());
  r.add("analysis.fault_list_build_ms", median(ls.fault_list_ms), "ms", ls.fault_list_ms.size());
  r.add("analysis.collapse_ms", median(ls.collapse_ms), "ms", ls.collapse_ms.size());

  std::vector<double> stream, bytes, frames, queue, engine;
  for (const SubmitOutcome& s : lr.submits) {
    stream.push_back(s.stream_ms());
    bytes.push_back(d(s.bytes));
    frames.push_back(d(s.frames));
    queue.push_back(s.queue_ms());
    engine.push_back(s.engine_ms);
  }
  const std::size_t n = lr.submits.size();
  r.add("service.stream_ms_p50", median(stream), "ms", n);
  r.add("service.bytes_per_submit", median(bytes), "B", n);
  r.add("service.frames_per_submit", median(frames), "count", n);
  r.add("service.queue_wait_ms_p50", median(queue), "ms", n);
  r.add("service.engine_ms_p50", median(engine), "ms", n);
  const service::ResultCache::Counters& c = lr.service_cache;
  r.add("service.cache_hit_ratio", ratio(d(c.hits), d(c.hits + c.misses)), "ratio",
        c.hits + c.misses);
  r.add("service.cache_evictions", d(c.evictions), "count");
  r.add("service.cache_lookup_us", lr.cache.lookup_us, "us", lr.cache.cells);
  r.add("service.cache_store_us", lr.cache.store_us, "us", lr.cache.cells);
  r.add("service.disk_store_ms", lr.cache.disk_store_ms, "ms", lr.cache.cells);
  r.add("trace.faults_per_s", lr.traced_faults_per_s, "1/s");
  r.add("trace.faults_per_s_ratio", ratio(lr.traced_faults_per_s, lr.faults_per_s), "ratio");
}

// ---- campaign workloads ----------------------------------------------------

struct CampaignPhase {
  std::vector<double> live_ms, live_faults_per_s, first_unit_ms;
  std::vector<double> replay_ms;  // one per round: mean ms of its replays
  std::size_t requests = 0, replays = 0;
  double seconds = 0.0;
};

RunResult campaign_workload(const Options& o, std::string (*make_spec)(std::uint64_t),
                            std::size_t oracle_per_cell) {
  RunResult r;
  paper_pin_check(r);
  Tracer tracer(o.trace), untraced(false);

  // Set-up: generate the spec, parse it, fill a fresh ResultCache with one
  // untimed warm-up campaign whose records are the reference digest.
  std::vector<double> setup_s;
  std::string text;
  api::CampaignSpec spec;
  std::unique_ptr<service::ResultCache> cache;
  Digest reference;
  VerdictMap verdicts;
  for (int i = 0; i < kCampaignSetupRuns; ++i) {
    const Clock::time_point t0 = Clock::now();
    text = make_spec(o.seed);
    spec = api::spec_from_json(text);
    cache = std::make_unique<service::ResultCache>(service::ResultCache::Config{"", 256});
    verdicts.clear();
    DigestStream stream;
    std::ostream out(&stream);
    VerdictTapSink sink(out, verdicts);
    (void)api::run_campaign(spec, &sink, cache.get());
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (i > 0) r.check(stream.digest() == reference, "set-up: warm-up digests differ");
    reference = stream.digest();
  }

  // Each timed round is one live campaign (no cache) followed by replays of
  // the same campaign from the warm cache.
  const auto run_phase = [&](double seconds, Tracer& t) {
    CampaignPhase p;
    const Clock::time_point start = Clock::now();
    do {
      {
        DigestStream stream;
        std::ostream out(&stream);
        api::JsonLinesSink sink(out);
        const Clock::time_point t0 = Clock::now();
        {
          const auto s = t.span("api.run_campaign");
          (void)api::run_campaign(spec, &sink);
        }
        const Clock::time_point t1 = Clock::now();
        r.check(stream.digest() == reference, "live campaign digest differs from the warm-up");
        p.live_ms.push_back(ms_between(t0, t1));
        p.live_faults_per_s.push_back(static_cast<double>(stream.unit_records()) /
                                      seconds_between(t0, t1));
        if (stream.unit_records() > 0) p.first_unit_ms.push_back(ms_between(t0, stream.first_unit()));
        ++p.requests;
      }
      // Replays until they took a quarter of the live campaign's time; the
      // round's hit sample is their mean.  A huge_sparse replay lasts a few
      // ms, shorter than the bursts in which a shared host runs this thread
      // ~1.7x slower, so single replays split into a fast and a slow mode
      // whose median jumps between the two from run to run.
      const double replay_budget_ms = p.live_ms.back() / 4;
      double replayed_ms = 0.0;
      std::size_t replays = 0;
      do {
        DigestStream stream;
        std::ostream out(&stream);
        api::JsonLinesSink sink(out);
        api::CacheStats cs;
        const Clock::time_point t0 = Clock::now();
        {
          const auto s = t.span("api.run_campaign.replay");
          (void)api::run_campaign(spec, &sink, cache.get(), &cs);
        }
        replayed_ms += ms_between(t0, Clock::now());
        ++replays;
        ++p.requests;
        r.check(stream.digest() == reference && cs.cells_simulated == 0,
                "cache replay digest differs from the live run");
      } while (replayed_ms < replay_budget_ms);
      p.replay_ms.push_back(replayed_ms / static_cast<double>(replays));
      p.replays += replays;
    } while (seconds_between(start, Clock::now()) < seconds);
    p.seconds = seconds_between(start, Clock::now());
    return p;
  };

  const CampaignPhase plain = run_phase(o.trace ? o.seconds / 2 : o.seconds, untraced);
  CampaignPhase traced;
  if (o.trace) traced = run_phase(o.seconds / 2, tracer);

  const double rss_mb = peak_rss_mb();
  const Clock::time_point oracle_start = Clock::now();
  oracle_check(spec, verdicts, o.seed, oracle_per_cell, r);
  std::printf("oracle: %zu scalar faults per cell re-verdicted in %.3f s\n", oracle_per_cell,
              seconds_between(oracle_start, Clock::now()));

  std::printf("first unit ms p50: %.3f (n=%zu)\n", median(plain.first_unit_ms),
              plain.first_unit_ms.size());
  std::printf("live campaign ms:");
  for (const double ms : plain.live_ms) std::printf(" %.0f", ms);
  std::printf("\n");

  if (!o.trace) {
    const Tail p95 = tail_percentile(plain.live_ms);
    std::printf("submit_ms_p95 is p%.1f of %zu live campaigns\n", p95.percentile, p95.samples);
    std::printf("hit_submit_ms_p50 is the median of %zu round means over %zu replays\n",
                plain.replay_ms.size(), plain.replays);
    r.add("faults_per_s", median(plain.live_faults_per_s), "1/s", plain.live_faults_per_s.size());
    r.add("peak_rss_mb", rss_mb, "MB");
    r.add("setup_s", median(setup_s), "s", setup_s.size());
    r.add("submits_per_s", static_cast<double>(plain.requests) / plain.seconds, "1/s",
          plain.requests);
    r.add("submit_ms_p50", median(plain.live_ms), "ms", plain.live_ms.size());
    r.add("submit_ms_p95", p95.value, "ms", p95.samples);
    r.add("hit_submit_ms_p50", median(plain.replay_ms), "ms", plain.replay_ms.size());
    r.add("miss_submit_ms_p50", median(plain.live_ms), "ms", plain.live_ms.size());
    return r;
  }

  // Traced run: per-layer attribution through the lower public surfaces.
  LayerReport lr;
  lr.faults_per_s = median(plain.live_faults_per_s);
  lr.traced_faults_per_s = median(traced.live_faults_per_s);
  lr.first_unit_ms = plain.first_unit_ms;
  lr.first_unit_ms.insert(lr.first_unit_ms.end(), traced.first_unit_ms.begin(),
                          traced.first_unit_ms.end());
  std::map<std::string, std::vector<api::CachedUnit>> records;
  {
    const auto s = tracer.span("bench.decompose");
    const Digest d = decompose_campaign(text, tracer, lr.decomposition, &records);
    r.check(d.units == reference.units, "decomposed run digest differs from run_campaign");
  }
  lr.sweep_word_ops_per_s = sweep_word_ops_per_s(spec, 1.0, tracer);
  lr.cache = probe_result_cache(spec, records, scratch_path(o, "cache-probe"), tracer);
  {
    // The same campaign submitted to the daemon: once live, once replayed.
    InProcessServer server;
    service::LineClient client;
    std::string error;
    r.check(client.connect("127.0.0.1", server.port(), &error), "service probe: " + error);
    const std::string frame = service::submit_frame(spec);
    for (int i = 0; i < 2; ++i) {
      const auto s = tracer.span("service.submit");
      const SubmitOutcome so = submit_frame_and_drain(client, frame);
      r.check(so.ok && so.digest == reference, "service probe: submit failed or digest differs");
      if (so.ok) lr.submits.push_back(so);
    }
    lr.service_cache = server.server().cache_counters();
  }
  add_layer_metrics(r, lr);
  finish_trace(o, tracer, r);
  return r;
}

// ---- service workload ------------------------------------------------------

// Fresh service specs cycle through a fixed block of 12 shapes (every
// word count with every class set once, scheme sets and seed counts spread
// evenly), shuffled per block by the seed, so every seed submits the same
// mix of work; the seed picks the order and the content seeds.
constexpr unsigned kShapes = 12;

std::string service_spec_text(Rng& rng, unsigned shape, unsigned client, std::uint64_t index) {
  static constexpr const char* kWords[] = {"16", "32", "64"};
  static constexpr const char* kClassSets[] = {
      R"("saf","tf")", R"("saf","cfid:intra")", R"("tf","cfid:intra")",
      R"("saf","tf","cfid:intra")"};
  static constexpr const char* kSchemeSets[] = {R"("twm")", R"("twm-misr")", R"("twm","twm-misr")"};
  std::vector<std::uint64_t> seeds(1 + (shape + shape / 3) % 3);
  for (std::uint64_t& s : seeds) s = rng.next_u64() | 1;
  return "{\"name\":\"svc-" + std::to_string(client) + "-" + std::to_string(index) +
         "\",\"memory\":{\"words\":" + kWords[shape % 3] +
         ",\"width\":8},\"march\":\"March C-\",\"schemes\":[" + kSchemeSets[(shape / 3 + shape) % 3] +
         "],\"classes\":[" + kClassSets[shape / 3] + "],\"seeds\":" + u64_list(seeds) +
         ",\"run\":{\"backend\":\"packed\",\"threads\":2,\"simd\":\"auto\"}}";
}

// Fisher-Yates with the benchmark's seeded generator.
template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next_below(i)]);
}

// The service_mixed request stream of one client: submit frames, each
// tagged with the id of the distinct spec it carries.
struct ServiceRequest {
  std::string frame;
  std::uint64_t spec_id = 0;
  std::string spec_text;
};

std::string campaign_mix_spec(std::uint64_t seed) {
  return "{\"name\":\"campaign_mix\",\"memory\":{\"words\":512,\"width\":8},"
         "\"march\":\"March C-\",\"schemes\":[\"twm\",\"twm-misr\",\"sym\",\"tomt\"],"
         "\"classes\":[\"saf\",\"tf\",\"ret\",\"af@2048\",\"cfid:inter@4096\",\"cfst:intra@2048\"],"
         "\"seeds\":" +
         u64_list({content_seed(seed, 1), content_seed(seed, 2), content_seed(seed, 3),
                   content_seed(seed, 4)}) +
         ",\"run\":{\"backend\":\"packed\",\"threads\":2,\"simd\":\"auto\"}}";
}

std::string huge_sparse_spec(std::uint64_t seed) {
  return "{\"name\":\"huge_sparse\",\"memory\":{\"words\":65536,\"width\":4},"
         "\"march\":\"March C-\",\"schemes\":[\"twm\"],"
         "\"classes\":[\"saf@2048\",\"tf@1024\",\"cfid:inter@512\"],\"seeds\":" +
         u64_list({content_seed(seed, 1)}) +
         ",\"run\":{\"backend\":\"packed\",\"threads\":2,\"simd\":\"auto\",\"regions\":4}}";
}

std::vector<ServiceRequest> service_request_stream(std::uint64_t seed, unsigned client,
                                                   std::size_t count) {
  Rng rng(content_seed(seed, 1000 + client));
  std::vector<ServiceRequest> out;
  std::vector<ServiceRequest> previous;  // fresh specs of the last block
  std::uint64_t fresh = 0;
  while (out.size() < count) {
    // One block: a fresh spec of every shape, plus a repeat of each spec
    // the previous block introduced except those of two fixed shapes, in
    // shuffled order.
    std::vector<ServiceRequest> block;
    for (unsigned shape = 0; shape < kShapes; ++shape) {
      ServiceRequest q;
      q.spec_id = (static_cast<std::uint64_t>(client) << 32) | fresh;
      q.spec_text = service_spec_text(rng, shape, client, fresh++);
      q.frame = service::submit_frame(api::spec_from_json(q.spec_text));
      block.push_back(std::move(q));
    }
    std::vector<ServiceRequest> next = block;
    for (unsigned shape = 0; shape < previous.size(); ++shape)
      if (shape != kUnrepeatedShapes[0] && shape != kUnrepeatedShapes[1])
        block.push_back(previous[shape]);
    shuffle(block, rng);
    for (ServiceRequest& q : block) out.push_back(std::move(q));
    previous = std::move(next);
  }
  out.resize(count);
  return out;
}

struct ServicePhase {
  std::vector<JudgedSubmit> submits;  // completion order
  double seconds = 0.0;
};

RunResult service_workload(const Options& o) {
  RunResult r;
  paper_pin_check(r);
  Tracer tracer(o.trace), untraced(false);

  // Set-up: generate both request streams, start the daemon, connect the
  // clients and run one untimed warm-up submit (a spec outside the stream).
  std::vector<double> setup_s;
  std::array<std::vector<ServiceRequest>, kClients> streams;
  std::unique_ptr<InProcessServer> server;
  std::array<service::LineClient, kClients> clients;
  for (int i = 0; i < kServiceSetupRuns; ++i) {
    const Clock::time_point t0 = Clock::now();
    for (service::LineClient& c : clients) c.close();
    server.reset();
    for (unsigned c = 0; c < kClients; ++c)
      streams[c] = service_request_stream(o.seed, c, kStreamLength);
    server = std::make_unique<InProcessServer>();
    for (service::LineClient& c : clients) {
      std::string error;
      if (!c.connect("127.0.0.1", server->port(), &error))
        throw std::runtime_error("connect: " + error);
    }
    const std::string warmup =
        "{\"name\":\"warmup\",\"memory\":{\"words\":32,\"width\":8},\"march\":\"March C-\","
        "\"schemes\":[\"twm\"],\"classes\":[\"saf\",\"tf\",\"cfid:intra\"],\"seeds\":[" +
        std::to_string(content_seed(o.seed, 99)) +
        "],\"run\":{\"backend\":\"packed\",\"threads\":2,\"simd\":\"auto\"}}";
    const SubmitOutcome w =
        submit_frame_and_drain(clients[0], service::submit_frame(api::spec_from_json(warmup)));
    r.check(w.ok, "set-up: warm-up submit failed: " + w.error);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::array<std::size_t, kClients> cursor{};
  const auto run_phase = [&](double seconds, Tracer& t) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::array<std::vector<JudgedSubmit>, kClients> out;
    std::array<std::string, kClients> thread_error;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kClients; ++c)
      threads.emplace_back([&, c] {
        try {
          while (Clock::now() < deadline) {
            const ServiceRequest& req = streams[c][cursor[c]++ % streams[c].size()];
            JudgedSubmit js;
            js.spec_id = req.spec_id;
            {
              const auto s = t.span("service.submit");
              js.outcome = submit_frame_and_drain(clients[c], req.frame);
              if (js.outcome.ok) t.interval("service.queue_wait", js.outcome.sent, js.outcome.begin);
            }
            const bool ok = js.outcome.ok;
            out[c].push_back(std::move(js));
            if (!ok) break;  // the connection may be out of step now
          }
        } catch (const std::exception& e) {
          thread_error[c] = e.what();
        }
      });
    for (std::thread& th : threads) th.join();
    ServicePhase p;
    Clock::time_point last = start;
    for (unsigned c = 0; c < kClients; ++c) {
      r.check(thread_error[c].empty(), "client thread: " + thread_error[c]);
      for (JudgedSubmit& js : out[c]) {
        last = std::max(last, js.outcome.done);
        p.submits.push_back(std::move(js));
      }
    }
    std::sort(p.submits.begin(), p.submits.end(), [](const JudgedSubmit& a, const JudgedSubmit& b) {
      return a.outcome.done < b.outcome.done;
    });
    p.seconds = seconds_between(start, last);
    return p;
  };

  const ServicePhase plain = run_phase(o.trace ? o.seconds / 2 : o.seconds, untraced);
  ServicePhase traced;
  if (o.trace) traced = run_phase(o.seconds / 2, tracer);

  std::vector<JudgedSubmit> all = plain.submits;
  all.insert(all.end(), traced.submits.begin(), traced.submits.end());
  judge_submits(all, r);

  const auto faults_per_s = [](const ServicePhase& p) {
    double units = 0;
    for (const JudgedSubmit& js : p.submits) units += static_cast<double>(js.outcome.units);
    return p.seconds > 0 ? units / p.seconds : 0.0;
  };

  if (!o.trace) {
    std::vector<double> latency, hit, miss, first;
    for (const JudgedSubmit& js : plain.submits) {
      const SubmitOutcome& s = js.outcome;
      if (!s.ok) continue;
      latency.push_back(s.latency_ms());
      if (s.hit()) hit.push_back(s.latency_ms());
      if (s.cached == 0) miss.push_back(s.latency_ms());
      if (s.units > 0) first.push_back(s.first_unit_ms());
    }
    const Tail p95 = tail_percentile(latency);
    std::printf("submit_ms_p95 is p%.1f of %zu submits (%zu hits, %zu misses)\n", p95.percentile,
                p95.samples, hit.size(), miss.size());
    print_deciles("submit ms", latency);
    print_deciles("first unit ms", first);
    r.add("faults_per_s", faults_per_s(plain), "1/s", plain.submits.size());
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("setup_s", median(setup_s), "s", setup_s.size());
    r.add("submits_per_s", static_cast<double>(plain.submits.size()) / plain.seconds, "1/s",
          plain.submits.size());
    r.add("submit_ms_p50", median(latency), "ms", latency.size());
    r.add("submit_ms_p95", p95.value, "ms", p95.samples);
    r.add("hit_submit_ms_p50", median(hit), "ms", hit.size());
    r.add("miss_submit_ms_p50", median(miss), "ms", miss.size());
    return r;
  }

  LayerReport lr;
  lr.faults_per_s = faults_per_s(plain);
  lr.traced_faults_per_s = faults_per_s(traced);
  for (const JudgedSubmit& js : all) {
    if (!js.outcome.ok) continue;
    lr.submits.push_back(js.outcome);
    if (js.outcome.units > 0) lr.first_unit_ms.push_back(js.outcome.first_unit_ms());
  }
  lr.service_cache = server->server().cache_counters();

  // Per-layer attribution on the first few distinct specs of client 0's
  // stream, each checked against its live response when it was submitted.
  std::map<std::uint64_t, Digest> live;
  for (const JudgedSubmit& js : all)
    if (js.outcome.ok) live.emplace(js.spec_id, js.outcome.digest);
  std::vector<const ServiceRequest*> probe;
  for (const ServiceRequest& q : streams[0]) {
    if (probe.size() == kServiceProbeSpecs) break;
    if (std::none_of(probe.begin(), probe.end(),
                     [&](const ServiceRequest* p) { return p->spec_id == q.spec_id; }))
      probe.push_back(&q);
  }
  std::map<std::string, std::vector<api::CachedUnit>> records;
  {
    const auto s = tracer.span("bench.decompose");
    for (const ServiceRequest* q : probe) {
      const Digest d = decompose_campaign(q->spec_text, tracer, lr.decomposition,
                                          q == probe.front() ? &records : nullptr);
      const auto it = live.find(q->spec_id);
      if (it != live.end())
        r.check(d.units == it->second.units, "decomposed run digest differs from its submit");
    }
  }
  const api::CampaignSpec first = api::spec_from_json(probe.front()->spec_text);
  lr.sweep_word_ops_per_s = sweep_word_ops_per_s(first, 1.0, tracer);
  lr.cache = probe_result_cache(first, records, scratch_path(o, "cache-probe"), tracer);
  add_layer_metrics(r, lr);
  finish_trace(o, tracer, r);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"campaign_mix", "huge_sparse", "service_mixed"};
  return names;
}

void judge_submits(std::vector<JudgedSubmit> submits, RunResult& result) {
  std::stable_sort(submits.begin(), submits.end(), [](const JudgedSubmit& a, const JudgedSubmit& b) {
    return a.outcome.done < b.outcome.done;
  });
  std::map<std::uint64_t, Digest> first;
  for (const JudgedSubmit& js : submits) {
    if (!js.outcome.ok) {
      result.check(false, "submit failed: " + js.outcome.error);
      continue;
    }
    const auto [it, fresh] = first.emplace(js.spec_id, js.outcome.digest);
    result.check(fresh || it->second == js.outcome.digest,
                 "submit digest differs from the first response to the same spec");
  }
}

RunResult run_workload(const Options& o) {
  if (o.workload == "campaign_mix") return campaign_workload(o, campaign_mix_spec, 4);
  if (o.workload == "huge_sparse") return campaign_workload(o, huge_sparse_spec, 1);
  if (o.workload == "service_mixed") return service_workload(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

}  // namespace perfbench
