#include "api/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "api/checkpoint.h"
#include "api/error.h"
#include "march/library.h"

namespace twm::api {

namespace {

// run.deadline_ms as a poll: expired() is checked at exactly the
// cancellation points (between units / repack rounds), from worker threads
// — it latches, so one observation past the deadline stops every
// subsequent poll without re-reading the clock.
class DeadlineGate {
 public:
  explicit DeadlineGate(std::uint64_t deadline_ms)
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms)) {}

  bool expired() const {
    if (fired_.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() < deadline_) return false;
    fired_.store(true, std::memory_order_relaxed);
    return true;
  }

  bool fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  std::chrono::steady_clock::time_point deadline_;
  mutable std::atomic<bool> fired_{false};
};

// Bridges the engine's raw UnitObserver events (fault ranges + flag
// pointers, fired from worker threads) to the public ResultSink records
// (one per fault, serialized by a mutex, stamped with scheme/class).
// `sink` may be null (cache-recording runs without a consumer); `record`,
// when non-null, captures every unit in emission order for the cache.
class SinkAdapter : public UnitObserver {
 public:
  SinkAdapter(ResultSink* sink, std::mutex& mu, SchemeKind scheme, const ClassSel& cls,
              const std::vector<Fault>& faults, const std::vector<std::uint64_t>& seeds,
              std::size_t& units_emitted, std::vector<CachedUnit>* record,
              const DeadlineGate* gate)
      : sink_(sink),
        gate_(gate),
        mu_(mu),
        scheme_(scheme),
        cls_(cls),
        faults_(faults),
        seeds_(seeds),
        units_emitted_(units_emitted),
        record_(record) {}

  std::size_t units_seen() const { return units_seen_; }

  void on_unit_settled(std::size_t first, unsigned count, const char* all,
                       const char* any) override {
    const std::lock_guard<std::mutex> lock(mu_);
    for (unsigned i = 0; i < count; ++i) {
      const bool detected_all = all[i] != 0;
      const bool detected_any = any[i] != 0;
      if (record_) record_->push_back({first + i, detected_all, detected_any});
      if (sink_) {
        UnitRecord r;
        r.scheme = scheme_;
        r.cls = cls_;
        r.fault_index = first + i;
        r.fault = &faults_[first + i];
        r.detected_all = detected_all;
        r.detected_any = detected_any;
        sink_->on_unit(r);
        ++units_emitted_;
      }
      ++units_seen_;
    }
  }

  void on_seed_verdict(std::size_t fault, std::size_t seed_index, bool detected) override {
    const std::lock_guard<std::mutex> lock(mu_);
    SeedRecord r;
    r.scheme = scheme_;
    r.cls = cls_;
    r.fault_index = fault;
    r.seed = seeds_[seed_index];
    r.detected = detected;
    sink_->on_seed_settled(r);
  }

  // One scheduler round's records are in: push them to the consumer.
  void on_batch_end() override {
    if (!sink_) return;
    const std::lock_guard<std::mutex> lock(mu_);
    sink_->flush();
  }

  bool want_seed_verdicts() const override { return sink_ && sink_->want_seed_records(); }
  bool cancelled() const override {
    return (gate_ && gate_->expired()) || (sink_ && sink_->cancelled());
  }

 private:
  ResultSink* sink_;
  const DeadlineGate* gate_;
  std::mutex& mu_;
  SchemeKind scheme_;
  ClassSel cls_;
  const std::vector<Fault>& faults_;
  const std::vector<std::uint64_t>& seeds_;
  std::size_t& units_emitted_;
  std::vector<CachedUnit>* record_;
  std::size_t units_seen_ = 0;
};

// A stored cell is replayable only if it is a complete permutation of the
// cell's fault list — one record per fault, every index in range.  A
// corrupted or foreign disk entry that slipped past the identity check
// must degrade to a miss, not to an out-of-bounds read.
bool replayable(const CellRecords& records, std::size_t num_faults) {
  if (records.units.size() != num_faults) return false;
  std::vector<char> seen(num_faults, 0);
  for (const CachedUnit& u : records.units) {
    if (u.fault_index >= num_faults || seen[u.fault_index]) return false;
    seen[u.fault_index] = 1;
  }
  return true;
}

}  // namespace

namespace {

CampaignSummary run_campaign_impl(const CampaignSpec& spec, ResultSink* sink,
                                  CellCache* cache, CacheStats* cache_stats,
                                  const std::string& checkpoint_path) {
  require_valid(spec);
  const MarchTest march = resolve_march(spec);

  // The deadline clock starts here, after validation: a spec with
  // run.deadline_ms budgets the simulation, not the request parsing.
  std::optional<DeadlineGate> gate_storage;
  if (spec.deadline_ms != 0) gate_storage.emplace(spec.deadline_ms);
  const DeadlineGate* gate = gate_storage ? &*gate_storage : nullptr;

  // Checkpoint/resume state: the loaded file (when it matches this engine
  // revision and region count) seeds the "already done" region set; the
  // file is rewritten after every region this run completes.
  const unsigned regions = std::max(1u, spec.regions);
  const bool ck_active = !checkpoint_path.empty();
  bool ck_save_warned = false;
  CheckpointFile ck;
  ck.regions = regions;
  if (ck_active) {
    if (auto loaded = load_checkpoint(checkpoint_path); loaded && loaded->regions == regions)
      ck = std::move(*loaded);
  }
  // Resolve the lane-block width up front (validate() already vetted a
  // forced width, so this cannot throw for a spec that passed it).
  const simd::Width resolved = spec.backend == CoverageBackend::Packed
                                   ? simd::resolve(spec.simd)
                                   : simd::Width::W64;

  // One fault list per distinct class selector, shared across schemes.
  std::vector<std::vector<Fault>> fault_lists;
  fault_lists.reserve(spec.classes.size());
  for (const ClassSel& cls : spec.classes)
    fault_lists.push_back(build_fault_list(cls, spec.words, spec.width));

  CampaignSummary summary;
  for (const auto& list : fault_lists) summary.total_faults += list.size();
  summary.total_faults *= spec.schemes.size();

  if (sink) {
    CampaignMeta meta;
    meta.spec = &spec;
    meta.resolved_simd = resolved;
    meta.total_faults = summary.total_faults;
    sink->on_campaign_begin(meta);
  }

  if (cache_stats) {
    *cache_stats = {};
    cache_stats->cells_total = spec.schemes.size() * spec.classes.size();
  }
  // Seed-record consumers bypass the replay path: cached cells carry no
  // per-seed stream.  Completed live cells are still offered to the store.
  const bool replay_ok = !(sink && sink->want_seed_records());

  const CampaignRunner runner(spec.words, spec.width, spec.options());
  std::mutex sink_mu;
  const auto t0 = std::chrono::steady_clock::now();
  for (SchemeKind scheme : spec.schemes) {
    for (std::size_t c = 0; c < spec.classes.size() && !summary.cancelled; ++c) {
      std::string identity, key;
      if (cache || ck_active) identity = cell_identity_json(spec, scheme, spec.classes[c]);
      if (cache) key = content_key(identity);

      if (cache && replay_ok) {
        const auto hit = cache->lookup(key, identity);
        if (hit && replayable(*hit, fault_lists[c].size())) {
          CellResult cell;
          cell.scheme = scheme;
          cell.cls = spec.classes[c];
          cell.outcome.total = fault_lists[c].size();
          for (const CachedUnit& u : hit->units) {
            cell.outcome.detected_all += u.detected_all;
            cell.outcome.detected_any += u.detected_any;
            if (sink) {
              UnitRecord r;
              r.scheme = scheme;
              r.cls = spec.classes[c];
              r.fault_index = u.fault_index;
              r.fault = &fault_lists[c][u.fault_index];
              r.detected_all = u.detected_all;
              r.detected_any = u.detected_any;
              sink->on_unit(r);
              ++summary.units_emitted;
            }
          }
          if (sink) sink->flush();  // a replayed cell is one batch
          summary.cells.push_back(cell);
          if (cache_stats) {
            ++cache_stats->cells_cached;
            cache_stats->faults_replayed += hit->units.size();
          }
          if ((sink && sink->cancelled()) || (gate && gate->expired()))
            summary.cancelled = true;
          continue;
        }
      }

      const std::vector<Fault>& faults = fault_lists[c];

      // Region ownership of this cell's faults (identical to the split
      // CampaignRunner::run performs).
      std::vector<unsigned> region_of(faults.size());
      std::vector<std::size_t> owned_count(regions, 0);
      for (std::size_t i = 0; i < faults.size(); ++i) {
        region_of[i] = fault_region(faults[i], spec.words, regions);
        ++owned_count[region_of[i]];
      }

      // Regions this cell already completed in a previous run.  An entry is
      // trusted only on an exact identity match with a verified fault-index
      // permutation of its region; seed-record consumers skip resume the
      // same way they skip cache replay (checkpoints carry no seed stream).
      RegionProgress progress;
      progress.done.assign(regions, 0);
      // Copied, not pointed-to: on_region_done rewrites ck.cells mid-run.
      std::vector<std::vector<CachedUnit>> done_units(regions);
      if (ck_active && replay_ok) {
        for (const CheckpointEntry& e : ck.cells) {
          if (e.identity != identity || progress.done[e.region]) continue;
          if (e.units.size() != owned_count[e.region]) continue;
          std::vector<char> seen(faults.size(), 0);
          bool ok = true;
          for (const CachedUnit& u : e.units) {
            if (u.fault_index >= faults.size() || region_of[u.fault_index] != e.region ||
                seen[u.fault_index]) {
              ok = false;
              break;
            }
            seen[u.fault_index] = 1;
          }
          if (!ok) continue;
          progress.done[e.region] = 1;
          done_units[e.region] = e.units;
        }
      }

      std::vector<char> all, any;
      bool cell_complete = true;
      std::vector<CachedUnit> recorded;
      std::size_t replayed = 0;
      if (cache_stats) ++cache_stats->cells_simulated;
      if (sink || cache || ck_active || gate) {
        // Replay the resumed regions' records first (they settled first in
        // the interrupted run), then simulate the rest.
        for (unsigned r = 0; r < regions; ++r) {
          if (!progress.done[r]) continue;
          for (const CachedUnit& u : done_units[r]) {
            recorded.push_back(u);
            ++replayed;
            if (sink) {
              UnitRecord rec;
              rec.scheme = scheme;
              rec.cls = spec.classes[c];
              rec.fault_index = u.fault_index;
              rec.fault = &faults[u.fault_index];
              rec.detected_all = u.detected_all;
              rec.detected_any = u.detected_any;
              sink->on_unit(rec);
              ++summary.units_emitted;
            }
          }
        }
        if (sink && replayed > 0) sink->flush();  // the resumed regions are one batch
        if (ck_active) {
          progress.on_region_done = [&](unsigned r, const std::vector<std::uint32_t>&) {
            CheckpointEntry e;
            e.identity = identity;
            e.region = r;
            for (const CachedUnit& u : recorded)
              if (region_of[u.fault_index] == r) e.units.push_back(u);
            // Replace any stale entry for this (cell, region) — e.g. when a
            // seed-record sink forced a re-simulation.
            ck.cells.erase(std::remove_if(ck.cells.begin(), ck.cells.end(),
                                          [&](const CheckpointEntry& old) {
                                            return old.region == r && old.identity == identity;
                                          }),
                           ck.cells.end());
            ck.cells.push_back(std::move(e));
            // Best-effort persistence: a failed save costs resumability of
            // this region, never the campaign.  Warn once, keep trying —
            // the failure may be transient (disk pressure, injected).
            if (!save_checkpoint(checkpoint_path, ck) && !ck_save_warned) {
              ck_save_warned = true;
              std::fprintf(stderr,
                           "twm: warning: checkpoint save to '%s' failed; campaign "
                           "continues, an interrupted run may redo unsaved regions\n",
                           checkpoint_path.c_str());
            }
          };
        }
        SinkAdapter adapter(sink, sink_mu, scheme, spec.classes[c], faults, spec.seeds,
                            summary.units_emitted,
                            cache || ck_active ? &recorded : nullptr, gate);
        runner.run(scheme, march, faults, spec.seeds, /*need_any=*/true, all, any,
                   /*out_matrix=*/nullptr, &adapter, /*stats=*/nullptr,
                   ck_active ? &progress : nullptr);
        // The runner's all/any flags cover only the simulated regions;
        // patch the resumed regions' verdicts back in from the checkpoint.
        for (unsigned r = 0; r < regions; ++r) {
          if (!progress.done[r]) continue;
          for (const CachedUnit& u : done_units[r]) {
            all[u.fault_index] = static_cast<char>(u.detected_all);
            any[u.fault_index] = static_cast<char>(u.detected_any);
          }
        }
        if ((sink && sink->cancelled()) || (gate && gate->expired()))
          summary.cancelled = true;
        // The flag may flip only after the cell's last unit settled (or
        // every in-flight unit may still have completed): the aggregate of
        // a fully-streamed cell is valid and must not be dropped.
        cell_complete = adapter.units_seen() + replayed == faults.size();
      } else {
        runner.run(scheme, march, faults, spec.seeds, /*need_any=*/true, all, any);
      }
      if (!cell_complete) break;
      if (cache) cache->store(key, identity, {std::move(recorded)});
      CellResult cell;
      cell.scheme = scheme;
      cell.cls = spec.classes[c];
      cell.outcome.total = fault_lists[c].size();
      for (std::size_t i = 0; i < fault_lists[c].size(); ++i) {
        cell.outcome.detected_all += all[i];
        cell.outcome.detected_any += any[i];
      }
      summary.cells.push_back(cell);
    }
    if (summary.cancelled) break;
  }
  summary.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // The deadline reports as a cancellation with a cause, mirroring the sink
  // contract: the stream is a truncated (possibly complete) prefix.
  if (gate && gate->fired()) {
    summary.timed_out = true;
    summary.cancelled = true;
  }

  if (sink) sink->on_campaign_end(summary);
  return summary;
}

}  // namespace

CampaignSummary run_campaign(const CampaignSpec& spec, ResultSink* sink, CellCache* cache,
                             CacheStats* cache_stats, const std::string& checkpoint_path) {
  try {
    return run_campaign_impl(spec, sink, cache, cache_stats, checkpoint_path);
  } catch (const SpecValidationError&) {
    throw;  // structured spec errors keep their own type (and field paths)
  } catch (const std::exception& e) {
    // Everything else aborted the campaign mid-flight: type it, tell the
    // sink (its stream would otherwise just stop), rethrow carrying the
    // taxonomy so the service can answer with a retryable-flagged frame.
    Error err = classify_exception(e);
    if (sink) sink->on_error(err);
    throw CampaignError(std::move(err));
  }
}

std::vector<Diagnosis> diagnose_campaign(const CampaignSpec& spec) {
  require_valid(spec);
  std::vector<Fault> faults;
  for (const ClassSel& cls : spec.classes)
    for (const Fault& f : build_fault_list(cls, spec.words, spec.width)) faults.push_back(f);
  const MarchTest march = resolve_march(spec);
  // Every requested seed is diagnosed (a fault can be invisible under one
  // content and localizable under another — e.g. RET to the value the cell
  // already holds); each fault keeps the diagnosis of the FIRST seed, in
  // spec order, that observed it.  Seeds past the first that found every
  // fault are skipped — nothing left to localize.
  std::vector<Diagnosis> merged;
  for (std::uint64_t seed : spec.seeds) {
    std::size_t missing = 0;
    if (!merged.empty()) {
      for (const Diagnosis& d : merged) missing += !d.fault_found;
      if (missing == 0) break;
    }
    auto pass = twm::diagnose_campaign(march, spec.words, spec.width, faults, seed,
                                       spec.threads);
    if (merged.empty()) {
      merged = std::move(pass);
      continue;
    }
    for (std::size_t i = 0; i < merged.size(); ++i)
      if (!merged[i].fault_found && pass[i].fault_found) merged[i] = pass[i];
  }
  return merged;
}

}  // namespace twm::api
