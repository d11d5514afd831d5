// The benchmark's workloads.  Each one turns --seed into its inputs (spec
// JSON text — the program receives only the generated specs), sets up
// several times (setup_s is the median), measures for --seconds, checks
// every output, and returns its metrics: the end-to-end set untraced, the
// per-layer set with --trace 1.
//
//   campaign_mix   api::run_campaign, 512 x 8, March C-, four schemes x six
//                  fault classes, four content seeds: ~131k verdicts a
//                  campaign streamed as JSON lines into a discard stream;
//                  each live campaign is followed by replays of it from a
//                  ResultCache (the warm path).
//   huge_sparse    the same loop on 2^16 x 4 with sampled classes, one
//                  content seed and regions: 4.  (2^18 words took ~4 s a
//                  campaign, too few samples a run for a steady median.)
//   service_mixed  2 closed-loop LineClients against an in-process
//                  ServiceServer (memory-only 256-entry LRU); 10 of every
//                  22 submits resubmit a spec of the previous block (cache
//                  replay), the rest carry fresh content seeds (simulate
//                  and store).
#ifndef TWM_PERFBENCH_WORKLOADS_H
#define TWM_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // trace file and scratch cache directory
};

const std::vector<std::string>& workload_names();

// Throws std::invalid_argument for an unknown workload name.
RunResult run_workload(const Options& options);

// Checks the submits of a service run in completion order, one check per
// submit: a submit fails when its response ended in an error frame or a
// lost connection, or when its record digest differs from the first
// response to the same spec (which carried fresh seeds, so it ran live).
struct JudgedSubmit {
  std::uint64_t spec_id = 0;
  SubmitOutcome outcome;
};
void judge_submits(std::vector<JudgedSubmit> submits, RunResult& result);

}  // namespace perfbench

#endif  // TWM_PERFBENCH_WORKLOADS_H
