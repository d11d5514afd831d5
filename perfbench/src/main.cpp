// The twm benchmark binary.
//
//   perfbench --workload campaign_mix|huge_sparse|service_mixed --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints one human-readable line per metric (value, unit, sample count),
// then, as the last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// The end-to-end metrics come from an untraced run (--trace 0), the
// per-layer metrics from a traced one (--trace 1), which also writes a
// Chrome trace-event file into --out-dir.  Exits 1 when any correctness
// check failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include <malloc.h>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\nworkloads:",
               why);
  for (const std::string& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *s != '\0' && *s != '-' && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: with glibc's default of one per thread, VmHWM of two
  // identical runs differed by half (14 vs 22 MB on huge_sparse) depending
  // on how the campaign's short-lived worker threads were spread over
  // arenas, which peak_rss_mb would report as noise.
  mallopt(M_ARENA_MAX, 1);
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, o.seed)) return usage("--seed wants a non-negative integer");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0) return usage("--seconds wants a positive integer");
      o.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!parse_u64(value, n) || n > 1) return usage("--trace wants 0 or 1");
      o.trace = n == 1;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }

  for (const perfbench::Metric& m : r.metrics) {
    std::printf("%-32s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    r.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  for (const std::string& f : r.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("workload=%s seed=%llu attempted=%llu failed=%llu failed_frac=%.6g\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<double>(r.failed) / static_cast<double>(r.attempted));

  std::string json = std::string("{\"correct\":") + (r.correct() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i) json += ',';
    json += "\"" + m.name + "\":{\"value\":" + value + ",\"unit\":\"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return r.correct() ? 0 : 1;
}
