// Shared measurement helpers of the twm benchmark: clocks, the tail-
// percentile rule, the order-independent record digest, and the result
// record every workload fills.
#ifndef TWM_PERFBENCH_COMMON_H
#define TWM_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

// ---- statistics ----------------------------------------------------------

// Median of `v` (mean of the two middle values for even sizes); 0 for an
// empty vector.
double median(std::vector<double> v);

// The tail statistic every latency is reported with: the target percentile
// (95, nearest rank) when at least 10 samples lie beyond it, otherwise the
// highest percentile that still has 10 samples beyond it.  A tail is never
// reported below the median: when even the median would have fewer than
// 11 samples beyond it (fewer than about 22 samples), the median is
// reported instead.  `percentile` says which one was taken.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_percentile(std::vector<double> v, double target = 95.0);

// ---- record digest -------------------------------------------------------

// Order-independent digest of a JSON-lines record stream: the wrapping sum
// of a 64-bit hash per line.  Worker threads stream unit records in
// nondeterministic order, so only an order-free reduction can compare two
// runs; the one run-dependent field, campaign_end's "seconds", is left out
// of the hash.  `units` sums unit-record lines only, `all` every line.
struct Digest {
  std::uint64_t units = 0;
  std::uint64_t all = 0;

  friend bool operator==(const Digest&, const Digest&) = default;
};

// Folds one record line (without its '\n') into a digest; returns true for
// a unit record.
bool digest_line(Digest& d, std::string_view line);

// In-memory discard stream for api::JsonLinesSink: keeps no bytes, only
// their count, the digest of each completed line and the arrival time of
// the first unit record.
class DigestStream : public std::streambuf {
 public:
  const Digest& digest() const { return digest_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t unit_records() const { return units_; }
  // Clock::time_point{} until the first unit record completes.
  Clock::time_point first_unit() const { return first_unit_; }

 protected:
  int overflow(int ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void consume(const char* s, std::size_t n);

  std::string line_;
  Digest digest_;
  std::uint64_t bytes_ = 0;
  std::uint64_t units_ = 0;
  Clock::time_point first_unit_{};
};

// ---- result record -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  std::vector<Metric> metrics;

  // Counts one operation; a false `ok` records `what` as a failure.
  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit, std::size_t samples = 1);
  bool correct() const { return failed == 0; }
};

// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

// Deterministic 64-bit mixing (splitmix64) for deriving input seeds.
std::uint64_t mix64(std::uint64_t x);

}  // namespace perfbench

#endif  // TWM_PERFBENCH_COMMON_H
