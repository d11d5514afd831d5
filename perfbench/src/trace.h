// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened by the benchmark's own code around each call into a
// layer of the program (api, analysis, core, service, ...); the layer is
// the span name's prefix before the first '.'.  Each span records its
// name, start, end, parent and thread.  Nothing is written until the run
// ends: write_chrome_json() emits Chrome trace-event JSON that
// chrome://tracing and ui.perfetto.dev open directly, and
// self_seconds_by_layer() reduces the tree to each layer's self time (a
// span's duration minus the part its children cover).
//
// A disabled tracer records nothing and never reads the clock.
#ifndef TWM_PERFBENCH_TRACE_H
#define TWM_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    int parent = -1;           // index into spans(), -1 = root
    unsigned thread = 0;       // small per-thread id
  };

  // Closes its span when destroyed.
  class Scope {
   public:
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    ~Scope() {
      if (tracer_) tracer_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Opens a span on the calling thread, child of that thread's innermost
  // open span.
  [[nodiscard]] Scope span(const std::string& name);

  // Records an already-finished interval as a child of the calling
  // thread's innermost open span (for phases the benchmark reconstructs
  // from timestamps, e.g. the queue wait of a service submit).
  void interval(const std::string& name, Clock::time_point start, Clock::time_point end);

  std::map<std::string, double> self_seconds_by_layer() const;
  std::vector<Span> spans() const;
  // Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  int open(const std::string& name);
  void close(int id);
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // TWM_PERFBENCH_TRACE_H
