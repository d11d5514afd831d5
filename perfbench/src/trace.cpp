#include "trace.h"

#include <atomic>
#include <fstream>
#include <iomanip>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id = next.fetch_add(1);
  return id;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

Tracer::Scope Tracer::span(const std::string& name) {
  if (!enabled_) return Scope(nullptr, -1);
  return Scope(this, open(name));
}

int Tracer::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.thread = thread_index();
  s.start_ns = now_ns();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::close(int id) {
  const std::int64_t end = now_ns();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

void Tracer::interval(const std::string& name, Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.thread = thread_index();
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count();
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  const std::vector<Span> all = spans();
  std::vector<std::int64_t> child_ns(all.size(), 0);
  for (const Span& s : all)
    if (s.parent >= 0 && s.end_ns >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].end_ns < 0) continue;
    const std::int64_t self = all[i].end_ns - all[i].start_ns - child_ns[i];
    out[layer_of(all[i].name)] += 1e-9 * static_cast<double>(self > 0 ? self : 0);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.end_ns < 0) continue;
    if (!first) out << ",\n";
    first = false;
    // Complete ("X") events; ts/dur in microseconds.
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_of(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
