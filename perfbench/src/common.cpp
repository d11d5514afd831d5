#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_percentile(std::vector<double> v, double target) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Nearest rank: rank r (0-based, ascending) is percentile 100 (r + 1) / n
  // and has n - 1 - r samples beyond it.
  const auto rank_of = [&](double p) {
    return static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n))) - 1;
  };
  const std::size_t at_target = rank_of(target);
  const std::size_t median_rank = rank_of(50.0);
  if (n >= 11 && n - 11 > median_rank) {
    const std::size_t r = std::min(at_target, n - 11);
    t.percentile = r == at_target ? target : 100.0 * static_cast<double>(r + 1) / static_cast<double>(n);
    t.value = v[r];
  } else {
    t.percentile = 50.0;
    t.value = median(v);
  }
  return t;
}

// ---- digest ----------------------------------------------------------------

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

bool starts_with(std::string_view s, std::string_view p) { return s.substr(0, p.size()) == p; }

std::uint64_t record_hash(std::string_view line) {
  if (starts_with(line, "{\"type\":\"campaign_end\"")) {
    constexpr std::string_view kKey = ",\"seconds\":";
    const std::size_t at = line.find(kKey);
    if (at != std::string_view::npos) {
      std::size_t end = at + kKey.size();
      while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
      return mix64(fnv1a(fnv1a(kFnvOffset, line.substr(0, at)), line.substr(end)));
    }
  }
  return mix64(fnv1a(kFnvOffset, line));
}

}  // namespace

bool digest_line(Digest& d, std::string_view line) {
  const std::uint64_t h = record_hash(line);
  d.all += h;
  if (!starts_with(line, "{\"type\":\"unit\"")) return false;
  d.units += h;
  return true;
}

int DigestStream::overflow(int ch) {
  if (ch != traits_type::eof()) {
    const char c = static_cast<char>(ch);
    consume(&c, 1);
  }
  return ch;
}

std::streamsize DigestStream::xsputn(const char* s, std::streamsize n) {
  consume(s, static_cast<std::size_t>(n));
  return n;
}

void DigestStream::consume(const char* s, std::size_t n) {
  bytes_ += n;
  while (n > 0) {
    const void* nl = std::memchr(s, '\n', n);
    if (!nl) {
      line_.append(s, n);
      return;
    }
    const std::size_t len = static_cast<std::size_t>(static_cast<const char*>(nl) - s);
    line_.append(s, len);
    if (digest_line(digest_, line_) && units_++ == 0) first_unit_ = Clock::now();
    line_.clear();
    s += len + 1;
    n -= len + 1;
  }
}

// ---- result ------------------------------------------------------------------

void RunResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

void RunResult::add(std::string name, double value, std::string unit, std::size_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
