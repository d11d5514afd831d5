#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "api/error.h"
#include "api/json.h"
#include "api/runner.h"
#include "api/sink.h"
#include "service/net.h"
#include "service/protocol.h"

// Half-close detection; glibc gates the real constant behind _GNU_SOURCE
// (which libstdc++ builds define anyway — this is a belt for other libcs).
#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace twm::service {

namespace {

bool send_line(int fd, const std::string& frame) {
  const std::string line = frame + "\n";
  return net_send_all(fd, line.data(), line.size());
}

// std::streambuf over a socket so the existing JsonLinesSink can stream
// straight onto the wire.  Buffered per record (the sink flushes each
// line); a failed send latches `failed` instead of throwing mid-campaign.
class FdStreambuf : public std::streambuf {
 public:
  FdStreambuf(int fd, std::atomic<bool>& failed) : fd_(fd), failed_(failed) {
    setp(buffer_, buffer_ + sizeof(buffer_));
  }
  ~FdStreambuf() override { sync(); }

 protected:
  int overflow(int ch) override {
    if (flush_buffer() != 0) return traits_type::eof();
    if (ch != traits_type::eof()) {
      *pptr() = static_cast<char>(ch);
      pbump(1);
    }
    return ch;
  }

  int sync() override { return flush_buffer(); }

 private:
  int flush_buffer() {
    const std::size_t pending = static_cast<std::size_t>(pptr() - pbase());
    if (pending > 0 && !net_send_all(fd_, pbase(), pending))
      failed_.store(true, std::memory_order_relaxed);
    setp(buffer_, buffer_ + sizeof(buffer_));
    // Report success even after a send failure: the sink keeps formatting
    // into the void, cancellation (below) ends the campaign cooperatively.
    return 0;
  }

  int fd_;
  std::atomic<bool>& failed_;
  char buffer_[4096];
};

// JsonLinesSink whose cancelled() notices the client leaving: either a
// record failed to send, or the peer closed/half-closed its end
// (POLLRDHUP — deliberately not POLLIN, so pipelined follow-up frames
// sitting in the receive buffer don't read as a disconnect).
class SocketSink : public api::JsonLinesSink {
 public:
  SocketSink(std::ostream& out, int fd, std::atomic<bool>& send_failed)
      : JsonLinesSink(out), fd_(fd), send_failed_(send_failed) {}

  // The service reports failures as one protocol-level error frame (the
  // client's drain loop treats an error frame as the exchange terminator);
  // an additional in-stream record would desynchronize the next exchange.
  void on_error(const api::Error&) override {}

  bool cancelled() const override {
    if (send_failed_.load(std::memory_order_relaxed)) return true;
    pollfd p{};
    p.fd = fd_;
    p.events = POLLRDHUP;
    const int rc = net_poll(&p, 1, /*timeout_ms=*/0);
    return rc > 0 && (p.revents & (POLLRDHUP | POLLERR | POLLHUP | POLLNVAL)) != 0;
  }

 private:
  int fd_;
  std::atomic<bool>& send_failed_;
};

// Reads '\n'-delimited lines from a socket, refusing to buffer more than
// `cap` bytes of any single line (the frame-size ceiling enforced before
// any parsing happens).  With a nonzero idle timeout, waiting longer than
// `idle_timeout_ms` for the peer's next byte reports Timeout instead of
// blocking forever.
class LineReader {
 public:
  enum class Status { Line, Eof, Overflow, Error, Timeout };

  LineReader(int fd, std::size_t cap, unsigned idle_timeout_ms = 0)
      : fd_(fd), cap_(cap), idle_timeout_ms_(idle_timeout_ms) {}

  Status read_line(std::string& out) {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        out.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        if (!out.empty() && out.back() == '\r') out.pop_back();
        return Status::Line;
      }
      if (buffer_.size() > cap_) return Status::Overflow;
      if (idle_timeout_ms_ > 0) {
        pollfd p{};
        p.fd = fd_;
        p.events = POLLIN;
        const int rc = net_poll(&p, 1, static_cast<int>(idle_timeout_ms_));
        if (rc == 0) return Status::Timeout;
        if (rc < 0) return Status::Error;
      }
      char chunk[4096];
      const ssize_t n = net_recv(fd_, chunk, sizeof(chunk));
      if (n == 0) return Status::Eof;
      if (n < 0) return Status::Error;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::size_t cap_;
  unsigned idle_timeout_ms_;
  std::string buffer_;
};

}  // namespace

ServiceServer::ServiceServer(ServerConfig config)
    : config_(std::move(config)),
      cache_({config_.cache_dir, config_.cache_entries}) {}

ServiceServer::~ServiceServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::uint16_t ServiceServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("serve: '" + config_.host + "' is not an IPv4 address");

  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw std::runtime_error("bind(" + config_.host + ":" + std::to_string(config_.port) +
                             "): " + std::string(std::strerror(errno)));
  if (::listen(listen_fd_, 16) != 0)
    throw std::runtime_error("listen(): " + std::string(std::strerror(errno)));

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    throw std::runtime_error("getsockname(): " + std::string(std::strerror(errno)));
  port_ = ntohs(bound.sin_port);
  return port_;
}

void ServiceServer::serve_forever() {
  // Belt to MSG_NOSIGNAL's suspenders: no write path anywhere in the
  // process may turn a dying client into a fatal signal.
  ignore_sigpipe();
  std::vector<std::thread> workers;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = net_accept(listen_fd_);
    if (fd < 0) {
      // Transient per-connection failures (the peer aborted the handshake,
      // fd pressure) must not take the whole daemon down with them.
      if (errno == ECONNABORTED || errno == EMFILE || errno == ENFILE ||
          errno == ENOBUFS || errno == ENOMEM || errno == EPROTO)
        continue;
      break;  // listener shut down (stop()) or unrecoverable
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    if (active_clients_.load(std::memory_order_relaxed) >= config_.max_clients) {
      // Counted before the refusal is visible: a client that has read the
      // error frame and the hang-up must already see it in the counters.
      {
        const std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.clients_refused;
      }
      send_line(fd, error_frame("frame", "server at max_clients capacity"));
      ::close(fd);
      continue;
    }
    active_clients_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(clients_mu_);
      client_fds_.push_back(fd);
    }
    workers.emplace_back([this, fd] { client_loop(fd); });
  }
  for (std::thread& t : workers) t.join();
}

void ServiceServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // Wake the accept loop; on Linux shutdown() on a listening socket makes
  // the blocked accept return.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // Shut down live clients: their reads hit EOF, their campaigns see a
  // dead socket and cancel cooperatively.
  const std::lock_guard<std::mutex> lock(clients_mu_);
  for (int fd : client_fds_) ::shutdown(fd, SHUT_RDWR);
}

ServiceServer::Counters ServiceServer::counters() const {
  const std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

std::string ServiceServer::compose_stats_frame() {
  const Counters c = counters();
  const ResultCache::Counters k = cache_.counters();
  std::string out = "{\"type\":\"stats\"";
  out += ",\"engine\":" + api::json_quote(std::string(api::engine_revision()));
  out += ",\"clients_served\":" + std::to_string(c.clients_served);
  out += ",\"clients_refused\":" + std::to_string(c.clients_refused);
  out += ",\"campaigns\":" + std::to_string(c.campaigns);
  out += ",\"campaigns_cancelled\":" + std::to_string(c.campaigns_cancelled);
  out += ",\"frames_rejected\":" + std::to_string(c.frames_rejected);
  out += ",\"specs_rejected\":" + std::to_string(c.specs_rejected);
  out += ",\"campaigns_failed\":" + std::to_string(c.campaigns_failed);
  out += ",\"clients_timed_out\":" + std::to_string(c.clients_timed_out);
  out += ",\"cache\":{";
  out += "\"entries\":" + std::to_string(k.entries);
  out += ",\"hits\":" + std::to_string(k.hits);
  out += ",\"disk_hits\":" + std::to_string(k.disk_hits);
  out += ",\"misses\":" + std::to_string(k.misses);
  out += ",\"stores\":" + std::to_string(k.stores);
  out += ",\"evictions\":" + std::to_string(k.evictions);
  out += ",\"disk_errors\":" + std::to_string(k.disk_errors);
  out += ",\"disk_degraded\":" + std::string(k.disk_degraded ? "true" : "false");
  out += "}}";
  return out;
}

// Returns false when the connection is no longer usable.
bool ServiceServer::handle_submit(int fd, const api::CampaignSpec& spec) {
  const std::vector<api::SpecError> errors = api::validate(spec);
  if (!errors.empty()) {
    {
      const std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.specs_rejected;
    }
    return send_line(fd, error_frame("spec", "spec failed validation", errors));
  }

  std::atomic<bool> send_failed{false};
  FdStreambuf buf(fd, send_failed);
  std::ostream out(&buf);
  SocketSink sink(out, fd, send_failed);
  api::CacheStats stats;
  bool cancelled = false;
  try {
    // THE queue: one campaign at a time on the shared engine; the running
    // campaign fans out over its own spec.threads internally.
    const std::lock_guard<std::mutex> engine(engine_mu_);
    const api::CampaignSummary summary = api::run_campaign(spec, &sink, &cache_, &stats);
    cancelled = summary.cancelled;
  } catch (const std::exception& e) {
    // The sink's own error record (if any) is suppressed on the socket
    // path — the protocol-level error frame below is the one terminator
    // the client's drain loop keys on.
    {
      const std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.campaigns_failed;
    }
    return send_line(fd, error_frame(api::classify_exception(e)));
  }
  out.flush();

  {
    const std::lock_guard<std::mutex> lock(counters_mu_);
    if (cancelled)
      ++counters_.campaigns_cancelled;
    else
      ++counters_.campaigns;
  }
  if (send_failed.load(std::memory_order_relaxed)) return false;

  const std::string frame = "{\"type\":\"campaign_stats\",\"cells\":" +
                            std::to_string(stats.cells_total) +
                            ",\"cached\":" + std::to_string(stats.cells_cached) +
                            ",\"simulated\":" + std::to_string(stats.cells_simulated) +
                            ",\"faults_replayed\":" + std::to_string(stats.faults_replayed) +
                            ",\"cancelled\":" + (cancelled ? "true" : "false") + "}";
  return send_line(fd, frame);
}

void ServiceServer::client_loop(int fd) {
  // +2: allow the cap-sized payload plus its terminator to buffer; the
  // parse-level check in parse_frame is the authoritative one.
  LineReader reader(fd, kMaxFrameBytes + 2, config_.idle_timeout_ms);
  std::string line;
  bool running = true;
  while (running) {
    const LineReader::Status status = reader.read_line(line);
    if (status == LineReader::Status::Eof || status == LineReader::Status::Error) break;
    if (status == LineReader::Status::Timeout) {
      send_line(fd, error_frame({api::ErrorCategory::Timeout, /*retryable=*/true,
                                 "idle timeout: no frame in " +
                                     std::to_string(config_.idle_timeout_ms) + " ms"}));
      const std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.clients_timed_out;
      break;
    }
    if (status == LineReader::Status::Overflow) {
      send_line(fd, error_frame("frame", "frame exceeds " + std::to_string(kMaxFrameBytes) +
                                             " bytes"));
      const std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.frames_rejected;
      break;
    }
    if (line.empty()) continue;  // bare keep-alive newline

    ParsedFrame parsed = parse_frame(line);
    if (!parsed.ok()) {
      if (!parsed.spec_errors.empty()) {
        // Well-formed frame, structurally broken spec: report and keep the
        // connection open for a corrected resubmit.
        send_line(fd, error_frame("spec", parsed.error, parsed.spec_errors));
        const std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.specs_rejected;
        continue;
      }
      // Malformed framing: not negotiated with — one error, then hang up.
      send_line(fd, error_frame("frame", parsed.error));
      {
        const std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.frames_rejected;
      }
      break;
    }

    switch (parsed.frame->kind) {
      case Frame::Kind::Ping:
        running = send_line(fd, "{\"type\":\"pong\"}");
        break;
      case Frame::Kind::Stats:
        running = send_line(fd, compose_stats_frame());
        break;
      case Frame::Kind::Shutdown:
        send_line(fd, "{\"type\":\"bye\"}");
        stop();
        running = false;
        break;
      case Frame::Kind::Submit:
        running = handle_submit(fd, parsed.frame->spec);
        break;
    }
  }

  ::close(fd);
  {
    const std::lock_guard<std::mutex> lock(clients_mu_);
    std::erase(client_fds_, fd);
  }
  active_clients_.fetch_sub(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(counters_mu_);
  ++counters_.clients_served;
}

}  // namespace twm::service
