// Thin blocking line-client for the campaign daemon's protocol — what
// `twm_cli submit` and tests/service_test.cpp speak through.  One TCP
// connection, '\n'-delimited frames each way (service/protocol.h).
#ifndef TWM_SERVICE_CLIENT_H
#define TWM_SERVICE_CLIENT_H

#include <cstdint>
#include <optional>
#include <string>

namespace twm::service {

class LineClient {
 public:
  LineClient() = default;
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;

  // Connects to host:port; on failure returns false and, when `error` is
  // provided, fills in the reason.
  bool connect(const std::string& host, std::uint16_t port, std::string* error = nullptr);

  bool connected() const { return fd_ >= 0; }

  // Sends one frame ('\n' appended).  False when the peer is gone.
  bool send_line(const std::string& frame);

  // Receives one '\n'-terminated frame (terminator stripped); nullopt on
  // EOF or socket error.
  std::optional<std::string> recv_line();

  // True once recv_line() will not block: a whole frame is buffered, or
  // the socket has data, EOF or an error pending.  False when `timeout_ms`
  // passes first — a caller with a deadline checks this before recv_line.
  bool wait_readable(int timeout_ms);

  // Full close — mid-campaign this is the "client vanished" the server's
  // cooperative cancel reacts to.
  void close();

  // Half-close of the write side only; also read by the server as a
  // disconnect (POLLRDHUP), while this end can still drain responses.
  void shutdown_write();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace twm::service

#endif  // TWM_SERVICE_CLIENT_H
