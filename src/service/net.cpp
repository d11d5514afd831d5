#include "service/net.h"

#include <cerrno>
#include <csignal>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/failpoint.h"

namespace twm::service {

bool net_send_all(int fd, const char* data, std::size_t size) {
  if (auto fp = TWM_FAILPOINT("socket.send")) {
    switch (*fp) {
      case util::FailAction::Drop:
        return true;  // bytes vanish; the peer's framing sees a hole
      case util::FailAction::Eintr:
        break;  // a real send loop would just retry; fall through to it
      default:
        errno = EPIPE;
        return false;
    }
  }
  while (size > 0) {
    // MSG_NOSIGNAL: a vanished peer is a return value, not a SIGPIPE.
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

ssize_t net_recv(int fd, char* buf, std::size_t size) {
  if (auto fp = TWM_FAILPOINT("socket.recv")) {
    switch (*fp) {
      case util::FailAction::Drop:
        return 0;  // synthetic EOF
      case util::FailAction::Eintr:
        break;  // synthetic EINTR: retried below like the real thing
      default:
        errno = ECONNRESET;
        return -1;
    }
  }
  while (true) {
    const ssize_t n = ::recv(fd, buf, size, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

int net_accept(int listen_fd) {
  while (true) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0 && errno == EINTR) continue;
    if (fd < 0) return fd;
    // Sampled once a connection exists, not before the blocking accept4:
    // a failpoint armed while the daemon already waits here must still hit
    // the next connection.  The kernel completed that connection, so
    // failing the accept means hanging up on it immediately.
    const auto fp = TWM_FAILPOINT("socket.accept");
    if (fp && *fp != util::FailAction::Eintr) {
      ::close(fd);
      errno = ECONNABORTED;
      return -1;
    }
    return fd;
  }
}

int net_poll(pollfd* fds, unsigned long nfds, int timeout_ms) {
  while (true) {
    const int rc = ::poll(fds, nfds, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    return rc;
  }
}

void ignore_sigpipe() { ::signal(SIGPIPE, SIG_IGN); }

}  // namespace twm::service
