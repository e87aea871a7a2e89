//===- support/Socket.cpp -------------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include "support/FaultInjection.h"
#include "support/Format.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace gprof;

namespace {

Error errnoFailure(const char *Op, const std::string &Detail) {
  return Error::failure(format("%s failed on '%s': %s", Op, Detail.c_str(),
                               std::strerror(errno)));
}

/// Fills \p Addr for \p Path; sun_path is a fixed ~108-byte array, so long
/// paths are a hard error rather than silent truncation.
Error makeAddress(const std::string &Path, sockaddr_un &Addr) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty())
    return Error::failure("empty socket path");
  if (Path.size() >= sizeof(Addr.sun_path))
    return Error::failure(format("socket path '%s' exceeds the %zu-byte "
                                 "AF_UNIX limit",
                                 Path.c_str(), sizeof(Addr.sun_path) - 1));
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return Error::success();
}

Expected<bool> pollReadable(int Fd, int TimeoutMs, const char *What) {
  if (Fd < 0)
    return Error::failure(format("%s: socket is closed", What));
  pollfd P{};
  P.fd = Fd;
  P.events = POLLIN;
  while (true) {
    int N = ::poll(&P, 1, TimeoutMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errnoFailure("poll", What);
    }
    return N > 0;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// UnixSocket
//===----------------------------------------------------------------------===//

Expected<UnixSocket> UnixSocket::connectTo(const std::string &Path) {
  if (Error E = fault::check("sock.connect", Path))
    return E;
  sockaddr_un Addr;
  if (Error E = makeAddress(Path, Addr))
    return E;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return errnoFailure("socket", Path);
  UnixSocket Sock(Fd);
  while (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)) != 0) {
    if (errno == EINTR)
      continue;
    return errnoFailure("connect", Path);
  }
  return Sock;
}

void UnixSocket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Error UnixSocket::sendAll(const uint8_t *Data, size_t Size) {
  if (Error E = fault::check("sock.write", format("fd %d", Fd)))
    return E;
  if (Fd < 0)
    return Error::failure("send on a closed socket");
  size_t Sent = 0;
  while (Sent < Size) {
    // MSG_NOSIGNAL: a peer that closed mid-transfer must surface as an
    // error on this connection, not kill the whole daemon with SIGPIPE.
    ssize_t N = ::send(Fd, Data + Sent, Size - Sent, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errnoFailure("send", format("fd %d", Fd));
    }
    Sent += static_cast<size_t>(N);
  }
  return Error::success();
}

Error UnixSocket::shutdownWrite() {
  if (Fd < 0)
    return Error::failure("shutdown on a closed socket");
  if (::shutdown(Fd, SHUT_WR) != 0)
    return errnoFailure("shutdown", format("fd %d", Fd));
  return Error::success();
}

Expected<bool> UnixSocket::waitReadable(int TimeoutMs) const {
  return pollReadable(Fd, TimeoutMs, "socket wait");
}

Expected<size_t> UnixSocket::recvSome(uint8_t *Data, size_t Size) {
  if (Error E = fault::check("sock.read", format("fd %d", Fd)))
    return E;
  if (Fd < 0)
    return Error::failure("recv on a closed socket");
  while (true) {
    ssize_t N = ::recv(Fd, Data, Size, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errnoFailure("recv", format("fd %d", Fd));
    }
    return static_cast<size_t>(N);
  }
}

//===----------------------------------------------------------------------===//
// UnixListener
//===----------------------------------------------------------------------===//

Expected<UnixListener> UnixListener::listenOn(const std::string &Path,
                                              int Backlog) {
  sockaddr_un Addr;
  if (Error E = makeAddress(Path, Addr))
    return E;

  // A socket file left behind by a crashed daemon would make bind() fail
  // with EADDRINUSE forever.  Probe it: if something accepts, the address
  // is genuinely busy; if nothing does, the file is stale residue and is
  // replaced.
  if (::access(Path.c_str(), F_OK) == 0) {
    auto Probe = UnixSocket::connectTo(Path);
    if (Probe)
      return Error::failure(format("socket '%s' is already in use",
                                   Path.c_str()));
    (void)Probe.takeError();
    ::unlink(Path.c_str());
  }

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return errnoFailure("socket", Path);
  UnixListener Listener;
  Listener.Fd = Fd;
  Listener.Path = Path;
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return errnoFailure("bind", Path);
  if (::listen(Fd, Backlog) != 0)
    return errnoFailure("listen", Path);
  return Listener;
}

Expected<bool> UnixListener::waitReadable(int TimeoutMs) const {
  return pollReadable(Fd, TimeoutMs, Path.c_str());
}

Expected<UnixSocket> UnixListener::accept() {
  if (Error E = fault::check("sock.accept", Path))
    return E;
  if (Fd < 0)
    return Error::failure("accept on a closed listener");
  while (true) {
    int Client = ::accept(Fd, nullptr, nullptr);
    if (Client < 0) {
      if (errno == EINTR)
        continue;
      return errnoFailure("accept", Path);
    }
    return UnixSocket(Client);
  }
}

void UnixListener::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  if (!Path.empty()) {
    ::unlink(Path.c_str());
    Path.clear();
  }
}
