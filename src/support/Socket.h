//===- support/Socket.h - RAII UNIX-domain stream sockets ----------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal RAII wrappers over AF_UNIX stream sockets, in the FileUtils
/// mold: every operation returns Error/Expected instead of errno, EINTR is
/// retried internally, and sends use MSG_NOSIGNAL so a peer that vanishes
/// mid-write surfaces as a recoverable error rather than SIGPIPE.  The
/// continuous-profiling daemon (src/serve/) frames its protocol over these.
///
/// Fault points (docs/ROBUSTNESS.md): `sock.connect`, `sock.accept`,
/// `sock.read`, and `sock.write` fire on the corresponding operations, so
/// the crash-safety of concurrent ingest over sockets is provable with the
/// same deterministic fail-the-Nth-call machinery as the file layer.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_SOCKET_H
#define GPROF_SUPPORT_SOCKET_H

#include "support/Error.h"

#include <cstdint>
#include <string>

namespace gprof {

/// One connected (or connectable) UNIX-domain stream socket endpoint.
/// Move-only; the descriptor closes on destruction.
class UnixSocket {
public:
  /// An inert endpoint; isOpen() is false.
  UnixSocket() = default;
  /// Adopts an already-open descriptor.
  explicit UnixSocket(int Fd) : Fd(Fd) {}
  ~UnixSocket() { close(); }

  UnixSocket(UnixSocket &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }
  UnixSocket &operator=(UnixSocket &&Other) noexcept {
    if (this != &Other) {
      close();
      Fd = Other.Fd;
      Other.Fd = -1;
    }
    return *this;
  }
  UnixSocket(const UnixSocket &) = delete;
  UnixSocket &operator=(const UnixSocket &) = delete;

  /// Connects to the listener at \p Path (fault point `sock.connect`).
  static Expected<UnixSocket> connectTo(const std::string &Path);

  bool isOpen() const { return Fd >= 0; }
  int fd() const { return Fd; }

  /// Closes the descriptor now (idempotent).
  void close();

  /// Writes all \p Size bytes, retrying short writes (fault point
  /// `sock.write`).  A disappeared peer is an error, never a signal.
  Error sendAll(const uint8_t *Data, size_t Size);

  /// Shuts down the sending direction: the peer reads end-of-stream once
  /// it has read what was already sent.
  Error shutdownWrite();

  /// Waits up to \p TimeoutMs for readability (negative blocks forever).
  /// Returns true when a read would not block, false on timeout.
  Expected<bool> waitReadable(int TimeoutMs) const;

  /// Reads up to \p Size bytes; returns 0 at orderly end-of-stream
  /// (fault point `sock.read`).
  Expected<size_t> recvSome(uint8_t *Data, size_t Size);

private:
  int Fd = -1;
};

/// A bound, listening UNIX-domain socket.  The socket file is created at
/// construction and unlinked on destruction.  Move-only.
class UnixListener {
public:
  UnixListener() = default;
  ~UnixListener() { close(); }

  UnixListener(UnixListener &&Other) noexcept
      : Fd(Other.Fd), Path(std::move(Other.Path)) {
    Other.Fd = -1;
    Other.Path.clear();
  }
  UnixListener &operator=(UnixListener &&Other) noexcept {
    if (this != &Other) {
      close();
      Fd = Other.Fd;
      Path = std::move(Other.Path);
      Other.Fd = -1;
      Other.Path.clear();
    }
    return *this;
  }
  UnixListener(const UnixListener &) = delete;
  UnixListener &operator=(const UnixListener &) = delete;

  /// Binds and listens at \p Path.  A stale socket file left by a crashed
  /// daemon (nothing accepting on it) is replaced; a live one is reported
  /// as "already in use".
  static Expected<UnixListener> listenOn(const std::string &Path,
                                         int Backlog = 64);

  bool isOpen() const { return Fd >= 0; }
  const std::string &path() const { return Path; }

  /// Waits up to \p TimeoutMs for a pending connection (negative blocks
  /// forever).  Returns true when accept() would not block.
  Expected<bool> waitReadable(int TimeoutMs) const;

  /// Accepts one pending connection (fault point `sock.accept`).
  Expected<UnixSocket> accept();

  /// Closes the descriptor and unlinks the socket file (idempotent).
  void close();

private:
  int Fd = -1;
  std::string Path;
};

} // namespace gprof

#endif // GPROF_SUPPORT_SOCKET_H
