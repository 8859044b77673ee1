#pragma once
/// \file net.hpp
/// Minimal line-oriented TCP shims for the serving daemon and its client.
///
/// Scope is deliberately tiny: loopback-only listening (the daemon is an
/// operator tool, not an internet-facing service), blocking connects, and a
/// newline-delimited message discipline matching the scenario trace grammar.
/// Everything is POSIX sockets; errors surface as std::runtime_error with
/// the errno text attached. Objects are move-only owners of their fd.
///
/// Every accepted and connected socket has TCP_NODELAY set: the protocol is
/// request/response, so Nagle's algorithm would hold the tail of a reply
/// until the peer's delayed ACK (~40 ms on Linux) for nothing. Received
/// lines are bounded (64 KiB), so a peer that never sends a newline cannot
/// grow the buffer without limit.

#include <cstdint>
#include <string>
#include <vector>

namespace omniboost::util {

/// One connected TCP socket with buffered line reads.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();
  TcpStream(TcpStream&& rhs) noexcept;
  TcpStream& operator=(TcpStream&& rhs) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  bool valid() const { return fd_ >= 0; }
  /// The underlying socket (for socket-option queries; -1 when !valid()).
  int fd() const { return fd_; }

  /// Writes \p line plus a trailing '\n' (the line must not contain one).
  /// Throws std::runtime_error on a closed or broken connection.
  void send_line(const std::string& line);

  /// Writes every line of \p lines, each plus a trailing '\n', as one
  /// buffer in one send() (a whole reply leaves in one segment). Same
  /// contract as send_line for each line.
  void send_lines(const std::vector<std::string>& lines);

  enum class RecvStatus {
    kLine,     ///< a full line was received (newline stripped)
    kTimeout,  ///< nothing arrived within the timeout
    kClosed,   ///< the peer closed the connection
    kTooLong,  ///< the next line exceeds 64 KiB; the stream is unusable
  };

  /// Reads the next newline-delimited line into \p out (without the
  /// newline; a trailing '\r' is stripped for telnet-friendliness).
  /// \p timeout_ms < 0 blocks indefinitely; 0 polls. A line longer than
  /// 64 KiB yields kTooLong; the caller should close the stream.
  RecvStatus recv_line(std::string* out, int timeout_ms = -1);

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last returned line
};

/// A listening TCP socket bound to 127.0.0.1.
class TcpListener {
 public:
  /// Binds and listens on loopback. \p port == 0 picks an ephemeral port;
  /// port() reports the actual one. Throws std::runtime_error on failure
  /// (e.g. the port is taken).
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();
  TcpListener(TcpListener&& rhs) noexcept;
  TcpListener& operator=(TcpListener&& rhs) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Accepts one connection. \p timeout_ms < 0 blocks indefinitely; on
  /// timeout the returned stream is !valid().
  TcpStream accept(int timeout_ms = -1);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Blocking connect to host:port (host is resolved as a numeric IPv4
/// address or "localhost"). Throws std::runtime_error on failure.
TcpStream tcp_connect(const std::string& host, std::uint16_t port);

}  // namespace omniboost::util
