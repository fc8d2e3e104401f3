// Child processes and daemon connections, both bounded in time: every wait
// takes a deadline, every child is killed and reaped by its destructor,
// and a child dies with its parent (PR_SET_PDEATHSIG), so no exit path of
// bench_e2e leaves a process behind.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "serve/proto.hpp"

namespace e2e {

class Child {
 public:
  Child() = default;
  ~Child() { terminate(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&&) = delete;
  Child& operator=(Child&&) = delete;

  /// fork + exec argv[0].  stdout goes to a pipe (capture_stdout) or to
  /// /dev/null; stderr is appended to `stderr_path`, or inherited when it
  /// is empty.  Call from the main thread only: the death signal is tied
  /// to the forking thread.
  [[nodiscard]] bool start(const std::vector<std::string>& argv,
                           bool capture_stdout, const std::string& stderr_path,
                           std::string& error);

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool running() const { return pid_ > 0; }

  /// Read captured stdout until EOF; false if `deadline` (now_s() clock)
  /// passes first or g_stop is raised.
  [[nodiscard]] bool read_all(std::string& out, double deadline);

  /// Reap the child; false if it is still running at `deadline`.
  [[nodiscard]] bool wait(double deadline, int& status);

  /// SIGTERM, a short grace period, SIGKILL; always reaps.
  void terminate();

  /// SIGKILL and reap (a child whose state is worthless).
  void kill();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// A connection to mcan-served speaking the length-prefixed JSON protocol
/// (serve/proto.hpp), with send/receive timeouts so a hung daemon cannot
/// hang the caller.
class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&&) = delete;
  Client& operator=(Client&&) = delete;

  [[nodiscard]] bool connect(const std::string& socket_path,
                             double io_timeout_s, std::string& error);
  /// One request/response exchange; false on transport failure.  The
  /// response may still carry "ok": false.
  [[nodiscard]] bool call(const mcan::Json& req, mcan::Json& res,
                          std::string& error);
  void close();
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

[[nodiscard]] bool response_ok(const mcan::Json& res);
[[nodiscard]] std::string response_error(const mcan::Json& res);

}  // namespace e2e
