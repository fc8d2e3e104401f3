#include "process.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <system_error>
#include <thread>

#include "common.hpp"

namespace e2e {

bool Child::start(const std::vector<std::string>& argv, bool capture_stdout,
                  const std::string& stderr_path, std::string& error) {
  int pipe_fds[2] = {-1, -1};
  if (capture_stdout && ::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    error = "pipe: " + std::system_category().message(errno);
    return false;
  }
  const int err_fd =
      stderr_path.empty()
          ? -1
          : ::open(stderr_path.c_str(),
                   O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const int null_fd = ::open("/dev/null", O_RDWR | O_CLOEXEC);
  // Everything the child touches between fork and exec is prepared here:
  // only async-signal-safe calls may run in it.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid < 0) {
    error = "fork: " + std::system_category().message(errno);
    for (const int fd : {pipe_fds[0], pipe_fds[1], err_fd, null_fd}) {
      if (fd >= 0) ::close(fd);
    }
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent already gone
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(capture_stdout ? pipe_fds[1] : null_fd, STDOUT_FILENO);
    if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
  if (capture_stdout) {
    ::close(pipe_fds[1]);
    out_fd_ = pipe_fds[0];
  }
  if (err_fd >= 0) ::close(err_fd);
  if (null_fd >= 0) ::close(null_fd);
  return true;
}

bool Child::read_all(std::string& out, double deadline) {
  if (out_fd_ < 0) return true;
  char buf[65536];
  for (;;) {
    if (g_stop.load()) return false;
    const double left = deadline - now_s();
    if (left <= 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::min(left, 0.1) * 1000) + 1);
    if (rc < 0 && errno != EINTR) return false;
    if (rc <= 0) continue;
    const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) break;  // EOF
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out_fd_);
  out_fd_ = -1;
  return true;
}

bool Child::wait(double deadline, int& status) {
  while (pid_ > 0) {
    const pid_t rc = ::waitpid(pid_, &status, WNOHANG);
    if (rc == pid_ || (rc < 0 && errno != EINTR)) {
      pid_ = -1;
      break;
    }
    if (now_s() >= deadline || g_stop.load()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  return true;
}

void Child::terminate() {
  if (pid_ > 0) {
    int status = 0;
    ::kill(pid_, SIGTERM);
    if (!wait(now_s() + 3.0, status)) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
}

void Child::kill() {
  if (pid_ > 0) {
    int status = 0;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  terminate();  // closes the pipe
}

// ---------------------------------------------------------------------------

bool Client::connect(const std::string& socket_path, double io_timeout_s,
                     std::string& error) {
  close();
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    error = "socket path too long: " + socket_path;
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    error = "socket: " + std::system_category().message(errno);
    return false;
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(io_timeout_s);
  tv.tv_usec = static_cast<suseconds_t>(
      (io_timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = socket_path + ": " + std::system_category().message(errno);
    close();
    return false;
  }
  return true;
}

bool Client::call(const mcan::Json& req, mcan::Json& res, std::string& error) {
  if (fd_ < 0) {
    error = "not connected";
    return false;
  }
  if (!mcan::write_frame(fd_, req.dump())) {
    error = "cannot write to the daemon";
    close();
    return false;
  }
  std::string payload;
  if (mcan::read_frame(fd_, payload) != mcan::FrameRead::kOk) {
    error = "no response from the daemon (timed out or connection lost)";
    close();
    return false;
  }
  if (!mcan::Json::parse(payload, res, error)) {
    error = "unparsable response: " + error;
    return false;
  }
  return true;
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool response_ok(const mcan::Json& res) {
  const mcan::Json* ok = res.find("ok");
  return ok != nullptr && ok->as_bool();
}

std::string response_error(const mcan::Json& res) {
  const mcan::Json* err = res.find("error");
  return err != nullptr && err->is_string() ? err->as_string()
                                            : std::string("daemon error");
}

}  // namespace e2e
