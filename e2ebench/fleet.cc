#include "fleet.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/socket.h"

extern char** environ;

namespace e2e {

namespace {

// Children alive right now, for the signal-time cleanup in main: a plain
// array of atomics so the handler stays async-signal-safe.
constexpr int kMaxChildren = 8;
std::atomic<pid_t> g_children[kMaxChildren];

void Register(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void Unregister(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    slot.compare_exchange_strong(expected, 0);
  }
}

void KillChildrenOnSignal(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

double VmHwmKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0;
}

}  // namespace

std::vector<std::string> ScrubSgqEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("SGQ_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  std::sort(names.begin(), names.end());
  return names;
}

void InstallFleetCleanup() {
  ::signal(SIGINT, KillChildrenOnSignal);
  ::signal(SIGTERM, KillChildrenOnSignal);
  ::signal(SIGHUP, KillChildrenOnSignal);
  ::signal(SIGPIPE, SIG_IGN);
}

std::string Fleet::FrontSocket() const {
  return config_.run_dir + (config_.routed ? "/router.sock" : "/server.sock");
}

std::vector<std::string> Fleet::ShardSockets() const {
  if (!config_.routed) return {};
  return {config_.run_dir + "/shard0.sock", config_.run_dir + "/shard1.sock"};
}

bool Fleet::Start(const std::vector<std::string>& argv, const std::string& log,
                  std::string* error) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log;
    return false;
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pids_.push_back(pid);
  logs_.push_back(log);
  Register(pid);
  return true;
}

bool Fleet::Spawn(std::string* error) {
  const std::string server = config_.bin_dir + "/sgq_server";
  const auto server_args = [&](const std::string& socket) {
    std::vector<std::string> a = {server,
                                  config_.snapshot ? "--snapshot" : "--db",
                                  config_.db_path,
                                  "--socket",
                                  socket,
                                  "--engine",
                                  config_.engine,
                                  "--workers",
                                  std::to_string(config_.workers)};
    if (!config_.cache) {
      a.push_back("--cache");
      a.push_back("off");
    }
    return a;
  };
  if (FrontSocket().size() >= 100) {
    *error = "socket path too long (use a short relative --work-dir): " +
             FrontSocket();
    return false;
  }
  if (!config_.routed) {
    return Start(server_args(FrontSocket()),
                 config_.run_dir + "/server.log", error);
  }
  const std::vector<std::string> shards = ShardSockets();
  std::string endpoints;
  for (size_t i = 0; i < shards.size(); ++i) {
    std::vector<std::string> a = server_args(shards[i]);
    a.push_back("--shard-of");
    a.push_back(std::to_string(i) + "/" + std::to_string(shards.size()));
    if (!Start(a, config_.run_dir + "/shard" + std::to_string(i) + ".log",
               error)) {
      return false;
    }
    endpoints += (i > 0 ? ",unix:" : "unix:") + shards[i];
  }
  return Start({config_.bin_dir + "/sgq_router", "--shards", endpoints,
                "--socket", FrontSocket()},
               config_.run_dir + "/router.log", error);
}

double Fleet::PeakRssMb() const {
  double kb = 0;
  for (const pid_t pid : pids_) kb += VmHwmKb(pid);
  return kb / 1024.0;
}

bool Fleet::AnyExited() {
  for (auto it = pids_.begin(); it != pids_.end(); ++it) {
    int status = 0;
    if (::waitpid(*it, &status, WNOHANG) == *it) {
      Unregister(*it);
      pids_.erase(it);
      return true;
    }
  }
  return false;
}

bool Fleet::Shutdown(double timeout_s, std::string* error) {
  std::string ignored;
  sgq::UniqueFd fd = sgq::ConnectUnix(FrontSocket(), &ignored);
  if (fd.valid() && sgq::WriteAll(fd.get(), "SHUTDOWN\n")) {
    char buf[64];
    if (sgq::PollReadable(fd.get(), static_cast<int>(timeout_s * 1000)) > 0) {
      sgq::ReadSome(fd.get(), buf, sizeof(buf));  // "BYE"
    }
  }
  fd.Reset();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  bool clean = true;
  for (const pid_t pid : pids_) {
    int status = 0;
    pid_t done = 0;
    while ((done = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (done == 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      *error = "fleet process " + std::to_string(pid) +
               " ignored SHUTDOWN and was killed";
      clean = false;
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      *error = "fleet process " + std::to_string(pid) + " exited abnormally";
      clean = false;
    }
    Unregister(pid);
  }
  pids_.clear();
  return clean;
}

void Fleet::Kill() {
  for (const pid_t pid : pids_) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    Unregister(pid);
  }
  pids_.clear();
}

std::string Fleet::LogTail() const {
  std::string out;
  for (const std::string& log : logs_) {
    std::ifstream in(log);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    const size_t from = lines.size() > 8 ? lines.size() - 8 : 0;
    out += "--- " + log + "\n";
    for (size_t i = from; i < lines.size(); ++i) out += lines[i] + "\n";
  }
  return out;
}

}  // namespace e2e
