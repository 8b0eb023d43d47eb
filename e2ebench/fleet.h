// The served system under test: sgq_server, or sgq_router in front of two
// `--shard-of` servers, spawned as real processes from the Release build.
//
// Only deployment-shape flags are passed (--db/--snapshot, --socket,
// --shard-of, --engine, --workers, --cache off, --shards), so removing an
// internal knob cannot break the benchmark, and every SGQ_* variable is
// removed from the environment first (CI legs set them to force modes).
#ifndef SGQ_E2EBENCH_FLEET_H_
#define SGQ_E2EBENCH_FLEET_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace e2e {

// Removes every SGQ_* variable from this process's environment (children
// inherit the result) and returns the names removed. Call once at startup,
// before any library code caches an override.
std::vector<std::string> ScrubSgqEnvironment();

// A killed harness must not leave servers behind: SIGINT/SIGTERM/SIGHUP
// kill the live fleet processes before the harness dies, and SIGPIPE is
// ignored (a dying server must not take the harness with it).
void InstallFleetCleanup();

struct FleetConfig {
  std::string bin_dir;   // holds sgq_server and sgq_router
  std::string run_dir;   // sockets and logs; a short relative path
  std::string db_path;
  bool snapshot = false;  // --snapshot instead of --db
  std::string engine;
  bool cache = true;
  bool routed = false;
  int workers = 1;  // --workers of every server (each shard, when routed)
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config) : config_(std::move(config)) {}
  ~Fleet() { Kill(); }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Starts the processes; returns once they are spawned (not yet ready).
  bool Spawn(std::string* error);

  // The socket clients connect to (the router's when routed).
  std::string FrontSocket() const;
  // Shard sockets (routed fleets only).
  std::vector<std::string> ShardSockets() const;

  // Peak resident set (VmHWM) summed over the fleet's processes, in MiB.
  double PeakRssMb() const;

  size_t NumProcesses() const { return pids_.size(); }

  // True once any fleet process has exited (it is reaped here).
  bool AnyExited();

  // Graceful stop: SHUTDOWN to the front end (the router forwards it), then
  // waits for every process; anything still alive after `timeout_s` is
  // killed. False when a process had to be killed or exited non-zero.
  bool Shutdown(double timeout_s, std::string* error);

  // SIGKILL and reap everything still running. Idempotent.
  void Kill();

  // Tail of the processes' logs, for error reports.
  std::string LogTail() const;

 private:
  bool Start(const std::vector<std::string>& argv, const std::string& log,
             std::string* error);

  const FleetConfig config_;
  std::vector<pid_t> pids_;
  std::vector<std::string> logs_;
};

}  // namespace e2e

#endif  // SGQ_E2EBENCH_FLEET_H_
