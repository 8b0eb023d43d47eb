// The load generator: every connection driven from one poll() loop on one
// thread, at most kConnections connections, one request in flight per
// connection (the server answers a connection's requests in order).
//
//   closed loop  each connection sends its next request as soon as its
//                previous reply is complete (a fixed population of waiting
//                callers; measures capacity as qps).
//   open loop    request k is due at start + k / rate whatever the replies
//                do (independent users); latency is timed from the due
//                moment, so a stall also charges the requests queued
//                behind it. send lag — due moment (or the moment a
//                connection became free, if later) to the write — says
//                whether the generator itself kept up.
//
// Writes (ADD/REMOVE) are serialized: one in flight at a time, so the
// server applies them in stream order and the k-th ADD is served under a
// predictable global id.
#ifndef SGQ_E2EBENCH_LOADGEN_H_
#define SGQ_E2EBENCH_LOADGEN_H_

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/types.h"
#include "query/stats.h"
#include "util/socket.h"
#include "workloads.h"

namespace e2e {

inline constexpr int kConnections = 4;

enum class Phase { kProbe, kWarmup, kClosed, kOpen };

// One finished operation as the client saw it.
struct Completion {
  Request request;
  Phase phase = Phase::kProbe;
  uint64_t seq = 0;          // position in the request stream
  double due_s = 0;          // open loop: scheduled; else = sent_s
  double sent_s = 0;
  double first_ids_s = -1;   // STREAM: first IDS chunk line (-1: none)
  double done_s = 0;         // terminal line received
  double lag_s = 0;          // open loop send lag
  bool ok = false;           // well-formed OK reply
  std::string outcome;       // failure detail when !ok
  std::vector<sgq::GraphId> ids;
  sgq::QueryStats stats;
  sgq::GraphId gid = 0;      // ADD/REMOVE: acknowledged global id
};

// Incremental decoder of one reply: feed it response lines until it
// reports the reply complete.
class ReplyParser {
 public:
  explicit ReplyParser(Op op) : op_(op) {}
  // Consumes one line (terminator stripped) received at `now`; returns
  // true when *c holds the complete reply.
  bool OnLine(std::string_view line, double now, Completion* c);

 private:
  Op op_;
  bool awaiting_ids_ = false;  // batch query: head seen, IDS line next
  uint64_t expected_ = 0;
};

// Sends `bytes` on a connected socket and reads the complete reply
// (blocking, with a deadline) — the setup probe and replay helpers use it.
bool Exchange(int fd, const std::string& bytes, Op op, double timeout_s,
              Completion* c, std::string* error);

// One STATS exchange; *json receives the stats object.
bool FetchStats(int fd, double timeout_s, std::string* json,
                std::string* error);

// Seconds on the steady clock (shared epoch for all timestamps).
double NowSeconds();

class LoadGen {
 public:
  using Sink = std::function<void(const Completion&)>;

  LoadGen(const Inputs& inputs, Schedule* schedule, Sink sink)
      : inputs_(inputs), schedule_(schedule), sink_(std::move(sink)) {}

  bool Connect(const std::string& socket, std::string* error);

  // Closed loop on every connection for `seconds`, then drains.
  bool RunClosed(Phase phase, double seconds, std::string* error);

  // Open loop at `rate` requests/s for `seconds`: sends exactly the
  // requests due within the window (late ones after it), then drains.
  bool RunOpen(Phase phase, double rate, double seconds, std::string* error);

  // STATS over the first connection (call between phases, when idle).
  bool Stats(std::string* json, std::string* error);

 private:
  struct Conn {
    sgq::UniqueFd fd;
    std::string buf;
    bool busy = false;
    Completion cur;
    std::optional<ReplyParser> parser;
    double free_since = 0;
  };
  struct Pending {
    Request request;
    double due_s = 0;
    uint64_t seq = 0;  // position in the request stream
  };

  bool WriteBlocked(const Request& r) const {
    return IsWrite(r.op) && write_in_flight_;
  }
  // Takes the next request off the schedule into pending_.
  void Draw(double due_s);
  void Send(Conn* conn, const Pending& p, Phase phase, double lag_from_s);
  // Sends the first sendable pending request on an idle connection.
  bool SendPending(Phase phase);
  // Reads what is available on busy connections (waiting up to
  // `timeout_s`) and completes finished replies.
  bool Pump(double timeout_s, std::string* error);
  bool Drain(std::string* error);
  // True (with *error) when requests are outstanding but nothing moved
  // for a long time: a hung fleet, not a slow one.
  bool Stalled(std::string* error) const;
  Conn* IdleConn();
  bool AnyBusy() const;

  const Inputs& inputs_;
  Schedule* schedule_;
  Sink sink_;
  std::vector<Conn> conns_;
  // Drawn from the schedule, not yet sent (backlog, or a write waiting for
  // the previous write); carries over between phases.
  std::deque<Pending> pending_;
  bool write_in_flight_ = false;
  double write_free_since_ = 0;   // when the last write completed
  double last_activity_s_ = 0;    // last send or reply
  uint64_t drawn_ = 0;            // requests taken off the schedule
};

}  // namespace e2e

#endif  // SGQ_E2EBENCH_LOADGEN_H_
