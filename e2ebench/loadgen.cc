#include "loadgen.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "service/protocol.h"

namespace e2e {

namespace {

// A reply that takes longer than this means a hung fleet, not a slow one
// (the slowest workload's queries take tens of milliseconds).
constexpr double kReplyTimeoutS = 30;

bool IsIdsLine(std::string_view line) {
  return line == "IDS" || line.rfind("IDS ", 0) == 0;
}

std::string OutcomeOf(std::string_view line) {
  return std::string(line.substr(0, std::min<size_t>(line.size(), 120)));
}

// Splits complete lines off *buf and feeds them to the parser; returns
// true once the reply is complete.
bool FeedLines(std::string* buf, ReplyParser* parser, double now,
               Completion* c) {
  size_t start = 0;
  bool done = false;
  for (size_t nl; !done && (nl = buf->find('\n', start)) != std::string::npos;
       start = nl + 1) {
    done = parser->OnLine(std::string_view(*buf).substr(start, nl - start),
                          now, c);
  }
  buf->erase(0, start);
  return done;
}

// Blocking read of one '\n'-terminated line (terminator stripped) by
// `deadline`; bytes past the line stay in *buf.
bool ReadLine(int fd, double deadline, std::string* buf, std::string* line,
              std::string* error) {
  char chunk[65536];
  size_t nl;
  while ((nl = buf->find('\n')) == std::string::npos) {
    const double left = deadline - NowSeconds();
    if (left <= 0) {
      *error = "reply timed out";
      return false;
    }
    if (sgq::PollReadable(fd, static_cast<int>(std::ceil(left * 1000))) <= 0) {
      continue;
    }
    const ssize_t n = sgq::ReadSome(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      *error = "connection closed";
      return false;
    }
    buf->append(chunk, static_cast<size_t>(n));
  }
  line->assign(*buf, 0, nl);
  buf->erase(0, nl + 1);
  return true;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool ReplyParser::OnLine(std::string_view line, double now, Completion* c) {
  if (awaiting_ids_) {
    c->done_s = now;
    const bool parsed = sgq::ParseIdsLine(line, expected_, &c->ids);
    if (!parsed) c->outcome = "bad IDS line: " + OutcomeOf(line);
    c->ok = parsed && c->outcome.empty();  // a TIMEOUT head set outcome
    return true;
  }
  if (op_ == Op::kStream && IsIdsLine(line)) {
    if (c->first_ids_s < 0) c->first_ids_s = now;
    if (!sgq::ParseIdsChunk(line, &c->ids)) {
      c->done_s = now;
      c->outcome = "bad IDS chunk: " + OutcomeOf(line);
      return true;
    }
    return false;
  }
  c->done_s = now;
  if (op_ == Op::kAdd) {
    c->ok = sgq::ParseAddedResponse(line, &c->gid);
  } else if (op_ == Op::kRemove) {
    c->ok = sgq::ParseRemovedResponse(line, &c->gid);
  } else {
    const sgq::ResponseHead head = sgq::ParseResponseHead(line);
    if (head.kind == sgq::ResponseHead::Kind::kOk && head.has_count) {
      sgq::ParseQueryStatsJson(head.body, &c->stats);
      if (op_ == Op::kStream) {
        c->ok = head.num_answers == c->ids.size();
      } else {
        // The IDS line follows the OK line.
        awaiting_ids_ = true;
        expected_ = head.num_answers;
        return false;
      }
    } else if (head.kind == sgq::ResponseHead::Kind::kTimeout && head.has_count &&
               op_ == Op::kQuery) {
      // TIMEOUT still carries its IDS line; consume it, then fail.
      awaiting_ids_ = true;
      expected_ = head.num_answers;
      c->outcome = "TIMEOUT";
      return false;
    }
  }
  if (!c->ok && c->outcome.empty()) c->outcome = OutcomeOf(line);
  return true;
}

bool Exchange(int fd, const std::string& bytes, Op op, double timeout_s,
              Completion* c, std::string* error) {
  c->sent_s = c->due_s = NowSeconds();
  if (!sgq::WriteAll(fd, bytes)) {
    *error = "write failed";
    return false;
  }
  ReplyParser parser(op);
  std::string buf, line;
  // An error reply is still a completed exchange; callers check c->ok.
  while (ReadLine(fd, c->sent_s + timeout_s, &buf, &line, error)) {
    if (parser.OnLine(line, NowSeconds(), c)) return true;
  }
  return false;
}

bool FetchStats(int fd, double timeout_s, std::string* json,
                std::string* error) {
  if (!sgq::WriteAll(fd, "STATS\n")) {
    *error = "write failed";
    return false;
  }
  std::string buf, line;
  if (!ReadLine(fd, NowSeconds() + timeout_s, &buf, &line, error)) {
    return false;
  }
  const sgq::ResponseHead head = sgq::ParseResponseHead(line);
  if (head.kind != sgq::ResponseHead::Kind::kOk || head.has_count) {
    *error = "bad STATS reply";
    return false;
  }
  *json = head.body;
  return true;
}

bool LoadGen::Connect(const std::string& socket, std::string* error) {
  conns_.clear();
  conns_.resize(kConnections);
  for (Conn& conn : conns_) {
    conn.fd = sgq::ConnectUnix(socket, error);
    if (!conn.fd.valid()) return false;
    conn.free_since = NowSeconds();
  }
  return true;
}

LoadGen::Conn* LoadGen::IdleConn() {
  for (Conn& conn : conns_) {
    if (!conn.busy) return &conn;
  }
  return nullptr;
}

bool LoadGen::AnyBusy() const {
  return std::any_of(conns_.begin(), conns_.end(),
                     [](const Conn& c) { return c.busy; });
}

void LoadGen::Draw(double due_s) {
  pending_.push_back({schedule_->Next(), due_s, drawn_++});
}

void LoadGen::Send(Conn* conn, const Pending& p, Phase phase,
                   double lag_from_s) {
  conn->busy = true;
  conn->cur = Completion();
  conn->cur.request = p.request;
  conn->cur.phase = phase;
  conn->cur.seq = p.seq;
  conn->parser.emplace(p.request.op);
  if (IsWrite(p.request.op)) write_in_flight_ = true;
  conn->cur.sent_s = last_activity_s_ = NowSeconds();
  conn->cur.due_s = phase == Phase::kOpen ? p.due_s : conn->cur.sent_s;
  conn->cur.lag_s = conn->cur.sent_s - lag_from_s;
  if (!sgq::WriteAll(conn->fd.get(), EncodeRequest(p.request, inputs_))) {
    // The reply read will see the closed socket and fail the operation.
    conn->cur.outcome = "write failed";
  }
}

bool LoadGen::Pump(double timeout_s, std::string* error) {
  pollfd fds[kConnections];
  Conn* owners[kConnections];
  nfds_t n = 0;
  for (Conn& conn : conns_) {
    if (!conn.busy) continue;
    fds[n] = {conn.fd.get(), POLLIN, 0};
    owners[n++] = &conn;
  }
  // ppoll, not poll: due times are sub-millisecond apart at high rates.
  const timespec ts{static_cast<time_t>(timeout_s),
                    static_cast<long>((timeout_s - std::floor(timeout_s)) *
                                      1e9)};
  const int rc = ::ppoll(fds, n, &ts, nullptr);
  if (rc <= 0) return true;  // timeout or EINTR
  char chunk[65536];
  for (nfds_t i = 0; i < n; ++i) {
    if (fds[i].revents == 0) continue;
    Conn* conn = owners[i];
    const ssize_t got = sgq::ReadSome(conn->fd.get(), chunk, sizeof(chunk));
    if (got <= 0) {
      *error = "fleet closed a connection: " + conn->cur.outcome;
      return false;
    }
    conn->buf.append(chunk, static_cast<size_t>(got));
    const double now = NowSeconds();
    if (!FeedLines(&conn->buf, &*conn->parser, now, &conn->cur)) continue;
    conn->busy = false;
    conn->free_since = last_activity_s_ = now;
    if (IsWrite(conn->cur.request.op)) {
      write_in_flight_ = false;
      write_free_since_ = now;
    }
    sink_(conn->cur);
  }
  return true;
}

bool LoadGen::Drain(std::string* error) {
  const double deadline = NowSeconds() + kReplyTimeoutS;
  while (AnyBusy()) {
    if (NowSeconds() > deadline) {
      *error = "fleet stopped answering";
      return false;
    }
    if (!Pump(1.0, error)) return false;
  }
  return true;
}

bool LoadGen::Stalled(std::string* error) const {
  if (AnyBusy() && NowSeconds() - last_activity_s_ > kReplyTimeoutS) {
    *error = "fleet stopped answering";
    return true;
  }
  return false;
}

bool LoadGen::SendPending(Phase phase) {
  Conn* conn = IdleConn();
  if (conn == nullptr) return false;
  // Reads go out in stream order; a write waiting for the previous write's
  // acknowledgement does not hold back the reads behind it.
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (WriteBlocked(it->request)) continue;
    double lag_from = std::max(it->due_s, conn->free_since);
    if (IsWrite(it->request.op)) {
      lag_from = std::max(lag_from, write_free_since_);
    }
    Send(conn, *it, phase, lag_from);
    pending_.erase(it);
    return true;
  }
  return false;
}

bool LoadGen::RunClosed(Phase phase, double seconds, std::string* error) {
  const double end = NowSeconds() + seconds;
  for (double now; (now = NowSeconds()) < end;) {
    while (IdleConn() != nullptr) {
      if (!SendPending(phase)) Draw(now);
    }
    if (!Pump(end - now, error) || Stalled(error)) return false;
  }
  return Drain(error);
}

bool LoadGen::RunOpen(Phase phase, double rate, double seconds,
                      std::string* error) {
  const double start = NowSeconds();
  const double end = start + seconds;
  // Requests the closed phase drew but never sent are due right away.
  for (Pending& p : pending_) p.due_s = start;
  uint64_t k = 0;
  double next_due = start;
  for (;;) {
    const double now = NowSeconds();
    while (next_due <= now && next_due < end) {
      Draw(next_due);
      next_due = start + static_cast<double>(++k) / rate;
    }
    while (SendPending(phase)) {
    }
    if (pending_.empty() && next_due >= end) break;
    // Sleep until the next request is due or a reply arrives. Without an
    // idle connection (or with only a blocked write pending and nothing
    // more to come) only a reply can unblock anything.
    const double timeout = IdleConn() != nullptr && next_due < end
                               ? std::max(0.0, next_due - NowSeconds())
                               : 1.0;
    if (!Pump(timeout, error) || Stalled(error)) return false;
  }
  return Drain(error);
}

bool LoadGen::Stats(std::string* json, std::string* error) {
  return FetchStats(conns_.front().fd.get(), kReplyTimeoutS, json, error);
}

}  // namespace e2e
