#include "router/scatter_gather.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

namespace sgq {

bool ParseShardFailurePolicy(std::string_view text,
                             ShardFailurePolicy* policy) {
  if (text == "error") {
    *policy = ShardFailurePolicy::kError;
    return true;
  }
  if (text == "degraded") {
    *policy = ShardFailurePolicy::kDegraded;
    return true;
  }
  return false;
}

const char* ToString(ShardFailurePolicy policy) {
  return policy == ShardFailurePolicy::kError ? "error" : "degraded";
}

std::string RouterStatsSnapshot::ToJson() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"received\":%llu,\"merged_ok\":%llu,\"merged_timeout\":%llu,"
      "\"failed\":%llu,\"degraded\":%llu,\"shard_failures\":%llu,"
      "\"retries\":%llu,\"shards_total\":%u}",
      static_cast<unsigned long long>(received),
      static_cast<unsigned long long>(merged_ok),
      static_cast<unsigned long long>(merged_timeout),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(shard_failures),
      static_cast<unsigned long long>(retries), shards_total);
  return buf;
}

MergedQuery MergeShardResults(const std::vector<ShardQueryReply>& replies,
                              ShardFailurePolicy policy, uint64_t limit) {
  MergedQuery merged;
  merged.shards.total = static_cast<uint32_t>(replies.size());

  // Backpressure first: a shard that rejected with OVERLOADED is alive and
  // will take the retry — degrading would drop its graphs for no reason.
  for (size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].ok && replies[i].overloaded) {
      merged.detail =
          "shard " + std::to_string(i) + " overloaded: " + replies[i].error;
      return merged;
    }
  }

  std::string first_failure;
  for (size_t i = 0; i < replies.size(); ++i) {
    if (replies[i].ok) {
      ++merged.shards.ok;
    } else if (first_failure.empty()) {
      first_failure =
          "shard " + std::to_string(i) + " failed: " + replies[i].error;
    }
  }
  if (merged.shards.ok < merged.shards.total &&
      policy == ShardFailurePolicy::kError) {
    merged.detail = first_failure;
    return merged;
  }
  if (merged.shards.ok == 0) {
    merged.detail = replies.empty() ? "no shards configured" : first_failure;
    return merged;
  }

  QueryResult& out = merged.result;
  for (const ShardQueryReply& reply : replies) {
    if (!reply.ok) continue;
    out.answers.insert(out.answers.end(), reply.ids.begin(),
                       reply.ids.end());
    const QueryStats& s = reply.stats;
    // Phase times are per-shard wall clock and the shards ran in parallel:
    // the slowest shard is the fan-out's wall-clock estimate (the
    // convention of query/stats.h). Everything countable sums.
    out.stats.filtering_ms = std::max(out.stats.filtering_ms, s.filtering_ms);
    out.stats.verification_ms =
        std::max(out.stats.verification_ms, s.verification_ms);
    out.stats.num_candidates += s.num_candidates;
    out.stats.si_tests += s.si_tests;
    out.stats.timed_out |= s.timed_out;
    out.stats.aux_memory_bytes += s.aux_memory_bytes;
    out.stats.ws_filter_hits += s.ws_filter_hits;
    out.stats.ws_filter_misses += s.ws_filter_misses;
    out.stats.intersect_calls += s.intersect_calls;
    out.stats.intersect_merge += s.intersect_merge;
    out.stats.intersect_gallop += s.intersect_gallop;
    out.stats.intersect_simd += s.intersect_simd;
    out.stats.local_candidates += s.local_candidates;
    out.stats.tasks_spawned += s.tasks_spawned;
    out.stats.tasks_stolen += s.tasks_stolen;
    out.stats.tasks_aborted += s.tasks_aborted;
  }
  // Shards partition the database, so the id sets are disjoint — a plain
  // sort rebuilds the unsharded ascending order, independent of which
  // shard answered first.
  std::sort(out.answers.begin(), out.answers.end());
  out.stats.num_answers = out.answers.size();
  ApplyAnswerLimit(&out, limit);
  merged.ok = true;
  return merged;
}

ScatterGather::ScatterGather(RouterConfig config)
    : config_(std::move(config)), pool_(config_.shards) {
  stats_.shards_total = static_cast<uint32_t>(config_.shards.size());
}

namespace {

// The reply every shard of one fan-out sends.
enum class ReplyShape {
  kLine,    // one response line (admin verbs, mutations)
  kIds,     // QUERY ... IDS: the head line, then one IDS line
  kStream,  // QUERY ... STREAM: IDS chunk lines, then the head line
};

enum class Step { kMore, kDone, kFailed };

// Checks the head line of a QUERY reply and parses its stats into *reply;
// *num_answers gets the answer count it reports.
bool ParseQueryHead(std::string_view line, ShardQueryReply* reply,
                    uint64_t* num_answers, std::string* error) {
  const ResponseHead head = ParseResponseHead(line);
  switch (head.kind) {
    case ResponseHead::Kind::kOk:
    case ResponseHead::Kind::kTimeout:
      break;
    case ResponseHead::Kind::kOverloaded:
      reply->overloaded = true;
      *error = head.body.empty() ? "(no detail)" : head.body;
      return false;
    case ResponseHead::Kind::kBadRequest:
      // An old server rejecting the LIMIT/IDS/STREAM grammar lands here;
      // the message makes the version mismatch visible instead of a desync.
      *error = "shard rejected request: " + head.body;
      return false;
    default:
      *error = "malformed shard response: " + std::string(line);
      return false;
  }
  if (!head.has_count) {
    *error = "query response without answer count: " + std::string(line);
    return false;
  }
  if (!ParseQueryStatsJson(head.body, &reply->stats)) {
    *error = "unparseable shard stats: " + head.body;
    return false;
  }
  reply->timed_out = head.kind == ResponseHead::Kind::kTimeout;
  *num_answers = head.num_answers;
  return true;
}

}  // namespace

struct ScatterGather::Exchange {
  Exchange(size_t shard, ReplyShape shape) : shard(shard), shape(shape) {}

  // Consumes one complete reply line. kFailed sets reply.error.
  Step OnLine(std::string_view text) {
    std::string& error = reply.error;
    switch (shape) {
      case ReplyShape::kLine:
        line.assign(text);
        return Step::kDone;
      case ReplyShape::kIds:
        if (!have_head) {
          if (!ParseQueryHead(text, &reply, &num_answers, &error)) {
            return Step::kFailed;
          }
          have_head = true;
          return Step::kMore;
        }
        if (ParseIdsLine(text, num_answers, &reply.ids)) return Step::kDone;
        error = "bad IDS line (expected " + std::to_string(num_answers) +
                " ids): " + std::string(text);
        return Step::kFailed;
      case ReplyShape::kStream:
        if (text.starts_with("IDS")) {
          if (ParseIdsChunk(text, &reply.ids)) return Step::kMore;
          error = "bad IDS chunk: " + std::string(text);
          return Step::kFailed;
        }
        if (!ParseQueryHead(text, &reply, &num_answers, &error)) {
          return Step::kFailed;
        }
        if (num_answers == reply.ids.size()) return Step::kDone;
        error = "streamed " + std::to_string(reply.ids.size()) +
                " ids but terminal line reported " +
                std::to_string(num_answers);
        return Step::kFailed;
    }
    return Step::kFailed;
  }

  const size_t shard;
  const ReplyShape shape;
  std::unique_ptr<ShardConnection> connection;  // null once done
  bool replied = false;    // a reply byte arrived on `connection`
  bool done = false;       // reply.ok tells success from failure
  bool have_head = false;  // kIds: head line parsed, IDS line next
  uint64_t num_answers = 0;
  size_t forwarded = 0;    // kStream: reply.ids[0, forwarded) left the merge
  ShardQueryReply reply;   // ok and error are used by every shape
  std::string line;        // kLine: the response line
};

void ScatterGather::Gather(std::vector<Exchange>* exchanges,
                           const std::string& request, Deadline deadline,
                           ResultSink* sink, uint64_t limit) {
  uint64_t retries = 0;
  const auto finish = [&](Exchange& e, bool ok) {
    e.done = true;
    e.reply.ok = ok;
    if (ok) pool_.CheckIn(e.shard, std::move(e.connection));
    e.connection.reset();
  };
  // Dialing never waits: a TCP handshake still in flight completes in the
  // poll loop below, which sends the request then. So a shard that never
  // answers its SYN costs its own reply the deadline, not the others'.
  const auto start = [&](Exchange& e,
                         std::unique_ptr<ShardConnection> connection) {
    e.connection = std::move(connection);
    return e.connection->Connect(&e.reply.error) &&
           (e.connection->connecting() ||
            e.connection->Send(request, &e.reply.error));
  };
  // A reused pooled socket that failed before any reply byte arrived may
  // simply have gone stale (the shard restarted between requests); one
  // fresh dial tells that from a down shard. Every other failure is final.
  const auto fail = [&](Exchange& e) {
    if (e.connection->reused() && !e.replied) {
      ++retries;
      if (start(e, std::make_unique<ShardConnection>(
                       pool_.endpoint(e.shard)))) {
        return;
      }
    }
    finish(e, false);
  };
  for (Exchange& e : *exchanges) {
    if (!start(e, pool_.Checkout(e.shard))) fail(e);
  }

  // STREAM: the next id that is safe to forward, if any. Shard streams are
  // ascending, so once every shard still replying has an id buffered the
  // smallest front is the global minimum of everything still to come. A
  // failed shard no longer counts, and its unforwarded ids are dropped.
  const auto next_safe = [&]() -> Exchange* {
    Exchange* best = nullptr;
    for (Exchange& e : *exchanges) {
      if (e.done && !e.reply.ok) continue;
      if (e.forwarded == e.reply.ids.size()) {
        if (!e.done) return nullptr;  // may still send a smaller id
      } else if (best == nullptr || e.reply.ids[e.forwarded] <
                                        best->reply.ids[best->forwarded]) {
        best = &e;
      }
    }
    return best;
  };
  uint64_t emitted = 0;
  bool sink_open = true;

  std::vector<pollfd> fds;
  std::vector<Exchange*> polled;
  for (;;) {
    if (sink != nullptr) {
      // After the sink closes or LIMIT is reached the ids are still drained,
      // so every shard is read to its terminal line and can be pooled.
      const uint64_t before = emitted;
      while (Exchange* e = next_safe()) {
        const GraphId id = e->reply.ids[e->forwarded++];
        if (sink_open && (limit == 0 || emitted < limit)) {
          ++emitted;
          sink_open = sink->OnAnswer(id);
        }
      }
      if (emitted != before) sink->FlushHint();
    }
    fds.clear();
    polled.clear();
    for (Exchange& e : *exchanges) {
      if (e.done) continue;
      fds.push_back({e.connection->fd(),
                     static_cast<short>(e.connection->connecting() ? POLLOUT
                                                                   : POLLIN),
                     0});
      polled.push_back(&e);
    }
    if (fds.empty()) break;

    const double remaining = deadline.SecondsRemaining();
    int ready = 0;
    if (remaining > 0) {
      const double wait_ms = std::min(1000.0, std::ceil(remaining * 1000));
      ready = ::poll(fds.data(), fds.size(), static_cast<int>(wait_ms));
    }
    if (remaining <= 0 || (ready < 0 && errno != EINTR)) {
      // The rest of a reply cut short here may still arrive later, so
      // these connections are dropped, never pooled.
      for (Exchange* e : polled) {
        const char* what = remaining > 0 ? ": poll failed"
                           : e->connection->connecting()
                               ? ": connect timed out"
                               : ": shard read timed out";
        e->reply.error = e->connection->endpoint().ToString() + what;
        finish(*e, false);
      }
      continue;
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      // POLLHUP and POLLERR count too: the read reports EOF or the error.
      if (fds[i].revents == 0) continue;
      Exchange& e = *polled[i];
      if (e.connection->connecting()) {
        if (!e.connection->FinishConnect(&e.reply.error) ||
            !e.connection->Send(request, &e.reply.error)) {
          fail(e);
        }
        continue;
      }
      if (!e.connection->ReadAvailable(&e.reply.error)) {
        fail(e);
        continue;
      }
      e.replied = true;
      std::string_view line;
      while (!e.done && e.connection->NextLine(&line)) {
        const Step step = e.OnLine(line);
        if (step != Step::kMore) finish(e, step == Step::kDone);
      }
    }
  }
  if (retries > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.retries += retries;
  }
}

MergedQuery ScatterGather::Query(const std::string& graph_text,
                                 double timeout_seconds, uint64_t limit) {
  return Query(graph_text, timeout_seconds, limit, nullptr);
}

MergedQuery ScatterGather::Query(const std::string& graph_text,
                                 double timeout_seconds, uint64_t limit,
                                 ResultSink* sink) {
  const double timeout = timeout_seconds > 0
                             ? timeout_seconds
                             : config_.default_timeout_seconds;
  // The deadline covers the whole fan-out; the shards are told the budget
  // remaining at the send, so a silent shard costs deadline, not a hang.
  const Deadline deadline = Deadline::AfterSeconds(timeout);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.received;
  }
  char limit_token[32] = "";
  if (limit > 0) {
    std::snprintf(limit_token, sizeof(limit_token), " LIMIT %llu",
                  static_cast<unsigned long long>(limit));
  }
  char header[128];
  const int header_len = std::snprintf(
      header, sizeof(header), "QUERY %zu %.3f%s %s\n", graph_text.size(),
      std::max(0.001, deadline.SecondsRemaining()), limit_token,
      sink != nullptr ? "STREAM" : "IDS");
  std::string request(header, static_cast<size_t>(header_len));
  request += graph_text;

  const size_t num_shards = config_.shards.size();
  std::vector<Exchange> exchanges;
  exchanges.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    exchanges.emplace_back(
        shard, sink != nullptr ? ReplyShape::kStream : ReplyShape::kIds);
  }
  Gather(&exchanges, request, deadline, sink, limit);
  std::vector<ShardQueryReply> replies;
  replies.reserve(num_shards);
  for (Exchange& e : exchanges) replies.push_back(std::move(e.reply));

  MergedQuery merged =
      MergeShardResults(replies, config_.on_shard_failure, limit);
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const ShardQueryReply& reply : replies) {
    if (!reply.ok) ++stats_.shard_failures;
  }
  if (!merged.ok) {
    ++stats_.failed;
  } else {
    if (merged.result.stats.timed_out) {
      ++stats_.merged_timeout;
    } else {
      ++stats_.merged_ok;
    }
    if (merged.shards.ok < merged.shards.total) ++stats_.degraded;
  }
  return merged;
}

std::vector<ScatterGather::BroadcastReply> ScatterGather::Broadcast(
    const std::string& command_line) {
  std::vector<Exchange> exchanges;
  exchanges.reserve(config_.shards.size());
  for (size_t shard = 0; shard < config_.shards.size(); ++shard) {
    exchanges.emplace_back(shard, ReplyShape::kLine);
  }
  Gather(&exchanges, command_line + "\n",
         Deadline::AfterSeconds(config_.admin_timeout_seconds), nullptr, 0);
  std::vector<BroadcastReply> replies;
  replies.reserve(exchanges.size());
  for (Exchange& e : exchanges) {
    replies.push_back(
        {e.reply.ok, std::move(e.line), std::move(e.reply.error)});
  }
  return replies;
}

ScatterGather::BroadcastReply ScatterGather::SendToShard(
    size_t shard, const std::string& request) {
  std::vector<Exchange> exchanges;
  exchanges.emplace_back(shard, ReplyShape::kLine);
  Gather(&exchanges, request,
         Deadline::AfterSeconds(config_.admin_timeout_seconds), nullptr, 0);
  Exchange& e = exchanges.front();
  return {e.reply.ok, std::move(e.line), std::move(e.reply.error)};
}

RouterStatsSnapshot ScatterGather::Stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace sgq
