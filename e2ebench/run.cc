#include "run.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "fleet.h"
#include "json.h"
#include "loadgen.h"
#include "replay.h"
#include "stats.h"
#include "workloads.h"

namespace e2e {

using sgq::GraphId;

namespace {

namespace fs = std::filesystem;

// Run layout. Warm-up is not measured. The measured time (--seconds)
// splits 40/60 between the closed and the open loop, interleaved as
// `slices` rounds of one closed and one open slice, and each metric is the
// median over slices (stats.h). setup_s times `starts` fleet starts, half
// before the load and half after it. The shared capture host changes
// speed by up to 5x within seconds, so every metric samples the run's
// whole span instead of one contiguous stretch of it.
struct Phases {
  double warmup;
  double closed;  // per slice
  double open;    // per slice
  int slices;
  int starts;
};

Phases PhasesFor(const RunOptions& o) {
  if (o.smoke) return {0.3, 0.4, 0.8, 1, 2};
  constexpr int kSlices = 8;
  return {2.0, 0.4 * o.seconds / kSlices, 0.6 * o.seconds / kSlices,
          kSlices, 8};
}

// Oracle threads: the oracle is single-threaded per query, this bounds how
// many run side by side.
constexpr unsigned kOracleThreads = 4;

// Counters summed over the serving processes of one STATS reply (a
// server's object, or each shard object of a router's).
struct Totals {
  double admitted = 0, overloaded = 0, executions = 0;
  double filter_ms = 0, verify_ms = 0, intersect = 0, local = 0;
  double queue_peak = 0;
  double hits = 0, misses = 0, inserts = 0, invalidated = 0, stale = 0;
  double adds = 0, removes = 0, during = 0, inc_syncs = 0, full_syncs = 0;
  double retries = 0, shard_failures = 0;

  void AddServer(const Json& s) {
    admitted += s.Num("admitted");
    overloaded += s.Num("rejected_overloaded");
    executions += s.Num("engine_executions");
    filter_ms += s.Num("filtering_ms_total");
    verify_ms += s.Num("verification_ms_total");
    intersect += s.Num("intersect_calls_total");
    local += s.Num("local_candidates_total");
    queue_peak = std::max(queue_peak, s.Num("queue_peak"));
    const Json& c = s["cache"];
    hits += c.Num("hits");
    misses += c.Num("misses");
    inserts += c.Num("inserts");
    invalidated += c.Num("selective_invalidated");
    stale += c.Num("stale_rejects");
    const Json& u = s["update"];
    adds += u.Num("mutations_add");
    removes += u.Num("mutations_remove");
    during += u.Num("mutations_during_queries");
    inc_syncs += u.Num("engine_incremental_syncs");
    full_syncs += u.Num("engine_full_rebuilds");
  }
};

bool ParseTotals(const std::string& json, Totals* t, std::string* error) {
  Json stats;
  if (!ParseJson(json, &stats, error)) return false;
  if (stats["router"].IsObject()) {
    t->retries = stats["router"].Num("retries");
    t->shard_failures = stats["router"].Num("shard_failures");
    for (const Json& shard : stats["shards"].array) t->AddServer(shard);
  } else {
    t->AddServer(stats);
  }
  return true;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Checks every reply against the oracle. Reads must return exactly the
// oracle's base answers; on mixed_rw they may also return graphs this
// harness added — only ones that contain the query, never one whose REMOVE
// was acknowledged before the read was sent, and always the live one when
// its ADD was acknowledged before the read was sent and its REMOVE not
// sent before the reply (snapshot isolation seen from the client).
class Checker {
 public:
  Checker(const WorkloadSpec& spec, const Inputs& in, const Oracle& oracle)
      : spec_(spec), in_(in), oracle_(oracle) {}

  void Check(const Completion& c) {
    ++attempted;
    if (!c.ok) {
      Fail(c.seq, /*answered=*/false, c.outcome);
      return;
    }
    const uint32_t k = c.request.index;
    if (IsWrite(c.request.op)) {
      auto& times = c.request.op == Op::kAdd ? adds_ : removes_;
      if (times.size() <= k) times.resize(k + 1);
      times[k] = {c.sent_s, c.done_s};
      if (c.gid != AddedGraphId(in_, k)) {
        Fail(c.seq, true,
             "acknowledged global id " + std::to_string(c.gid) +
                 ", expected " + std::to_string(AddedGraphId(in_, k)));
      }
      return;
    }
    const GraphId base = static_cast<GraphId>(in_.db.size());
    const auto split = std::lower_bound(c.ids.begin(), c.ids.end(), base);
    if (!std::equal(c.ids.begin(), split, oracle_.base[k].begin(),
                    oracle_.base[k].end())) {
      Fail(c.seq, true, "answers differ from the oracle");
      return;
    }
    if (oracle_.reserve.empty()) {
      if (split != c.ids.end()) {
        Fail(c.seq, true, "answer ids beyond the database");
      }
      return;
    }
    reads_.push_back({k, c.seq, c.sent_s, c.done_s,
                      std::vector<GraphId>(split, c.ids.end())});
  }

  // The setup probe's reply (already known to be OK).
  void CheckProbe(const Completion& c, const std::vector<GraphId>& expected) {
    ++attempted;
    if (c.ids != expected) Fail(c.seq, true, "setup probe answers differ");
  }

  // Deferred checks of added-graph visibility (all write times known).
  void Finish() {
    const GraphId base = static_cast<GraphId>(in_.db.size());
    const size_t reserve = in_.reserve.size();
    for (const Read& r : reads_) {
      const auto& contains = oracle_.reserve[r.query];
      for (const GraphId id : r.extra) {
        const uint32_t k = id - base;
        if (k >= adds_.size() || adds_[k].sent < 0 || adds_[k].sent > r.done) {
          Fail(r.seq, true, "answer " + std::to_string(id) + " was never added");
        } else if (!contains[k % reserve]) {
          Fail(r.seq, true, "added graph " + std::to_string(id) +
                                " does not contain the query");
        } else if (k < removes_.size() && removes_[k].done >= 0 &&
                   removes_[k].done < r.sent) {
          Fail(r.seq, true,
               "graph " + std::to_string(id) + " answered after removal");
        }
      }
      // ADD acknowledgements are serialized, so their times ascend: the
      // only added graph that can be live across the whole read is the
      // last one acknowledged before it was sent.
      const auto acked = std::partition_point(
          adds_.begin(), adds_.end(), [&](const WriteTimes& w) {
            return w.done >= 0 && w.done < r.sent;
          });
      if (acked == adds_.begin()) continue;
      const uint32_t k = static_cast<uint32_t>(acked - adds_.begin() - 1);
      const bool removal_started =
          k < removes_.size() && removes_[k].sent >= 0 &&
          removes_[k].sent <= r.done;
      if (!removal_started && contains[k % reserve] &&
          !std::binary_search(r.extra.begin(), r.extra.end(),
                              AddedGraphId(in_, k))) {
        Fail(r.seq, true, "live added graph " +
                              std::to_string(AddedGraphId(in_, k)) +
                              " missing from the answers");
      }
    }
    reads_.clear();
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<std::string> problems;

 private:
  struct WriteTimes {
    double sent = -1;
    double done = -1;
  };
  // A mixed_rw read, kept until every write's times are known.
  struct Read {
    uint32_t query;
    uint64_t seq;
    double sent;
    double done;
    std::vector<GraphId> extra;  // ids of graphs this harness added
  };

  // `answered`: the reply was well-formed, so a failure is a wrong answer.
  void Fail(uint64_t seq, bool answered, const std::string& why) {
    ++failed;
    if (answered) ++wrong;
    if (problems.size() < 5) {
      problems.push_back(spec_.name + " request " + std::to_string(seq) +
                         ": " + why);
    }
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  const Oracle& oracle_;
  std::vector<WriteTimes> adds_, removes_;
  std::vector<Read> reads_;
};

// Everything measured from the client side of the served run.
struct ClientSamples {
  std::vector<double> closed_done;    // completion times of OK reads
  std::vector<Stamped> latency_ms;    // open-phase reads, by due time
  std::vector<double> ttfe_ms, mut_ms, lag_ms, nonengine_ms;
  double answers = 0, candidates = 0, si_tests = 0, replies = 0;
  std::map<uint64_t, std::vector<GraphId>> served;  // for the replay

  void Add(const Completion& c, GraphId base) {
    if (!c.ok) return;
    const bool read = !IsWrite(c.request.op);
    if (read && c.seq < kReplayRequests) {
      served[c.seq].assign(
          c.ids.begin(), std::lower_bound(c.ids.begin(), c.ids.end(), base));
    }
    if (c.phase != Phase::kClosed && c.phase != Phase::kOpen) return;
    if (read) {
      answers += static_cast<double>(c.stats.num_answers);
      candidates += static_cast<double>(c.stats.num_candidates);
      si_tests += static_cast<double>(c.stats.si_tests);
      ++replies;
    }
    if (c.phase == Phase::kClosed) {
      if (read) closed_done.push_back(c.done_s);
      return;
    }
    lag_ms.push_back(c.lag_s * 1e3);
    const double latency = (c.done_s - c.due_s) * 1e3;
    if (!read) {
      mut_ms.push_back(latency);
      return;
    }
    latency_ms.push_back({c.due_s, latency});
    // A cache hit replays the stats of the execution that produced it,
    // which outlasts this whole round trip; only replies whose engine time
    // fits inside their latency ran the engine for this request.
    const double engine_ms = c.stats.filtering_ms + c.stats.verification_ms;
    if (engine_ms <= latency) nonengine_ms.push_back(latency - engine_ms);
    if (c.request.op == Op::kStream && c.first_ids_s >= 0) {
      ttfe_ms.push_back((c.first_ids_s - c.due_s) * 1e3);
    }
  }
};

// The setup probe: a one-vertex query labelled like the database's first
// vertex. It is cheap on every workload, so setup_s times the start and
// not one query's search; its answer is every graph holding that label.
struct Probe {
  std::string bytes;
  std::vector<GraphId> expected;
};

Probe MakeProbe(const Inputs& in) {
  const sgq::Label label = in.db.graph(0).label(0);
  const std::string text = "t # 0\nv 0 " + std::to_string(label) + "\n";
  Probe probe;
  probe.bytes = "QUERY " + std::to_string(text.size()) + " IDS\n" + text;
  for (GraphId g = 0; g < in.db.size(); ++g) {
    if (in.db.graph(g).NumVerticesWithLabel(label) > 0) {
      probe.expected.push_back(g);
    }
  }
  return probe;
}

// Spawns the fleet and times it from spawn to the first answered query;
// the router answers OVERLOADED until both shards listen, so retry.
bool StartFleet(Fleet* fleet, const Probe& probe, Checker* checker,
                double* setup_s, std::string* error) {
  const double t0 = NowSeconds();
  if (!fleet->Spawn(error)) return false;
  const double deadline = t0 + 60;
  for (;;) {
    if (NowSeconds() > deadline || fleet->AnyExited()) {
      *error = "fleet did not come up\n" + fleet->LogTail();
      return false;
    }
    std::string ignored;
    sgq::UniqueFd fd = sgq::ConnectUnix(fleet->FrontSocket(), &ignored);
    if (!fd.valid()) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }
    Completion c;
    if (!Exchange(fd.get(), probe.bytes, Op::kQuery, 30, &c, error)) {
      return false;
    }
    if (c.ok) {
      *setup_s = NowSeconds() - t0;
      checker->CheckProbe(c, probe.expected);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

bool RunWorkload(const RunOptions& options,
                 const std::vector<std::string>& env_removed,
                 RunResult* result, std::string* error) {
  const WorkloadSpec* found = FindWorkload(options.workload);
  if (found == nullptr) {
    *error = "unknown workload " + options.workload;
    return false;
  }
  const WorkloadSpec spec = options.smoke ? SmokeScaled(*found) : *found;
  const Phases phases = PhasesFor(options);
  RunResult& r = *result;
  r = RunResult();
  r.workload = spec.name;
  r.seed = options.seed;
  r.env_removed = env_removed;

  // Inputs and oracle are the same for every seed; traces are per run.
  const std::string inputs_tag = spec.name + (options.smoke ? "-smoke" : "");
  const std::string tag = inputs_tag + "-" + std::to_string(options.seed);
  const std::string run_dir =
      options.work_dir + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  for (const std::string& d :
       {run_dir, options.work_dir + "/oracle", options.work_dir + "/traces"}) {
    fs::create_directories(d, ec);
    if (ec) {
      *error = "cannot create " + d + ": " + ec.message();
      return false;
    }
  }
  // The run directory holds the database file, sockets and logs; it goes
  // away with the run.
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  } cleanup{run_dir};

  const double gen_start = NowSeconds();
  Inputs inputs;
  Oracle oracle;
  if (!GenerateInputs(spec, options.smoke, run_dir, &inputs, error) ||
      !LoadOrComputeOracle(spec, inputs,
                           options.work_dir + "/oracle/" + inputs_tag + ".txt",
                           kOracleThreads, &oracle, &r.oracle_cached,
                           error)) {
    return false;
  }
  r.gen_s = NowSeconds() - gen_start;

  FleetConfig fleet_config;
  fleet_config.bin_dir = options.bin_dir;
  fleet_config.run_dir = run_dir;
  fleet_config.db_path = inputs.db_path;
  fleet_config.snapshot = spec.db == DbKind::kBig;
  fleet_config.engine = spec.engine;
  fleet_config.cache = spec.cache;
  fleet_config.routed = spec.routed;
  fleet_config.workers = spec.workers;

  Checker checker(spec, inputs, oracle);
  const Probe probe = MakeProbe(inputs);
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  // Starts a fleet (stopping the previous one) and times its setup.
  const auto start_fleet = [&]() {
    if (fleet != nullptr && !fleet->Shutdown(10, error)) return false;
    fleet = std::make_unique<Fleet>(fleet_config);
    double setup = 0;
    if (!StartFleet(fleet.get(), probe, &checker, &setup, error)) {
      return false;
    }
    setups.push_back(setup);
    return true;
  };
  for (int i = 0; i < (phases.starts + 1) / 2; ++i) {
    if (!start_fleet()) return false;
  }

  const GraphId base = static_cast<GraphId>(inputs.db.size());
  ClientSamples samples;
  Schedule schedule(spec, options.seed,
                    static_cast<uint32_t>(inputs.queries.size()));
  LoadGen load(inputs, &schedule, [&](const Completion& c) {
    checker.Check(c);
    samples.Add(c, base);
  });
  std::string before_json, after_json;
  if (!load.Connect(fleet->FrontSocket(), error) ||
      !load.RunClosed(Phase::kWarmup, phases.warmup, error) ||
      !load.Stats(&before_json, error)) {
    return false;
  }
  std::vector<double> closed_starts, open_starts;
  for (int i = 0; i < phases.slices; ++i) {
    closed_starts.push_back(NowSeconds());
    if (!load.RunClosed(Phase::kClosed, phases.closed, error)) return false;
    open_starts.push_back(NowSeconds());
    if (!load.RunOpen(Phase::kOpen, spec.open_rate, phases.open, error)) {
      return false;
    }
  }
  if (!load.Stats(&after_json, error)) return false;
  const double rss_mb = fleet->PeakRssMb();
  const size_t processes = fleet->NumProcesses();
  char shape[200];
  std::snprintf(shape, sizeof(shape),
                "%d rounds of closed loop (%d connections, %.2f s) then open "
                "loop (%.0f/s, %.2f s); %zu open-loop requests",
                phases.slices, kConnections, phases.closed, spec.open_rate,
                phases.open, samples.lag_ms.size());
  r.loadgen = shape;

  ReplayInput replay;
  ReplayOutput traced;
  if (options.trace) {
    Schedule again(spec, options.seed,
                   static_cast<uint32_t>(inputs.queries.size()));
    replay.spec = &spec;
    replay.inputs = &inputs;
    replay.oracle = &oracle;
    for (size_t i = 0; i < kReplayRequests; ++i) {
      replay.requests.push_back(again.Next());
    }
    replay.served = samples.served;
    replay.chrome_trace_path =
        options.work_dir + "/traces/" + tag + ".trace.json";
    if (spec.routed &&
        !MeasureRouter(replay, fleet->ShardSockets(), fleet->FrontSocket(),
                       &traced, error)) {
      return false;
    }
  }
  // The rest of the setup starts, after the load.
  while (static_cast<int>(setups.size()) < phases.starts) {
    if (!start_fleet()) return false;
  }
  if (!fleet->Shutdown(10, error)) return false;
  fleet.reset();
  checker.Finish();

  // End-to-end metrics.
  auto put = [&](const char* name, double value, size_t n) {
    r.metrics[name] = value;
    r.samples[name] = n;
  };
  std::vector<double> latencies;
  for (const Stamped& s : samples.latency_ms) latencies.push_back(s.value);
  put("setup_s", Median(setups), setups.size());
  put("qps", SlicedRate(samples.closed_done, closed_starts, phases.closed),
      samples.closed_done.size());
  put("p50_ms",
      SlicedPercentile(samples.latency_ms, open_starts, phases.open, 50),
      latencies.size());
  put("rss_mb", rss_mb, processes);

  // The tail is taken over all open-loop reads: a slice holds too few
  // samples beyond its p95. It and the time to first embedding are
  // reported per layer, not gated (README.md, "Stability").
  const double p95 = Percentile(latencies, 95);
  if (!options.smoke && !PercentileSupported(latencies.size(), 95)) {
    r.problems.push_back("p95 over " + std::to_string(latencies.size()) +
                         " samples, fewer than the ten-beyond rule needs");
  }
  const double lag_p99 = Percentile(samples.lag_ms, 99);
  r.valid = lag_p99 <= kMaxSendLagP99Ms;

  if (options.trace) {
    Totals before, after;
    if (!ParseTotals(before_json, &before, error) ||
        !ParseTotals(after_json, &after, error)) {
      return false;
    }
    std::string replay_error;
    if (!RunReplay(replay, &traced, &replay_error)) {
      *error = replay_error;
      return false;
    }
    r.layers = traced.metrics;
    r.trace_summary = traced.summary;
    for (const std::string& mismatch : traced.mismatches) {
      ++checker.failed;
      ++checker.wrong;
      if (checker.problems.size() < 5) checker.problems.push_back(mismatch);
    }
    const double exec = after.executions - before.executions;
    const double muts =
        (after.adds - before.adds) + (after.removes - before.removes);
    auto& l = r.layers;
    l["query.filter_ms"] = Ratio(after.filter_ms - before.filter_ms, exec);
    l["query.verify_ms"] = Ratio(after.verify_ms - before.verify_ms, exec);
    l["matching.intersect_calls"] =
        Ratio(after.intersect - before.intersect, exec);
    l["matching.local_candidates"] = Ratio(after.local - before.local, exec);
    const double hits = after.hits - before.hits;
    l["cache.hit_ratio"] = Ratio(hits, hits + after.misses - before.misses);
    l["cache.invalidated_per_mut"] =
        Ratio(after.invalidated - before.invalidated, muts);
    const double stale = after.stale - before.stale;
    l["cache.stale_reject_ratio"] =
        Ratio(stale, stale + after.inserts - before.inserts);
    l["service.queue_peak"] = after.queue_peak;
    l["service.exec_ratio"] = Ratio(exec, after.admitted - before.admitted);
    l["service.overloaded"] = after.overloaded - before.overloaded;
    const double inc = after.inc_syncs - before.inc_syncs;
    l["update.incremental_sync_ratio"] =
        Ratio(inc, inc + after.full_syncs - before.full_syncs);
    l["update.during_queries_ratio"] =
        Ratio(after.during - before.during, muts);
    l["update.mut_p99_ms"] = Percentile(samples.mut_ms, 99);
    l["router.retries"] = after.retries - before.retries;
    l["router.shard_failures"] = after.shard_failures - before.shard_failures;
    l["query.precision"] = Ratio(samples.answers, samples.candidates);
    l["query.si_tests"] = Ratio(samples.si_tests, samples.replies);
    l["service.nonengine_ms"] = Percentile(samples.nonengine_ms, 50);
    l["client.p95_ms"] = p95;
    l["client.ttfe_p50_ms"] = Percentile(samples.ttfe_ms, 50);
    l["loadgen.send_lag_p99_ms"] = lag_p99;
  }

  r.attempted = checker.attempted;
  r.failed = checker.failed;
  r.correct = checker.wrong == 0;
  r.problems.insert(r.problems.begin(), checker.problems.begin(),
                    checker.problems.end());
  return true;
}

}  // namespace e2e
