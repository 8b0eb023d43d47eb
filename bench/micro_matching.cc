// Microbenchmarks (google-benchmark) for the core algorithmic kernels:
// filtering (CFL vs GraphQL preprocessing), verification (VF2 vs CFQL —
// the paper's per-SI-test gap), path/tree feature enumeration, the
// bipartite-matching primitive, and end-to-end query throughput
// (queries/sec) for the serial and pooled-parallel CFQL engines with
// workspace allocation counters.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "index/feature_enumerator.h"
#include "index/path_enumerator.h"
#include "matching/bigraph_matching.h"
#include "matching/cfl.h"
#include "matching/cfql.h"
#include "matching/direct_enumeration.h"
#include "matching/graphql.h"
#include "matching/parallel_backtrack.h"
#include "matching/spath.h"
#include "matching/turboiso.h"
#include "matching/vf2.h"
#include "matching/workspace.h"
#include "query/engine_factory.h"
#include "query/parallel_vcfv_engine.h"
#include "util/intersect.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace sgq;

// One mid-sized data graph + one 8-edge sparse query extracted from it.
struct Fixture {
  Graph data;
  Graph query;

  Fixture() {
    Rng rng(42);
    std::vector<Label> labels;
    for (Label l = 0; l < 12; ++l) labels.push_back(l);
    data = GenerateRandomGraph(400, 8.0, labels, &rng);
    GraphDatabase db;
    db.Add(data);
    data = db.graph(0);
    Graph q;
    while (!GenerateQuery(db, QueryKind::kSparse, 8, &rng, &q)) {
    }
    query = q;
  }
};

const Fixture& GetFixture() {
  static const Fixture& fixture = *new Fixture();
  return fixture;
}

void BM_FilterCfl(benchmark::State& state) {
  const Fixture& f = GetFixture();
  CflMatcher matcher;
  for (auto _ : state) {
    auto out = matcher.Filter(f.query, f.data);
    benchmark::DoNotOptimize(out->Passed());
  }
}
BENCHMARK(BM_FilterCfl);

void BM_FilterGraphQl(benchmark::State& state) {
  const Fixture& f = GetFixture();
  GraphQlMatcher matcher;
  for (auto _ : state) {
    auto out = matcher.Filter(f.query, f.data);
    benchmark::DoNotOptimize(out->Passed());
  }
}
BENCHMARK(BM_FilterGraphQl);

// Workspace-fed filtering: same work as BM_FilterCfl/BM_FilterGraphQl but
// recycling one MatchWorkspace, i.e. the steady-state per-graph cost inside
// a database scan (allocation-free once warm).
void BM_FilterCflWorkspace(benchmark::State& state) {
  const Fixture& f = GetFixture();
  CflMatcher matcher;
  MatchWorkspace ws;
  for (auto _ : state) {
    const FilterData* out = matcher.Filter(f.query, f.data, &ws);
    benchmark::DoNotOptimize(out->Passed());
  }
  state.counters["ws_hit_rate"] = benchmark::Counter(
      static_cast<double>(ws.filter_hits()) /
      static_cast<double>(ws.filter_hits() + ws.filter_misses()));
}
BENCHMARK(BM_FilterCflWorkspace);

void BM_FilterGraphQlWorkspace(benchmark::State& state) {
  const Fixture& f = GetFixture();
  GraphQlMatcher matcher;
  MatchWorkspace ws;
  for (auto _ : state) {
    const FilterData* out = matcher.Filter(f.query, f.data, &ws);
    benchmark::DoNotOptimize(out->Passed());
  }
  state.counters["ws_hit_rate"] = benchmark::Counter(
      static_cast<double>(ws.filter_hits()) /
      static_cast<double>(ws.filter_hits() + ws.filter_misses()));
}
BENCHMARK(BM_FilterGraphQlWorkspace);

void BM_VerifyVf2(benchmark::State& state) {
  const Fixture& f = GetFixture();
  Vf2 vf2;
  for (auto _ : state) {
    DeadlineChecker checker{Deadline::Infinite()};
    benchmark::DoNotOptimize(vf2.Contains(f.query, f.data, &checker));
  }
}
BENCHMARK(BM_VerifyVf2);

void BM_VerifyCfql(benchmark::State& state) {
  const Fixture& f = GetFixture();
  CfqlMatcher matcher;
  for (auto _ : state) {
    DeadlineChecker checker{Deadline::Infinite()};
    benchmark::DoNotOptimize(matcher.Contains(f.query, f.data, &checker));
  }
}
BENCHMARK(BM_VerifyCfql);

void BM_VerifyCfl(benchmark::State& state) {
  const Fixture& f = GetFixture();
  CflMatcher matcher;
  for (auto _ : state) {
    DeadlineChecker checker{Deadline::Infinite()};
    benchmark::DoNotOptimize(matcher.Contains(f.query, f.data, &checker));
  }
}
BENCHMARK(BM_VerifyCfl);

void BM_VerifyTurboIso(benchmark::State& state) {
  const Fixture& f = GetFixture();
  TurboIsoMatcher matcher;
  for (auto _ : state) {
    DeadlineChecker checker{Deadline::Infinite()};
    benchmark::DoNotOptimize(matcher.Contains(f.query, f.data, &checker));
  }
}
BENCHMARK(BM_VerifyTurboIso);

void BM_VerifyQuickSi(benchmark::State& state) {
  const Fixture& f = GetFixture();
  QuickSiMatcher matcher;
  for (auto _ : state) {
    DeadlineChecker checker{Deadline::Infinite()};
    benchmark::DoNotOptimize(matcher.Contains(f.query, f.data, &checker));
  }
}
BENCHMARK(BM_VerifyQuickSi);

void BM_VerifySPath(benchmark::State& state) {
  const Fixture& f = GetFixture();
  SPathMatcher matcher;
  for (auto _ : state) {
    DeadlineChecker checker{Deadline::Infinite()};
    benchmark::DoNotOptimize(matcher.Contains(f.query, f.data, &checker));
  }
}
BENCHMARK(BM_VerifySPath);

void BM_PathEnumeration(benchmark::State& state) {
  Rng rng(7);
  std::vector<Label> labels;
  for (Label l = 0; l < 20; ++l) labels.push_back(l);
  const Graph g =
      GenerateRandomGraph(60, static_cast<double>(state.range(0)), labels,
                          &rng);
  for (auto _ : state) {
    PathFeatureCounts out;
    DeadlineChecker unlimited{Deadline::Infinite()};
    EnumeratePathFeatures(g, 4, &unlimited, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_PathEnumeration)->Arg(2)->Arg(4)->Arg(8);

void BM_TreeEnumeration(benchmark::State& state) {
  Rng rng(8);
  std::vector<Label> labels;
  for (Label l = 0; l < 20; ++l) labels.push_back(l);
  // Tree enumeration is exponential in degree (CT-Index's OOT cause); keep
  // the benchmark graph small so an iteration stays in the millisecond
  // range.
  const Graph g =
      GenerateRandomGraph(40, static_cast<double>(state.range(0)), labels,
                          &rng);
  for (auto _ : state) {
    FeatureSet out;
    DeadlineChecker unlimited{Deadline::Infinite()};
    EnumerateTreeFeatures(g, 4, &unlimited, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_TreeEnumeration)->Arg(2)->Arg(4);

void BM_BipartiteMatching(benchmark::State& state) {
  Rng rng(9);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  BigraphAdjacency adj(n);
  for (uint32_t l = 0; l < n; ++l) {
    for (uint32_t r = 0; r < n; ++r) {
      if (rng.NextBool(0.3)) adj[l].push_back(r);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxBipartiteMatching(adj, n));
  }
}
BENCHMARK(BM_BipartiteMatching)->Arg(8)->Arg(32)->Arg(128);

// --- list-kernel enumeration (dense workload) ------------------------------
// The paper's dense queries (Q_iD, Fig. 7) are where the extension step
// dominates: each new query vertex has several backward neighbors, and the
// list kernel computes each node's local candidate set with adaptive
// sorted-list intersections. The 600-vertex data graph is too large for
// the word kernel, so these isolate the intersection kernels (SIMD on and
// off).
struct DenseEnumFixture {
  Graph data;
  std::vector<Graph> queries;  // dense (Q_iD-style) queries

  DenseEnumFixture() {
    Rng rng(271);
    std::vector<Label> labels;
    for (Label l = 0; l < 8; ++l) labels.push_back(l);
    data = GenerateRandomGraph(600, 16.0, labels, &rng);
    GraphDatabase db;
    db.Add(data);
    data = db.graph(0);
    while (queries.size() < 4) {
      Graph q;
      if (GenerateQuery(db, QueryKind::kDense, 10, &rng, &q)) {
        queries.push_back(std::move(q));
      }
    }
  }
};

const DenseEnumFixture& GetDenseEnumFixture() {
  static const DenseEnumFixture& fixture = *new DenseEnumFixture();
  return fixture;
}

void EnumerateDense(benchmark::State& state) {
  const DenseEnumFixture& f = GetDenseEnumFixture();
  const GraphQlMatcher matcher;
  MatchWorkspace ws;
  // Filter once per query outside the timed loop; the benchmark isolates
  // the enumeration phase.
  std::vector<std::unique_ptr<FilterData>> filtered;
  for (const Graph& q : f.queries) {
    filtered.push_back(matcher.Filter(q, f.data));
  }
  uint64_t embeddings = 0, intersect_calls = 0, enumerations = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < f.queries.size(); ++i) {
      if (!filtered[i]->Passed()) continue;
      const std::vector<VertexId>& order =
          JoinBasedOrder(f.queries[i], filtered[i]->phi, &ws);
      const EnumerateResult er = BacktrackOverCandidates(
          f.queries[i], f.data, filtered[i]->phi, order,
          /*limit=*/10000, nullptr, nullptr, &ws);
      embeddings += er.embeddings;
      intersect_calls += er.intersect_calls;
      ++enumerations;
      benchmark::DoNotOptimize(er.embeddings);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(enumerations));
  state.counters["embeddings_per_enum"] = benchmark::Counter(
      enumerations == 0 ? 0.0
                        : static_cast<double>(embeddings) /
                              static_cast<double>(enumerations));
  state.counters["intersects_per_enum"] = benchmark::Counter(
      enumerations == 0 ? 0.0
                        : static_cast<double>(intersect_calls) /
                              static_cast<double>(enumerations));
}

void BM_EnumerateDenseAdaptive(benchmark::State& state) {
  EnumerateDense(state);
}
BENCHMARK(BM_EnumerateDenseAdaptive)->Unit(benchmark::kMillisecond);

void BM_EnumerateDenseAdaptiveScalar(benchmark::State& state) {
  const bool saved = IntersectSimdEnabled();
  SetIntersectSimdEnabled(false);
  EnumerateDense(state);
  SetIntersectSimdEnabled(saved);
}
BENCHMARK(BM_EnumerateDenseAdaptiveScalar)->Unit(benchmark::kMillisecond);

// --- end-to-end query throughput ------------------------------------------
// A repeated-query workload against one database: the regime where the
// persistent pool + recycled workspaces pay off. Reports queries/sec
// (items_per_second) plus the workspace reuse counters: ws_hit_rate is the
// fraction of Filter() calls served allocation-free, allocs_per_query the
// FilterData heap allocations each query still costs (assert-level target:
// 0 after the first query warms every worker slot).
struct ThroughputFixture {
  GraphDatabase db;
  std::vector<Graph> queries;

  ThroughputFixture() {
    // The AIDS regime (Table IV): many small sparse graphs, so per-graph
    // work is microseconds and the fixed costs this PR removes — a
    // FilterData heap allocation per graph, a thread spawn + matcher
    // construction per query — are a large fraction of the scan. The DB
    // size keeps per-query latency in the low hundreds of microseconds,
    // i.e. the online-serving regime where per-query setup overhead
    // actually matters.
    SyntheticParams params;
    params.num_graphs = 200;
    params.vertices_per_graph = 28;
    params.degree = 3.5;
    params.num_labels = 6;
    params.seed = 77;
    db = GenerateSyntheticDatabase(params);
    Rng rng(21);
    while (queries.size() < 8) {
      Graph q;
      if (GenerateQuery(db, QueryKind::kSparse, 6, &rng, &q)) {
        queries.push_back(std::move(q));
      }
    }
  }
};

const ThroughputFixture& GetThroughputFixture() {
  static const ThroughputFixture& fixture = *new ThroughputFixture();
  return fixture;
}

void ReportThroughput(benchmark::State& state, uint64_t queries_run,
                      uint64_t ws_hits, uint64_t ws_misses) {
  state.SetItemsProcessed(static_cast<int64_t>(queries_run));
  const uint64_t calls = ws_hits + ws_misses;
  state.counters["ws_hit_rate"] =
      benchmark::Counter(calls == 0 ? 0.0
                                    : static_cast<double>(ws_hits) /
                                          static_cast<double>(calls));
  state.counters["allocs_per_query"] = benchmark::Counter(
      queries_run == 0 ? 0.0
                       : static_cast<double>(ws_misses) /
                             static_cast<double>(queries_run));
}

// The raw vcFV scan (no engine timers/stats), allocating path vs workspace
// path: identical loops differing only in where FilterData and enumeration
// scratch come from, so the ratio is the pure workspace-reuse speedup.
// NoReuse is what every engine did before the MatchWorkspace existed.
void ScanQueries(benchmark::State& state, const ThroughputFixture& f,
                 MatchWorkspace* ws) {
  const CfqlMatcher matcher;
  uint64_t queries_run = 0;
  for (auto _ : state) {
    for (const Graph& q : f.queries) {
      DeadlineChecker checker{Deadline::Infinite()};
      uint64_t answers = 0;
      for (GraphId g = 0; g < f.db.size(); ++g) {
        if (ws != nullptr) {
          const FilterData* fd = matcher.Filter(q, f.db.graph(g), ws);
          if (fd->Passed() &&
              matcher.Enumerate(q, f.db.graph(g), *fd, 1, &checker, ws)
                      .embeddings > 0) {
            ++answers;
          }
        } else {
          const auto fd = matcher.Filter(q, f.db.graph(g));
          if (fd->Passed() &&
              matcher.Enumerate(q, f.db.graph(g), *fd, 1, &checker)
                      .embeddings > 0) {
            ++answers;
          }
        }
      }
      benchmark::DoNotOptimize(answers);
      ++queries_run;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries_run));
}

void BM_QueryThroughputCfqlNoReuse(benchmark::State& state) {
  ScanQueries(state, GetThroughputFixture(), nullptr);
}
BENCHMARK(BM_QueryThroughputCfqlNoReuse)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_QueryThroughputCfqlReuse(benchmark::State& state) {
  MatchWorkspace ws;
  ScanQueries(state, GetThroughputFixture(), &ws);
  state.counters["ws_hit_rate"] = benchmark::Counter(
      static_cast<double>(ws.filter_hits()) /
      static_cast<double>(ws.filter_hits() + ws.filter_misses()));
}
BENCHMARK(BM_QueryThroughputCfqlReuse)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Baseline: the pre-pool parallel scan — per query, spawn a fresh thread
// set, construct a fresh matcher per thread, allocate a FilterData per
// graph, and hand out one graph per fetch_add. The worker body replicates
// the old ParallelVcfvEngine::Query loop (per-graph phase timers, aux-memory
// tracking, deadline checks, per-thread answer accumulation); the ratio to
// BM_QueryThroughputCfqlParallel at the same thread count is the
// pool + workspace speedup.
void BM_QueryThroughputCfqlSeedParallel(benchmark::State& state) {
  const ThroughputFixture& f = GetThroughputFixture();
  const uint32_t num_threads = static_cast<uint32_t>(state.range(0));
  const Deadline deadline = Deadline::Infinite();
  uint64_t queries_run = 0;
  for (auto _ : state) {
    for (const Graph& q : f.queries) {
      struct ThreadAccumulator {
        std::vector<GraphId> answers;
        uint64_t candidates = 0;
        uint64_t si_tests = 0;
        size_t max_aux = 0;
        int64_t filter_nanos = 0;
        int64_t verify_nanos = 0;
      };
      std::vector<ThreadAccumulator> accumulators(num_threads);
      std::atomic<size_t> next{0};
      auto worker = [&](uint32_t tid) {
        const std::unique_ptr<Matcher> matcher =
            std::make_unique<CfqlMatcher>();
        ThreadAccumulator& acc = accumulators[tid];
        DeadlineChecker checker(deadline);
        IntervalTimer filter_timer, verify_timer;
        for (;;) {
          const size_t g = next.fetch_add(1);
          if (g >= f.db.size()) break;
          const Graph& data = f.db.graph(static_cast<GraphId>(g));
          filter_timer.Start();
          const auto fd = matcher->Filter(q, data);
          filter_timer.Stop();
          acc.max_aux = std::max(acc.max_aux, fd->MemoryBytes());
          if (fd->Passed()) {
            ++acc.candidates;
            verify_timer.Start();
            const EnumerateResult er =
                matcher->Enumerate(q, data, *fd, 1, &checker);
            verify_timer.Stop();
            ++acc.si_tests;
            if (er.embeddings > 0) {
              acc.answers.push_back(static_cast<GraphId>(g));
            }
          }
          if (deadline.Expired()) break;
        }
        acc.filter_nanos = filter_timer.TotalNanos();
        acc.verify_nanos = verify_timer.TotalNanos();
      };
      std::vector<std::thread> threads;
      for (uint32_t t = 0; t < num_threads; ++t) {
        threads.emplace_back(worker, t);
      }
      for (auto& t : threads) t.join();
      std::vector<GraphId> answers;
      for (const ThreadAccumulator& acc : accumulators) {
        answers.insert(answers.end(), acc.answers.begin(), acc.answers.end());
      }
      std::sort(answers.begin(), answers.end());
      benchmark::DoNotOptimize(answers);
      ++queries_run;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(queries_run));
}
// Arg = thread count. 8 matches the engine's num_threads=0 default on a
// typical 8-core server, where the seed implementation re-paid 8 spawns and
// 8 matcher constructions on every query.
BENCHMARK(BM_QueryThroughputCfqlSeedParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_QueryThroughputCfqlSerial(benchmark::State& state) {
  const ThroughputFixture& f = GetThroughputFixture();
  auto engine = MakeEngine("CFQL");
  if (!engine->Prepare(f.db, Deadline::Infinite())) {
    state.SkipWithError("Prepare failed");
    return;
  }
  uint64_t queries_run = 0, ws_hits = 0, ws_misses = 0;
  for (auto _ : state) {
    for (const Graph& q : f.queries) {
      const QueryResult r = engine->Query(q, Deadline::Infinite());
      benchmark::DoNotOptimize(r.stats.num_answers);
      ++queries_run;
      ws_hits += r.stats.ws_filter_hits;
      ws_misses += r.stats.ws_filter_misses;
    }
  }
  ReportThroughput(state, queries_run, ws_hits, ws_misses);
}
BENCHMARK(BM_QueryThroughputCfqlSerial)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_QueryThroughputCfqlParallel(benchmark::State& state) {
  const ThroughputFixture& f = GetThroughputFixture();
  ParallelVcfvEngine engine(static_cast<uint32_t>(state.range(0)));
  if (!engine.Prepare(f.db, Deadline::Infinite())) {
    state.SkipWithError("Prepare failed");
    return;
  }
  uint64_t queries_run = 0, ws_hits = 0, ws_misses = 0;
  for (auto _ : state) {
    for (const Graph& q : f.queries) {
      const QueryResult r = engine.Query(q, Deadline::Infinite());
      benchmark::DoNotOptimize(r.stats.num_answers);
      ++queries_run;
      ws_hits += r.stats.ws_filter_hits;
      ws_misses += r.stats.ws_filter_misses;
    }
  }
  ReportThroughput(state, queries_run, ws_hits, ws_misses);
}
BENCHMARK(BM_QueryThroughputCfqlParallel)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- intra-query work-stealing (dense single-graph workload) ---------------
// The regime ROADMAP item 3 targets: ONE large graph whose enumeration
// dominates the query, so database-level parallelism has nothing to split
// and the steal scheduler's first-level task partition is the only
// parallelism available. Serial vs 1/2/4/8-executor stealing over the same
// filter output; the fixture asserts bit-identical embedding sequences up
// front, so the speedup_vs_serial counter compares equal work. On a machine
// with fewer hardware threads than the Arg the executors are oversubscribed
// and the counter degrades honestly — read it against threads_available in
// the BENCH_*.json snapshot.
struct StealFixture {
  Graph data;
  Graph query;
  std::unique_ptr<FilterData> filtered;
  std::vector<VertexId> order;
  uint64_t limit = 100000;
  uint64_t expected_embeddings = 0;
  double serial_ns = 0;  // one serial enumeration, for speedup_vs_serial

  StealFixture() {
    Rng rng(1337);
    std::vector<Label> labels;
    for (Label l = 0; l < 4; ++l) labels.push_back(l);
    data = GenerateRandomGraph(2000, 12.0, labels, &rng);
    GraphDatabase db;
    db.Add(data);
    data = db.graph(0);
    while (!GenerateQuery(db, QueryKind::kDense, 12, &rng, &query)) {
    }
    const CflMatcher matcher;  // the CFQL filter
    filtered = matcher.Filter(query, data);
    SGQ_CHECK(filtered->Passed());
    order = JoinBasedOrder(query, filtered->phi);

    std::vector<VertexId> serial_flat;
    MatchWorkspace ws;
    const EnumerateResult serial = BacktrackOverCandidates(
        query, data, filtered->phi, order, limit, nullptr,
        [&serial_flat](const std::vector<VertexId>& m) {
          serial_flat.insert(serial_flat.end(), m.begin(), m.end());
          return true;
        },
        &ws);
    expected_embeddings = serial.embeddings;
    SGQ_CHECK_GT(expected_embeddings, 0u);
    // Warm serial baseline for speedup_vs_serial (best of three, with the
    // first run above having already paged everything in).
    serial_ns = 0;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      const EnumerateResult er = BacktrackOverCandidates(
          query, data, filtered->phi, order, limit, nullptr, nullptr, &ws);
      const double ns = static_cast<double>(timer.ElapsedNanos());
      SGQ_CHECK(er.embeddings == expected_embeddings);
      if (serial_ns == 0 || ns < serial_ns) serial_ns = ns;
    }

    // Acceptance gate: the stolen enumeration must replay the exact serial
    // embedding sequence, not just the same count.
    StealScheduler sched(4, StealConfig{});
    std::vector<VertexId> steal_flat;
    sched.BeginScan();
    std::vector<std::thread> helpers;
    for (uint32_t t = 1; t < 4; ++t) {
      helpers.emplace_back([&sched, t] {
        MatchWorkspace helper_ws;
        sched.FinishScan(t, &helper_ws);
      });
    }
    MatchWorkspace owner_ws;
    const EnumerateResult stolen = sched.Enumerate(
        0, query, data, filtered->phi, order, limit, Deadline::Infinite(),
        [&steal_flat](const std::vector<VertexId>& m) {
          steal_flat.insert(steal_flat.end(), m.begin(), m.end());
          return true;
        },
        &owner_ws);
    sched.FinishScan(0, &owner_ws);
    for (std::thread& h : helpers) h.join();
    SGQ_CHECK(stolen.embeddings == serial.embeddings &&
              steal_flat == serial_flat)
        << "stolen enumeration diverged from serial";
  }
};

const StealFixture& GetStealFixture() {
  static const StealFixture& fixture = *new StealFixture();
  return fixture;
}

// Serial baseline measured by the benchmark loop itself; BM_EnumerateSteal
// prefers it over the fixture's construction-time measurement because both
// then see the same machine load (registration order runs Serial first in
// an unfiltered suite). Both sides time each iteration individually and keep
// the MINIMUM: on a shared box, loop-total wall time folds in preemption by
// other processes, which poisons the ratio (a 1-executor run would not read
// ~1.0). The min is the least-interfered sample of identical work.
double g_measured_serial_ns = 0;

void BM_EnumerateStealSerial(benchmark::State& state) {
  const StealFixture& f = GetStealFixture();
  MatchWorkspace ws;
  double min_ns = 0;
  for (auto _ : state) {
    WallTimer timer;
    const EnumerateResult er = BacktrackOverCandidates(
        f.query, f.data, f.filtered->phi, f.order, f.limit, nullptr, nullptr,
        &ws);
    const double ns = static_cast<double>(timer.ElapsedNanos());
    benchmark::DoNotOptimize(er.embeddings);
    if (min_ns == 0 || ns < min_ns) min_ns = ns;
    if (er.embeddings != f.expected_embeddings) {
      state.SkipWithError("embedding count diverged");
      return;
    }
  }
  if (min_ns > 0) g_measured_serial_ns = min_ns;
  state.counters["embeddings"] =
      benchmark::Counter(static_cast<double>(f.expected_embeddings));
}
BENCHMARK(BM_EnumerateStealSerial)->Unit(benchmark::kMillisecond);

// Arg = executor count. Executor 0 owns the jobs; the rest are dedicated
// helper threads with no graphs to scan, which steal until executor 0
// finishes its scan, exactly the engine's help phase.
void BM_EnumerateSteal(benchmark::State& state) {
  const StealFixture& f = GetStealFixture();
  const uint32_t executors = static_cast<uint32_t>(state.range(0));
  StealScheduler sched(executors, StealConfig{});
  sched.BeginScan();
  std::vector<std::thread> helpers;
  for (uint32_t t = 1; t < executors; ++t) {
    helpers.emplace_back([&sched, t] {
      MatchWorkspace helper_ws;
      sched.FinishScan(t, &helper_ws);
    });
  }
  MatchWorkspace owner_ws;
  double min_ns = 0;
  uint64_t iterations = 0;
  for (auto _ : state) {
    WallTimer timer;
    const EnumerateResult er = sched.Enumerate(
        0, f.query, f.data, f.filtered->phi, f.order, f.limit,
        Deadline::Infinite(), nullptr, &owner_ws);
    const double ns = static_cast<double>(timer.ElapsedNanos());
    benchmark::DoNotOptimize(er.embeddings);
    ++iterations;
    if (min_ns == 0 || ns < min_ns) min_ns = ns;
    if (er.embeddings != f.expected_embeddings) {
      sched.FinishScan(0, &owner_ws);
      for (std::thread& h : helpers) h.join();
      state.SkipWithError("embedding count diverged");
      return;
    }
  }
  sched.FinishScan(0, &owner_ws);
  for (std::thread& h : helpers) h.join();
  const double serial_ns =
      g_measured_serial_ns > 0 ? g_measured_serial_ns : f.serial_ns;
  state.counters["speedup_vs_serial"] =
      benchmark::Counter(min_ns > 0 ? serial_ns / min_ns : 0);
  const StealCounters sc = sched.DrainCounters();
  state.counters["tasks_stolen_per_enum"] = benchmark::Counter(
      static_cast<double>(sc.tasks_stolen) /
      static_cast<double>(std::max<uint64_t>(1, iterations)));
}
BENCHMARK(BM_EnumerateSteal)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

SGQ_BENCH_MAIN("micro_matching");
