#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "gen/biggraph_gen.h"
#include "gen/dataset_profiles.h"
#include "gen/graph_gen.h"
#include "gen/query_gen.h"
#include "graph/csr_snapshot.h"
#include "graph/graph_io.h"
#include "query/engine_factory.h"

namespace e2e {

using sgq::Graph;
using sgq::GraphDatabase;
using sgq::GraphId;

namespace {

// Size of the AIDS profile the count scales refer to (Table IV: 40,000).
constexpr double kAidsProfileGraphs = 40000;

// Generator seed of every database, query pool and reserve (see
// workloads.h): the data is part of the recipe.
constexpr uint64_t kDataSeed = 1;

// Sub-seed for one generator call: distinct salts give independent streams.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class Fnv {
 public:
  void Add(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001B3ull;
  }
  void Add(std::string_view s) { Add(s.data(), s.size()); }
  void Add(const Graph& g) {
    const uint32_t n = g.NumVertices();
    Add(&n, sizeof(n));
    for (sgq::VertexId v = 0; v < n; ++v) {
      const sgq::Label l = g.label(v);
      Add(&l, sizeof(l));
      const auto nb = g.Neighbors(v);
      Add(nb.data(), nb.size() * sizeof(nb[0]));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

constexpr sgq::QueryKind kSparse = sgq::QueryKind::kSparse;
constexpr sgq::QueryKind kDense = sgq::QueryKind::kDense;

// spec.queries queries spread evenly over spec.query_sets.
std::vector<Graph> MakeQueries(const WorkloadSpec& spec,
                               const GraphDatabase& db) {
  const uint32_t sets = static_cast<uint32_t>(spec.query_sets.size());
  const uint32_t per_set = (spec.queries + sets - 1) / sets;
  std::vector<Graph> queries;
  for (const auto& [edges, kind] : spec.query_sets) {
    sgq::QuerySet set = sgq::GenerateQuerySet(
        db, kind, edges, per_set,
        Mix(kDataSeed, 100 + edges * 2 + static_cast<uint64_t>(kind)));
    for (Graph& q : set.queries) queries.push_back(std::move(q));
  }
  if (queries.size() > spec.queries) queries.resize(spec.queries);
  return queries;
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> w;
  {
    WorkloadSpec s;
    s.name = "aids_filter";
    s.db = DbKind::kAids;
    s.engine = "CFQL";
    // With one worker the scan runs on one CPU at a time, and qps followed
    // that CPU's share of the shared host: its run-to-run spread was twice
    // that of two workers.
    s.workers = 2;
    s.queries = 600;
    s.query_sets = {{4, kSparse}, {4, kDense}, {8, kSparse},
                   {8, kDense}, {16, kSparse}, {16, kDense}};
    s.open_rate = 125;
    s.oracle_engine = "VF2-scan";
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "dense_enum";
    s.db = DbKind::kDense;
    s.engine = "CFQL";
    s.workers = 2;
    s.queries = 600;
    s.query_sets = {{12, kDense}, {14, kDense}, {16, kDense}};
    s.open_rate = 70;
    // VF2 needs ~55 ms per query here; CFL verifies with its own CPI
    // enumeration, independent of the backtracking CFQL serves with.
    s.oracle_engine = "CFL";
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "big_snapshot";
    s.db = DbKind::kBig;
    s.engine = "CFQL";
    s.workers = 2;
    s.queries = 120;
    // No dense Q16: a 16-edge cyclic query around the hubs can make the
    // first-match search take seconds, and one such query turns the open
    // loop into a backlog.
    s.query_sets = {{4, kSparse}, {4, kDense}, {8, kSparse},
                   {8, kDense}, {16, kSparse}};
    s.open_rate = 1000;
    s.oracle_engine = "GraphQL";
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "routed_hot";
    s.db = DbKind::kAids;
    s.engine = "CFQL";
    s.cache = true;
    s.routed = true;
    s.queries = 1000;
    s.zipf_s = 0.9;
    s.query_sets = {{4, kSparse}, {4, kDense}, {8, kSparse},
                   {8, kDense}, {16, kSparse}, {16, kDense}};
    s.open_rate = 4000;
    s.oracle_engine = "VF2-scan";
    w.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "mixed_rw";
    s.db = DbKind::kAids;
    s.engine = "vcGrapes";
    s.cache = true;
    // Every query equally often: under Zipf the latency tail rests on the
    // few queries the seed's shuffle makes hot, and moved by 30% between
    // seeds.
    s.queries = 300;
    s.query_sets = {{8, kSparse}, {8, kDense}, {16, kSparse}, {16, kDense}};
    s.write_share = 0.2;
    s.reserve = 500;
    s.open_rate = 800;
    s.oracle_engine = "VF2-scan";
    w.push_back(s);
  }
  return w;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>& kWorkloads =
      *new std::vector<WorkloadSpec>(MakeWorkloads());
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadSpec SmokeScaled(const WorkloadSpec& spec) {
  WorkloadSpec s = spec;
  s.queries = std::max<uint32_t>(12, spec.queries / 10);
  s.reserve = spec.reserve / 10;
  s.open_rate = std::max(50.0, spec.open_rate / 4);
  return s;
}

bool GenerateInputs(const WorkloadSpec& spec, bool smoke,
                    const std::string& dir, Inputs* inputs,
                    std::string* error) {
  Inputs in;
  switch (spec.db) {
    case DbKind::kAids:
      in.db = sgq::GenerateStandIn(sgq::ProfileByName("AIDS"),
                                   smoke ? 0.005 : 0.05, 1.0, Mix(kDataSeed, 1));
      break;
    case DbKind::kDense: {
      // One label and degree 6 leave the filter little to prune, and 18
      // vertices bound every backtracking search, so verification
      // dominates without the heavy tail larger graphs produce.
      sgq::SyntheticParams p;
      p.num_graphs = smoke ? 20 : 150;
      p.vertices_per_graph = 18;
      p.degree = 6;
      p.num_labels = 1;
      p.seed = Mix(kDataSeed, 2);
      in.db = sgq::GenerateSyntheticDatabase(p);
      break;
    }
    case DbKind::kBig: {
      sgq::PowerLawParams p;
      p.num_vertices = smoke ? 8192 : 131072;
      p.avg_degree = smoke ? 8 : 16;
      p.num_labels = 64;
      p.label_skew = 0.5;
      p.seed = Mix(kDataSeed, 3);
      in.db.Add(sgq::GeneratePowerLawGraph(p));
      break;
    }
  }
  in.queries = MakeQueries(spec, in.db);
  if (spec.reserve > 0) {
    GraphDatabase reserve = sgq::GenerateStandIn(
        sgq::ProfileByName("AIDS"), spec.reserve / kAidsProfileGraphs, 1.0,
        Mix(kDataSeed, 4));
    for (GraphId g = 0; g < reserve.size() && g < spec.reserve; ++g) {
      in.reserve.push_back(reserve.graph(g));
    }
  }
  if (in.queries.empty()) {
    *error = spec.name + ": query generation produced no queries";
    return false;
  }

  Fnv fnv;
  for (const Graph& g : in.db.graphs()) fnv.Add(g);
  for (const Graph& q : in.queries) {
    in.query_text.push_back(sgq::SerializeGraph(q, 0));
    fnv.Add(in.query_text.back());
  }
  for (const Graph& r : in.reserve) {
    in.reserve_text.push_back(sgq::SerializeGraph(r, 0));
    fnv.Add(in.reserve_text.back());
  }
  in.fingerprint = fnv.value();

  if (spec.db == DbKind::kBig) {
    in.db_path = dir + "/db.csr";
    if (!sgq::WriteSnapshot(in.db, in.db_path, error)) return false;
  } else {
    in.db_path = dir + "/db.txt";
    if (!sgq::SaveDatabase(in.db, in.db_path, error)) return false;
  }
  *inputs = std::move(in);
  return true;
}

namespace {

bool ReadOracle(const std::string& path, const Inputs& inputs, Oracle* out) {
  std::ifstream in(path);
  std::string magic;
  int version = 0;
  uint64_t fingerprint = 0;
  size_t nq = 0, nr = 0;
  if (!(in >> magic >> version >> std::hex >> fingerprint >> std::dec >>
        nq >> nr) ||
      magic != "sgq-e2e-oracle" || version != 1 ||
      fingerprint != inputs.fingerprint || nq != inputs.queries.size() ||
      nr != inputs.reserve.size()) {
    return false;
  }
  Oracle o;
  o.base.resize(nq);
  for (auto& answers : o.base) {
    size_t k = 0;
    if (!(in >> k) || k > inputs.db.size()) return false;
    answers.resize(k);
    for (GraphId& id : answers) {
      if (!(in >> id)) return false;
    }
  }
  if (nr > 0) {
    o.reserve.assign(nq, std::vector<bool>(nr, false));
    for (auto& row : o.reserve) {
      std::string bits;
      if (!(in >> bits) || bits.size() != nr) return false;
      for (size_t r = 0; r < nr; ++r) row[r] = bits[r] == '1';
    }
  }
  *out = std::move(o);
  return true;
}

void WriteOracle(const std::string& path, const Inputs& inputs,
                 const Oracle& o) {
  std::ostringstream os;
  os << "sgq-e2e-oracle 1 " << std::hex << inputs.fingerprint << std::dec
     << ' ' << inputs.queries.size() << ' ' << inputs.reserve.size() << '\n';
  for (const auto& answers : o.base) {
    os << answers.size();
    for (const GraphId id : answers) os << ' ' << id;
    os << '\n';
  }
  for (const auto& row : o.reserve) {
    for (const bool b : row) os << (b ? '1' : '0');
    os << '\n';
  }
  // Write-then-rename so a concurrent or interrupted run never reads a
  // half-written cache.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  std::ofstream(tmp) << os.str();
  std::rename(tmp.c_str(), path.c_str());
}

}  // namespace

bool LoadOrComputeOracle(const WorkloadSpec& spec, const Inputs& inputs,
                         const std::string& cache_path, unsigned threads,
                         Oracle* oracle, bool* cached, std::string* error) {
  if (ReadOracle(cache_path, inputs, oracle)) {
    *cached = true;
    return true;
  }
  *cached = false;
  if (!sgq::IsKnownEngine(spec.oracle_engine)) {
    *error = "unknown oracle engine " + spec.oracle_engine;
    return false;
  }
  GraphDatabase reserve_db;
  for (const Graph& r : inputs.reserve) reserve_db.Add(r);

  Oracle o;
  const size_t nq = inputs.queries.size();
  o.base.resize(nq);
  if (!inputs.reserve.empty()) {
    o.reserve.assign(nq, std::vector<bool>(inputs.reserve.size(), false));
  }
  // Queries are dealt round-robin to threads, each with its own engines
  // (engines keep per-query scratch and are not reentrant).
  std::vector<std::thread> pool;
  threads = std::max(1u, threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      auto base = sgq::MakeEngine(spec.oracle_engine);
      base->Prepare(inputs.db, sgq::Deadline::Infinite());
      std::unique_ptr<sgq::QueryEngine> extra;
      if (!inputs.reserve.empty()) {
        extra = sgq::MakeEngine(spec.oracle_engine);
        extra->Prepare(reserve_db, sgq::Deadline::Infinite());
      }
      for (size_t q = t; q < nq; q += threads) {
        o.base[q] = base->Query(inputs.queries[q]).answers;
        if (extra != nullptr) {
          for (const GraphId r : extra->Query(inputs.queries[q]).answers) {
            o.reserve[q][r] = true;
          }
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  WriteOracle(cache_path, inputs, o);
  *oracle = std::move(o);
  return true;
}

Schedule::Schedule(const WorkloadSpec& spec, uint64_t seed,
                   uint32_t num_queries)
    : spec_(spec),
      rng_(Mix(seed, 5)),
      zipf_(num_queries, spec.zipf_s),
      order_(num_queries) {
  for (uint32_t i = 0; i < num_queries; ++i) order_[i] = i;
  // Fisher-Yates on the raw 64-bit stream: std::shuffle's use of the
  // engine is implementation-defined, this is not.
  for (uint32_t i = num_queries; i > 1; --i) {
    std::swap(order_[i - 1], order_[rng_() % i]);
  }
}

double Schedule::Uniform() {
  return static_cast<double>(rng_() >> 11) * 0x1.0p-53;
}

Request Schedule::Next() {
  Request r;
  if (spec_.write_share > 0 && Uniform() < spec_.write_share) {
    // Writes alternate ADD k, REMOVE k: the live database holds at most
    // one harness-added graph, and REMOVE only ever targets a graph this
    // harness added and saw acknowledged.
    r.op = writes_ % 2 == 0 ? Op::kAdd : Op::kRemove;
    r.index = static_cast<uint32_t>(writes_ / 2);
    ++writes_;
    return r;
  }
  const uint32_t rank = spec_.zipf_s > 0
                            ? zipf_.Sample(Uniform())
                            : static_cast<uint32_t>(reads_ % order_.size());
  r.index = order_[rank];
  // Drawn, not every k-th read: with a cyclic read order a fixed stride
  // would stream the same subset of queries every time.
  r.op = Uniform() < kStreamShare ? Op::kStream : Op::kQuery;
  ++reads_;
  return r;
}

std::string EncodeRequest(const Request& request, const Inputs& inputs) {
  switch (request.op) {
    case Op::kQuery:
    case Op::kStream: {
      const std::string& text = inputs.query_text[request.index];
      return "QUERY " + std::to_string(text.size()) +
             (request.op == Op::kStream ? " STREAM\n" : " IDS\n") + text;
    }
    case Op::kAdd: {
      const std::string& text =
          inputs.reserve_text[request.index % inputs.reserve_text.size()];
      return "ADD GRAPH " + std::to_string(text.size()) + "\n" + text;
    }
    case Op::kRemove:
      return "REMOVE GRAPH " +
             std::to_string(AddedGraphId(inputs, request.index)) + "\n";
  }
  return {};
}

}  // namespace e2e
