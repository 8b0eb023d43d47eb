#include "replay.h"

#include <algorithm>
#include <fstream>
#include <memory>

#include "cache/canonical.h"
#include "cache/result_cache.h"
#include "graph/graph_io.h"
#include "index/grapes_index.h"
#include "index/vertex_candidate_index.h"
#include "loadgen.h"
#include "matching/candidate_space.h"
#include "matching/cfql.h"
#include "matching/workspace.h"
#include "query/engine_factory.h"
#include "router/scatter_gather.h"
#include "service/cost_model.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "stats.h"
#include "util/defaults.h"

namespace e2e {

using sgq::Graph;
using sgq::GraphDatabase;
using sgq::GraphId;

namespace {

double MsSince(double start_s) { return (NowSeconds() - start_s) * 1e3; }

// First-level root: the query vertex of highest degree (lowest id on
// ties), the vertex whose candidate scan a matcher's root choice favours.
sgq::VertexId FirstLevelRoot(const Graph& q) {
  sgq::VertexId root = 0;
  for (sgq::VertexId u = 1; u < q.NumVertices(); ++u) {
    if (q.degree(u) > q.degree(root)) root = u;
  }
  return root;
}

// Counters of one decomposed scan.
struct ScanCounts {
  std::vector<GraphId> answers;
  uint64_t filter_calls = 0;
  uint64_t passed = 0;
  uint64_t phi_total = 0;
  uint64_t recursion_calls = 0;
  uint64_t index_candidates = 0;
};

// The engine's scan re-done through the matcher's public calls: index
// filter (vcGrapes), first-level candidates, then per data graph CFQL's
// Filter, JoinBasedOrder and first-match BacktrackOverCandidates — the
// filter / order / enumerate split. Spans go to `tracer` (which may be
// disabled, for the overhead comparison).
ScanCounts Scan(Tracer* tracer, uint32_t rid, const Graph& q,
                const GraphDatabase& db, const sgq::GrapesIndex* index,
                sgq::MatchWorkspace* ws) {
  static const sgq::CfqlMatcher kMatcher;
  ScanCounts counts;
  Tracer::Scope scan(tracer, "matching.scan", rid);
  std::vector<GraphId> candidates;
  if (index != nullptr) {
    Tracer::Scope s(tracer, "index.filter", rid);
    candidates = index->FilterCandidates(q);
  } else {
    candidates.resize(db.size());
    for (GraphId g = 0; g < db.size(); ++g) candidates[g] = g;
  }
  counts.index_candidates = candidates.size();
  {
    Tracer::Scope s(tracer, "index.first_level", rid);
    const sgq::VertexId root = FirstLevelRoot(q);
    std::vector<sgq::VertexId> buffer;
    for (const GraphId g : candidates) {
      sgq::LdfNlfCandidatesInto(q, db.graph(g), root, /*use_nlf=*/true,
                                &buffer);
    }
  }
  for (const GraphId g : candidates) {
    const Graph& data = db.graph(g);
    const sgq::FilterData* fd = nullptr;
    {
      Tracer::Scope s(tracer, "matching.filter", rid);
      fd = kMatcher.Filter(q, data, ws);
    }
    ++counts.filter_calls;
    if (!fd->Passed()) continue;
    ++counts.passed;
    counts.phi_total += fd->phi.TotalCandidates();
    const std::vector<sgq::VertexId>* order = nullptr;
    {
      Tracer::Scope s(tracer, "matching.order", rid);
      order = &sgq::JoinBasedOrder(q, fd->phi, ws);
    }
    sgq::EnumerateResult er;
    {
      Tracer::Scope s(tracer, "matching.enumerate", rid);
      er = sgq::BacktrackOverCandidates(q, data, fd->phi, *order, /*limit=*/1,
                                        /*checker=*/nullptr,
                                        /*callback=*/nullptr, ws);
    }
    counts.recursion_calls += er.recursion_calls;
    if (er.embeddings > 0) counts.answers.push_back(g);
  }
  return counts;
}

// Mean span duration in microseconds (0 when the span never ran).
double MeanUs(const Tracer& t, const char* name) {
  const uint64_t calls = t.Calls(name);
  return calls == 0 ? 0 : t.TotalMs(name) * 1e3 / static_cast<double>(calls);
}

}  // namespace

bool RunReplay(const ReplayInput& input, ReplayOutput* output,
               std::string* error) {
  const WorkloadSpec& spec = *input.spec;
  const Inputs& in = *input.inputs;
  auto& m = output->metrics;
  // Layers only some workloads use report 0 elsewhere; emplace keeps what
  // MeasureRouter already measured.
  for (const char* name : {"index.build_ms", "router.scatter_ms",
                           "router.overhead_ms", "router.merge_us"}) {
    m.emplace(name, 0);
  }
  Tracer tracer(true);
  Tracer untraced(false);

  // Load exactly as the server does (snapshot files are auto-detected and
  // mapped), three times; the last load is the one replayed against.
  GraphDatabase db;
  std::vector<double> loads;
  for (int i = 0; i < 3; ++i) {
    db = GraphDatabase();
    const double t = NowSeconds();
    if (!sgq::LoadDatabase(in.db_path, &db, error)) return false;
    loads.push_back(MsSince(t));
  }
  m["graph.load_ms"] = Median(loads);
  m["graph.csr_mb"] = static_cast<double>(db.MemoryBytes()) / (1 << 20);
  {
    const double t = NowSeconds();
    sgq::AttachCandidateIndexes(&db, sgq::kDefaultCandidateIndexMinVertices);
    m["index.cand_build_ms"] = MsSince(t);
  }
  std::unique_ptr<sgq::QueryEngine> engine = sgq::MakeEngine(spec.engine);
  {
    const double t = NowSeconds();
    if (!engine->Prepare(db, sgq::Deadline::Infinite())) {
      *error = "replay: engine preparation failed";
      return false;
    }
    m["query.prepare_ms"] = MsSince(t);
  }
  // vcGrapes filters through a Grapes index first; the replay owns one to
  // time that layer (and its incremental maintenance) on its own.
  std::unique_ptr<sgq::GrapesIndex> index;
  if (spec.engine == "vcGrapes") {
    index = std::make_unique<sgq::GrapesIndex>();
    const double t = NowSeconds();
    if (!index->Build(db, sgq::Deadline::Infinite())) {
      *error = "replay: Grapes index build failed";
      return false;
    }
    m["index.build_ms"] = MsSince(t);
  }
  sgq::CostModel cost_model;
  cost_model.Build(db);
  sgq::ResultCache cache{sgq::CacheConfig{}};
  sgq::MatchWorkspace ws;

  ScanCounts totals;
  uint64_t oracle_answers = 0;
  double scan_on_s = 0, scan_off_s = 0;
  std::vector<double> engine_us;
  std::vector<const Graph*> read_queries;
  std::vector<uint32_t> writes;  // stream positions
  for (uint32_t rid = 0; rid < input.requests.size(); ++rid) {
    const Request& request = input.requests[rid];
    if (IsWrite(request.op)) {
      writes.push_back(rid);
      continue;
    }
    const std::string bytes = EncodeRequest(request, in);
    Tracer::Scope whole(&tracer, "request", rid);
    Graph q;
    {
      Tracer::Scope s(&tracer, "service.parse", rid);
      sgq::RequestParser parser;
      parser.Feed(bytes);
      sgq::Request parsed;
      if (parser.Next(&parsed, error) != sgq::RequestParser::Status::kReady ||
          !sgq::ParseSingleGraph(parsed.graph_text, &q, error)) {
        *error = "replay: request did not parse: " + *error;
        return false;
      }
    }
    sgq::CacheKey key;
    key.engine = spec.engine;
    {
      Tracer::Scope s(&tracer, "cache.canon", rid);
      key.hash = sgq::CanonicalQueryHash(q);
    }
    sgq::QueryResult cached;
    bool hit = false;
    {
      Tracer::Scope s(&tracer, "cache.lookup", rid);
      hit = cache.Lookup(key, cache.mutation_seq(), &cached);
    }
    {
      Tracer::Scope s(&tracer, "service.cost", rid);
      cost_model.Estimate(q);
    }
    // The engine's scan decomposed into its layers, once traced and once
    // not (alternating which goes first) for the cost of tracing itself.
    // It runs before the engine call, so both see equally warm caches.
    ScanCounts counts;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (rid % 2 == 0);
      const double t = NowSeconds();
      ScanCounts c = Scan(traced ? &tracer : &untraced, rid, q, db,
                          index.get(), &ws);
      (traced ? scan_on_s : scan_off_s) += NowSeconds() - t;
      if (traced) counts = std::move(c);
    }
    // The engine always runs, hit or not: the replay measures every layer
    // on every request.
    sgq::QueryResult result;
    {
      const double t = NowSeconds();
      Tracer::Scope s(&tracer, "query.engine", rid);
      result = engine->Query(q);
      engine_us.push_back((NowSeconds() - t) * 1e6);
    }
    {
      Tracer::Scope s(&tracer, "service.format", rid);
      sgq::FormatQueryResponse(result, nullptr, /*with_ids=*/true);
    }
    if (!hit) {
      Tracer::Scope s(&tracer, "cache.insert", rid);
      cache.Insert(key, result, cache.mutation_seq(), sgq::GraphFeaturesOf(q));
    }
    totals.filter_calls += counts.filter_calls;
    totals.passed += counts.passed;
    totals.phi_total += counts.phi_total;
    totals.recursion_calls += counts.recursion_calls;
    totals.index_candidates += counts.index_candidates;

    const auto& expected = input.oracle->base[request.index];
    oracle_answers += expected.size();
    const auto served = input.served.find(rid);
    if (result.answers != expected || counts.answers != expected ||
        (served != input.served.end() && served->second != expected)) {
      output->mismatches.push_back(
          spec.name + " request " + std::to_string(rid) +
          ": replay answers differ from the served/oracle answers");
    }
    read_queries.push_back(&in.queries[request.index]);
  }
  const double reads = std::max<double>(1, static_cast<double>(read_queries.size()));

  // In-process QueryService (cache off, one worker): what Execute adds on
  // top of the engine call, then the write path.
  sgq::ServiceConfig config;
  config.engine_name = spec.engine;
  config.workers = 1;
  config.engine.cache_mb = 0;
  sgq::QueryService service(config);
  if (!service.Start(db.Clone(), error)) return false;
  std::vector<double> overhead_us;
  for (size_t i = 0; i < read_queries.size(); ++i) {
    const double t = NowSeconds();
    service.Execute(*read_queries[i]);
    overhead_us.push_back((NowSeconds() - t) * 1e6 - engine_us[i]);
  }
  m["service.execute_overhead_us"] = Median(overhead_us);

  // Writes, in stream order: cache purge, index maintenance, service
  // publish. Writes alternate ADD k / REMOVE k, so the added graph is
  // always the last logical graph when it is removed.
  for (const uint32_t rid : writes) {
    const Request& w = input.requests[rid];
    if (w.op == Op::kAdd) {
      const Graph& g = in.reserve[w.index % in.reserve.size()];
      {
        Tracer::Scope s(&tracer, "cache.apply", rid);
        cache.ApplyAdd(sgq::GraphFeaturesOf(g));
      }
      if (index != nullptr) {
        Tracer::Scope s(&tracer, "index.append", rid);
        index->AppendGraph(g, sgq::Deadline::Infinite());
      }
      Tracer::Scope s(&tracer, "update.add", rid);
      if (!service.AddGraph(g).ok) {
        *error = "replay: in-process ADD failed";
        return false;
      }
    } else {
      const GraphId gid = AddedGraphId(in, w.index);
      {
        Tracer::Scope s(&tracer, "cache.apply", rid);
        cache.ApplyRemove(gid);
      }
      if (index != nullptr) {
        Tracer::Scope s(&tracer, "index.remove", rid);
        index->OnOrderedRemove(static_cast<GraphId>(db.size()));
      }
      Tracer::Scope s(&tracer, "update.remove", rid);
      if (!service.RemoveGraph(gid).ok) {
        *error = "replay: in-process REMOVE of " + std::to_string(gid) +
                 " failed";
        return false;
      }
    }
  }
  service.Shutdown();

  m["service.parse_us"] = MeanUs(tracer, "service.parse");
  m["cache.canon_us"] = MeanUs(tracer, "cache.canon");
  m["cache.lookup_us"] = MeanUs(tracer, "cache.lookup");
  m["cache.insert_us"] = MeanUs(tracer, "cache.insert");
  m["service.cost_us"] = MeanUs(tracer, "service.cost");
  m["query.engine_ms"] = MeanUs(tracer, "query.engine") / 1e3;
  m["service.format_us"] = MeanUs(tracer, "service.format");
  m["index.filter_us"] = MeanUs(tracer, "index.filter");
  m["index.first_level_us"] = MeanUs(tracer, "index.first_level");
  m["index.append_us"] = MeanUs(tracer, "index.append");
  m["index.remove_us"] = MeanUs(tracer, "index.remove");
  m["cache.apply_us"] = MeanUs(tracer, "cache.apply");
  m["update.add_us"] = MeanUs(tracer, "update.add");
  m["update.remove_us"] = MeanUs(tracer, "update.remove");
  // Per query, summed over the data graphs it scanned.
  m["matching.filter_us"] = tracer.TotalMs("matching.filter") * 1e3 / reads;
  m["matching.order_us"] = tracer.TotalMs("matching.order") * 1e3 / reads;
  m["matching.enumerate_us"] =
      tracer.TotalMs("matching.enumerate") * 1e3 / reads;
  m["matching.phi_total"] = static_cast<double>(totals.phi_total) / reads;
  m["matching.recursion_calls"] =
      static_cast<double>(totals.recursion_calls) / reads;
  m["matching.filter_pass_ratio"] =
      totals.filter_calls == 0 ? 0
                               : static_cast<double>(totals.passed) /
                                     static_cast<double>(totals.filter_calls);
  m["index.precision"] =
      index == nullptr || totals.index_candidates == 0
          ? 0
          : static_cast<double>(oracle_answers) /
                static_cast<double>(totals.index_candidates);
  m["trace_overhead_frac"] = scan_off_s > 0 ? scan_on_s / scan_off_s - 1 : 0;

  output->summary = tracer.Summarize();
  if (!input.chrome_trace_path.empty()) {
    std::ofstream(input.chrome_trace_path) << tracer.ChromeJson(50000);
  }
  return true;
}

bool MeasureRouter(const ReplayInput& input,
                   const std::vector<std::string>& shard_sockets,
                   const std::string& router_socket, ReplayOutput* output,
                   std::string* error) {
  const Inputs& in = *input.inputs;
  sgq::RouterConfig config;
  for (const std::string& socket : shard_sockets) {
    sgq::ShardEndpoint endpoint;
    endpoint.unix_path = socket;
    config.shards.push_back(endpoint);
  }
  sgq::ScatterGather scatter(config);
  std::vector<sgq::UniqueFd> shards;
  for (const std::string& socket : shard_sockets) {
    shards.push_back(sgq::ConnectUnix(socket, error));
    if (!shards.back().valid()) return false;
  }
  sgq::UniqueFd router = sgq::ConnectUnix(router_socket, error);
  if (!router.valid()) return false;

  std::vector<double> scatter_ms, routed_ms, merge_us;
  for (size_t rid = 0; rid < input.requests.size(); ++rid) {
    const Request& request = input.requests[rid];
    if (IsWrite(request.op)) continue;
    const std::string& text = in.query_text[request.index];
    const auto& expected = input.oracle->base[request.index];

    double t = NowSeconds();
    const sgq::MergedQuery merged = scatter.Query(text, 0, 0);
    scatter_ms.push_back(MsSince(t));
    if (!merged.ok || merged.result.answers != expected) {
      output->mismatches.push_back("scatter-gather answer differs for request " +
                                   std::to_string(rid));
    }

    const Request batch{Op::kQuery, request.index};
    const std::string bytes = EncodeRequest(batch, in);
    std::vector<sgq::ShardQueryReply> replies;
    for (sgq::UniqueFd& fd : shards) {
      Completion c;
      if (!Exchange(fd.get(), bytes, Op::kQuery, 30, &c, error)) return false;
      sgq::ShardQueryReply reply;
      reply.ok = c.ok;
      reply.stats = c.stats;
      reply.ids = c.ids;
      replies.push_back(std::move(reply));
    }
    t = NowSeconds();
    const sgq::MergedQuery local = sgq::MergeShardResults(
        replies, sgq::ShardFailurePolicy::kError, /*limit=*/0);
    merge_us.push_back((NowSeconds() - t) * 1e6);
    if (!local.ok || local.result.answers != expected) {
      output->mismatches.push_back("merged shard replies differ for request " +
                                   std::to_string(rid));
    }

    Completion c;
    if (!Exchange(router.get(), bytes, Op::kQuery, 30, &c, error)) return false;
    routed_ms.push_back((c.done_s - c.sent_s) * 1e3);
    if (!c.ok || c.ids != expected) {
      output->mismatches.push_back("routed answer differs for request " +
                                   std::to_string(rid));
    }
  }
  auto& m = output->metrics;
  m["router.scatter_ms"] = Median(scatter_ms);
  m["router.overhead_ms"] = Median(routed_ms) - Median(scatter_ms);
  double sum = 0;
  for (const double us : merge_us) sum += us;
  m["router.merge_us"] =
      merge_us.empty() ? 0 : sum / static_cast<double>(merge_us.size());
  return true;
}

}  // namespace e2e
