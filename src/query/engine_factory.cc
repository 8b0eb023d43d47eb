#include "query/engine_factory.h"

#include "index/ct_index.h"
#include "index/ggsx_index.h"
#include "index/graphgrep_index.h"
#include "index/grapes_index.h"
#include "index/mined_path_index.h"
#include "matching/cfl.h"
#include "matching/cfql.h"
#include "matching/direct_enumeration.h"
#include "matching/graphql.h"
#include "matching/spath.h"
#include "matching/turboiso.h"
#include "matching/vf2.h"
#include "matching/workspace.h"
#include "query/ifv_engine.h"
#include "query/ivcfv_engine.h"
#include "query/parallel_vcfv_engine.h"
#include "query/vcfv_engine.h"
#include "util/logging.h"
#include "util/timer.h"

namespace sgq {

namespace {

// The naive baseline from Section III-B: run (first-match) VF2 against every
// data graph, no filtering at all. Every graph is a "candidate".
class Vf2ScanEngine : public QueryEngine {
 public:
  const char* name() const override { return "VF2-scan"; }

  bool Prepare(const GraphDatabase& db, Deadline deadline) override {
    (void)deadline;
    db_ = &db;
    return true;
  }

  QueryResult Query(const Graph& query, Deadline deadline) const override {
    return Query(query, deadline, /*sink=*/nullptr);
  }

  QueryResult Query(const Graph& query, Deadline deadline,
                    ResultSink* sink) const override {
    SGQ_CHECK(db_ != nullptr);
    QueryResult result;
    // Expired before we start: OOT with zero work done (see vcfv_engine.cc).
    if (deadline.Expired()) {
      result.stats.timed_out = true;
      return result;
    }
    DeadlineChecker checker(deadline);
    WallTimer verify_timer;
    result.stats.num_candidates = db_->size();
    for (GraphId g = 0; g < db_->size(); ++g) {
      const int outcome =
          verifier_.Contains(query, db_->graph(g), &checker, &workspace_);
      ++result.stats.si_tests;
      bool sink_stopped = false;
      if (outcome == 1) {
        result.answers.push_back(g);
        if (sink != nullptr) sink_stopped = !sink->OnAnswer(g);
      }
      if (outcome == -1 || deadline.Expired()) {
        result.stats.timed_out = true;
        break;
      }
      if (sink_stopped) break;
      if (sink != nullptr && (g % kSinkFlushIntervalGraphs) ==
                                 kSinkFlushIntervalGraphs - 1) {
        sink->FlushHint();
      }
    }
    if (sink != nullptr) sink->FlushHint();
    result.stats.verification_ms = verify_timer.ElapsedMillis();
    result.stats.num_answers = result.answers.size();
    return result;
  }

  size_t IndexMemoryBytes() const override { return 0; }

 private:
  Vf2 verifier_;
  mutable MatchWorkspace workspace_;
  const GraphDatabase* db_ = nullptr;
};

GrapesOptions GrapesOptionsFrom(const EngineConfig& config) {
  GrapesOptions o;
  o.max_path_edges = config.max_path_edges;
  o.num_threads = config.grapes_threads;
  o.memory_limit_bytes = config.index_memory_limit_bytes;
  return o;
}

GgsxOptions GgsxOptionsFrom(const EngineConfig& config) {
  GgsxOptions o;
  o.max_path_edges = config.max_path_edges;
  o.memory_limit_bytes = config.index_memory_limit_bytes;
  return o;
}

CtIndexOptions CtOptionsFrom(const EngineConfig& config) {
  CtIndexOptions o;
  o.fingerprint_bits = config.ct_fingerprint_bits;
  o.max_tree_edges = config.ct_max_tree_edges;
  o.max_cycle_length = config.ct_max_cycle_length;
  return o;
}

using EngineBuilder = std::unique_ptr<QueryEngine> (*)(
    const std::string& name, const EngineConfig& config);

// vcFV: matcher preprocessing filter + first-match enumeration.
template <typename M>
std::unique_ptr<QueryEngine> BuildVcfv(const std::string& name,
                                       const EngineConfig&) {
  return std::make_unique<VcfvEngine>(name, std::make_unique<M>());
}

struct EngineEntry {
  const char* name;
  EngineBuilder build;
};

// Every engine MakeEngine builds. The first kTableThreeEngines rows are the
// paper's Table III, in paper order.
constexpr size_t kTableThreeEngines = 8;
constexpr EngineEntry kEngines[] = {
    // IFV (Table III): index filter + VF2 verification.
    {"CT-Index",
     [](const std::string& name,
        const EngineConfig& config) -> std::unique_ptr<QueryEngine> {
       return std::make_unique<IfvEngine>(
           name, std::make_unique<CtIndex>(CtOptionsFrom(config)),
           Vf2Options{.heuristic_order = true});
     }},
    {"Grapes",
     [](const std::string& name,
        const EngineConfig& config) -> std::unique_ptr<QueryEngine> {
       return std::make_unique<IfvEngine>(
           name, std::make_unique<GrapesIndex>(GrapesOptionsFrom(config)));
     }},
    {"GGSX",
     [](const std::string& name,
        const EngineConfig& config) -> std::unique_ptr<QueryEngine> {
       return std::make_unique<IfvEngine>(
           name, std::make_unique<GgsxIndex>(GgsxOptionsFrom(config)));
     }},
    {"CFL", BuildVcfv<CflMatcher>},
    {"GraphQL", BuildVcfv<GraphQlMatcher>},
    {"CFQL", BuildVcfv<CfqlMatcher>},
    // IvcFV: index filter + CFQL filter + CFQL verification.
    {"vcGrapes",
     [](const std::string& name,
        const EngineConfig& config) -> std::unique_ptr<QueryEngine> {
       return std::make_unique<IvcfvEngine>(
           name, std::make_unique<GrapesIndex>(GrapesOptionsFrom(config)),
           std::make_unique<CfqlMatcher>());
     }},
    {"vcGGSX",
     [](const std::string& name,
        const EngineConfig& config) -> std::unique_ptr<QueryEngine> {
       return std::make_unique<IvcfvEngine>(
           name, std::make_unique<GgsxIndex>(GgsxOptionsFrom(config)),
           std::make_unique<CfqlMatcher>());
     }},
    // Extensions beyond the paper's Table III. The remaining index
    // families of its Table II: gIndex-style mining and GraphGrep [30],
    // the original hash-table path index.
    {"MinedPath",
     [](const std::string& name,
        const EngineConfig& config) -> std::unique_ptr<QueryEngine> {
       MinedPathOptions options;
       options.max_path_edges = config.max_path_edges;
       options.memory_limit_bytes = config.index_memory_limit_bytes;
       return std::make_unique<IfvEngine>(
           name, std::make_unique<MinedPathIndex>(options));
     }},
    {"GraphGrep",
     [](const std::string& name,
        const EngineConfig& config) -> std::unique_ptr<QueryEngine> {
       GraphGrepOptions options;
       options.max_path_edges = config.max_path_edges;
       options.memory_limit_bytes = config.index_memory_limit_bytes;
       return std::make_unique<IfvEngine>(
           name, std::make_unique<GraphGrepIndex>(options));
     }},
    // TurboIso as a third vcFV algorithm (the paper names it as equally
    // modifiable), and the direct-enumeration algorithms as vcFV-style
    // scans for comparison.
    {"TurboIso", BuildVcfv<TurboIsoMatcher>},
    {"Ullmann", BuildVcfv<UllmannMatcher>},
    {"QuickSI", BuildVcfv<QuickSiMatcher>},
    {"SPath", BuildVcfv<SPathMatcher>},
    {"CFQL-parallel",
     [](const std::string&,
        const EngineConfig& config) -> std::unique_ptr<QueryEngine> {
       return std::make_unique<ParallelVcfvEngine>(config.parallel_threads);
     }},
    {"VF2-scan",
     [](const std::string&, const EngineConfig&)
         -> std::unique_ptr<QueryEngine> {
       return std::make_unique<Vf2ScanEngine>();
     }},
};

const EngineEntry* FindEngine(const std::string& name) {
  for (const EngineEntry& entry : kEngines) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<QueryEngine> MakeEngine(const std::string& name,
                                        const EngineConfig& config) {
  const EngineEntry* entry = FindEngine(name);
  if (entry == nullptr) {
    SGQ_LOG(Fatal) << "unknown engine: " << name;
    return nullptr;
  }
  return entry->build(name, config);
}

bool IsKnownEngine(const std::string& name) {
  return FindEngine(name) != nullptr;
}

const std::vector<std::string>& AllEngineNames() {
  static const std::vector<std::string>& kNames = *[] {
    auto* names = new std::vector<std::string>;
    for (size_t i = 0; i < kTableThreeEngines; ++i) {
      names->push_back(kEngines[i].name);
    }
    return names;
  }();
  return kNames;
}

}  // namespace sgq
