#include "runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "algebra/derivation.h"
#include "algebra/intern.h"
#include "api/engine.h"
#include "core/json.h"
#include "core/profile.h"
#include "core/trace.h"
#include "digest.h"
#include "host.h"
#include "opt/enumerate.h"
#include "opt/optimizer.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "tql/lexer.h"
#include "tql/parser.h"
#include "tql/translator.h"
#include "workload.h"

namespace qbench {

namespace {

using Clock = std::chrono::steady_clock;
using tqp::Status;
using tqp::TraceSpan;

/// Set-ups per end-to-end run; setup_s is their median.
constexpr size_t kSetups = 5;
/// A traced statement's child spans must cover its root span up to this
/// share of the root, or kSpanSlackNs, whichever is larger. The remainder is
/// span bookkeeping between consecutive calls.
constexpr double kSpanSlackShare = 0.05;
constexpr uint64_t kSpanSlackNs = 200'000;

/// Operator kinds the workloads run, per executor (OpKindName spelling).
const std::vector<std::string>& ExecKinds() {
  static const std::vector<std::string> kinds = {
      "scan",      "select",    "project",    "sort",     "rdup",
      "rdupT",     "coalT",     "differenceT", "aggregate", "aggregateT",
      "union-all", "productT",  "transferS"};
  return kinds;
}
const std::vector<std::string>& VexecKinds() {
  static const std::vector<std::string> kinds = {
      "scan",  "select", "project",     "sort",      "rdup",
      "rdupT", "coalT",  "differenceT", "aggregate", "aggregateT",
      "transferS"};
  return kinds;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The nearest-rank position (1-based) of quantile `q` among `n` samples.
size_t Rank(size_t n, double q) {
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, std::max<size_t>(n, 1));
}

/// The served side: an Engine behind a loopback Server, and its clients.
class Service {
 public:
  Status Start(const Workload& w, size_t clients) {
    engine_ = std::make_unique<tqp::Engine>(w.catalog, w.options);
    server_ = std::make_unique<tqp::Server>(engine_.get(), tqp::ServerOptions{});
    TQP_RETURN_IF_ERROR(server_->Start());
    for (size_t i = 0; i < clients; ++i) {
      clients_.push_back(std::make_unique<tqp::ServiceClient>());
      TQP_RETURN_IF_ERROR(
          clients_.back()->Connect(server_->host(), server_->port()));
    }
    for (const std::string& text : w.warmup) {
      TQP_ASSIGN_OR_RETURN(out, clients_[0]->RunQuery(text));
      if (!out.ok) return Status::Error("warm-up failed: " + out.error);
    }
    return Status::OK();
  }

  /// Disconnects the clients and stops the server; the Engine stays.
  void Stop() {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
  }

  tqp::Engine* engine() { return engine_.get(); }
  tqp::ServiceClient& client(size_t i) { return *clients_[i]; }

 private:
  // Members are destroyed in reverse: clients disconnect, the server stops
  // and joins its threads, then the Engine goes.
  std::unique_ptr<tqp::Engine> engine_;
  std::unique_ptr<tqp::Server> server_;
  std::vector<std::unique_ptr<tqp::ServiceClient>> clients_;
};

/// Leaves `object` for process exit to reclaim. Destroying an Engine that
/// prepared thousands of distinct queries takes seconds, because its session
/// caches hold every plan it enumerated; once the run is measured that time
/// buys nothing.
template <typename T>
void FreeAtExit(std::unique_ptr<T> object) {
  static_cast<void>(object.release());
}

/// Installs the statement's catalog version through MutateCatalog. With a
/// history, the new state is recorded under the exclusive catalog lock.
Status ApplyWrite(tqp::Engine* engine, const Workload& w, const Statement& s,
                  StateHistory* history) {
  const tqp::CatalogEntry& entry = w.versions.at(s.relation).at(s.version);
  return engine->MutateCatalog([&](tqp::Catalog& catalog) -> Status {
    TQP_RETURN_IF_ERROR(catalog.Update(s.relation, entry));
    if (history != nullptr) history->Append(s.relation, s.version);
    return Status::OK();
  });
}

void Fail(RunReport* report, const std::string& what) {
  std::fprintf(stderr, "qbench: %s\n", what.c_str());
  report->attempted = std::max<uint64_t>(report->attempted, 1);
  ++report->failed;
}

size_t Threads() { return std::max(1u, std::thread::hardware_concurrency()); }

// ---- End-to-end ------------------------------------------------------------

struct ClientLog {
  std::vector<ReadRecord> reads;
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t writes = 0;
  /// Failed writes and lost connections; wrong answers are counted later.
  uint64_t failed = 0;
  Clock::time_point finished;
};

void ClientLoop(const Workload& w, size_t c, Service* svc,
                StateHistory* history, Clock::time_point deadline,
                ClientLog* log) {
  StatementStream stream(w.name, w.seed, c);
  while (Clock::now() < deadline) {
    const Statement s = stream.Next();
    ++log->attempted;
    if (s.write) {
      ++log->writes;
      if (!ApplyWrite(svc->engine(), w, s, history).ok()) ++log->failed;
      continue;
    }
    ReadRecord r;
    r.text = s.text;
    r.first_state = history->Last();
    const auto t0 = Clock::now();
    auto out = svc->client(c).RunQuery(s.text, /*capture_raw=*/true);
    const auto t1 = Clock::now();
    r.last_state = history->Last();
    if (!out.ok()) {  // the connection is gone; nothing more to send
      std::fprintf(stderr, "qbench: client %zu: %s\n", c,
                   out.status().message().c_str());
      ++log->failed;
      break;
    }
    log->latency_ms.push_back(1e3 * Seconds(t1 - t0));
    r.ok = out->ok;
    if (r.ok) {
      r.digest = ReplyDigest(out->raw);
    } else {
      std::fprintf(stderr, "qbench: error reply to \"%s\": %s\n",
                   s.text.c_str(), out->error.c_str());
    }
    log->reads.push_back(std::move(r));
  }
  log->finished = Clock::now();
}

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> metrics = {
      {"qps", 0, "1/s"},          {"latency_p50_ms", 0, "ms"},
      {"latency_p99_ms", 0, "ms"}, {"setup_s", 0, "s"},
      {"peak_rss_mb", 0, "MiB"},
  };
  return metrics;
}

}  // namespace

RunReport RunEndToEnd(const RunConfig& config) {
  RunReport report;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  std::unique_ptr<Service> svc;
  for (size_t i = 0; i < kSetups; ++i) {
    svc.reset();  // tear-down of the previous set-up is not timed
    w.reset();
    const auto t0 = Clock::now();
    w = std::make_unique<Workload>(MakeWorkload(config.workload, config.seed));
    svc = std::make_unique<Service>();
    const Status st = svc->Start(*w, w->clients);
    if (!st.ok()) {
      Fail(&report, "set-up failed: " + st.message());
      return report;
    }
    setup_s.push_back(Seconds(Clock::now() - t0));
  }

  StateHistory history;
  std::vector<ClientLog> logs(w->clients);
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w->clients; ++c) {
    threads.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      ClientLoop(*w, c, svc.get(), &history, deadline, &logs[c]);
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config.seconds));
    go = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  const double peak_rss = PeakRssMb();
  const tqp::EngineStats served = svc->engine()->stats();
  svc->Stop();
  FreeAtExit(std::move(svc));

  Clock::time_point end = start;
  std::vector<double> latency;
  std::vector<ReadRecord> records;
  uint64_t writes = 0;
  for (ClientLog& log : logs) {
    end = std::max(end, log.finished);
    report.attempted += log.attempted;
    report.failed += log.failed;
    writes += log.writes;
    latency.insert(latency.end(), log.latency_ms.begin(), log.latency_ms.end());
    for (ReadRecord& r : log.reads) records.push_back(std::move(r));
  }
  ReferenceOracle oracle(*w);
  const uint64_t wrong = oracle.CountFailures(records, history, Threads());
  report.failed += wrong;

  std::sort(latency.begin(), latency.end());
  const size_t n = latency.size();
  const size_t beyond_p99 = n - std::min(n, Rank(n, 0.99));
  const double elapsed = Seconds(end - start);
  std::map<std::string, double> v;
  v["qps"] = elapsed > 0.0 ? static_cast<double>(report.attempted) / elapsed
                           : 0.0;
  v["latency_p50_ms"] = n == 0 ? 0.0 : latency[Rank(n, 0.50) - 1];
  v["latency_p99_ms"] = n == 0 ? 0.0 : latency[Rank(n, 0.99) - 1];
  v["setup_s"] = Median(setup_s);
  v["peak_rss_mb"] = peak_rss;
  report.metrics = EndToEndMetrics();
  for (Metric& m : report.metrics) m.value = v.at(m.name);

  tqp::JsonWriter d;
  d.BeginObject();
  d.Key("elapsed_s").Double(elapsed);
  d.Key("clients").Uint(w->clients);
  d.Key("reads").Uint(records.size());
  d.Key("writes").Uint(writes);
  d.Key("wrong_or_error_replies").Uint(wrong);
  d.Key("error_rate")
      .Double(report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted));
  d.Key("latency_samples").Uint(latency.size());
  d.Key("samples_beyond_p99").Uint(beyond_p99);
  d.Key("setup_s_each").BeginArray();
  for (double s : setup_s) d.Double(s);
  d.EndArray();
  d.Key("served_plan_cache_hits").Uint(served.plan_cache_hits);
  d.Key("served_plan_cache_misses").Uint(served.plan_cache_misses);
  d.Key("served_result_cache_hits").Uint(served.result_cache_hits);
  d.Key("served_result_cache_misses").Uint(served.result_cache_misses);
  d.EndObject();
  report.details_json = d.Take();
  if (beyond_p99 < 10) {
    std::fprintf(stderr,
                 "qbench: only %zu samples beyond p99; run longer for a "
                 "resolved latency_p99_ms\n",
                 beyond_p99);
  }
  return report;
}

// ---- Traced ----------------------------------------------------------------

namespace {

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> metrics = [] {
    std::vector<Metric> m = {
        {"tql.lex.us_per_call", 0, "us"},
        {"tql.parse.us_per_call", 0, "us"},
        {"tql.translate.us_per_call", 0, "us"},
        {"opt.enumerate.ms_per_call", 0, "ms"},
        {"opt.optimize.ms_per_call", 0, "ms"},
        {"opt.plans_per_call", 0, "count"},
        {"opt.truncated_share", 0, "ratio"},
        {"algebra.annotate.us_per_call", 0, "us"},
        {"api.query.ms_per_call", 0, "ms"},
        {"api.plan_cache.hit_ratio", 0, "ratio"},
        {"api.prepares_per_kop", 0, "count"},
        {"api.plan_cache.stale_evictions_per_write", 0, "count"},
        {"api.catalog_mutate.ms_per_call", 0, "ms"},
        {"exec.evaluate.ms_per_query", 0, "ms"},
    };
    for (const std::string& k : ExecKinds()) {
      m.push_back({"exec.op." + k + ".self_ms_per_query", 0, "ms"});
    }
    m.push_back({"exec.result_cache.hit_ratio", 0, "ratio"});
    m.push_back({"exec.result_cache.evictions_per_kop", 0, "count"});
    m.push_back({"vexec.execute.ms_per_query", 0, "ms"});
    for (const std::string& k : VexecKinds()) {
      m.push_back({"vexec.op." + k + ".self_ms_per_query", 0, "ms"});
    }
    for (const Metric& x : std::vector<Metric>{
             {"vexec.rows_per_s", 0, "rows/s"},
             {"vexec.materializations_per_query", 0, "count"},
             {"vexec.steal_ratio", 0, "ratio"},
             {"backend.pushdowns_per_query", 0, "count"},
             {"backend.pushdown_ratio", 0, "ratio"},
             {"backend.rows_per_query", 0, "count"},
             {"backend.pushed.self_ms_per_query", 0, "ms"},
             {"backend.sync.ms_per_write", 0, "ms"},
             {"service.framing.ms_per_query", 0, "ms"},
             {"service.frame_bytes_per_row", 0, "B/row"},
         }) {
      m.push_back(x);
    }
    return m;
  }();
  return metrics;
}

/// Runs `fn` inside a span named `name` and returns its result.
template <typename Fn>
auto Span(tqp::Tracer* tracer, const char* cat, const char* name, Fn&& fn) {
  TraceSpan span(tracer, cat, name);
  return fn();
}

/// Counters the traced run reads from the twin's results (spans carry the
/// times).
struct LayerCounts {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t optimizes = 0;
  uint64_t plans = 0;
  uint64_t truncated = 0;
  uint64_t exec_ns = 0;
  uint64_t vexec_ns = 0;
  std::map<std::string, uint64_t> exec_op_ns;
  std::map<std::string, uint64_t> vexec_op_ns;
  uint64_t pushed_ns = 0;
  uint64_t vec_rows = 0;
  uint64_t materializations = 0;
  uint64_t morsels = 0;
  uint64_t steals = 0;
  uint64_t pushdowns = 0;
  uint64_t refusals = 0;
  uint64_t fallbacks = 0;
  uint64_t backend_rows = 0;
  uint64_t rc_hits = 0;
  uint64_t rc_misses = 0;
  uint64_t frame_bytes = 0;
  uint64_t frame_rows = 0;

  /// Counts one twin Engine::Query result.
  void Add(const tqp::QueryResult& q, bool vectorized) {
    plan_cache_hits += q.plan_cache_hit ? 1 : 0;
    (vectorized ? vexec_ns : exec_ns) += q.exec_wall_ns;
    if (q.profile != nullptr) AddProfile(*q.profile, vectorized);
    vec_rows += q.exec.vec_rows;
    materializations += q.exec.vec_materializations;
    morsels += q.exec.morsels;
    steals += q.exec.steals;
    pushdowns += q.exec.backend_pushdowns;
    refusals += q.exec.backend_refusals;
    fallbacks += q.exec.backend_fallbacks;
    backend_rows += q.exec.backend_rows;
    rc_hits += q.exec.result_cache_hits;
    rc_misses += q.exec.result_cache_misses;
  }

  /// Operator self times; a subtree the backend ran counts as pushed.
  void AddProfile(const tqp::ProfileNode& node, bool vectorized) {
    if (node.backend_pushed) {
      pushed_ns += node.SelfNs();
    } else {
      (vectorized ? vexec_op_ns : exec_op_ns)[node.kind] += node.SelfNs();
    }
    for (const tqp::ProfileNode& child : node.children) {
      AddProfile(child, vectorized);
    }
  }
};

/// Lex → parse → translate → optimize → enumerate → annotate on `text`, one
/// span per public call. Optimize threads the benchmark's own session caches
/// as the Engine does; EnumeratePlans runs with call-local ones, the cost of
/// the bare Figure 5 search.
Status ReplayPrepare(const std::string& text, const tqp::Catalog& catalog,
                     const tqp::EngineOptions& options,
                     tqp::PlanInterner* interner,
                     tqp::DerivationCache* derivation, tqp::Tracer* tracer,
                     LayerCounts* counts) {
  TQP_RETURN_IF_ERROR(
      Span(tracer, "tql", "tql.lex", [&] { return tqp::Lex(text).status(); }));
  TQP_ASSIGN_OR_RETURN(
      ast, Span(tracer, "tql", "tql.parse", [&] { return tqp::ParseQuery(text); }));
  TQP_ASSIGN_OR_RETURN(
      translated, Span(tracer, "tql", "tql.translate", [&] {
        return tqp::TranslateQuery(ast, catalog, options.translator);
      }));
  tqp::OptimizerOptions opt;
  opt.enumeration = options.enumeration;
  opt.engine = options.engine;
  opt.cardinality = options.cardinality;
  TQP_ASSIGN_OR_RETURN(
      optimized, Span(tracer, "opt", "opt.optimize", [&] {
        return tqp::Optimize(interner->Intern(translated.plan), catalog,
                             translated.contract, options.rules, opt, interner,
                             derivation);
      }));
  tqp::EnumerationOptions search = opt.enumeration;
  search.cost_engine = opt.engine;
  search.cardinality = opt.cardinality;
  // These two results are only timed; each is freed inside its span.
  TQP_RETURN_IF_ERROR(Span(tracer, "opt", "opt.enumerate", [&] {
    return tqp::EnumeratePlans(translated.plan, catalog, translated.contract,
                               options.rules, search)
        .status();
  }));
  TQP_RETURN_IF_ERROR(Span(tracer, "algebra", "algebra.annotate", [&] {
    return tqp::AnnotatedPlan::Make(optimized.best_plan, &catalog,
                                    translated.contract, options.cardinality)
        .status();
  }));
  ++counts->optimizes;
  counts->plans += optimized.plans_considered;
  counts->truncated += optimized.truncated ? 1 : 0;
  return Status::OK();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The traced run's spans. Each statement records into a Tracer of its own,
/// as core/trace.h intends one Tracer per query, and is folded in here when
/// it ends: per-name totals, the coverage check of its root span, and its
/// events in one Chrome trace for the whole run.
class SpanLedger {
 public:
  SpanLedger() {
    chrome_.BeginObject();
    chrome_.Key("displayTimeUnit").String("ms");
    chrome_.Key("traceEvents").BeginArray();
  }

  /// Folds in statement `index`, whose Tracer started `offset_ns` into the
  /// run.
  void Add(const tqp::Tracer& tracer, uint64_t index, uint64_t offset_ns) {
    const std::vector<tqp::TraceEvent> events = tracer.Snapshot();
    const tqp::TraceEvent* root = nullptr;
    for (const tqp::TraceEvent& e : events) {
      if (e.parent == 0) root = &e;
      chrome_.BeginObject();
      chrome_.Key("name").String(e.name);
      chrome_.Key("cat").String(e.cat);
      chrome_.Key("ph").String("X");
      chrome_.Key("pid").Uint(1);
      chrome_.Key("tid").Uint(e.tid);
      chrome_.Key("ts").Double(static_cast<double>(offset_ns + e.start_ns) / 1e3);
      chrome_.Key("dur").Double(static_cast<double>(e.dur_ns) / 1e3);
      chrome_.Key("args").BeginObject();
      chrome_.Key("statement").Uint(index);
      chrome_.Key("span").Uint(e.id);
      chrome_.Key("parent").Uint(e.parent);
      for (const auto& [key, value] : e.args) chrome_.Key(key).String(value);
      chrome_.EndObject();
      chrome_.EndObject();
    }
    if (root == nullptr) return;
    uint64_t covered = 0;
    std::map<std::string, uint64_t> child_ns;
    for (const tqp::TraceEvent& e : events) {
      if (e.parent != root->id) continue;
      totals_[e.name].first += 1;
      totals_[e.name].second += e.dur_ns;
      child_ns[e.name] += e.dur_ns;
      covered += e.dur_ns;
    }
    const uint64_t gap = root->dur_ns > covered ? root->dur_ns - covered : 0;
    if (static_cast<double>(gap) >
        std::max(kSpanSlackShare * static_cast<double>(root->dur_ns),
                 static_cast<double>(kSpanSlackNs))) {
      ++unaccounted_;
    }
    const auto rt = child_ns.find("service.roundtrip");
    const auto api = child_ns.find("api.query");
    if (rt != child_ns.end() && api != child_ns.end()) {
      framing_ms_.push_back(
          (static_cast<double>(rt->second) - static_cast<double>(api->second)) /
          1e6);
    }
  }

  /// Total nanoseconds in spans named `name`.
  double Total(const char* name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : static_cast<double>(it->second.second);
  }
  /// Mean duration of spans named `name`, divided by `scale` (ns per unit).
  double Mean(const char* name, double scale) const {
    const auto it = totals_.find(name);
    if (it == totals_.end() || it->second.first == 0) return 0.0;
    return static_cast<double>(it->second.second) / scale /
           static_cast<double>(it->second.first);
  }
  /// Statements whose child spans do not cover their root span.
  uint64_t unaccounted() const { return unaccounted_; }
  /// Per read: the round trip minus the twin's Engine::Query, in ms.
  const std::vector<double>& framing_ms() const { return framing_ms_; }

  std::string TakeChromeJson() {
    chrome_.EndArray();
    chrome_.EndObject();
    return chrome_.Take();
  }

 private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> totals_;  // n, ns
  uint64_t unaccounted_ = 0;
  std::vector<double> framing_ms_;
  tqp::JsonWriter chrome_;
};

}  // namespace

RunReport RunTraced(const RunConfig& config) {
  RunReport report;
  const Workload w = MakeWorkload(config.workload, config.seed);
  auto svc = std::make_unique<Service>();
  Status st = svc->Start(w, 1);
  auto twin = std::make_unique<tqp::Engine>(w.catalog, w.options);
  for (const std::string& text : w.warmup) {
    if (!st.ok()) break;
    auto r = twin->Query(text);
    if (!r.ok()) st = r.status();
  }
  if (!st.ok()) {
    Fail(&report, "set-up failed: " + st.message());
    return report;
  }
  const bool vectorized = w.options.executor == tqp::ExecutorKind::kVectorized;
  const tqp::EngineStats before = twin->stats();

  SpanLedger spans;
  StateHistory history;
  StatementStream stream(w.name, w.seed, 0);
  auto interner = std::make_unique<tqp::PlanInterner>();
  auto derivation = std::make_unique<tqp::DerivationCache>();
  LayerCounts counts;
  std::vector<ReadRecord> records;
  tqp::QueryRunOptions profile;
  profile.profile = true;

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  while (Clock::now() < deadline) {
    const Statement s = stream.Next();
    const uint64_t offset_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    tqp::Tracer tracer;
    ++report.attempted;
    if (s.write) {
      ++counts.writes;
      Status a, b, c;
      {
        TraceSpan root(&tracer, "qbench", "statement");
        root.Arg("write", s.relation + " v" + std::to_string(s.version));
        a = Span(&tracer, "api", "api.catalog_mutate",
                 [&] { return ApplyWrite(twin.get(), w, s, nullptr); });
        b = Span(&tracer, "backend", "backend.sync", [&] {
          return twin->backend()->SyncCatalog(twin->catalog());
        });
        c = Span(&tracer, "api", "served.catalog_mutate",
                 [&] { return ApplyWrite(svc->engine(), w, s, &history); });
      }
      spans.Add(tracer, report.attempted, offset_ns);
      // The derivation cache holds cardinalities of the old catalog.
      derivation = std::make_unique<tqp::DerivationCache>();
      if (!a.ok() || !b.ok() || !c.ok()) ++report.failed;
      continue;
    }

    ++counts.reads;
    std::optional<tqp::Result<tqp::QueryResult>> twin_result;
    std::optional<tqp::Result<tqp::QueryOutcome>> served;
    Status replay;
    ReadRecord r;
    r.text = s.text;
    {
      TraceSpan root(&tracer, "qbench", "statement");
      root.Arg("text", s.text);
      twin_result.emplace(Span(&tracer, "api", "api.query",
                               [&] { return twin->Query(s.text, profile); }));
      if (twin_result->ok() && !(*twin_result)->plan_cache_hit) {
        replay = ReplayPrepare(s.text, twin->catalog(), w.options,
                               interner.get(), derivation.get(), &tracer,
                               &counts);
      }
      r.first_state = history.Last();
      served.emplace(Span(&tracer, "service", "service.roundtrip", [&] {
        return svc->client(0).RunQuery(s.text, /*capture_raw=*/true);
      }));
      r.last_state = history.Last();
    }
    spans.Add(tracer, report.attempted, offset_ns);
    if (!twin_result->ok() || !replay.ok()) ++report.failed;
    if (twin_result->ok()) counts.Add(twin_result->value(), vectorized);
    if (!served->ok()) {
      Fail(&report, "traced client: " + served->status().message());
      break;
    }
    r.ok = (*served)->ok;
    if (!r.ok) {
      std::fprintf(stderr, "qbench: error reply to \"%s\": %s\n",
                   s.text.c_str(), (*served)->error.c_str());
    } else {
      r.digest = ReplyDigest((*served)->raw);
      counts.frame_bytes += (*served)->raw.size();
      counts.frame_rows += (*served)->rows;
    }
    records.push_back(std::move(r));
  }
  const tqp::EngineStats after = twin->stats();
  svc->Stop();
  FreeAtExit(std::move(svc));
  FreeAtExit(std::move(twin));
  FreeAtExit(std::move(interner));

  report.failed += spans.unaccounted();

  ReferenceOracle oracle(w);
  report.failed += oracle.CountFailures(records, history, Threads());

  auto mean = [&](const char* span, double scale) {
    return spans.Mean(span, scale);
  };
  const double reads = static_cast<double>(counts.reads);
  const double writes = static_cast<double>(counts.writes);
  const double kops = static_cast<double>(report.attempted) / 1000.0;
  std::map<std::string, double> v;
  v["tql.lex.us_per_call"] = mean("tql.lex", 1e3);
  v["tql.parse.us_per_call"] = mean("tql.parse", 1e3);
  v["tql.translate.us_per_call"] = mean("tql.translate", 1e3);
  v["opt.enumerate.ms_per_call"] = mean("opt.enumerate", 1e6);
  v["opt.optimize.ms_per_call"] = mean("opt.optimize", 1e6);
  v["opt.plans_per_call"] = Ratio(counts.plans, counts.optimizes);
  v["opt.truncated_share"] = Ratio(counts.truncated, counts.optimizes);
  v["algebra.annotate.us_per_call"] = mean("algebra.annotate", 1e3);
  v["api.query.ms_per_call"] = mean("api.query", 1e6);
  v["api.plan_cache.hit_ratio"] = Ratio(counts.plan_cache_hits, reads);
  v["api.prepares_per_kop"] =
      Ratio(static_cast<double>(after.prepares - before.prepares), kops);
  v["api.plan_cache.stale_evictions_per_write"] =
      Ratio(static_cast<double>(after.plan_cache_stale_evictions -
                                before.plan_cache_stale_evictions),
            writes);
  v["api.catalog_mutate.ms_per_call"] = mean("api.catalog_mutate", 1e6);
  v["exec.evaluate.ms_per_query"] = Ratio(counts.exec_ns / 1e6, reads);
  for (const std::string& k : ExecKinds()) {
    v["exec.op." + k + ".self_ms_per_query"] =
        Ratio(counts.exec_op_ns[k] / 1e6, reads);
  }
  v["exec.result_cache.hit_ratio"] =
      Ratio(counts.rc_hits, counts.rc_hits + counts.rc_misses);
  v["exec.result_cache.evictions_per_kop"] =
      Ratio(static_cast<double>(after.result_cache_evictions -
                                before.result_cache_evictions),
            kops);
  v["vexec.execute.ms_per_query"] = Ratio(counts.vexec_ns / 1e6, reads);
  for (const std::string& k : VexecKinds()) {
    v["vexec.op." + k + ".self_ms_per_query"] =
        Ratio(counts.vexec_op_ns[k] / 1e6, reads);
  }
  v["vexec.rows_per_s"] = Ratio(counts.vec_rows, counts.vexec_ns / 1e9);
  v["vexec.materializations_per_query"] = Ratio(counts.materializations, reads);
  v["vexec.steal_ratio"] = Ratio(counts.steals, counts.morsels);
  v["backend.pushdowns_per_query"] = Ratio(counts.pushdowns, reads);
  v["backend.pushdown_ratio"] =
      Ratio(counts.pushdowns,
            counts.pushdowns + counts.refusals + counts.fallbacks);
  v["backend.rows_per_query"] = Ratio(counts.backend_rows, reads);
  v["backend.pushed.self_ms_per_query"] = Ratio(counts.pushed_ns / 1e6, reads);
  v["backend.sync.ms_per_write"] = mean("backend.sync", 1e6);
  v["service.framing.ms_per_query"] = Median(spans.framing_ms());
  v["service.frame_bytes_per_row"] =
      Ratio(counts.frame_bytes, counts.frame_rows);
  report.metrics = PerLayerMetrics();
  for (Metric& m : report.metrics) m.value = v.at(m.name);

  // Where a statement's time goes, layer by layer, as shares of the traced
  // end-to-end time (round trips plus writes). The twin's Engine::Query
  // splits into its prepare (the replayed calls), its executor operators and
  // backend pushdowns, and the rest of the api layer; whatever the round
  // trip takes beyond the twin's Engine::Query is service framing.
  auto total = [&](const char* span) { return spans.Total(span); };
  auto sum = [](const std::map<std::string, uint64_t>& ns) {
    double t = 0.0;
    for (const auto& [kind, n] : ns) t += static_cast<double>(n);
    return t;
  };
  std::map<std::string, double> split;
  split["tql"] = total("tql.lex") + total("tql.parse") + total("tql.translate");
  split["opt"] = total("opt.optimize");
  split["algebra"] = total("algebra.annotate");
  split["exec"] = sum(counts.exec_op_ns);
  split["vexec"] = sum(counts.vexec_op_ns);
  split["backend"] =
      static_cast<double>(counts.pushed_ns) + total("backend.sync");
  split["api"] = total("api.query") + total("api.catalog_mutate") -
                 split["tql"] - split["opt"] - split["algebra"] -
                 split["exec"] - split["vexec"] -
                 static_cast<double>(counts.pushed_ns);
  split["service"] = total("service.roundtrip") - total("api.query");
  const double end_to_end = total("service.roundtrip") +
                            total("api.catalog_mutate") + total("backend.sync");

  tqp::JsonWriter d;
  d.BeginObject();
  d.Key("traced_statements").Uint(report.attempted);
  d.Key("reads").Uint(counts.reads);
  d.Key("writes").Uint(counts.writes);
  d.Key("statements_with_unaccounted_span_time").Uint(spans.unaccounted());
  d.Key("span_slack").String("max(5% of the statement span, 200 us)");
  d.Key("latency_split").BeginObject();
  for (const auto& [layer, ns] : split) d.Key(layer).Double(Ratio(ns, end_to_end));
  d.EndObject();
  d.EndObject();
  report.details_json = d.Take();

  const std::string path = config.out_dir + "/trace-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".json";
  std::ofstream(path) << spans.TakeChromeJson() << "\n";
  return report;
}

}  // namespace qbench
