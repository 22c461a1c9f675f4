// The two run modes of the benchmark.
//
// End-to-end (tracing off): set the workload up several times (the median
// is setup_s), then drive the real TCP service from `clients` closed-loop
// connections for the run length. Each client sends its next statement only
// after the previous reply is fully read. Writes (update_mix) go through
// Engine::MutateCatalog of the served Engine, from the same client threads.
// After the window every reply is checked against its reference digest.
//
// Traced: one client replays a prefix of client 0's stream. Around every
// statement the benchmark opens a root span and, inside it, one span per
// call into a layer's public function: the in-process twin Engine's
// Engine::Query (same seed, same stream, so the same cache state as the
// served Engine), the round trip to the served Engine, and — whenever the
// twin had to prepare — Lex, ParseQuery, TranslateQuery, Optimize,
// EnumeratePlans and AnnotatedPlan::Make on the same text. Executor
// operators, backend pushdowns and the result cache are read from the twin's
// EXPLAIN ANALYZE profile and ExecStats. The spans go to one Chrome trace
// file per run.
#ifndef QBENCH_RUNNER_H_
#define QBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Where the result file and the traced run's Chrome trace go.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  uint64_t attempted = 0;
  /// Statements that failed: error replies, wrong answers, failed writes,
  /// and (traced run) statements whose layer spans do not account for their
  /// root span.
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Context that is not a metric (sample counts, error rate, layer split),
  /// as one JSON object.
  std::string details_json = "{}";
};

RunReport RunEndToEnd(const RunConfig& config);
RunReport RunTraced(const RunConfig& config);

}  // namespace qbench

#endif  // QBENCH_RUNNER_H_
