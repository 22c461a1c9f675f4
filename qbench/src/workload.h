// The benchmark's three workloads: seeded catalogs, per-client statement
// streams, and the Engine configuration each one serves under.
//
// Every input is a pure function of (workload, seed, client index): the same
// seed gives byte-identical catalogs, catalog versions and statement streams,
// so a run can be replayed, and the program under test only ever sees the
// generated catalog and TQL text.
//
// Why these three (later changes name them when they claim a gain):
//
//   adhoc_small     Prepare-bound. Paper-scale catalog; a stream of distinct
//                   TQL texts from eight templates with random literals, so
//                   nearly every statement misses the plan cache. tql + opt +
//                   algebra do almost all the work, execution almost none.
//                   Shows parser and optimizer changes; the bypass workload
//                   for executor-kernel changes.
//   analytic_large  Execution-bound. EMPLOYEE/PROJECT scaled to thousands of
//                   persons plus messy R/S of tens of thousands of rows; a
//                   fixed set of statements whose plans run coalT, rdupT,
//                   differenceT, aggregateT, aggregate, rdup and sort, with the
//                   plan cache primed. The vectorized executor does the work.
//                   Shows kernel and vexec changes; the bypass workload for
//                   optimizer changes.
//   update_mix      Writes beside reads. About 5% of statements replace R or
//                   S with a pre-generated version, which evicts dependent
//                   plans, misses the result cache and resyncs the SQLite
//                   mirror; the reads mostly hit both caches. The only
//                   workload where the backend and the result cache work.
#ifndef QBENCH_WORKLOAD_H_
#define QBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/catalog.h"
#include "workload/generator.h"

namespace qbench {

/// One statement of a client stream: a TQL read, or a write that replaces
/// catalog relation `relation` with its pre-generated version `version`.
struct Statement {
  bool write = false;
  std::string text;
  std::string relation;
  size_t version = 0;

  bool operator==(const Statement& o) const {
    return write == o.write && text == o.text && relation == o.relation &&
           version == o.version;
  }
};

/// Everything one workload needs besides its streams.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  /// Closed-loop client connections.
  size_t clients = 1;
  tqp::EngineOptions options;
  /// The initial catalog.
  tqp::Catalog catalog;
  /// update_mix: the versions a write may install, per relation; index 0 is
  /// the initial contents. Empty for the read-only workloads.
  std::map<std::string, std::vector<tqp::CatalogEntry>> versions;
  /// Statements run once during set-up, before the first timed statement.
  /// On analytic_large and update_mix they are the whole read set, which
  /// primes the plan cache.
  std::vector<std::string> warmup;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload for `seed`. The name must be one of
/// WorkloadNames().
Workload MakeWorkload(const std::string& name, uint64_t seed);

/// Draws from a fixed multiset of cards without replacement and reshuffles
/// when it runs out, so every cycle holds each card in its exact proportion
/// while the order stays seeded. Streams use it for template and read/write
/// mixes: a random mix would make the work per run vary with the seed.
class Deck {
 public:
  explicit Deck(std::vector<size_t> cards);
  size_t Draw(tqp::Rng& rng);

 private:
  std::vector<size_t> cards_;
  size_t next_ = 0;
};

/// The unbounded statement stream of one client of one workload.
class StatementStream {
 public:
  StatementStream(const std::string& workload, uint64_t seed, size_t client);

  Statement Next();

 private:
  std::string workload_;
  tqp::Rng rng_;
  /// Which template (adhoc_small) or read text comes next.
  Deck texts_;
  /// update_mix: one write (card 1) per kReadsPerWrite reads (card 0).
  Deck writes_;
};

/// A catalog entry for `data` with every property flag inferred from it.
tqp::CatalogEntry InferredEntry(const tqp::Relation& data);

}  // namespace qbench

#endif  // QBENCH_WORKLOAD_H_
