// Correct answers are part of the measurement: every reply the benchmark
// receives is reduced to a digest of its ordered result list and compared
// with the digest of a reference result.
//
// List semantics (the paper's Table 1) is the contract, so the digest covers
// the schema frame and every row in order; a dropped, added, changed or
// reordered row changes it. References come from the reference executor
// with neither plan cache nor result cache, on the catalog state the reply
// could have observed, and are computed after the timed window so they cost
// nothing in the measured numbers.
#ifndef QBENCH_DIGEST_H_
#define QBENCH_DIGEST_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/relation.h"
#include "workload.h"

namespace qbench {

/// Digest of a reply's result frames as ServiceClient::RunQuery captures
/// them (the schema line, then the batch lines).
uint64_t ReplyDigest(const std::string& raw);

/// Digest of the result frames the service sends for `rel`; equal to
/// ReplyDigest of those frames whatever their batch size.
uint64_t RelationDigest(const tqp::Relation& rel);

/// A catalog state: the installed version of each written relation
/// (empty = the initial catalog).
using CatalogState = std::map<std::string, size_t>;

/// The sequence of catalog states a run went through, in install order.
/// Writers append while holding the Engine's exclusive catalog lock, so the
/// list is never behind what a query can observe.
class StateHistory {
 public:
  StateHistory() : states_(1) {}

  /// Records that `relation` now holds version `version`.
  void Append(const std::string& relation, size_t version);
  /// Index of the latest state.
  size_t Last() const;
  CatalogState At(size_t index) const;

 private:
  mutable std::mutex mu_;
  std::vector<CatalogState> states_;
};

/// One read as the client saw it. The reply may reflect any catalog state
/// in history indices [first_state, last_state].
struct ReadRecord {
  std::string text;
  /// False for an error reply.
  bool ok = false;
  uint64_t digest = 0;
  size_t first_state = 0;
  size_t last_state = 0;
};

/// Computes reference digests for (text, catalog state) pairs.
class ReferenceOracle {
 public:
  explicit ReferenceOracle(const Workload& workload);
  ~ReferenceOracle();

  /// Counts the records whose reply matches no reference for any state in
  /// their window (error replies included), computing the references on
  /// `threads` threads. `history` maps window indices to states.
  uint64_t CountFailures(const std::vector<ReadRecord>& records,
                         const StateHistory& history, size_t threads);

 private:
  /// The reference digest of `text` on `state`; `*ok` is false (and the
  /// digest meaningless) when the reference run itself fails.
  uint64_t Reference(const std::string& text, const CatalogState& state,
                     bool* ok);

  const Workload& workload_;
  std::mutex mu_;
  std::map<CatalogState, std::unique_ptr<tqp::Engine>> engines_;
};

}  // namespace qbench

#endif  // QBENCH_DIGEST_H_
