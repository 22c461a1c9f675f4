// Host context recorded beside every result: what the machine could give,
// so a parallel number can be read against it. None of it is a metric.
#ifndef QBENCH_HOST_H_
#define QBENCH_HOST_H_

#include <string>

namespace qbench {

struct HostContext {
  unsigned nproc = 0;
  /// Throughput of a pure-ALU spin loop on nproc threads over one thread:
  /// the 1→N scaling ceiling of this host.
  double spin_scaling = 0.0;
  std::string git_sha;
  std::string build_type;
  std::string compiler;

  /// One JSON object with every field above.
  std::string ToJson() const;
};

/// Measures the spin-loop ceiling (about a quarter second) and fills the
/// build provenance. `git_sha` comes from the caller ("unknown" outside a
/// git checkout).
HostContext MeasureHost(const std::string& git_sha);

/// Peak resident memory of this process so far, in MiB.
double PeakRssMb();

}  // namespace qbench

#endif  // QBENCH_HOST_H_
