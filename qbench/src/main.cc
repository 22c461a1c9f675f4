// qbench: drives the tqp query service over one seeded workload and prints
// its metrics. Usually started through run.py, which builds it first:
//
//   qbench --workload <adhoc_small|analytic_large|update_mix> --seed <n>
//          --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}. The same object,
// with host context and run details, goes to
// <out-dir>/result-<workload>-seed<n>-trace<t>.json.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/json.h"
#include "runner.h"
#include "host.h"
#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "qbench: %s\nusage: qbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-sha <sha>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qbench::RunConfig config;
  bool trace = false;
  std::string git_sha = "unknown";
  if (argc % 2 == 0) return Usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : qbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!known) return Usage("unknown or missing --workload");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  const qbench::RunReport report =
      trace ? qbench::RunTraced(config) : qbench::RunEndToEnd(config);
  const qbench::HostContext host = qbench::MeasureHost(git_sha);

  for (const qbench::Metric& m : report.metrics) {
    std::printf("%-48s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("details %s\n", report.details_json.c_str());
  std::printf("host %s\n", host.ToJson().c_str());

  tqp::JsonWriter out;
  out.BeginObject();
  out.Key("correct").Bool(report.failed == 0 && report.attempted > 0);
  out.Key("attempted").Uint(report.attempted);
  out.Key("failed").Uint(report.failed);
  out.Key("metrics").BeginObject();
  for (const qbench::Metric& m : report.metrics) {
    out.Key(m.name).BeginObject();
    out.Key("value").Double(m.value);
    out.Key("unit").String(m.unit);
    out.EndObject();
  }
  out.EndObject();
  out.EndObject();
  const std::string result = out.Take();

  const std::string path = config.out_dir + "/result-" + config.workload +
                           "-seed" + std::to_string(config.seed) + "-trace" +
                           (trace ? "1" : "0") + ".json";
  tqp::JsonWriter file;
  file.BeginObject();
  file.Key("workload").String(config.workload);
  file.Key("seed").Uint(config.seed);
  file.Key("seconds").Double(config.seconds);
  file.Key("trace").Bool(trace);
  file.Key("host").Raw(host.ToJson());
  file.Key("result").Raw(result);
  file.Key("details").Raw(report.details_json);
  file.EndObject();
  std::ofstream(path) << file.str() << "\n";

  std::printf("%s\n", result.c_str());
  return 0;
}
