#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/json.h"

namespace qbench {

namespace {

std::atomic<uint64_t> g_sink{0};

/// Seconds for `threads` threads to each run the same fixed spin loop.
double SpinSeconds(unsigned threads) {
  auto spin = [] {
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 40'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    g_sink.fetch_add(x, std::memory_order_relaxed);
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(spin);
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string HostContext::ToJson() const {
  tqp::JsonWriter w;
  w.BeginObject();
  w.Key("nproc").Uint(nproc);
  w.Key("spin_scaling_1_to_nproc").Double(spin_scaling);
  w.Key("git_sha").String(git_sha);
  w.Key("build_type").String(build_type);
  w.Key("compiler").String(compiler);
  w.EndObject();
  return w.Take();
}

HostContext MeasureHost(const std::string& git_sha) {
  HostContext h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  const double one = SpinSeconds(1);
  const double all = SpinSeconds(h.nproc);
  h.spin_scaling = all > 0.0 ? h.nproc * one / all : 0.0;
  h.git_sha = git_sha;
  h.build_type = QBENCH_BUILD_TYPE;
  h.compiler = Compiler();
  return h;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace qbench
