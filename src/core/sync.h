// Concurrency primitives: striped mutexes for sharded hash tables, optional
// lock guards for structures with a lock-free single-threaded mode, and a
// counting semaphore for admission control.
//
// The library's concurrency model (see ARCHITECTURE.md): the search
// structures PlanInterner and DerivationCache are guarded by striped locks
// that are only taken once a structure has been explicitly switched into
// concurrent mode, so the single-threaded paths take no locks at all and
// stay byte-identical to the pre-concurrency code. Only the parallel
// enumeration driver switches them: tqp::Engine gives every prepare its own
// pair, and its plan cache sits behind one plain mutex.
#ifndef TQP_CORE_SYNC_H_
#define TQP_CORE_SYNC_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace tqp {

/// A fixed pool of mutexes indexed by hash: a sharded table locks `For(h)`
/// to guard the shard that hash `h` routes to. Entries whose hashes land in
/// different stripes can be locked concurrently, and the pool itself never
/// resizes, so addressing a stripe is contention-free.
class StripedMutex {
 public:
  /// Power of two; 64 stripes keep 4–8 worker threads essentially
  /// contention-free while costing ~2.5 KB of mutexes per table.
  static constexpr size_t kStripes = 64;

  /// The stripe index `hash` routes to. Multiplicative mixing first, so
  /// pointer-derived hashes (aligned, low bits zero) still spread.
  static constexpr size_t IndexOf(uint64_t hash) {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >> 58);
  }

  std::mutex& For(uint64_t hash) { return stripes_[IndexOf(hash)]; }

 private:
  std::mutex stripes_[kStripes];
};

/// Lock guard that no-ops on nullptr — the single-threaded fast path of a
/// concurrency-capable structure passes nullptr and takes no lock at all.
class MaybeLockGuard {
 public:
  explicit MaybeLockGuard(std::mutex* mu) : mu_(mu) {
    if (mu_ != nullptr) mu_->lock();
  }
  ~MaybeLockGuard() {
    if (mu_ != nullptr) mu_->unlock();
  }

  MaybeLockGuard(const MaybeLockGuard&) = delete;
  MaybeLockGuard& operator=(const MaybeLockGuard&) = delete;

 private:
  std::mutex* mu_;
};

/// A counting semaphore (C++17 predates std::counting_semaphore). Backs the
/// Engine's admission control: at most `permits` holders at once; excess
/// Acquire calls block until a Release frees a permit.
class Semaphore {
 public:
  explicit Semaphore(size_t permits) : permits_(permits) {}

  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return permits_ > 0; });
    --permits_;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++permits_;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t permits_;
};

/// RAII permit holder; no-ops on nullptr (admission control disabled).
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore* sem) : sem_(sem) {
    if (sem_ != nullptr) sem_->Acquire();
  }
  ~SemaphoreGuard() {
    if (sem_ != nullptr) sem_->Release();
  }

  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;

 private:
  Semaphore* sem_;
};

}  // namespace tqp

#endif  // TQP_CORE_SYNC_H_
