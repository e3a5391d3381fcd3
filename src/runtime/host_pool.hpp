// A persistent pool of host worker threads for the simulator's own work.
//
// Kernels execute for real in this process while their cost is charged to
// simulated clocks. Without help every locale body runs on one host
// thread, however many cores the host has. HostPool spreads independent
// items over the host's cores: run(n, item) calls item(i) once for each i
// in [0, n), on the workers and on the calling thread, and returns when
// every call has finished. It means nothing in simulated time; what an
// item may touch is the caller's contract (LocaleGrid::coforall_compute
// states the one for locale bodies).
//
// The pool is process-wide and created on first use, with one thread per
// CPU in the process's affinity mask (sched_getaffinity), the caller
// counting as one: under `taskset -c 0` it has no workers, runs every
// item inline and never starts a thread. Kernels dispatch in waves a few
// tens of microseconds apart, so an idle worker spins on the job
// generation for kSpinBudget before it blocks on a condition variable,
// and a caller whose own items are done spins as long on the workers
// still in its job before it blocks. A thread whose last wait outlasted
// the budget blocks at once, until a wait is short again, so callers
// with long serial stretches between runs do not feed spinning threads.
// Workers are joined at exit.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pgb {

class HostPool {
 public:
  /// How long a thread spins for a job, or for the workers to leave one,
  /// before it blocks. Longer than most gaps between a kernel's waves.
  static constexpr std::chrono::microseconds kSpinBudget{600};

  /// The process-wide pool, sized from the affinity mask on first use.
  static HostPool& instance();

  /// A pool of `threads` threads, the caller included (threads - 1
  /// workers).
  explicit HostPool(int threads);
  ~HostPool();

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  /// Threads that run items, the caller included.
  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Calls item(i) once for every i in [0, n), in no particular order
  /// across threads, and returns when all calls have finished. Runs the
  /// items inline, in index order, when the pool has no workers, when
  /// called from inside an item, or while another thread's run is in
  /// flight. An item that throws does not stop the others: once all have
  /// finished, the exception of the lowest-indexed throwing item is
  /// rethrown.
  void run(int n, const std::function<void(int)>& item);

 private:
  struct Job;

  void worker_loop();

  std::mutex run_mu_;  ///< one run on the workers at a time
  /// Whether the caller spins for the workers; guarded by run_mu_.
  bool caller_spins_ = true;
  /// The posted job, or null once its caller has retracted it.
  std::atomic<Job*> job_{nullptr};
  /// Bumped, under mu_, by every post and by the destructor.
  std::atomic<std::uint64_t> generation_{0};
  /// Workers between reading job_ and leaving it: a job outlives them.
  std::atomic<int> inside_{0};
  std::atomic<bool> stop_{false};
  std::mutex mu_;  ///< orders blocking on wake_/done_ against their events
  std::condition_variable wake_;  ///< workers: a new generation
  std::condition_variable done_;  ///< caller: inside_ fell to zero
  std::vector<std::thread> workers_;
};

}  // namespace pgb
