#include "runtime/host_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <climits>
#include <exception>

#include "util/error.hpp"

namespace pgb {

namespace {

/// True on a thread while it runs an item: a run() from inside one goes
/// inline instead of waiting on workers that may all be busy in it.
thread_local bool t_in_item = false;

int affinity_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Waits until ready(). A waker changes what ready() reads before it
/// releases `mu` (under it, or before taking it) and then notifies `cv`,
/// so no wake-up is lost. If `spin` is set, spins for up to
/// HostPool::kSpinBudget first; then blocks on `cv`. Afterwards `spin` tells whether this wait
/// was shorter than the budget, so a thread whose waits run long stops
/// spinning and the first short wait turns it back on.
template <typename Ready>
void await(Ready&& ready, bool& spin, std::mutex& mu,
           std::condition_variable& cv) {
  using Clock = std::chrono::steady_clock;
  const auto from = Clock::now();
  bool caught = false;
  while (spin && !(caught = ready())) {
    if (Clock::now() - from >= HostPool::kSpinBudget) break;
    cpu_relax();
  }
  if (!caught) {
    std::unique_lock<std::mutex> g(mu);
    cv.wait(g, ready);
  }
  spin = Clock::now() - from < HostPool::kSpinBudget;
}

}  // namespace

/// One run(): items are claimed in chunks of `grain` off `next`.
struct HostPool::Job {
  Job(const std::function<void(int)>& f, int count, int threads)
      : item(f), n(count), grain(std::max(1, count / (16 * threads))) {}

  /// Claims and runs chunks until none are left.
  void work() {
    const bool outer = t_in_item;
    t_in_item = true;
    for (;;) {
      const int lo = next.fetch_add(grain, std::memory_order_relaxed);
      if (lo >= n) break;
      const int hi = std::min(n, lo + grain);
      for (int i = lo; i < hi; ++i) call(i);
    }
    t_in_item = outer;
  }

  void call(int i) {
    try {
      item(i);
    } catch (...) {
      std::lock_guard<std::mutex> g(err_mu);
      if (i < err_index) {
        err_index = i;
        err = std::current_exception();
      }
    }
  }

  void rethrow() const {
    if (err) std::rethrow_exception(err);
  }

  const std::function<void(int)>& item;
  const int n;
  const int grain;
  std::atomic<int> next{0};
  std::mutex err_mu;
  int err_index = INT_MAX;
  std::exception_ptr err;
};

HostPool& HostPool::instance() {
  static HostPool pool(affinity_threads());
  return pool;
}

HostPool::HostPool(int threads) {
  PGB_REQUIRE(threads >= 1, "host pool needs at least one thread");
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

HostPool::~HostPool() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
    ++generation_;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void HostPool::run(int n, const std::function<void(int)>& item) {
  if (n <= 0) return;
  Job job(item, n, threads());
  std::unique_lock<std::mutex> running(run_mu_, std::defer_lock);
  if (workers_.empty() || n == 1 || t_in_item || !running.try_lock()) {
    job.work();
    job.rethrow();
    return;
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    job_ = &job;
    ++generation_;
  }
  wake_.notify_all();
  job.work();
  // Every item is claimed. Retract the job, then wait for the workers
  // still in it: a worker that counted itself in before the retraction
  // is seen here, and one that reads job_ after it finds no job.
  job_ = nullptr;
  await([&] { return inside_ == 0; }, caller_spins_, mu_, done_);
  job.rethrow();
}

void HostPool::worker_loop() {
  std::uint64_t seen = 0;
  const auto posted = [&] { return generation_ != seen; };
  bool spin = true;
  for (;;) {
    await(posted, spin, mu_, wake_);
    seen = generation_;
    if (stop_) return;
    ++inside_;
    if (Job* job = job_) {
      job->work();
    } else {
      spin = true;  // retracted: its caller is likely to post again soon
    }
    if (--inside_ == 0) {
      std::lock_guard<std::mutex> g(mu_);
      done_.notify_one();
    }
  }
}

}  // namespace pgb
