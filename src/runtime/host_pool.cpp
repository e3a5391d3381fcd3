#include "runtime/host_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
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
  int inside = 0;  ///< workers still in work(); guarded by HostPool::mu_
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
  {
    // Every item is claimed; wait for the workers still running theirs.
    // A worker that wakes after this finds no job and sleeps again.
    std::unique_lock<std::mutex> g(mu_);
    job_ = nullptr;
    done_.wait(g, [&] { return job.inside == 0; });
  }
  job.rethrow();
}

void HostPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> g(mu_);
  for (;;) {
    wake_.wait(g, [&] {
      return stop_ || (job_ != nullptr && generation_ != seen);
    });
    if (stop_) return;
    seen = generation_;
    Job& job = *job_;
    ++job.inside;
    g.unlock();
    job.work();
    g.lock();
    if (--job.inside == 0) done_.notify_one();
  }
}

}  // namespace pgb
