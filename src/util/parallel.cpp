#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/env.hpp"

namespace kato::util {

namespace {

constexpr std::size_t k_min_cap = 4;

/// Worker count; 0 until the first thread_count() or set_thread_count().
std::atomic<std::size_t> g_threads{0};

thread_local bool t_on_pool_thread = false;
/// Depth of parallel_for frames on this thread.  The pool runs exactly one
/// job at a time, so any nested call — from a pool worker *or* from the
/// submitting thread's own chunk — must run inline: a second submission
/// would overwrite the in-flight job and orphan its unclaimed chunks.
thread_local int t_parallel_depth = 0;

using RangeFn = std::function<void(std::size_t, std::size_t)>;
using ItemFn = std::function<void(std::size_t)>;

/// One parallel call: n indices cut into fixed chunks of `chunk` indices
/// (chunk c is [c * chunk, min(n, (c + 1) * chunk))) plus a claim counter.
/// Chunk boundaries are computed by the caller (and depend only on the
/// requested worker count), so which physical thread executes a chunk never
/// affects results — fn writes disjoint state per chunk.
struct Job {
  const RangeFn* range = nullptr;  ///< parallel_for: range(begin, end)
  const ItemFn* item = nullptr;    ///< parallel_for_each: item(i), chunk 1
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t n_chunks = 0;
  /// Pool workers allowed to claim chunks: those with id < helpers.  Workers
  /// spawned for an earlier, larger thread count sit this job out.
  std::size_t helpers = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::vector<std::exception_ptr> errors;
};

/// Persistent worker pool.  Workers are spawned lazily up to thread_cap()-1
/// (the caller always executes chunks too) and parked on a condition variable
/// between jobs.  Only one job is in flight at a time: submissions serialize,
/// and nested calls from workers run inline.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(const std::shared_ptr<Job>& job) {
    // One submission at a time: the pool has a single job slot, so
    // concurrent submitters (distinct non-pool threads) serialize here
    // instead of overwriting each other's in-flight job.
    std::lock_guard<std::mutex> submit_lock(submit_mu_);
    // Queue-depth gauge brackets the job: the Perfetto counter track shows
    // how many chunks were outstanding while the pool was busy, dropping
    // back to zero at completion (pool-utilization view of the fan-out).
    obs::trace_counter("pool_queue_depth",
                       static_cast<std::uint64_t>(job->n_chunks));
    {
      std::unique_lock<std::mutex> lock(mu_);
      ensure_workers(job->helpers);
      job_ = job;
      ++generation_;
    }
    cv_work_.notify_all();

    work(*job);  // the caller is a full participant

    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return job->done.load() == job->n_chunks; });
    job_.reset();
    obs::trace_counter("pool_queue_depth", 0);
  }

  ~Pool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : workers_) t.join();
  }

 private:
  Pool() = default;

  void ensure_workers(std::size_t count) {
    count = std::min(count, thread_cap() - 1);
    while (workers_.size() < count) {
      const std::size_t id = workers_.size();
      workers_.emplace_back([this, id] {
        obs::name_this_thread("pool-worker-" + std::to_string(id + 1));
        worker_loop(id);
      });
    }
  }

  static void work(Job& job) {
    for (std::size_t c = job.next.fetch_add(1); c < job.n_chunks;
         c = job.next.fetch_add(1)) {
      KATO_OBS_SPAN("pool_chunk");
      const std::size_t begin = c * job.chunk;
      try {
        if (job.item != nullptr)
          (*job.item)(begin);
        else
          (*job.range)(begin, std::min(begin + job.chunk, job.n));
      } catch (...) {
        job.errors[c] = std::current_exception();
      }
      job.done.fetch_add(1);
    }
  }

  void worker_loop(std::size_t id) {
    t_on_pool_thread = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;  // keeps the job alive past the caller's wait
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (!job || id >= job->helpers) continue;
      work(*job);
      // The mutex round-trip orders this worker's done-updates against the
      // caller's predicate check: without it the notify could fire in the
      // window between the caller evaluating the predicate (false) and
      // blocking, and the caller would sleep forever.
      { std::lock_guard<std::mutex> lock(mu_); }
      cv_done_.notify_all();
    }
  }

  std::mutex submit_mu_;  ///< serializes whole submissions
  std::mutex mu_;         ///< guards job_/generation_/workers_/stop_
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

}  // namespace

std::size_t thread_cap() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max<std::size_t>(hw == 0 ? k_min_cap : hw, k_min_cap);
}

std::size_t thread_count() {
  if (const std::size_t n = g_threads.load(std::memory_order_relaxed)) return n;
  // First use: KATO_THREADS, unless a set_thread_count() got in first.
  std::size_t unset = 0;
  g_threads.compare_exchange_strong(
      unset, env_count("KATO_THREADS", thread_cap()).value_or(1),
      std::memory_order_relaxed);
  return g_threads.load(std::memory_order_relaxed);
}

void set_thread_count(std::size_t n) {
  g_threads.store(std::clamp<std::size_t>(n, 1, thread_cap()),
                  std::memory_order_relaxed);
}

namespace {

/// Worker count for a call over n indices, or 0 when the call must run
/// inline: one worker, fewer than two indices, or a nested call.
std::size_t workers_for(std::size_t n) {
  const std::size_t workers = std::min(thread_count(), n);
  if (workers <= 1 || t_on_pool_thread || t_parallel_depth > 0) return 0;
  return workers;
}

/// Run range (or item, one index per chunk) over [0, n) in chunks of
/// `chunk` indices on min(chunks, workers) threads, the caller included, and
/// rethrow the first failing chunk's exception.
void dispatch(std::size_t n, std::size_t workers, std::size_t chunk,
              const RangeFn* range, const ItemFn* item) {
  auto job = std::make_shared<Job>();
  job->range = range;
  job->item = item;
  job->n = n;
  job->chunk = chunk;
  job->n_chunks = (n + chunk - 1) / chunk;
  job->helpers = std::min(job->n_chunks, workers) - 1;
  job->errors.resize(job->n_chunks);

  ++t_parallel_depth;
  Pool::instance().run(job);
  --t_parallel_depth;

  for (auto& e : job->errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace

void parallel_for(std::size_t n, const RangeFn& fn) {
  if (n == 0) return;
  const std::size_t workers = workers_for(n);
  if (workers == 0) {
    fn(0, n);
    return;
  }
  // Contiguous chunks, same partition formula as the historical per-call
  // implementation: results must depend on the chunk boundaries only through
  // disjoint writes, never on which pool thread ran a chunk.
  dispatch(n, workers, (n + workers - 1) / workers, &fn, nullptr);
}

void parallel_for_each(std::size_t n, const ItemFn& fn) {
  if (n == 0) return;
  const std::size_t workers = workers_for(n);
  if (workers == 0) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  dispatch(n, workers, 1, nullptr, &fn);
}

}  // namespace kato::util
