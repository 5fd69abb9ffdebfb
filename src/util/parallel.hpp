#pragma once
// Deterministic thread-parallel helpers for the GP training and
// acquisition/prediction hot paths.
//
// Thread count comes from the KATO_THREADS environment variable, read once at
// first use (default 1 = fully sequential, matching the library's historical
// behavior), or from set_thread_count().  Two forms hand out the work:
//  - parallel_for splits [0, n) into at most thread_count() contiguous index
//    ranges, for cheap uniform items (GP rows, kernel entries);
//  - parallel_for_each hands out one index at a time, for costly items of
//    uneven cost (one circuit simulation per slot), so a slow item holds up
//    only the thread that claimed it.
// Either way a function that writes result[i] for each i produces
// bit-identical output at any thread count — the property the MACE proposal
// path, the parallel MultiGp fit and the batch evaluation rely on
// (tests/perf_regression_test.cpp asserts it).
//
// Workers live in a persistent process-wide pool: the first parallel call
// spawns them and later calls reuse them, so the per-call cost is a wakeup
// instead of a thread spawn+join.  At most thread_count() threads (the caller
// included) work on one call, even when an earlier, larger thread count left
// more workers parked.  A call made from inside a pool worker, or from inside
// another call's fn, runs inline (sequentially) — nested parallelism stays
// deterministic and cannot deadlock the pool.

#include <cstddef>
#include <functional>

namespace kato::util {

/// Upper bound for thread_count(): max(hardware_concurrency, 4).  The floor
/// of 4 keeps deliberate oversubscription possible on small CI boxes, where
/// the bit-identical-at-any-thread-count tests would otherwise silently
/// degenerate to the sequential path.
std::size_t thread_cap();

/// Worker count.  The first call reads KATO_THREADS through util::env_count
/// (clamped to thread_cap(); unset or rejected means 1, sequential) unless
/// set_thread_count() ran first; changing the variable later has no effect.
std::size_t thread_count();

/// Override the worker count, clamped to [1, thread_cap()].  The knob tests
/// and benches use to A/B thread counts inside one process.
void set_thread_count(std::size_t n);

/// Invoke fn(begin, end) over a partition of [0, n) using thread_count()
/// workers.  Runs inline (no pool dispatch) when the worker count is 1, n is
/// too small to be worth splitting, or the caller is itself a pool worker.
/// fn must only write state disjoint across index ranges.  Exceptions thrown
/// by fn are rethrown in the caller (first failing chunk wins).
void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn);

/// Invoke fn(i) once for every i in [0, n) using thread_count() workers, each
/// claiming the next unclaimed index as it frees up.  Runs inline under the
/// same conditions as parallel_for.  fn must only write state disjoint across
/// indices.  Exceptions thrown by fn are rethrown in the caller (lowest
/// failing index wins).
void parallel_for_each(std::size_t n,
                       const std::function<void(std::size_t)>& fn);

}  // namespace kato::util
