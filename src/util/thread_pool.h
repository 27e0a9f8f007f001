// Fixed-size worker pool for the parallel Monte Carlo engine.
//
// Tasks are plain std::function<void()>; Submit returns a future that
// rethrows any exception the task raised. ParallelFor splits an index range
// into chunks, runs the chunks on the pool and blocks until every chunk
// finished, rethrowing the first failure. Determinism is the caller's
// responsibility: give every index its own RNG stream and write results into
// disjoint slots, then reduce sequentially — the pool itself imposes no
// ordering.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace sm {

class ThreadPool {
 public:
  // `num_threads` < 1 is clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task; the future rethrows the task's exception on get().
  std::future<void> Submit(std::function<void()> task);

  // Runs body(lo, hi) over [begin, end) in chunks of at most `chunk`
  // indices. Blocks until all chunks completed; if any chunk threw, waits
  // for the rest and rethrows the first exception (in chunk order).
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t chunk,
                   const std::function<void(std::size_t, std::size_t)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

// Runs row(i) for every i in [0, n) across `threads` pool workers and
// returns the results in index order. Row must be default-constructible and
// move-assignable. Exceptions are rethrown in index order (first failing
// row wins), matching the serial loop's behaviour. Each row writes only its
// own slot, so the result is identical at any thread count whenever row(i)
// is a pure function of i.
template <typename Fn>
auto ParallelRows(std::size_t n, int threads, Fn&& row)
    -> std::vector<decltype(row(std::size_t{0}))> {
  std::vector<decltype(row(std::size_t{0}))> rows(n);
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) rows[i] = row(i);
    return rows;
  }
  ThreadPool pool(threads);
  pool.ParallelFor(0, n, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) rows[i] = row(i);
  });
  return rows;
}

}  // namespace sm
