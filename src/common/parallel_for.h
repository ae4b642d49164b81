#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

/// \file parallel_for.h
/// \brief The shared worker-pool loop: items claimed off an atomic counter
/// by a short-lived set of threads.

namespace smb {

/// Resolves a requested thread count: 0 ⇒ hardware concurrency (at least
/// 1), anything else as given.
inline size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

/// \brief Runs `body(item, worker)` once for every item in [0, `items`).
///
/// min(`threads`, `items`) workers claim items in ascending order off a
/// shared atomic counter, so uneven items balance themselves. `worker` is
/// the claiming worker's index in [0, that count) — callers keep per-worker
/// scratch indexed by it; any slot written only for its own item needs no
/// locking. With one worker (threads ≤ 1, or a single item) every item runs
/// inline on the calling thread in ascending order and no thread is
/// spawned. Returns once every item has run.
template <typename Body>
void ParallelFor(size_t items, size_t threads, Body&& body) {
  const size_t workers = std::min(threads, items);
  if (workers <= 1) {
    for (size_t item = 0; item < items; ++item) body(item, size_t{0});
    return;
  }
  std::atomic<size_t> next{0};
  auto work = [&](size_t worker) {
    for (size_t item = next.fetch_add(1); item < items;
         item = next.fetch_add(1)) {
      body(item, worker);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) pool.emplace_back(work, w);
  for (std::thread& t : pool) t.join();
}

}  // namespace smb
