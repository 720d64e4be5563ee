// The reduce and merge phases shared by the keyed apps (word count, pair
// count, doc-term count, inverted index).
//
// Their reduce partitions are hash-sharded by key, so a partition carries no
// key-range order. merge_partitions turns them into sorted runs (one
// introsort per partition on the pool) and applies the MergePlan in one
// place:
//   kPWay        -> one parallel_pway_merge round, p = pool size;
//   kPartitioned -> the same round, p = plan.partitions (the key-space split
//                   happens inside the p-way kernel, since the hash shards
//                   cannot be merged independently);
//   kPairwise    -> the runs are packed back-to-back into `out` and merged
//                   by pairwise_merge in log2(R) rounds (paper §IV baseline).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "core/job_config.hpp"
#include "merge/introsort.hpp"
#include "merge/pairwise.hpp"
#include "merge/pway.hpp"
#include "merge/stats.hpp"
#include "threading/thread_pool.hpp"

namespace supmr::apps {

// Fills partitions[p] = container.reduce_partition(p, n) for every p in one
// pool wave.
template <typename Container, typename T>
Status reduce_partitions(ThreadPool& pool, Container& container,
                         std::size_t n,
                         std::vector<std::vector<T>>& partitions) {
  partitions.assign(n, {});
  std::vector<std::function<void(std::size_t)>> tasks;
  tasks.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    tasks.push_back([&container, &partitions, p, n](std::size_t) {
      partitions[p] = container.reduce_partition(p, n);
    });
  }
  if (!pool.run_wave(tasks))
    return Status::Internal("reduce wave dropped: thread pool shut down");
  return Status::Ok();
}

// Sorts each partition under cmp, merges them into `out` by plan.mode (see
// the header comment) and clears `partitions`. `stats` may be null.
template <typename T, typename Cmp>
Status merge_partitions(ThreadPool& pool, const core::MergePlan& plan,
                        std::vector<std::vector<T>>& partitions,
                        std::vector<T>& out, Cmp cmp,
                        merge::MergeStats* stats) {
  std::vector<std::function<void(std::size_t)>> sort_tasks;
  sort_tasks.reserve(partitions.size());
  for (auto& part : partitions) {
    sort_tasks.push_back([&part, &cmp](std::size_t) {
      merge::introsort(part.begin(), part.end(), cmp);
    });
  }
  if (!pool.run_wave(sort_tasks))
    return Status::Internal("merge sort wave dropped: thread pool shut down");

  std::uint64_t total = 0;
  for (const auto& part : partitions) total += part.size();
  out.resize(total);

  merge::MergeStats local;
  if (plan.mode != core::MergeMode::kPairwise) {
    std::vector<std::span<const T>> runs;
    runs.reserve(partitions.size());
    for (const auto& part : partitions)
      runs.push_back(std::span<const T>(part.data(), part.size()));
    const std::size_t p = plan.mode == core::MergeMode::kPartitioned
                              ? plan.partitions
                              : 0;  // 0 = pool-sized
    local = merge::parallel_pway_merge(pool, std::move(runs), out.data(), cmp,
                                       p);
  } else {
    std::vector<std::span<T>> runs;
    runs.reserve(partitions.size());
    std::size_t offset = 0;
    for (auto& part : partitions) {
      std::move(part.begin(), part.end(), out.begin() + offset);
      runs.push_back(std::span<T>(out.data() + offset, part.size()));
      offset += part.size();
    }
    local = merge::pairwise_merge(pool, std::move(runs),
                                  std::span<T>(out.data(), out.size()), cmp);
  }
  partitions.clear();
  if (stats != nullptr) *stats = std::move(local);
  return Status::Ok();
}

}  // namespace supmr::apps
