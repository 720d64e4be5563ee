// Introsort: quicksort with median-of-three pivots, falling back to heapsort
// past a depth limit and to insertion sort for small ranges. This is the
// in-core sorter behind run formation. It is kept over std::sort because it
// is faster on terasort's run formation, where the comparator is expensive:
// bench/micro_merge's BM_IntrosortIndexMemcmp vs BM_StdSortIndexMemcmp
// (8 runs of 160k uint64 indices, 10-byte memcmp key over 100-byte records)
// measured 0.42 s vs 0.56 s median on a 4-vCPU Xeon VM at -O2. On cheap
// keys the two are close: std::sort is about 8% faster on plain uint64
// (BM_Introsort vs BM_StdSortReference at 2^18).
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>

namespace supmr::merge {

namespace detail {

inline constexpr std::ptrdiff_t kInsertionThreshold = 24;

template <typename It, typename Cmp>
void insertion_sort(It first, It last, Cmp& cmp) {
  for (It i = first == last ? last : std::next(first); i != last; ++i) {
    auto value = std::move(*i);
    It j = i;
    while (j != first && cmp(value, *std::prev(j))) {
      *j = std::move(*std::prev(j));
      --j;
    }
    *j = std::move(value);
  }
}

template <typename It, typename Cmp>
void sift_down(It first, std::ptrdiff_t start, std::ptrdiff_t end, Cmp& cmp) {
  std::ptrdiff_t root = start;
  while (2 * root + 1 < end) {
    std::ptrdiff_t child = 2 * root + 1;
    if (child + 1 < end && cmp(first[child], first[child + 1])) ++child;
    if (cmp(first[root], first[child])) {
      std::swap(first[root], first[child]);
      root = child;
    } else {
      return;
    }
  }
}

template <typename It, typename Cmp>
void heap_sort(It first, It last, Cmp& cmp) {
  const std::ptrdiff_t n = last - first;
  for (std::ptrdiff_t start = n / 2 - 1; start >= 0; --start)
    sift_down(first, start, n, cmp);
  for (std::ptrdiff_t end = n - 1; end > 0; --end) {
    std::swap(first[0], first[end]);
    sift_down(first, 0, end, cmp);
  }
}

template <typename It, typename Cmp>
It median_of_three(It a, It b, It c, Cmp& cmp) {
  if (cmp(*a, *b)) {
    if (cmp(*b, *c)) return b;
    return cmp(*a, *c) ? c : a;
  }
  if (cmp(*a, *c)) return a;
  return cmp(*b, *c) ? c : b;
}

template <typename It, typename Cmp>
void introsort_impl(It first, It last, int depth_budget, Cmp& cmp) {
  while (last - first > kInsertionThreshold) {
    if (depth_budget == 0) {
      heap_sort(first, last, cmp);
      return;
    }
    --depth_budget;
    It mid = first + (last - first) / 2;
    It pivot_it = median_of_three(first, mid, std::prev(last), cmp);
    auto pivot = *pivot_it;
    // Hoare partition.
    It lo = first;
    It hi = std::prev(last);
    while (true) {
      while (cmp(*lo, pivot)) ++lo;
      while (cmp(pivot, *hi)) --hi;
      if (lo >= hi) break;
      std::swap(*lo, *hi);
      ++lo;
      --hi;
    }
    // Recurse into the smaller side, loop on the larger (bounded stack).
    It split = std::next(hi);
    if (split - first < last - split) {
      introsort_impl(first, split, depth_budget, cmp);
      first = split;
    } else {
      introsort_impl(split, last, depth_budget, cmp);
      last = split;
    }
  }
  insertion_sort(first, last, cmp);
}

}  // namespace detail

template <typename It, typename Cmp>
void introsort(It first, It last, Cmp cmp) {
  if (last - first <= 1) return;
  int depth = 0;
  for (auto n = last - first; n > 1; n >>= 1) depth += 2;
  detail::introsort_impl(first, last, depth, cmp);
}

template <typename It>
void introsort(It first, It last) {
  introsort(first, last, std::less<>{});
}

}  // namespace supmr::merge
