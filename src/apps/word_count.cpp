#include "apps/word_count.hpp"

#include <algorithm>
#include <cassert>

#include "apps/keyed_merge.hpp"
#include "apps/tokenize.hpp"

namespace supmr::apps {

std::vector<std::span<const char>> split_text(std::span<const char> text,
                                              std::size_t max_splits) {
  std::vector<std::span<const char>> splits;
  if (text.empty() || max_splits == 0) return splits;
  const std::size_t target = (text.size() + max_splits - 1) / max_splits;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = std::min(begin + target, text.size());
    // Never split mid-word: advance to the next non-word byte.
    while (end < text.size() && is_word_char(text[end])) ++end;
    splits.push_back(text.subspan(begin, end - begin));
    begin = end;
  }
  return splits;
}

void for_each_word(std::span<const char> text,
                   const std::function<void(std::string_view)>& fn) {
  tokenize_words(text, fn);
}

void WordCountApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  container_.init(num_map_threads, /*capacity_hint=*/4096);
  words_per_thread_.assign(num_map_threads, 0);
  results_.clear();
  partitions_.clear();
}

Status WordCountApp::prepare_round(const ingest::IngestChunk& chunk) {
  splits_ = split_text(chunk.bytes(), num_mappers_);
  return Status::Ok();
}

void WordCountApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < splits_.size() && thread_id < num_mappers_);
  std::uint64_t words = 0;
  tokenize_words(splits_[task], [&](std::string_view word) {
    container_.emit(thread_id, word, std::uint64_t{1});
    ++words;
  });
  words_per_thread_[thread_id] += words;
}

Status WordCountApp::reduce(ThreadPool& pool, std::size_t num_partitions) {
  return reduce_partitions(pool, container_, num_partitions, partitions_);
}

Status WordCountApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                           merge::MergeStats* stats) {
  return merge_partitions(pool, plan, partitions_, results_,
                          [](const Result& a, const Result& b) {
                            return a.first < b.first;
                          },
                          stats);
}

std::uint64_t WordCountApp::words_mapped() const {
  std::uint64_t n = 0;
  for (auto w : words_per_thread_) n += w;
  return n;
}

std::string WordCountApp::canonical_output() const {
  // Keys are unique, so the merge order IS the canonical order: one
  // "word\tcount\n" line per result, in results_ order.
  std::string out;
  for (const auto& [word, count] : results_) {
    out += word;
    out += '\t';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

}  // namespace supmr::apps
