#include "apps/doc_term_count.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "apps/keyed_merge.hpp"
#include "apps/tokenize.hpp"

namespace supmr::apps {

void DocTermCountApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  container_.init(num_map_threads, /*capacity_hint=*/4096);
  results_.clear();
  partitions_.clear();
}

Status DocTermCountApp::prepare_round(const ingest::IngestChunk& chunk) {
  if (chunk.files.empty()) {
    return Status::InvalidArgument(
        "doc term count requires intra-file chunking (MultiFileSource): "
        "chunk carries no file spans");
  }
  tasks_.assign(std::min(num_mappers_, chunk.files.size()), {});
  std::size_t next = 0;
  for (const ingest::FileSpan& span : chunk.files) {
    tasks_[next].push_back(FileTask{
        chunk.bytes().subspan(span.offset_in_chunk, span.length),
        static_cast<std::uint32_t>(span.file_index)});
    next = (next + 1) % tasks_.size();
  }
  return Status::Ok();
}

void DocTermCountApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < tasks_.size());
  char key[kMaxWord + 16];
  for (const FileTask& file : tasks_[task]) {
    // Composite key prefix "<file_id>\t" shared by every word of the file.
    const int prefix = std::snprintf(key, sizeof(key), "%u\t", file.file_id);
    tokenize_words(file.text, [&](std::string_view word) {
      std::copy(word.begin(), word.end(), key + prefix);
      container_.emit(
          thread_id,
          std::string_view(key, static_cast<std::size_t>(prefix) + word.size()),
          std::uint64_t{1});
    });
  }
}

Status DocTermCountApp::reduce(ThreadPool& pool, std::size_t num_partitions) {
  return reduce_partitions(pool, container_, num_partitions, partitions_);
}

Status DocTermCountApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                              merge::MergeStats* stats) {
  return merge_partitions(pool, plan, partitions_, results_,
                          [](const Result& a, const Result& b) {
                            return a.first < b.first;
                          },
                          stats);
}

std::string DocTermCountApp::canonical_output() const {
  // The key already contains "<file_id>\t<word>"; appending "\t<count>"
  // yields three-field lines the TF-IDF join tells apart from the
  // two-field inverted-index lines by tab count.
  std::string out;
  for (const auto& [key, count] : results_) {
    out += key;
    out += '\t';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

}  // namespace supmr::apps
