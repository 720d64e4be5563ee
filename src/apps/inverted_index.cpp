#include "apps/inverted_index.hpp"

#include <algorithm>
#include <cassert>

#include "apps/keyed_merge.hpp"
#include "apps/tokenize.hpp"

namespace supmr::apps {

void InvertedIndexApp::init(std::size_t num_map_threads) {
  num_mappers_ = num_map_threads;
  container_.init(num_map_threads, /*capacity_hint=*/4096);
  index_.clear();
  partitions_.clear();
}

Status InvertedIndexApp::prepare_round(const ingest::IngestChunk& chunk) {
  if (chunk.files.empty()) {
    return Status::InvalidArgument(
        "inverted index requires intra-file chunking (MultiFileSource): "
        "chunk carries no file spans");
  }
  // Distribute whole files round-robin over at most num_mappers_ tasks.
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

void InvertedIndexApp::map_task(std::size_t task, std::size_t thread_id) {
  assert(task < tasks_.size());
  for (const FileTask& file : tasks_[task]) {
    tokenize_words(file.text, [&](std::string_view word) {
      container_.emit(thread_id, word, file.file_id);
    });
  }
}

Status InvertedIndexApp::reduce(ThreadPool& pool,
                                std::size_t num_partitions) {
  partitions_.assign(num_partitions, {});
  std::vector<std::function<void(std::size_t)>> tasks;
  for (std::size_t p = 0; p < num_partitions; ++p) {
    tasks.push_back([this, p, num_partitions](std::size_t) {
      auto pairs = container_.reduce_partition(p, num_partitions);
      partitions_[p].reserve(pairs.size());
      for (auto& [word, files] : pairs) {
        std::sort(files.begin(), files.end());
        files.erase(std::unique(files.begin(), files.end()), files.end());
        partitions_[p].push_back(Posting{std::move(word), std::move(files)});
      }
    });
  }
  if (!pool.run_wave(tasks))
    return Status::Internal("reduce wave dropped: thread pool shut down");
  return Status::Ok();
}

Status InvertedIndexApp::merge(ThreadPool& pool, const core::MergePlan& plan,
                               merge::MergeStats* stats) {
  return merge_partitions(pool, plan, partitions_, index_,
                          [](const Posting& a, const Posting& b) {
                            return a.word < b.word;
                          },
                          stats);
}

std::string InvertedIndexApp::canonical_output() const {
  std::string out;
  for (const auto& posting : index_) {
    out += posting.word;
    out += '\t';
    for (std::size_t i = 0; i < posting.files.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(posting.files[i]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace supmr::apps
