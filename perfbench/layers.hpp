// Out-of-program instrumentation for the benchmark: forwarding decorators
// around the two seams a job calls through (core::Application and
// storage::Device) that record one span per call into a per-job JobTrace.
//
// The decorators forward every virtual, including the optional ones
// (combiner_kind, shard_kind, use_container, combine_stats,
// canonical_output, supports_views/view_at, model): a decorator that fell
// back to a base-class default would move the job onto another path, for
// example an mmap run onto the copying path. main.cpp checks on every
// traced job that the wrapped run gives the same canonical bytes, chunk
// count and merge rounds as the unwrapped jobs of its kind.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/application.hpp"
#include "storage/device.hpp"

namespace perfbench {

using namespace supmr;

// Seconds on the steady clock since the first call in this process.
inline double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

// Minor page faults taken by the calling thread so far.
inline std::uint64_t thread_minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

// Resident set size of the process, bytes (/proc/self/statm).
inline std::uint64_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE))
                : 0;
}

// A small per-thread id for the Chrome trace's "tid" field.
inline std::uint32_t trace_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

// One call into a layer. `name` is a string literal.
struct Span {
  const char* name = "";
  std::uint64_t job = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no parent (the job span itself)
  std::uint32_t tid = 0;
  double start = 0.0;  // now_s() timebase
  double end = 0.0;
  std::int64_t round = -1;  // prepare_round / map_task: ingest round
  std::uint64_t value = 0;  // read_at: bytes; prepare/map: minor faults
};

// The spans of one job. Every layer span's parent is the job span, whose id
// is fixed at construction so children can name it before it closes.
class JobTrace {
 public:
  explicit JobTrace(std::uint64_t job) : job_(job) {}
  JobTrace(const JobTrace&) = delete;
  JobTrace& operator=(const JobTrace&) = delete;

  std::uint64_t job_span_id() const { return span_id(0); }

  void add(const char* name, double start, double end, std::int64_t round = -1,
           std::uint64_t value = 0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, job_, span_id(spans_.size() + 1),
                          job_span_id(), trace_tid(), start, end, round,
                          value});
  }

  // Closes the job span ([start, end] as timed by the caller).
  void close(const char* name, double start, double end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        Span{name, job_, job_span_id(), 0, trace_tid(), start, end, -1, 0});
  }

  // Ingest round of the current prepare_round; map tasks read it after the
  // thread pool has handed them the wave (which orders the store before).
  std::int64_t next_round() { return round_.fetch_add(1) + 1; }
  std::int64_t round() const { return round_.load(); }

  std::uint64_t rss_at_init = 0;
  std::uint64_t rss_after_map = 0;

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  // Span ids are unique across jobs: job id in the high bits.
  std::uint64_t span_id(std::uint64_t local) const {
    return (job_ << 24) | local;
  }

  const std::uint64_t job_;
  std::atomic<std::int64_t> round_{-1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times init, prepare_round, map_task, reduce and merge; records per-thread
// minor faults around prepare_round and map_task, and process RSS before
// init and when reduce starts (after the last map wave).
class TracedApp final : public core::Application {
 public:
  TracedApp(core::Application& inner, JobTrace& trace)
      : inner_(inner), trace_(trace) {}

  void init(std::size_t num_map_threads) override {
    trace_.rss_at_init = rss_bytes();
    const double t0 = now_s();
    inner_.init(num_map_threads);
    trace_.add("apps.init", t0, now_s());
  }

  Status prepare_round(const ingest::IngestChunk& chunk) override {
    const std::int64_t round = trace_.next_round();
    const std::uint64_t f0 = thread_minor_faults();
    const double t0 = now_s();
    Status st = inner_.prepare_round(chunk);
    const double t1 = now_s();
    trace_.add("apps.prepare_round", t0, t1, round,
               thread_minor_faults() - f0);
    return st;
  }

  std::size_t round_tasks() const override { return inner_.round_tasks(); }

  void map_task(std::size_t task, std::size_t thread_id) override {
    const std::int64_t round = trace_.round();
    const std::uint64_t f0 = thread_minor_faults();
    const double t0 = now_s();
    inner_.map_task(task, thread_id);
    const double t1 = now_s();
    trace_.add("apps.map_task", t0, t1, round, thread_minor_faults() - f0);
  }

  Status reduce(ThreadPool& pool, std::size_t num_partitions) override {
    trace_.rss_after_map = rss_bytes();
    const double t0 = now_s();
    Status st = inner_.reduce(pool, num_partitions);
    trace_.add("containers.reduce", t0, now_s());
    return st;
  }

  Status merge(ThreadPool& pool, const core::MergePlan& plan,
               merge::MergeStats* stats) override {
    const double t0 = now_s();
    Status st = inner_.merge(pool, plan, stats);
    trace_.add("merge.merge", t0, now_s());
    return st;
  }

  std::uint64_t result_count() const override { return inner_.result_count(); }
  core::CombinerKind combiner_kind() const override {
    return inner_.combiner_kind();
  }
  core::ShardKind shard_kind() const override { return inner_.shard_kind(); }
  Status use_container(core::ContainerMode mode) override {
    return inner_.use_container(mode);
  }
  core::CombineStats combine_stats() const override {
    return inner_.combine_stats();
  }
  std::string canonical_output() const override {
    return inner_.canonical_output();
  }

 private:
  core::Application& inner_;
  JobTrace& trace_;
};

// Times read_at and counts the bytes it returns. Views are forwarded
// untimed: a borrowed page costs nothing here, its fault lands in map_task.
class TracedDevice final : public storage::Device {
 public:
  TracedDevice(std::shared_ptr<const storage::Device> inner, JobTrace& trace)
      : inner_(std::move(inner)), trace_(trace) {}

  StatusOr<std::size_t> read_at(std::uint64_t offset,
                                std::span<char> out) const override {
    const double t0 = now_s();
    StatusOr<std::size_t> n = inner_->read_at(offset, out);
    trace_.add("storage.read_at", t0, now_s(), -1, n.ok() ? *n : 0);
    return n;
  }

  std::uint64_t size() const override { return inner_->size(); }
  std::string_view name() const override { return inner_->name(); }
  bool supports_views() const override { return inner_->supports_views(); }
  std::span<const char> view_at(std::uint64_t offset,
                                std::size_t length) const override {
    return inner_->view_at(offset, length);
  }
  storage::DeviceModel model() const override { return inner_->model(); }

 private:
  std::shared_ptr<const storage::Device> inner_;
  JobTrace& trace_;
};

}  // namespace perfbench
