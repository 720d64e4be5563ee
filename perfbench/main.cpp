// perfbench: the repository's end-to-end and per-layer benchmark program.
//
//   perfbench prepare --workload W --seed N --dir D
//       Generates the workload's inputs from the seed into D (fsync'd) and
//       runs the sequential oracle (ref::run_ref) once per (app, input),
//       writing each canonical output's digest and result count to
//       D/oracle.txt. Not part of any timed number.
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--trace-out FILE]
//       Sets up (device open, plan, JobManager, warm-up job) nine times and
//       reports the median as setup_s, then runs jobs back to back for S
//       seconds with the library defaults (batch workloads: each job in a
//       process of its own, as a CLI run). Every job is checked against the
//       oracle, after its time is taken. With --trace 1 every other job
//       (serve-mix: every other cycle) runs through the layer decorators
//       (layers.hpp); the per-layer metrics come from those jobs and
//       trace_overhead_frac compares them with their untraced neighbours.
//       The last stdout line is the result JSON.
//
// Workloads and the reasons for each are listed in README.md.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/grep.hpp"
#include "apps/tera_sort.hpp"
#include "apps/word_count.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "layers.hpp"
#include "ref/ref_job.hpp"
#include "runtime/job_manager.hpp"
#include "storage/file_device.hpp"
#include "wload/teragen.hpp"
#include "wload/text_corpus.hpp"

namespace perfbench {
namespace {

constexpr double kMB = 1024.0 * 1024.0;
constexpr int kSetupRepeats = 9;

// ------------------------------------------------------------ workloads

enum class AppKind { kWordCount, kGrep, kTeraSort };

const char* app_name(AppKind kind) {
  switch (kind) {
    case AppKind::kWordCount: return "wordcount";
    case AppKind::kGrep: return "grep";
    case AppKind::kTeraSort: return "terasort";
  }
  return "?";
}

struct InputSpec {
  const char* file;
  bool tera;                // TeraGen records, else Zipf text
  std::uint64_t bytes;
  std::size_t vocabulary;   // text only
  double skew;              // text only
};

struct Workload {
  const char* name;
  bool serve;                   // closed loop through one JobManager
  std::vector<InputSpec> inputs;
  std::vector<AppKind> apps;    // batch: exactly one app over inputs[0]
  std::uint64_t chunk_bytes;
};

// serve-mix follows the shared-machine job mix of bench/bench_jobmix.cpp:
// twelve small jobs over 4 MB of text, each leasing two thread slots and
// 8 MB, and one 20 MB TeraGen sort leasing all slots but one and 64 MB at
// priority 1, all with 1 MB chunks. bench_jobmix's small jobs are greps;
// here wordcount and grep alternate. Job k of a run is the sort when
// k % 13 == 0.
constexpr std::size_t kServeCycle = 13;
constexpr std::size_t kServeMinJobs = 10 * kServeCycle;

AppKind serve_app(std::size_t k) {
  if (k % kServeCycle == 0) return AppKind::kTeraSort;
  return k % 2 == 0 ? AppKind::kWordCount : AppKind::kGrep;
}

// Thread slots a serve-mix job leases from a pool of `pool`.
std::size_t serve_lease(AppKind kind, std::size_t pool) {
  if (kind == AppKind::kTeraSort) return std::max<std::size_t>(1, pool - 1);
  return std::min<std::size_t>(2, pool);
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"wc-zipf", false, {{"text.dat", false, 128ull << 20, 10000, 1.0}},
       {AppKind::kWordCount}, 16ull << 20},
      {"wc-wide", false, {{"text.dat", false, 32ull << 20, 2000000, 0.5}},
       {AppKind::kWordCount}, 16ull << 20},
      {"terasort", false, {{"tera.dat", true, 128ull << 20, 0, 0.0}},
       {AppKind::kTeraSort}, 16ull << 20},
      {"serve-mix", true,
       {{"text.dat", false, 4ull << 20, 10000, 1.0},
        {"tera.dat", true, 200000ull * 100, 0, 0.0}},
       {AppKind::kWordCount, AppKind::kGrep, AppKind::kTeraSort},
       1ull << 20},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

const InputSpec& input_for(const Workload& w, AppKind kind) {
  const bool tera = kind == AppKind::kTeraSort;
  for (const InputSpec& in : w.inputs)
    if (in.tera == tera) return in;
  return w.inputs.front();
}

// Grep patterns, as in bench/bench_jobmix.cpp.
std::vector<std::string> grep_patterns() { return {"th", "he", "in", "er"}; }

std::unique_ptr<core::Application> make_app(AppKind kind) {
  switch (kind) {
    case AppKind::kWordCount: return std::make_unique<apps::WordCountApp>();
    case AppKind::kGrep:
      return std::make_unique<apps::GrepApp>(grep_patterns());
    case AppKind::kTeraSort: return std::make_unique<apps::TeraSortApp>();
  }
  return nullptr;
}

std::shared_ptr<const ingest::RecordFormat> make_format(bool tera) {
  if (tera) return std::make_shared<ingest::CrlfFormat>();
  return std::make_shared<ingest::LineFormat>();
}

// ------------------------------------------------------------ oracle

// 128-bit digest of a canonical output (two independent 64-bit lanes).
struct Digest {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const Digest&) const = default;
};

Digest digest(std::string_view s) {
  std::uint64_t a = 0x243f6a8885a308d3ULL ^ s.size();
  std::uint64_t b = 0x13198a2e03707344ULL;
  auto mix = [](std::uint64_t x) {
    x ^= x >> 31;
    x *= 0x7fb5d329728ea185ULL;
    x ^= x >> 27;
    x *= 0x81dadef4bc2dd44dULL;
    return x ^ (x >> 33);
  };
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, s.data() + i, 8);
    a = (a ^ w) * 0x9e3779b97f4a7c15ULL;
    a = (a << 27) | (a >> 37);
    b = (b + w) * 0xc2b2ae3d27d4eb4fULL;
    b ^= b >> 29;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, s.data() + i, s.size() - i);
  return {mix(a ^ tail), mix(b + tail + s.size())};
}

struct Oracle {
  Digest digest;
  std::uint64_t count = 0;
  std::uint64_t input_bytes = 0;
};

Status fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  return rc == 0 ? Status::Ok() : Status::IoError("fsync failed: " + path);
}

Status generate_input(const InputSpec& in, std::uint64_t seed,
                      const std::string& path) {
  if (in.tera) {
    wload::TeraGenConfig cfg;
    cfg.num_records = in.bytes / cfg.record_bytes;
    cfg.seed = seed;
    SUPMR_RETURN_IF_ERROR(wload::teragen_to_file(cfg, path));
  } else {
    wload::TextCorpusConfig cfg;
    cfg.total_bytes = in.bytes;
    cfg.vocabulary = in.vocabulary;
    cfg.zipf_skew = in.skew;
    cfg.seed = seed;
    SUPMR_RETURN_IF_ERROR(wload::generate_text_file(cfg, path));
  }
  return fsync_path(path);
}

Status prepare(const Workload& w, std::uint64_t seed, const std::string& dir) {
  for (const InputSpec& in : w.inputs)
    SUPMR_RETURN_IF_ERROR(generate_input(in, seed, dir + "/" + in.file));
  std::ostringstream out;
  for (AppKind kind : w.apps) {
    const InputSpec& in = input_for(w, kind);
    SUPMR_ASSIGN_OR_RETURN(auto dev,
                           storage::FileDevice::open(dir + "/" + in.file));
    const std::uint64_t bytes = dev->size();
    ingest::SingleDeviceSource source(std::move(dev), make_format(in.tera), 0);
    std::unique_ptr<core::Application> app = make_app(kind);
    SUPMR_ASSIGN_OR_RETURN(ref::RefResult ref, ref::run_ref(*app, source));
    if (ref.canonical.empty())
      return Status::Internal(std::string(app_name(kind)) +
                              ": empty canonical output");
    const Digest d = digest(ref.canonical);
    out << app_name(kind) << ' ' << d.a << ' ' << d.b << ' '
        << ref.result_count << ' ' << bytes << '\n';
  }
  std::ofstream f(dir + "/oracle.txt");
  f << out.str();
  f.close();
  if (!f) return Status::IoError("cannot write " + dir + "/oracle.txt");
  return Status::Ok();
}

StatusOr<std::map<std::string, Oracle>> load_oracle(const std::string& dir) {
  std::ifstream f(dir + "/oracle.txt");
  if (!f) return Status::NotFound("no oracle in " + dir + " (run prepare)");
  std::map<std::string, Oracle> out;
  std::string key;
  Oracle o;
  while (f >> key >> o.digest.a >> o.digest.b >> o.count >> o.input_bytes)
    out[key] = o;
  return out;
}

// ------------------------------------------------------------ measuring

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double thread_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
         1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Peak RSS since the last reset_peak_rss(), bytes. The reset starts a new
// peak at the current RSS: a batch job's process starts its own peak (fork
// copies the parent's), and serve-mix starts one per interval.
void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

std::uint64_t peak_rss_bytes() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
  }
  return 0;
}

// Host CPU ticks taken by other guests ("steal") and all ticks, from
// /proc/stat. Printed with each run: a run that saw much steal is noisier.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(f >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ------------------------------------------------------------ one job

struct OpenInput {
  std::shared_ptr<const storage::Device> device;
  std::shared_ptr<const ingest::RecordFormat> format;
};

// Everything one job references; must outlive its run.
struct JobSlot {
  AppKind kind = AppKind::kWordCount;
  std::size_t index = 0;  // position in this run's job sequence
  std::unique_ptr<core::Application> app;
  std::unique_ptr<JobTrace> trace;  // null when untraced
  std::unique_ptr<TracedApp> traced_app;
  std::unique_ptr<ingest::SingleDeviceSource> source;
  double start = 0.0;      // batch: run() entry; serve: before submit()
  double run_start = 0.0;  // run() entry (serve: submit + queue wait)
  double end = 0.0;

  core::Application& runnable() {
    return traced_app ? static_cast<core::Application&>(*traced_app) : *app;
  }
};

JobSlot make_job(AppKind kind, std::size_t index, const OpenInput& in,
                 std::uint64_t chunk_bytes, bool traced) {
  JobSlot slot;
  slot.kind = kind;
  slot.index = index;
  slot.app = make_app(kind);
  std::shared_ptr<const storage::Device> device = in.device;
  if (traced) {
    slot.trace = std::make_unique<JobTrace>(index + 1);
    slot.traced_app = std::make_unique<TracedApp>(*slot.app, *slot.trace);
    device = std::make_shared<TracedDevice>(in.device, *slot.trace);
  }
  slot.source = std::make_unique<ingest::SingleDeviceSource>(
      std::move(device), in.format, chunk_bytes, core::JobConfig{}.io);
  return slot;
}

// Per-job layer figures (names as printed), from the job's spans and the
// public JobResult fields.
using Layers = std::map<std::string, double>;

// Length of the union of [start, end] intervals clipped to [lo, hi].
double covered(std::vector<std::pair<double, double>> iv, double lo,
               double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_lo = lo, cur_hi = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (s > cur_hi) {
      total += cur_hi - cur_lo;
      cur_lo = s;
      cur_hi = e;
    } else {
      cur_hi = std::max(cur_hi, e);
    }
  }
  return total + (cur_hi - cur_lo);
}

Layers layers_of(const JobSlot& slot, const core::JobResult& r) {
  Layers l;
  const std::vector<Span> spans = slot.trace->spans();
  struct Round {
    double prepare_end = -1.0;
    double first_start = 1e300;
    double last_end = 0.0;
    std::vector<double> ends;
  };
  std::map<std::int64_t, Round> rounds;
  std::vector<std::pair<double, double>> children;
  double first_prepare = -1.0;
  for (const Span& s : spans) {
    const std::string name = s.name;
    const double d = s.end - s.start;
    if (s.id == slot.trace->job_span_id() || name == "runtime.submit")
      continue;
    if (name == "runtime.queue") {
      l["runtime.queue_s"] += d;
      continue;
    }
    children.emplace_back(s.start, s.end);
    if (name == "storage.read_at") {
      l["storage.read_s"] += d;
      l["storage.read_bytes"] += double(s.value);
    } else if (name == "apps.prepare_round") {
      l["apps.prepare_s"] += d;
      l["apps.prepare_minor_faults"] += double(s.value);
      rounds[s.round].prepare_end = s.end;
      if (first_prepare < 0 || s.start < first_prepare) first_prepare = s.start;
    } else if (name == "apps.map_task") {
      l["apps.map_busy_s"] += d;
      l["apps.map_minor_faults"] += double(s.value);
      Round& rd = rounds[s.round];
      rd.first_start = std::min(rd.first_start, s.start);
      rd.last_end = std::max(rd.last_end, s.end);
      rd.ends.push_back(s.end);
    } else if (name == "containers.reduce") {
      l["containers.reduce_s"] += d;
    } else if (name == "merge.merge") {
      l["merge.s"] += d;
    }
  }
  for (const auto& [idx, rd] : rounds) {
    if (rd.ends.empty()) continue;
    l["apps.map_wave_s"] += rd.last_end - rd.first_start;
    l["apps.map_straggler_s"] += rd.last_end - median(rd.ends);
    if (rd.prepare_end >= 0)
      l["threading.dispatch_s"] += rd.first_start - rd.prepare_end;
  }
  l["ingest.busy_s"] = r.pipeline.ingest_busy_s;
  l["ingest.wait_s"] = r.pipeline.consumer_wait_s;
  l["ingest.chunks"] = double(r.pipeline.chunks.size());
  l["ingest.bytes"] = double(r.pipeline.total_bytes);
  l["containers.rss_growth_mb"] =
      (double(slot.trace->rss_after_map) - double(slot.trace->rss_at_init)) /
      kMB;
  l["containers.keys"] = double(r.result_count);
  l["merge.rounds"] = double(r.merge_stats.num_rounds());
  l["merge.items_moved"] = double(r.merge_stats.total_items_moved());
  l["merge.partition_skew"] = r.merge_stats.partition_skew();
  l["core.setup_s"] =
      first_prepare >= 0 ? first_prepare - slot.run_start : 0.0;
  l["core.self_s"] = (slot.end - slot.run_start) -
                     covered(children, slot.run_start, slot.end);
  l["job_s"] = slot.end - slot.start;  // denominator of the layer shares
  return l;
}

// The shape a wrapped job must share with an unwrapped one of its kind.
struct Shape {
  std::uint64_t chunks = 0;
  std::uint64_t merge_rounds = 0;
  bool operator==(const Shape&) const = default;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<AppKind, Shape> unwrapped_shape;
  std::vector<std::pair<AppKind, Shape>> wrapped_shapes;

  void fail(const JobSlot& slot, const std::string& why) {
    ++failed;
    std::fprintf(stderr, "perfbench: job %zu (%s) FAILED: %s\n", slot.index,
                 app_name(slot.kind), why.c_str());
  }
};

// Checks one finished job against the oracle and the conservation laws;
// counts it in `tally`.
void check_job(const StatusOr<core::JobResult>& r, JobSlot& slot,
               const std::map<std::string, Oracle>& oracles, Tally& tally) {
  ++tally.attempted;
  if (!r.ok()) return tally.fail(slot, r.status().to_string());
  const Oracle& o = oracles.at(app_name(slot.kind));
  if (r->degraded()) return tally.fail(slot, "degraded result");
  if (r->pipeline.total_bytes != o.input_bytes)
    return tally.fail(slot, "ingest bytes " +
                                std::to_string(r->pipeline.total_bytes) +
                                " != input size " +
                                std::to_string(o.input_bytes));
  if (r->result_count != o.count)
    return tally.fail(slot, "result_count " + std::to_string(r->result_count) +
                                " != oracle " + std::to_string(o.count));
  if (!(digest(slot.app->canonical_output()) == o.digest))
    return tally.fail(slot, "canonical output differs from the oracle");
  const Shape shape{r->pipeline.chunks.size(), r->merge_stats.num_rounds()};
  if (slot.trace) {
    tally.wrapped_shapes.emplace_back(slot.kind, shape);
  } else {
    tally.unwrapped_shape.emplace(slot.kind, shape);
  }
}

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("fail_frac %.6f (%" PRIu64 " of %" PRIu64 " jobs)\n",
              t.attempted ? double(t.failed) / double(t.attempted) : 0.0,
              t.failed, t.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              t.failed == 0 && t.attempted > 0 ? "true" : "false",
              t.attempted, t.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Every per-layer metric, in report order. Layers a workload does not run
// (runtime.* on batch workloads, the private chunk pool of a batch job)
// read 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"storage.read_s", "s"},
    {"storage.read_bytes", "bytes"},
    {"ingest.busy_s", "s"},
    {"ingest.wait_s", "s"},
    {"ingest.chunks", "count"},
    {"ingest.bytes", "bytes"},
    {"ingest.buffer_misses", "count"},
    {"apps.prepare_s", "s"},
    {"apps.prepare_minor_faults", "count"},
    {"apps.map_busy_s", "s"},
    {"apps.map_wave_s", "s"},
    {"apps.map_straggler_s", "s"},
    {"apps.map_minor_faults", "count"},
    {"threading.dispatch_s", "s"},
    {"containers.reduce_s", "s"},
    {"containers.rss_growth_mb", "MB"},
    {"containers.keys", "count"},
    {"merge.s", "s"},
    {"merge.rounds", "count"},
    {"merge.items_moved", "count"},
    {"merge.partition_skew", "ratio"},
    {"core.setup_s", "s"},
    {"core.self_s", "s"},
    {"runtime.queue_s", "s"},
    {"runtime.queue_wait_s.p50", "s"},
    {"runtime.queue_wait_s.p90", "s"},
    {"runtime.submit_s", "s"},
    {"runtime.rejects", "count"},
    {"trace_overhead_frac", "ratio"},
};

// Blocking-path layers whose share of the traced job time names the
// dominant layer.
const char* const kBlockingLayers[] = {
    "ingest.wait_s",       "apps.prepare_s", "threading.dispatch_s",
    "apps.map_wave_s",     "containers.reduce_s", "merge.s",
    "core.setup_s",        "core.self_s",         "runtime.queue_s",
};

// Chrome-trace JSON (the obs::TraceRecorder shape; opens in Perfetto).
Status write_chrome_trace(const std::vector<Span>& spans,
                          const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create " + path);
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{"
                 "\"job\":%" PRIu64 ",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"round\":%" PRId64 ",\"value\":%" PRIu64 "}}",
                 i ? "," : "", s.name, s.start * 1e6, (s.end - s.start) * 1e6,
                 s.tid, s.job, s.id, s.parent, s.round, s.value);
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0 ? Status::Ok()
                             : Status::IoError("short write to " + path);
}

// ------------------------------------------------------------ the run

struct RunArgs {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

// One timed job.
struct JobSample {
  double wall = 0.0;
  double steal = 0.0;  // host steal while it ran (steal_share)
  bool traced = false;
};

// One measuring interval: an untraced batch job, or one serve-mix cycle
// (kServeCycle completions).
struct Interval {
  double wall = 0.0;
  double cpu = 0.0;
  double bytes = 0.0;
  double jobs = 0.0;
  double peak_mb = 0.0;
  double steal = 0.0;
};

// Share of the machine's CPU ticks that the hypervisor gave to other guests
// between two readings. It is reported with the run, never used to drop
// samples: steal accrues only on vCPUs that want to run, so it grows with
// the program's own CPU demand.
double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const double ticks = to.total - from.total;
  return ticks > 0 ? (to.steal - from.steal) / ticks : 0.0;
}

// Samples that saw more steal than this are counted in the header line.
constexpr double kHighSteal = 0.05;

template <class T>
std::size_t high_steal(const std::vector<T>& samples) {
  return std::count_if(samples.begin(), samples.end(),
                       [](const T& x) { return x.steal > kHighSteal; });
}

struct Samples {
  std::vector<JobSample> jobs;
  std::vector<Interval> intervals;  // untraced batch jobs / serve cycles
  std::vector<Layers> layers;       // one per traced job
  std::vector<Span> spans;
  double window_s = 0.0;
  // serve-mix only
  std::vector<double> queue_wait_s;
  std::vector<double> submit_s;
  std::uint64_t rejects = 0;
  std::uint64_t buffer_misses = 0;
};

void finish_traced(JobSlot& slot, const StatusOr<core::JobResult>& r,
                   Samples& s, const char* job_span) {
  slot.trace->close(job_span, slot.start, slot.end);
  if (r.ok()) s.layers.push_back(layers_of(slot, *r));
  for (const Span& span : slot.trace->spans()) s.spans.push_back(span);
}

StatusOr<OpenInput> open_input(const std::string& dir, const InputSpec& in) {
  SUPMR_ASSIGN_OR_RETURN(auto dev, storage::FileDevice::open(dir + "/" +
                                                             in.file));
  return OpenInput{std::shared_ptr<const storage::Device>(std::move(dev)),
                   make_format(in.tera)};
}

// What a batch job's process hands back to the benchmark process, through a
// shared mapping made before fork(). Span names are string literals, so
// their pointers are as valid in the parent as in the child.
constexpr std::size_t kNumLayers = std::size(kLayerMetrics);
constexpr std::size_t kMaxJobSpans = 4096;

struct JobReport {
  double end = 0.0;  // run() returned, now_s() timebase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool has_shape = false;
  Shape shape;
  JobSample job;
  Interval interval;
  bool has_layers = false;
  double layers[kNumLayers + 1] = {};  // kLayerMetrics order, then job_s
  std::size_t num_spans = 0;
  Span spans[kMaxJobSpans];
};

// Batch workloads: one job at a time through MapReduceJob::run, each in a
// process of its own forked from this one, as a CLI run would be. Back to
// back in one process, glibc's retained heap ratchets up from job to job
// until it levels off, so a job's peak RSS depended on how many jobs had
// run before it in the same process.
Status run_batch(const RunArgs& a, const std::map<std::string, Oracle>& oracles,
                 Tally& tally, Samples& s, double& setup_s) {
  const Workload& w = *a.workload;
  const AppKind kind = w.apps.front();
  const double input_bytes = double(oracles.at(app_name(kind)).input_bytes);
  const core::JobConfig config;  // library defaults
  std::size_t next_index = 0;
  OpenInput input;

  void* mapping = mmap(nullptr, sizeof(JobReport), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mapping == MAP_FAILED) return Status::Internal("mmap failed");
  struct Unmap {
    void* p;
    ~Unmap() { munmap(p, sizeof(JobReport)); }
  } unmap{mapping};
  JobReport& report = *new (mapping) JobReport();

  // Runs in the job's process: the job, its figures, then its check.
  auto run_one = [&](std::size_t index, bool traced) {
    Tally t;
    Samples js;
    JobSlot slot = make_job(kind, index, input, w.chunk_bytes, traced);
    Status st = slot.runnable().use_container(config.container);
    reset_peak_rss();
    const CpuTicks ticks0 = cpu_ticks();
    const double cpu0 = process_cpu_s();
    slot.start = slot.run_start = now_s();
    StatusOr<core::JobResult> r = st;
    if (st.ok()) {
      core::MapReduceJob job(slot.runnable(), *slot.source, config);
      r = job.run(config.mode);
    }
    slot.end = now_s();
    const double cpu = process_cpu_s() - cpu0;
    const double steal = steal_share(ticks0, cpu_ticks());
    const double peak_mb = double(peak_rss_bytes()) / kMB;
    check_job(r, slot, oracles, t);
    if (traced) finish_traced(slot, r, js, "core.job");

    const double wall = slot.end - slot.start;
    report.end = slot.end;
    report.job = {wall, steal, traced};
    report.interval = {wall, cpu, input_bytes, 1.0, peak_mb, steal};
    report.has_shape = !t.unwrapped_shape.empty() || !t.wrapped_shapes.empty();
    if (!t.unwrapped_shape.empty()) report.shape = t.unwrapped_shape[kind];
    if (!t.wrapped_shapes.empty()) report.shape = t.wrapped_shapes[0].second;
    report.has_layers = !js.layers.empty();
    if (report.has_layers) {
      Layers& l = js.layers[0];
      for (std::size_t i = 0; i < kNumLayers; ++i)
        report.layers[i] = l[kLayerMetrics[i].name];
      report.layers[kNumLayers] = l["job_s"];
    }
    if (js.spans.size() > kMaxJobSpans)
      t.fail(slot, "more spans than a job report holds");
    report.num_spans = std::min(js.spans.size(), kMaxJobSpans);
    std::copy_n(js.spans.begin(), report.num_spans, report.spans);
    report.attempted = t.attempted;
    report.failed = t.failed;
  };

  // Runs one job in a process of its own and folds its report into `tally`
  // and `s`. Returns the time its run() returned.
  auto fork_one = [&](bool traced, bool timed) -> StatusOr<double> {
    const std::size_t index = next_index++;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) return Status::Internal("fork failed");
    if (pid == 0) {
      run_one(index, traced);
      _exit(0);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) return Status::Internal("waitpid failed");
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      return Status::Internal("the process of job " + std::to_string(index) +
                              " died");
    tally.attempted += report.attempted;
    tally.failed += report.failed;
    if (report.has_shape) {
      if (traced) {
        tally.wrapped_shapes.emplace_back(kind, report.shape);
      } else {
        tally.unwrapped_shape.emplace(kind, report.shape);
      }
    }
    if (report.has_layers) {
      Layers l;
      for (std::size_t i = 0; i < kNumLayers; ++i)
        l[kLayerMetrics[i].name] = report.layers[i];
      l["job_s"] = report.layers[kNumLayers];
      s.layers.push_back(std::move(l));
    }
    s.spans.insert(s.spans.end(), report.spans,
                   report.spans + report.num_spans);
    if (timed) {
      s.jobs.push_back(report.job);
      if (!traced) s.intervals.push_back(report.interval);
    }
    return report.end;
  };

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_s();
    SUPMR_ASSIGN_OR_RETURN(input, open_input(a.dir, w.inputs.front()));
    ingest::SingleDeviceSource probe(input.device, input.format,
                                     w.chunk_bytes, config.io);
    SUPMR_RETURN_IF_ERROR(probe.plan().status());
    SUPMR_ASSIGN_OR_RETURN(const double warm_end, fork_one(false, false));
    setups.push_back(warm_end - t0);
  }
  setup_s = median(setups);

  const std::size_t min_jobs = a.trace ? 4 : 3;
  const double t_start = now_s();
  for (std::size_t k = 0;
       k < min_jobs || now_s() - t_start < a.seconds; ++k) {
    SUPMR_RETURN_IF_ERROR(fork_one(a.trace && k % 2 == 1, true).status());
  }
  s.window_s = now_s() - t_start;
  return Status::Ok();
}

// serve-mix: a closed loop from this thread through one JobManager. The
// loop submits the next job of the sequence as soon as the leases of the
// jobs outstanding leave room for its own. No job therefore queues behind
// another by construction, and the queue wait measures the runtime's own
// dispatch.
Status run_serve(const RunArgs& a, const std::map<std::string, Oracle>& oracles,
                 Tally& tally, Samples& s, double& setup_s) {
  const Workload& w = *a.workload;
  const std::size_t pool = core::JobConfig::default_threads();
  std::map<AppKind, OpenInput> inputs;
  std::unique_ptr<runtime::JobManager> mgr;
  std::size_t next_index = 0;

  // A submitted job. Its waiter thread stamps the end as soon as wait()
  // returns, so no job's time includes the checks of another.
  struct Pending {
    JobSlot slot;
    runtime::JobHandle handle;
    std::size_t lease = 0;
    CpuTicks ticks0;
    double steal = 0.0;
    std::optional<StatusOr<core::JobResult>> result;
    std::thread waiter;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Pending*> finished;  // guarded by mu

  auto submit = [&](AppKind kind, bool traced) -> std::unique_ptr<Pending> {
    auto p = std::make_unique<Pending>();
    p->slot = make_job(kind, next_index++, inputs.at(kind), w.chunk_bytes,
                       traced);
    p->lease = serve_lease(kind, pool);
    runtime::JobRequest req;
    req.app = &p->slot.runnable();
    req.source = p->slot.source.get();
    req.name = app_name(kind);
    req.threads = p->lease;
    req.priority = kind == AppKind::kTeraSort ? 1 : 0;
    req.memory_bytes = kind == AppKind::kTeraSort ? 64ull << 20 : 8ull << 20;
    Status st = req.app->use_container(req.config.container);
    p->ticks0 = cpu_ticks();
    p->slot.start = now_s();
    StatusOr<runtime::JobHandle> h = st;
    if (st.ok()) h = mgr->submit(std::move(req));
    const double submitted = now_s();
    s.submit_s.push_back(submitted - p->slot.start);
    if (traced)
      p->slot.trace->add("runtime.submit", p->slot.start, submitted);
    if (!h.ok()) {
      ++s.rejects;
      ++tally.attempted;
      tally.fail(p->slot, "submit refused: " + h.status().to_string());
      return nullptr;
    }
    p->handle = *h;
    p->waiter = std::thread([&mu, &cv, &finished, job = p.get()] {
      StatusOr<core::JobResult> r = job->handle.wait();
      const double end = now_s();
      const double steal = steal_share(job->ticks0, cpu_ticks());
      std::lock_guard<std::mutex> lock(mu);
      job->slot.end = end;
      job->steal = steal;
      job->result.emplace(std::move(r));
      finished.push_back(job);
      cv.notify_one();
    });
    return p;
  };

  // Blocks until at least one job has finished; returns the finished jobs
  // with their waiters joined.
  auto collect = [&] {
    std::vector<Pending*> out;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !finished.empty(); });
      out.swap(finished);
    }
    for (Pending* p : out) p->waiter.join();
    return out;
  };

  // Checks a finished job and returns its sample.
  auto check = [&](Pending& p) -> JobSample {
    const double qw = p.handle.queue_wait_s();
    s.queue_wait_s.push_back(qw);
    p.slot.run_start = p.slot.start + qw;
    check_job(*p.result, p.slot, oracles, tally);
    if (p.slot.trace) {
      p.slot.trace->add("runtime.queue", p.slot.start, p.slot.run_start);
      finish_traced(p.slot, *p.result, s, "runtime.job");
    }
    return {p.slot.end - p.slot.start, p.steal, p.slot.trace != nullptr};
  };

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    mgr.reset();
    const double t0 = now_s();
    for (AppKind kind : w.apps) {
      SUPMR_ASSIGN_OR_RETURN(inputs[kind],
                             open_input(a.dir, input_for(w, kind)));
    }
    mgr = std::make_unique<runtime::JobManager>();
    // Warm-up: one job of each kind, one after another. Set-up ends when
    // the last one's wait() returns; the checks come after.
    std::vector<std::unique_ptr<Pending>> warm;
    for (AppKind kind : w.apps) {
      std::unique_ptr<Pending> p = submit(kind, false);
      if (p == nullptr) return Status::Internal("warm-up submit refused");
      collect();  // the only job outstanding
      warm.push_back(std::move(p));
    }
    setups.push_back(warm.back()->slot.end - t0);
    for (const auto& p : warm) check(*p);
  }
  setup_s = median(setups);
  s.submit_s.clear();
  s.queue_wait_s.clear();

  // The generator's own CPU (output checks) is not the runtime's.
  auto runtime_cpu_s = [] { return process_cpu_s() - thread_cpu_s(); };
  const std::uint64_t misses0 = mgr->chunk_buffers().misses();
  const double t_start = now_s();
  // The interval being filled: its start, and what it has completed.
  double iv_t0 = t_start, iv_cpu0 = runtime_cpu_s(), iv_bytes = 0.0;
  CpuTicks iv_ticks0 = cpu_ticks();
  std::size_t iv_jobs = 0;
  reset_peak_rss();
  std::map<Pending*, std::unique_ptr<Pending>> live;
  std::size_t free_slots = pool, k = 0;
  auto refill = [&] {
    while (k < kServeMinJobs || now_s() - t_start < a.seconds) {
      const AppKind kind = serve_app(k);
      if (serve_lease(kind, pool) > free_slots) break;
      const bool traced = a.trace && (k / kServeCycle) % 2 == 1;
      ++k;
      std::unique_ptr<Pending> p = submit(kind, traced);
      if (p == nullptr) continue;
      free_slots -= p->lease;
      Pending* key = p.get();
      live.emplace(key, std::move(p));
    }
  };
  refill();
  while (!live.empty()) {
    const std::vector<Pending*> done = collect();
    for (Pending* p : done) free_slots += p->lease;
    refill();  // before the checks, so they delay no submit
    for (Pending* p : done) {
      s.jobs.push_back(check(*p));
      iv_bytes += double(oracles.at(app_name(p->slot.kind)).input_bytes);
      if (++iv_jobs == kServeCycle) {
        const double now = now_s(), cpu = runtime_cpu_s();
        const CpuTicks ticks = cpu_ticks();
        s.intervals.push_back({now - iv_t0, cpu - iv_cpu0, iv_bytes,
                               double(kServeCycle),
                               double(peak_rss_bytes()) / kMB,
                               steal_share(iv_ticks0, ticks)});
        iv_t0 = now;
        iv_cpu0 = cpu;
        iv_ticks0 = ticks;
        iv_bytes = 0.0;
        iv_jobs = 0;
        reset_peak_rss();
      }
      live.erase(p);
    }
  }
  s.window_s = now_s() - t_start;
  s.buffer_misses = mgr->chunk_buffers().misses() - misses0;
  mgr.reset();
  return Status::Ok();
}

std::vector<double> walls(const std::vector<JobSample>& jobs, bool traced) {
  std::vector<double> out;
  for (const JobSample& j : jobs)
    if (j.traced == traced) out.push_back(j.wall);
  return out;
}

int run(const RunArgs& a) {
  auto oracles = load_oracle(a.dir);
  if (!oracles.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", oracles.status().to_string().c_str());
    return 1;
  }
  for (AppKind kind : a.workload->apps) {
    if (oracles->count(app_name(kind)) == 0) {
      std::fprintf(stderr, "perfbench: oracle lacks %s\n", app_name(kind));
      return 1;
    }
  }
  Tally tally;
  Samples s;
  double setup_s = 0.0;
  const CpuTicks ticks0 = cpu_ticks();
  Status st = a.workload->serve ? run_serve(a, *oracles, tally, s, setup_s)
                                : run_batch(a, *oracles, tally, s, setup_s);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 st.to_string().c_str());
    return 1;
  }
  // Wrapping must not move a job off its path.
  for (const auto& [kind, shape] : tally.wrapped_shapes) {
    auto it = tally.unwrapped_shape.find(kind);
    if (it == tally.unwrapped_shape.end() || !(it->second == shape)) {
      ++tally.failed;
      std::fprintf(stderr,
                   "perfbench: wrapped %s job ran %" PRIu64
                   " chunks / %" PRIu64 " merge rounds, unwrapped differs\n",
                   app_name(kind), shape.chunks, shape.merge_rounds);
    }
  }
  const double threads = double(core::JobConfig::default_threads());
  const std::vector<double> untraced = walls(s.jobs, false);
  const double job_s = median(untraced);
  std::printf("perfbench %s seed=%" PRIu64 " threads=%.0f jobs=%zu "
              "window=%.3fs host_steal=%.3f high_steal_jobs=%zu/%zu "
              "high_steal_intervals=%zu/%zu\n",
              a.workload->name, a.seed, threads, s.jobs.size(), s.window_s,
              steal_share(ticks0, cpu_ticks()), high_steal(s.jobs),
              s.jobs.size(), high_steal(s.intervals), s.intervals.size());

  std::vector<Metric> metrics;
  if (!a.trace) {
    // Rates are medians over intervals. A serve-mix interval overlaps jobs,
    // so its input rate is bytes per second of wall, not bytes over job_s.
    std::vector<double> mbps, rate, cpu, peak;
    for (const Interval& iv : s.intervals) {
      mbps.push_back(iv.bytes / kMB / iv.wall);
      rate.push_back(iv.jobs / iv.wall);
      cpu.push_back(iv.cpu / (iv.wall * threads));
      peak.push_back(iv.peak_mb);
    }
    metrics = {
        {"job_s", job_s, "s"},
        {"job_s.p90", quantile(untraced, 0.9), "s"},
        {"input_mbps", median(mbps), "MB/s"},
        {"jobs_per_s", median(rate), "1/s"},
        {"cpu_util", median(cpu), "ratio"},
        {"peak_rss_mb", median(peak), "MB"},
        {"setup_s", setup_s, "s"},
    };
  } else {
    Layers mean;
    for (const Layers& l : s.layers)
      for (const auto& [k, v] : l) mean[k] += v / double(s.layers.size());
    if (!s.layers.empty() && mean["storage.read_bytes"] < mean["ingest.bytes"]) {
      ++tally.failed;
      std::fprintf(stderr, "perfbench: storage.read_bytes < ingest bytes\n");
    }
    mean["ingest.buffer_misses"] = double(s.buffer_misses);
    mean["runtime.queue_wait_s.p50"] = quantile(s.queue_wait_s, 0.5);
    mean["runtime.queue_wait_s.p90"] = quantile(s.queue_wait_s, 0.9);
    double submit_sum = 0.0;
    for (double x : s.submit_s) submit_sum += x;
    mean["runtime.submit_s"] =
        s.submit_s.empty() ? 0.0 : submit_sum / double(s.submit_s.size());
    mean["runtime.rejects"] = double(s.rejects);
    const double traced_job_s = median(walls(s.jobs, true));
    mean["trace_overhead_frac"] = job_s > 0 ? traced_job_s / job_s - 1.0 : 0.0;
    for (const LayerMetric& m : kLayerMetrics)
      metrics.push_back({m.name, mean[m.name], m.unit});

    std::printf("layer shares of the mean traced job (%.6fs, %zu jobs):\n",
                mean["job_s"], s.layers.size());
    const char* top = nullptr;
    for (const char* name : kBlockingLayers) {
      std::printf("  %-22s %10.6fs  %5.1f%%\n", name, mean[name],
                  100.0 * mean[name] / mean["job_s"]);
      if (top == nullptr || mean[name] > mean[top]) top = name;
    }
    std::printf("dominant layer: %s\n", top);
    if (!a.trace_out.empty()) {
      Status ts = write_chrome_trace(s.spans, a.trace_out);
      if (!ts.ok())
        std::fprintf(stderr, "perfbench: %s\n", ts.to_string().c_str());
      else
        std::printf("trace (%zu spans) -> %s\n", s.spans.size(),
                    a.trace_out.c_str());
    }
  }
  print_result(tally, metrics);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare|run --workload W --seed N --dir D "
               "[--seconds S] [--trace 0|1] [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  RunArgs a;
  std::string workload;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--dir") a.dir = val;
    else if (key == "--trace-out") a.trace_out = val;
    else return usage();
  }
  a.workload = find_workload(workload);
  if (a.workload == nullptr || a.dir.empty() || !(a.seconds > 0))
    return usage();
  if (cmd == "prepare") {
    Status st = prepare(*a.workload, a.seed, a.dir);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: prepare failed: %s\n",
                   st.to_string().c_str());
      return 1;
    }
    return 0;
  }
  if (cmd == "run") {
    return run(a);
  }
  return usage();
}
