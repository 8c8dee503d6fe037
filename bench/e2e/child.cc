// One measured Create + Run, executed in a fresh child process so that peak
// RSS is per run and every run pays first-touch page faults as a CLI user
// does. The parent reads the single JSON object this prints on stdout.
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/file_catalog.h"
#include "catalog/workload.h"
#include "common/hash.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "core/config_io.h"
#include "core/engine.h"
#include "dht/ring.h"
#include "e2e.h"
#include "metrics/report.h"
#include "net/landmark.h"
#include "net/underlay.h"
#include "overlay/churn.h"
#include "overlay/overlay_graph.h"
#include "sim/shard_placement.h"

// --- heap allocation counter -------------------------------------------------
// Binary-wide operator new override. It counts only while the traced pass
// enables it, so untraced runs pay one relaxed load per allocation. The
// counter is atomic because sharded runs allocate from worker threads.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace locaware::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// CPU time of the whole process (every thread) so far, in seconds.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A field of /proc/self/status in MB ("VmHWM", "VmRSS"), or 0 if absent.
double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Spans of one run, in start order, timed relative to the child's start.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    double start_s;
    double dur_s;
  };

  /// Records a span from construction to destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer)
        : tracer_(tracer), index_(tracer->spans_.size()), begin_(Clock::now()) {
      tracer->spans_.push_back({name, layer, Seconds(begin_ - tracer->origin_), 0});
    }
    ~Scope() { tracer_->spans_[index_].dur_s = Seconds(Clock::now() - begin_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t index_;
    Clock::time_point begin_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of the span called `name`, or 0 if it was never opened.
  double Duration(std::string_view name) const {
    for (const Span& s : spans_) {
      if (name == s.name) return s.dur_s;
    }
    return 0;
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Runs `fn` under a span and returns its result.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, const char* layer, Fn&& fn) {
  Tracer::Scope span(tracer, name, layer);
  return fn();
}

constexpr const char* kSetupSpans[] = {
    "net.underlay_build",
    "net.locids",
    "catalog.generate",
    "catalog.workload",
    "catalog.assign_files",
    "sim.placement",
    "overlay.generate",
    "overlay.churn_timeline",
    "dht.ring",
};

/// Re-runs the setup steps Engine::Create performs, with the inputs and RNG
/// streams it gives them, each under its own span. Every step runs, so every
/// span is measured on every workload, but Create skips two of them for some
/// configs (the churn timeline without churn, the ring outside the DHT
/// family). Returns the summed span time of the steps Create does run.
Result<double> RunSetupSteps(const core::ExperimentConfig& config, Tracer* tracer) {
  const Rng root(config.seed);
  Tracer::Scope all(tracer, "setup.steps", "e2e");

  net::GeometricUnderlayConfig underlay_config = config.underlay;
  underlay_config.num_peers = config.num_peers;
  underlay_config.num_landmarks = config.num_landmarks;
  auto underlay = Traced(tracer, "net.underlay_build", "net", [&] {
    Rng rng = root.Split("underlay");
    return net::GeometricUnderlay::Build(underlay_config, &rng);
  });
  if (!underlay.ok()) return underlay.status();
  const net::Underlay& network = *underlay.ValueOrDie();
  Traced(tracer, "net.locids", "net", [&] { net::ComputeAllLocIds(network); });

  auto files = Traced(tracer, "catalog.generate", "catalog", [&] {
    Rng rng = root.Split("catalog");
    return catalog::FileCatalog::Generate(config.catalog, &rng);
  });
  if (!files.ok()) return files.status();
  catalog::FileCatalog catalog = std::move(files).ValueOrDie();
  auto workload = Traced(tracer, "catalog.workload", "catalog", [&] {
    return catalog::QueryWorkload::LoadAuto(config.trace_path, &catalog);
  });
  if (!workload.ok()) return workload.status();
  Traced(tracer, "catalog.assign_files", "catalog", [&] {
    Rng rng = root.Split("placement");
    catalog::AssignInitialFiles(config.num_peers, config.files_per_peer, catalog, &rng);
  });

  Traced(tracer, "sim.placement", "sim", [&] {
    std::vector<size_t> peer_location(config.num_peers);
    for (PeerId p = 0; p < config.num_peers; ++p) {
      peer_location[p] = network.LocationOf(p);
    }
    sim::ShardPlacement::Modulo(config.scheduler.shards, peer_location);
  });

  const auto graph = Traced(tracer, "overlay.generate", "overlay", [&] {
    Rng rng = root.Split("overlay");
    overlay::OverlayConfig overlay_config;
    overlay_config.num_peers = config.num_peers;
    overlay_config.avg_degree = config.avg_degree;
    return overlay::OverlayGraph::Generate(overlay_config, &rng);
  });
  if (!graph.ok()) return graph.status();

  auto model = overlay::ChurnModel::Create(config.churn);
  if (!model.ok()) return model.status();
  // Engine::RunHorizon and the engine's "churn" stream seed.
  const auto& queries = workload.ValueOrDie().queries();
  const sim::SimTime horizon =
      queries.empty()
          ? 0
          : queries.back().submit_time + 2 * config.params.query_deadline + sim::kSecond;
  const uint64_t churn_seed = root.Split("churn").NextU64();
  Traced(tracer, "overlay.churn_timeline", "overlay", [&] {
    overlay::ChurnTimeline::Build(model.ValueOrDie(), churn_seed, config.num_peers,
                                  horizon);
  });

  // Ring::Build is header-inline: keeping and checking its result stops the
  // compiler from discarding the work.
  const dht::Ring ring = Traced(tracer, "dht.ring", "dht",
                                [&] { return dht::Ring::Build(config.num_peers); });
  if (ring.size() != config.num_peers) return Status::Internal("short DHT ring");

  const bool dht_family = config.protocol == core::ProtocolKind::kDht ||
                          config.protocol == core::ProtocolKind::kHybrid;
  double create_steps_s = 0;
  for (const char* name : kSetupSpans) {
    const std::string_view span = name;
    if (span == "overlay.churn_timeline" && !config.churn.enabled) continue;
    if (span == "dht.ring" && !dht_family) continue;
    create_steps_s += tracer->Duration(span);
  }
  return create_steps_s;
}

/// An anonymous in-memory file; returns its path, valid for the life of the
/// process.
Result<std::string> MemoryFile(const char* name) {
  const int fd = memfd_create(name, 0);
  if (fd < 0) return Status::Internal(std::string("memfd_create: ") + std::strerror(errno));
  return "/proc/self/fd/" + std::to_string(fd);
}

/// Generates the query trace of `seed` against the catalog `config` builds
/// and writes it to an in-memory binary trace file. Returns its path for
/// config.trace_path. What each query asks for and when comes from `seed`;
/// who asks comes from the same draw at the network seed. A flood's cost is
/// set by where it starts, so with the requesters drawn afresh, flooding
/// runs at different seeds differed by 5-10% in events; with them fixed,
/// they differ by the queries alone. At the network seed the trace is the
/// generated workload itself.
Result<std::string> WriteQueryTrace(const core::ExperimentConfig& config, uint64_t seed) {
  Rng catalog_rng = Rng(config.seed).Split("catalog");
  auto generated = catalog::FileCatalog::Generate(config.catalog, &catalog_rng);
  if (!generated.ok()) return generated.status();
  catalog::FileCatalog catalog = std::move(generated).ValueOrDie();
  const auto generate = [&](uint64_t trace_seed) {
    Rng rng = Rng(trace_seed).Split("workload");
    return catalog::QueryWorkload::Generate(config.workload, catalog, config.num_peers, &rng);
  };
  auto asked = generate(seed);
  if (!asked.ok()) return asked.status();
  auto askers = generate(config.seed);
  if (!askers.ok()) return askers.status();

  // The text trace format (QueryWorkload::SaveTrace) with the requesters
  // swapped in, converted to the binary format Create loads fastest.
  const std::vector<catalog::QueryEvent>& queries = asked.ValueOrDie().queries();
  const std::vector<catalog::QueryEvent>& requesters = askers.ValueOrDie().queries();
  auto text_path = MemoryFile("locaware_e2e_text_trace");
  if (!text_path.ok()) return text_path.status();
  {
    std::ofstream text(text_path.ValueOrDie());
    for (size_t i = 0; i < queries.size(); ++i) {
      const catalog::QueryEvent& q = queries[i];
      text << q.id << ' ' << requesters[i].requester << ' ' << q.target << ' '
           << q.submit_time;
      for (KeywordId kw : q.keywords) text << ' ' << catalog.keyword(kw);
      text << '\n';
    }
    if (!text.good()) return Status::IOError("cannot write the text trace");
  }
  auto workload = catalog::QueryWorkload::LoadTrace(text_path.ValueOrDie(), &catalog);
  if (!workload.ok()) return workload.status();
  auto path = MemoryFile("locaware_e2e_trace");
  if (!path.ok()) return path.status();
  const Status saved = workload.ValueOrDie().SaveBinary(path.ValueOrDie(), catalog);
  if (!saved.ok()) return saved;
  return path;
}

void PrintFailure(const Status& status) {
  JsonWriter out(/*pretty=*/false);
  out.BeginObject();
  out.Key("ok");
  out.Bool(false);
  out.Key("error");
  out.String(status.ToString());
  out.EndObject();
  std::printf("%s\n", out.TakeString().c_str());
}

}  // namespace

std::span<const char* const> SetupSpans() { return kSetupSpans; }

int RunChild(const Workload& workload, uint64_t seed, uint32_t shards, uint32_t workers,
             double query_scale, bool traced) {
  core::ExperimentConfig config = MakeConfig(workload, shards, workers, query_scale);
  Result<std::string> trace = WriteQueryTrace(config, seed);
  if (!trace.ok()) {
    PrintFailure(trace.status());
    return 1;
  }
  config.trace_path = std::move(trace).ValueOrDie();
  Tracer tracer;
  std::optional<Tracer::Scope> pass;
  double create_steps_s = 0;
  if (traced) {
    pass.emplace(&tracer, "trace_pass", "e2e");
    const Result<double> built = RunSetupSteps(config, &tracer);
    if (!built.ok()) {
      PrintFailure(built.status());
      return 1;
    }
    create_steps_s = built.ValueOrDie();
    g_count_allocs.store(true);
  }

  const double c0 = ProcessCpuSeconds();
  const auto t0 = Clock::now();
  auto created = Traced(&tracer, "core.create", "core",
                        [&] { return core::Engine::Create(config); });
  const auto t1 = Clock::now();
  const double c1 = ProcessCpuSeconds();
  if (!created.ok()) {
    PrintFailure(created.status());
    return 1;
  }
  core::Engine& engine = *created.ValueOrDie();
  const double rss_after_create_mb = ProcStatusMb("VmRSS");

  const uint64_t allocs_before_run = g_allocs.load();
  const double c2 = ProcessCpuSeconds();
  const auto t2 = Clock::now();
  Traced(&tracer, "core.run", "core", [&] { engine.Run(); });
  const auto t3 = Clock::now();
  const double c3 = ProcessCpuSeconds();
  const uint64_t run_allocs = g_allocs.load() - allocs_before_run;

  core::ExperimentResult result;
  const uint64_t digest = Traced(&tracer, "metrics.report", "metrics", [&] {
    result.label = config.label;
    result.summary = metrics::Summarize(engine.metrics());
    result.series = metrics::Bucketize(engine.metrics().records(), 10);
    return Fnv1a64(core::ResultToJson(result));
  });
  const auto t4 = Clock::now();
  g_count_allocs.store(false);
  pass.reset();

  const sim::ShardedSimulator& simulator = engine.simulator();
  const sim::SchedulerStats stats = simulator.stats();
  const auto events = static_cast<double>(simulator.executed_count());
  const double setup_s = Seconds(t1 - t0);
  const double run_s = Seconds(t3 - t2);
  uint64_t busy_shard_windows = 0;
  uint64_t windows_with_work = 0;
  for (size_t k = 0; k < stats.occupancy.size(); ++k) {
    busy_shard_windows += k * stats.occupancy[k];
    windows_with_work += stats.occupancy[k];
  }

  JsonWriter out(/*pretty=*/false);
  out.BeginObject();
  const auto put = [&](std::string_view key, double value) {
    out.Key(key);
    out.Double(value);
  };
  out.Key("ok");
  out.Bool(true);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, digest);
  out.Key("digest");
  out.String(hex);
  put("setup_s", setup_s);
  put("run_s", run_s);
  put("setup_cpu_s", c1 - c0);
  put("run_cpu_s", c3 - c2);
  put("events", events);
  put("windows", static_cast<double>(stats.windows));
  put("steals", static_cast<double>(stats.steals));
  put("idle_s", static_cast<double>(stats.idle_ns) / 1e9);
  put("idle_share", Ratio(static_cast<double>(stats.idle_ns) / 1e9,
                          simulator.num_workers() * run_s));
  put("occupancy_mean", Ratio(busy_shard_windows, windows_with_work));
  put("rss_after_create_mb", rss_after_create_mb);
  put("peak_rss_mb", ProcStatusMb("VmHWM"));

  if (traced) {
    // Per-layer counters, read through the engine's public accessors.
    const metrics::Summary& s = result.summary;
    uint64_t query_msgs = 0;
    uint64_t response_msgs = 0;
    for (const metrics::QueryRecord& r : engine.metrics().records()) {
      query_msgs += r.query_msgs;
      response_msgs += r.response_msgs;
    }
    cache::ResponseIndex::Stats ri;
    for (PeerId p = 0; p < engine.num_peers(); ++p) {
      const auto& index = std::as_const(engine).node(p).ri;
      if (index == nullptr) continue;
      ri.lookups += index->stats().lookups;
      ri.hits += index->stats().hits;
      ri.inserts += index->stats().inserts;
      ri.evictions += index->stats().evictions;
      ri.invalidations += index->stats().invalidations;
    }
    out.Key("layer");
    out.BeginObject();
    for (const char* name : kSetupSpans) {
      put(std::string(name) + "_s", tracer.Duration(name));
    }
    // Floored at 0: where Create does little besides these steps (flooding
    // allocates no caches or filters), the remainder is within the noise of
    // their spans.
    put("core.create_rest_s", std::max(0.0, setup_s - create_steps_s));
    put("core.query_msgs", static_cast<double>(query_msgs));
    put("core.response_msgs", static_cast<double>(response_msgs));
    put("core.msgs_per_query", s.msgs_per_query);
    put("core.success_rate", s.success_rate);
    put("core.allocs_per_event", Ratio(static_cast<double>(run_allocs), events));
    put("cache.lookups", static_cast<double>(ri.lookups));
    put("cache.hit_rate", Ratio(ri.hits, ri.lookups));
    put("cache.inserts", static_cast<double>(ri.inserts));
    put("cache.evictions", static_cast<double>(ri.evictions));
    put("cache.invalidations", static_cast<double>(ri.invalidations));
    put("cache.answer_share", s.cache_answer_share);
    put("bloom.update_msgs", static_cast<double>(s.bloom_update_msgs));
    put("bloom.update_bytes", static_cast<double>(s.bloom_update_bytes));
    put("overlay.repair_msgs", static_cast<double>(s.repair_msgs));
    put("overlay.repair_bytes", static_cast<double>(s.repair_bytes));
    put("overlay.churn_events", static_cast<double>(s.churn_events));
    put("dht.lookups", static_cast<double>(s.dht_lookups));
    put("dht.hops_per_lookup", Ratio(s.dht_hops, s.dht_lookups));
    put("dht.store_msgs", static_cast<double>(s.dht_store_msgs));
    put("dht.escalations", static_cast<double>(s.hybrid_escalations));
    put("metrics.report_s", Seconds(t4 - t3));
    out.EndObject();

    out.Key("spans");
    out.BeginArray();
    for (const Tracer::Span& span : tracer.spans()) {
      out.BeginObject();
      out.Key("name");
      out.String(span.name);
      out.Key("layer");
      out.String(span.layer);
      put("start_s", span.start_s);
      put("dur_s", span.dur_s);
      out.EndObject();
    }
    out.EndArray();
  }
  out.EndObject();
  std::printf("%s\n", out.TakeString().c_str());
  // The report is out. Tearing the engine down is timed by no metric and
  // takes about 0.2 s at 100k peers, so skip it: the runner fits more runs
  // in its time budget.
  std::fflush(stdout);
  std::_Exit(0);
}

}  // namespace locaware::e2e
