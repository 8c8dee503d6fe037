// locaware_e2e — the end-to-end benchmark runner. See README.md.
//
// The parent process runs each measured Create + Run as a fresh child (this
// same binary with --child), one at a time, alternating shards=4 and
// shards=1, checks every run's result digest, and reports each metric's 10th
// percentile, median and quartiles. Every measured run executes on one
// simulator thread; only the traced pass runs 4 worker threads.
#include <fcntl.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "core/experiment_config.h"
#include "e2e.h"

extern char** environ;

namespace locaware::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kUsage =
    "usage: locaware_e2e [--workload=NAME[,NAME]] [--seed=S] [--seconds=T | --reps=N]\n"
    "                    [--trace=0|1|FILE] [--out=FILE]\n"
    "       locaware_e2e --smoke [--trace=FILE] [--out=FILE]\n"
    "       locaware_e2e --compare=BEFORE.json,AFTER.json\n"
    "Flags also accept '--flag value'. Workloads:";

struct Options {
  std::vector<const Workload*> workloads;
  uint64_t seed = kGoldenSeed;
  int reps = 0;  ///< > 0: run exactly this many pairs, ignoring `seconds`
  /// Otherwise run pairs until this budget per workload is spent. The
  /// default is the run length of BENCHMARK.json, which the noise figures in
  /// README.md were measured at.
  double seconds = 30;
  bool traced = false;
  std::string trace_path;
  std::string out_path;
  bool smoke = false;
  double query_scale = 1;
  std::string compare_before;
  std::string compare_after;
  // Internal: this process is one measured run.
  const Workload* child = nullptr;
  uint32_t child_shards = 4;
  uint32_t child_workers = 0;
  bool child_traced = false;
};

template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size();
}

/// Flags of the internal child protocol; they are accepted only with --child,
/// which in turn takes no other flag but --seed.
bool IsChildFlag(std::string_view name) {
  return name == "--shards" || name == "--workers" || name == "--scale" ||
         name == "--traced";
}

/// Parses argv into *options; on error returns the message to print.
std::optional<std::string> ParseOptions(int argc, char** argv, Options* options) {
  std::string child_flag;   ///< a child-only flag seen, if any
  std::string parent_flag;  ///< a flag only the parent takes, if any
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    std::string_view value;
    const auto take_value = [&]() {
      if (eq != std::string_view::npos) {
        value = arg.substr(eq + 1);
        return true;
      }
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    const std::string bad = "bad value for " + std::string(name);
    if (IsChildFlag(name)) {
      child_flag = name;
    } else if (name != "--child" && name != "--seed") {
      parent_flag = name;
    }
    if (name == "--smoke" || name == "--traced") {
      if (eq != std::string_view::npos) return std::string(name) + " takes no value";
      (name == "--smoke" ? options->smoke : options->child_traced) = true;
      continue;
    }
    if (name != "--workload" && name != "--seed" && name != "--reps" &&
        name != "--seconds" && name != "--trace" && name != "--out" &&
        name != "--compare" && name != "--child" && name != "--shards" &&
        name != "--workers" && name != "--scale") {
      return "unknown flag '" + std::string(arg) + "'";
    }
    if (!take_value()) return std::string(name) + " needs a value";
    if (name == "--workload") {
      options->workloads.clear();
      std::stringstream list{std::string(value)};
      std::string item;
      while (std::getline(list, item, ',')) {
        const Workload* w = FindWorkload(item);
        if (w == nullptr) return "unknown workload '" + item + "'";
        options->workloads.push_back(w);
      }
      if (options->workloads.empty()) return bad;
    } else if (name == "--seed") {
      if (!ParseNumber(value, &options->seed)) return bad;
    } else if (name == "--reps") {
      if (!ParseNumber(value, &options->reps) || options->reps < 1) return bad;
    } else if (name == "--seconds") {
      if (!ParseNumber(value, &options->seconds) || !(options->seconds > 0)) return bad;
      options->reps = 0;
    } else if (name == "--trace") {
      options->traced = value != "0";
      options->trace_path = value == "0" || value == "1" ? "" : std::string(value);
    } else if (name == "--out") {
      options->out_path = value;
    } else if (name == "--compare") {
      const size_t comma = value.find(',');
      if (comma == std::string_view::npos) {
        return "--compare needs BEFORE.json,AFTER.json";
      }
      options->compare_before = value.substr(0, comma);
      options->compare_after = value.substr(comma + 1);
    } else if (name == "--child") {
      options->child = FindWorkload(value);
      if (options->child == nullptr) {
        return "unknown workload '" + std::string(value) + "'";
      }
    } else if (name == "--shards") {
      if (!ParseNumber(value, &options->child_shards) || options->child_shards == 0) {
        return bad;
      }
    } else if (name == "--workers") {
      if (!ParseNumber(value, &options->child_workers)) return bad;
    } else if (name == "--scale") {
      if (!ParseNumber(value, &options->query_scale) ||
          !(options->query_scale > 0 && options->query_scale <= 1)) {
        return bad;
      }
    }
  }
  const std::string& misplaced = options->child == nullptr ? child_flag : parent_flag;
  if (!misplaced.empty()) return "unknown flag '" + misplaced + "'";
  return std::nullopt;
}

// --- child processes ---------------------------------------------------------

struct ChildRun {
  bool ok = false;
  JsonValue report;
  std::string error;
};

/// Runs one Create + Run in a fresh process and waits for it. `workers` is
/// the number of simulator threads (0: one per shard).
ChildRun SpawnChild(const char* argv0, const Workload& workload, const Options& options,
                    uint32_t shards, uint32_t workers, bool traced) {
  char scale[32];
  std::snprintf(scale, sizeof(scale), "%.17g", options.query_scale);
  std::vector<std::string> args = {argv0,
                                   std::string("--child=") + workload.name,
                                   "--seed=" + std::to_string(options.seed),
                                   "--shards=" + std::to_string(shards),
                                   "--workers=" + std::to_string(workers),
                                   std::string("--scale=") + scale};
  if (traced) args.emplace_back("--traced");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  ChildRun run;
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    run.error = std::string("pipe: ") + std::strerror(errno);
    return run;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::fflush(nullptr);
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    run.error = std::string("spawn: ") + std::strerror(rc);
    return run;
  }
  std::string output;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    output.append(buffer, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  pid_t waited = 0;
  do {
    waited = waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);

  auto parsed = ParseJson(output);
  if (parsed.ok()) run.report = std::move(parsed).ValueOrDie();
  const JsonValue* ok = run.report.Find("ok");
  run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 && ok != nullptr && ok->boolean;
  if (!run.ok) {
    run.error = run.report.String("error");
    if (run.error.empty()) {
      run.error = WIFSIGNALED(status)
                      ? "killed by signal " + std::to_string(WTERMSIG(status))
                      : "exit status " + std::to_string(WEXITSTATUS(status));
    }
  }
  return run;
}

// --- host-speed probe -------------------------------------------------------------

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A fixed synthetic kernel that shares no code with the simulator, timed
/// in CPU time before every measured run and once after the last. The
/// reference host is a shared virtual machine whose speed drifts by up to 2x
/// over minutes; the simulator's times drift with it, and scaling them by
/// this probe's time (SpeedFactor) cancels much of that drift. A change to
/// the simulator cannot move the probe.
class HostProbe {
 public:
  HostProbe() : next_(kEntries) {
    // A full-period LCG over 2^22 entries: one cycle through a 16 MB table
    // whose successive entries lie far apart, so the walk misses the near
    // caches the way the simulator's table probes do.
    for (uint32_t i = 0; i < kEntries; ++i) {
      next_[i] = (1664525u * i + 1013904223u) & (kEntries - 1);
    }
  }

  /// CPU seconds for a dependent table walk plus a dependent integer chain.
  double Measure() {
    const double begin = ThreadCpuSeconds();
    uint32_t p = 0;
    for (int i = 0; i < kWalkSteps; ++i) p = next_[p];
    uint64_t x = p + 1;
    for (int i = 0; i < kMixSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink_ = x;
    return ThreadCpuSeconds() - begin;
  }

 private:
  static constexpr uint32_t kEntries = 1u << 22;
  static constexpr int kWalkSteps = 200000;
  static constexpr int kMixSteps = 8000000;
  std::vector<uint32_t> next_;
  uint64_t sink_ = 0;  ///< keeps the chains observable
};

/// The probe's median in quiet hours on the reference host (4-vCPU KVM
/// guest, Intel Xeon with 105 MB L3, gcc 12.2 Release). Scaled times read as
/// seconds on that host at this speed.
constexpr double kProbeReferenceS = 0.040;

// --- one workload --------------------------------------------------------------

struct WorkloadRun {
  const Workload* workload = nullptr;
  int ops = 0;
  int failed = 0;
  std::vector<std::string> failures;
  std::string digest;  ///< of the first successful op
  /// Every op's digest must equal this, or `digest` when it is empty (not
  /// checked at seeds other than 42 or with scaled queries).
  std::string golden;
  std::vector<JsonValue> runs4;
  std::vector<JsonValue> runs1;
  std::optional<JsonValue> traced;
  /// HostProbe seconds, one before each measured run and one after the last
  std::vector<double> probes;
};

std::string Hex(uint64_t value) {
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016" PRIx64, value);
  return hex;
}

/// Counts one op; returns false (and records why) when it failed.
bool CheckOp(WorkloadRun* run, const ChildRun& child, const std::string& label) {
  ++run->ops;
  std::string why;
  const std::string digest = child.report.String("digest");
  const bool golden = !run->golden.empty();
  const std::string& expected = golden ? run->golden : run->digest;
  if (!child.ok) {
    why = child.error;
  } else if (!expected.empty() && digest != expected) {
    why = "digest " + digest + " differs from " + (golden ? "golden " : "") + expected;
  }
  if (child.ok && run->digest.empty()) run->digest = digest;
  if (why.empty()) return true;
  ++run->failed;
  run->failures.push_back(label + ": " + why);
  return false;
}

WorkloadRun RunWorkload(const char* argv0, const Workload& workload,
                        const Options& options, HostProbe* probe) {
  WorkloadRun run;
  run.workload = &workload;
  if (options.seed == kGoldenSeed && options.query_scale == 1) {
    run.golden = Hex(workload.golden_digest);
  }
  const auto start = Clock::now();
  if (options.traced) {
    ChildRun child = SpawnChild(argv0, workload, options, 4, /*workers=*/0, /*traced=*/true);
    if (CheckOp(&run, child, "traced shards=4")) run.traced = std::move(child.report);
  }
  double longest_pair_s = 0;
  for (int pair = 0;; ++pair) {
    const double elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
    const bool done = options.reps > 0
                          ? pair >= options.reps
                          : pair > 0 && elapsed_s + longest_pair_s > options.seconds;
    if (done) break;
    const auto pair_start = Clock::now();
    for (const uint32_t shards : {4u, 1u}) {
      run.probes.push_back(probe->Measure());
      ChildRun child =
          SpawnChild(argv0, workload, options, shards, /*workers=*/1, /*traced=*/false);
      const std::string label =
          "rep " + std::to_string(pair + 1) + " shards=" + std::to_string(shards);
      if (CheckOp(&run, child, label)) {
        (shards == 4 ? run.runs4 : run.runs1).push_back(std::move(child.report));
      }
    }
    longest_pair_s = std::max(
        longest_pair_s, std::chrono::duration<double>(Clock::now() - pair_start).count());
  }
  run.probes.push_back(probe->Measure());
  return run;
}

// --- aggregation ---------------------------------------------------------------

std::vector<double> Samples(const std::vector<JsonValue>& runs, std::string_view key) {
  std::vector<double> out;
  for (const JsonValue& r : runs) out.push_back(r.Number(key));
  return out;
}

std::vector<double> EndToEndSamples(const WorkloadRun& run, const MetricDef& metric) {
  return Samples(metric.shards == 1 ? run.runs1 : run.runs4, metric.sample);
}

/// kProbeReferenceS over the run's median probe time: below 1 when the host
/// ran slower than usual.
double SpeedRatio(const WorkloadRun& run) {
  const double probe = ComputeStats(run.probes).median;
  return probe == 0 ? 1.0 : kProbeReferenceS / probe;
}

/// Order statistics of an end-to-end metric, scaled by the run's SpeedRatio
/// raised to the metric's probe_exponent (memory: 0, unscaled).
SampleStats EndToEnd(const WorkloadRun& run, const MetricDef& metric) {
  const SampleStats s = ComputeStats(EndToEndSamples(run, metric));
  const double factor = std::pow(SpeedRatio(run), metric.probe_exponent);
  return {s.p10 * factor,    s.p10_lo * factor, s.p10_hi * factor,
          s.q1 * factor,     s.median * factor, s.q3 * factor};
}

/// Per-layer values by metric name. The mem.* values and the sim.* values
/// of one thread are medians of the untraced runs (times unscaled); the rest
/// come from the traced pass on 4 threads, when there was one.
std::map<std::string, double> PerLayer(const WorkloadRun& run) {
  const auto median4 = [&](std::string_view key) {
    return ComputeStats(Samples(run.runs4, key)).median;
  };
  const auto median1 = [&](std::string_view key) {
    return ComputeStats(Samples(run.runs1, key)).median;
  };
  std::vector<double> growth;
  for (const JsonValue& r : run.runs4) {
    growth.push_back(r.Number("peak_rss_mb") - r.Number("rss_after_create_mb"));
  }
  std::map<std::string, double> layer = {
      {"mem.after_create_mb", median4("rss_after_create_mb")},
      {"mem.run_growth_mb", ComputeStats(growth).median},
      {"sim.events", median4("events")},
      {"sim.events_1shard", median1("events")},
      {"sim.ns_per_event", Ratio(median4("run_cpu_s") * 1e9, median4("events"))},
      {"sim.ns_per_event_1shard", Ratio(median1("run_cpu_s") * 1e9, median1("events"))},
      {"sim.windows", median4("windows")},
      {"sim.events_per_window", Ratio(median4("events"), median4("windows"))},
      {"sim.occupancy_mean", median4("occupancy_mean")},
  };
  if (run.traced.has_value()) {
    const JsonValue& traced = *run.traced;
    if (const JsonValue* counters = traced.Find("layer")) {
      for (const auto& [name, value] : counters->members) layer[name] = value.number;
    }
    layer["sim.run_4worker_s"] = traced.Number("run_s");
    layer["sim.idle_s"] = traced.Number("idle_s");
    layer["sim.idle_share"] = traced.Number("idle_share");
    layer["sim.steals"] = traced.Number("steals");
    layer["sim.speedup_4"] = Ratio(median1("run_cpu_s"), traced.Number("run_s"));
    // Create is single-threaded in every run, so the traced pass's Create
    // differs from the untraced ones only by the tracing.
    layer["trace.overhead_s"] = traced.Number("setup_cpu_s") - median4("setup_cpu_s");
  }
  return layer;
}

// --- output ----------------------------------------------------------------------

void PrintWorkload(const WorkloadRun& run, const Options& options) {
  const Workload& w = *run.workload;
  const core::ExperimentConfig config =
      MakeConfig(w, 4, 0, options.query_scale);
  std::printf("== %s: %s, %zu peers, %llu queries, seed %llu ==\n", w.name,
              config.label.c_str(), config.num_peers,
              static_cast<unsigned long long>(config.workload.num_queries),
              static_cast<unsigned long long>(options.seed));
  std::printf("   why: %s\n", w.why);
  std::printf("   ops %d, ops_failed %d, digest %s (%s)\n", run.ops, run.failed,
              run.digest.empty() ? "none" : run.digest.c_str(),
              run.failed != 0        ? "MISMATCH or error, see below"
              : run.golden.empty() ? "shards 1 = shards 4; golden checked only at seed 42"
                                   : "shards 1 = shards 4 = golden");
  for (const std::string& f : run.failures) std::printf("   FAILED %s\n", f.c_str());
  std::printf("   host probe %.4f s (median of %zu), speed ratio %.3f; each time below "
              "is scaled by the ratio to its metric's power\n",
              ComputeStats(run.probes).median, run.probes.size(), SpeedRatio(run));
  std::printf("   end-to-end (host CPU time on one thread, untraced; p10 [its likely "
              "range], then median [Q1, Q3] over n runs):\n");
  for (const MetricDef& m : EndToEndMetrics()) {
    const SampleStats s = EndToEnd(run, m);
    std::printf("     %-20s %10.4f %-2s [%.4f, %.4f] median %.4f [%.4f, %.4f] n=%zu  %s is "
                "better, bound %.0f%%%s\n",
                m.name, s.p10, m.unit, s.p10_lo, s.p10_hi, s.median, s.q1, s.q3,
                EndToEndSamples(run, m).size(), m.better, m.bound * 100,
                Spread(s) > m.bound ? ", unresolved: p10 range wider than bound" : "");
  }
  std::printf("   per-layer (%s):\n",
              run.traced ? "traced shards=4 pass; sim.* and mem.* are untraced medians"
                         : "untraced medians; no traced pass");
  const std::map<std::string, double> layer = PerLayer(run);
  for (const MetricDef& m : PerLayerMetrics()) {
    const auto it = layer.find(m.name);
    if (it == layer.end()) continue;
    std::printf("     %-26s %16.6g %s\n", m.name, it->second, m.unit);
  }
  std::printf("\n");
}

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buffer;
}

/// The --out document --compare reads.
std::string ResultsJson(const std::vector<WorkloadRun>& runs, const Options& options) {
  JsonWriter w;
  w.BeginObject();
  w.Key("meta");
  w.BeginObject();
  w.Key("nproc");
  w.Int(sysconf(_SC_NPROCESSORS_ONLN));
  w.Key("compiler");
  w.String(E2E_COMPILER);
  w.Key("build_type");
  w.String(E2E_BUILD_TYPE);
  w.Key("git_revision");
  w.String(E2E_GIT_REVISION);
  w.Key("date");
  w.String(UtcNow());
  w.Key("seed");
  w.Uint(options.seed);
  w.Key("query_scale");
  w.Double(options.query_scale);
  w.Key(options.reps > 0 ? "reps" : "seconds");
  w.Double(options.reps > 0 ? options.reps : options.seconds);
  // "<workload>.<metric>" of every end-to-end metric whose p10 range is
  // wider than its bound; --compare marks these '?'.
  w.Key("unresolved");
  w.BeginArray();
  for (const WorkloadRun& run : runs) {
    for (const MetricDef& m : EndToEndMetrics()) {
      if (Spread(EndToEnd(run, m)) > m.bound) {
        w.String(std::string(run.workload->name) + "." + m.name);
      }
    }
  }
  w.EndArray();
  w.EndObject();
  w.Key("workloads");
  w.BeginObject();
  for (const WorkloadRun& run : runs) {
    w.Key(run.workload->name);
    w.BeginObject();
    w.Key("ops");
    w.Int(run.ops);
    w.Key("ops_failed");
    w.Int(run.failed);
    w.Key("digest");
    w.String(run.digest);
    w.Key("host_probe_s");
    w.Double(ComputeStats(run.probes).median);
    w.Key("end_to_end");
    w.BeginObject();
    for (const MetricDef& m : EndToEndMetrics()) {
      const SampleStats s = EndToEnd(run, m);
      w.Key(m.name);
      w.BeginObject();
      w.Key("unit");
      w.String(m.unit);
      w.Key("better");
      w.String(m.better);
      w.Key("bound");
      w.Double(m.bound);
      w.Key("value");
      w.Double(s.p10);
      w.Key("value_lo");
      w.Double(s.p10_lo);
      w.Key("value_hi");
      w.Double(s.p10_hi);
      w.Key("median");
      w.Double(s.median);
      w.Key("q1");
      w.Double(s.q1);
      w.Key("q3");
      w.Double(s.q3);
      w.Key("raw_samples");
      w.BeginArray();
      for (double s : EndToEndSamples(run, m)) w.Double(s);
      w.EndArray();
      w.EndObject();
    }
    w.EndObject();
    w.Key("per_layer");
    w.BeginObject();
    const std::map<std::string, double> layer = PerLayer(run);
    for (const MetricDef& m : PerLayerMetrics()) {
      const auto it = layer.find(m.name);
      if (it == layer.end()) continue;
      w.Key(m.name);
      w.BeginObject();
      w.Key("unit");
      w.String(m.unit);
      w.Key("value");
      w.Double(it->second);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

/// Chrome trace-event JSON (opens in Perfetto): one process per workload,
/// one complete ("X") event per span of its traced pass.
std::string ChromeTrace(const std::vector<WorkloadRun>& runs) {
  JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < runs.size(); ++i) {
    if (!runs[i].traced.has_value()) continue;
    const int pid = static_cast<int>(i) + 1;
    w.BeginObject();
    w.Key("name");
    w.String("process_name");
    w.Key("ph");
    w.String("M");
    w.Key("pid");
    w.Int(pid);
    w.Key("args");
    w.BeginObject();
    w.Key("name");
    w.String(runs[i].workload->name);
    w.EndObject();
    w.EndObject();
    const JsonValue* spans = runs[i].traced->Find("spans");
    if (spans == nullptr) continue;
    for (const JsonValue& span : spans->items) {
      w.BeginObject();
      w.Key("name");
      w.String(span.String("name"));
      w.Key("cat");
      w.String(span.String("layer"));
      w.Key("ph");
      w.String("X");
      w.Key("ts");
      w.Double(span.Number("start_s") * 1e6);
      w.Key("dur");
      w.Double(span.Number("dur_s") * 1e6);
      w.Key("pid");
      w.Int(pid);
      w.Key("tid");
      w.Int(1);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  out.close();
  if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return static_cast<bool>(out);
}

std::optional<JsonValue> ReadJsonFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = ParseJson(text.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), parsed.status().ToString().c_str());
    return std::nullopt;
  }
  return std::move(parsed).ValueOrDie();
}

/// --smoke's checks of the trace and compare paths: the trace parses and
/// has every layer span, and a result compared with itself passes.
bool SmokeChecks(const std::string& trace, const std::string& results) {
  auto trace_doc = ParseJson(trace);
  auto results_doc = ParseJson(results);
  if (!trace_doc.ok() || !results_doc.ok()) {
    std::printf("smoke: trace or results JSON does not parse\n");
    return false;
  }
  std::vector<std::string> required(SetupSpans().begin(), SetupSpans().end());
  required.insert(required.end(), {"core.create", "core.run", "metrics.report"});
  const JsonValue* events = trace_doc.ValueOrDie().Find("traceEvents");
  bool ok = true;
  for (const std::string& name : required) {
    const auto named = [&](const JsonValue& e) { return e.String("name") == name; };
    const bool found = events != nullptr &&
                       std::any_of(events->items.begin(), events->items.end(), named);
    if (!found) {
      std::printf("smoke: trace has no span '%s'\n", name.c_str());
      ok = false;
    }
  }
  std::printf("smoke: comparing the results with themselves\n");
  const JsonValue& doc = results_doc.ValueOrDie();
  return CompareResults(doc, doc) == 0 && ok;
}

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}. With
/// one workload, metric keys are bare names; with several, "<workload>.<name>".
std::string SummaryLine(const std::vector<WorkloadRun>& runs, bool per_layer) {
  int ops = 0;
  int failed = 0;
  for (const WorkloadRun& run : runs) {
    ops += run.ops;
    failed += run.failed;
  }
  JsonWriter w(/*pretty=*/false);
  w.BeginObject();
  w.Key("correct");
  w.Bool(failed == 0);
  w.Key("attempted");
  w.Int(ops);
  w.Key("failed");
  w.Int(failed);
  w.Key("metrics");
  w.BeginObject();
  for (const WorkloadRun& run : runs) {
    const std::string prefix =
        runs.size() == 1 ? std::string() : std::string(run.workload->name) + ".";
    const auto put = [&](const MetricDef& m, double value) {
      w.Key(prefix + m.name);
      w.BeginObject();
      w.Key("value");
      w.Double(value);
      w.Key("unit");
      w.String(m.unit);
      w.EndObject();
    };
    if (per_layer) {
      const std::map<std::string, double> layer = PerLayer(run);
      for (const MetricDef& m : PerLayerMetrics()) {
        const auto it = layer.find(m.name);
        if (it != layer.end()) put(m, it->second);
      }
    } else {
      for (const MetricDef& m : EndToEndMetrics()) put(m, EndToEnd(run, m).p10);
    }
  }
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

int Main(int argc, char** argv) {
  Options options;
  if (const auto error = ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr, "%s\n%s", error->c_str(), kUsage);
    for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (options.child != nullptr) {
    // A measured run must not outlive the runner that waits for it.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    return RunChild(*options.child, options.seed, options.child_shards,
                    options.child_workers, options.query_scale, options.child_traced);
  }
  if (!options.compare_before.empty()) {
    const auto before = ReadJsonFile(options.compare_before);
    const auto after = ReadJsonFile(options.compare_after);
    if (!before || !after) return 2;
    return CompareResults(*before, *after);
  }
  if (options.smoke) {
    options.reps = 1;
    options.traced = true;
    options.query_scale = 0.05;
  }
  if (options.workloads.empty()) {
    for (const Workload& w : Workloads()) options.workloads.push_back(&w);
  }

  HostProbe probe;
  std::vector<WorkloadRun> runs;
  for (const Workload* w : options.workloads) {
    runs.push_back(RunWorkload(argv[0], *w, options, &probe));
    PrintWorkload(runs.back(), options);
  }
  bool ok = std::all_of(runs.begin(), runs.end(),
                        [](const WorkloadRun& r) { return r.failed == 0; });
  const std::string results = ResultsJson(runs, options);
  if (!options.out_path.empty()) ok = WriteFile(options.out_path, results) && ok;
  if (options.traced) {
    const std::string trace = ChromeTrace(runs);
    if (!options.trace_path.empty()) ok = WriteFile(options.trace_path, trace) && ok;
    if (options.smoke) ok = SmokeChecks(trace, results) && ok;
  }
  std::printf("%s\n", SummaryLine(runs, options.traced).c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace locaware::e2e

int main(int argc, char** argv) { return locaware::e2e::Main(argc, argv); }
