// perfbench.cpp — the repo benchmark program.
//
//   perfbench --workload <wc_wide|wc_deep|wc_recover|wc_ooc> --seed <n>
//             --seconds <s> --trace <0|1> --out <dir>
//
// One process runs one workload: set-up (corpus, ground truth, golden runs
// placing kills, one discarded warm-up job), then closed-loop FtJob jobs,
// one at a time, for about --seconds. Every job is checked against ground
// truth. --trace 0 reports the end-to-end metrics; --trace 1 alternates
// traced and untraced jobs and reports the per-layer metrics plus the
// tracing overhead. Each metric is printed with its unit, layer and clock;
// the last stdout line is the JSON result, and a fuller JSON record (every
// per-job sample, set-up parts, checks) is written under --out.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workload.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* layer;
  const char* clock;  // wall, cpu, virtual, count or bytes
};

// End-to-end metrics (--trace 0). fail_frac is printed and recorded but
// kept out of the JSON metrics: it is 0 on a healthy run, and the result
// line's attempted/failed carry it.
constexpr MetricDef kEndToEnd[] = {
    {"job_wall_s", "s", "job", "wall"},
    {"cpu_s", "s", "job", "cpu"},
    {"peak_rss_mib", "MiB", "proc", "bytes"},
    {"makespan_vs", "s", "job", "virtual"},
    {"setup_s", "s", "perfbench", "wall"},
};
constexpr MetricDef kFailFrac = {"fail_frac", "ratio", "job", "count"};

// Per-layer metrics (--trace 1); the layer is the module that owns them.
constexpr MetricDef kPerLayer[] = {
    {"simmpi.ops", "count", "simmpi", "count"},
    {"simmpi.run_wall_s", "s", "simmpi", "wall"},
    {"proc.cpu_user_s", "s", "simmpi", "cpu"},
    {"proc.cpu_sys_s", "s", "simmpi", "cpu"},
    {"proc.minor_faults", "count", "simmpi", "count"},
    {"master.status_sends", "count", "core.master", "count"},
    {"master.status_drained", "count", "core.master", "count"},
    {"master.drain_ratio", "ratio", "core.master", "count"},
    {"master.broadcast_vs", "s", "core.master", "virtual"},
    {"master.drain_vs", "s", "core.master", "virtual"},
    {"core.ctor_wall_s", "s", "core", "wall"},
    {"core.run_stage_wall_s", "s", "core", "wall"},
    {"core.write_output_wall_s", "s", "core", "wall"},
    {"core.map_vs", "s", "core", "virtual"},
    {"core.shuffle_vs", "s", "core", "virtual"},
    {"core.merge_vs", "s", "core", "virtual"},
    {"core.reduce_vs", "s", "core", "virtual"},
    {"core.io_wait_vs", "s", "core", "virtual"},
    {"core.recovery_vs", "s", "core", "virtual"},
    {"core.recovery_io_vs", "s", "core", "virtual"},
    {"core.init_recover_vs", "s", "core", "virtual"},
    {"core.recoveries", "count", "core", "count"},
    {"core.tasks_reassigned", "count", "core", "count"},
    {"mr.records.map_emitted", "count", "mr", "count"},
    {"mr.records.shuffle_sent", "count", "mr", "count"},
    {"mr.records.shuffle_received", "count", "mr", "count"},
    {"mr.records.reduce_emitted", "count", "mr", "count"},
    {"mr.records.output_written", "count", "mr", "count"},
    {"mr.shuffle.census_vs", "s", "mr", "virtual"},
    {"mr.shuffle.alltoall_vs", "s", "mr", "virtual"},
    {"mr.shuffle.adopt_vs", "s", "mr", "virtual"},
    {"mr.peak_resident_bytes", "bytes", "mr", "bytes"},
    {"mr.replay_wall_s", "s", "mr", "wall"},
    {"ckpt.writes", "count", "core.ckpt", "count"},
    {"ckpt.bytes_written", "bytes", "core.ckpt", "bytes"},
    {"ckpt.frame_vs", "s", "core.ckpt", "virtual"},
    {"ckpt.crc_vs", "s", "core.ckpt", "virtual"},
    {"ckpt.write_vs", "s", "core.ckpt", "virtual"},
    {"ckpt.read_vs", "s", "core.ckpt", "virtual"},
    {"ckpt.replica_pushes", "count", "core.ckpt", "count"},
    {"ckpt.replica_hits", "count", "core.ckpt", "count"},
    {"ckpt.replica_misses", "count", "core.ckpt", "count"},
    {"ckpt.rereplications", "count", "core.ckpt", "count"},
    {"ckpt.replica_hit_ratio", "ratio", "core.ckpt", "count"},
    {"ckpt.replay_wall_s", "s", "core.ckpt", "wall"},
    {"storage.local.write_ops", "count", "storage", "count"},
    {"storage.local.bytes_written", "bytes", "storage", "bytes"},
    {"storage.local.read_ops", "count", "storage", "count"},
    {"storage.local.bytes_read", "bytes", "storage", "bytes"},
    {"storage.shared.write_ops", "count", "storage", "count"},
    {"storage.shared.bytes_written", "bytes", "storage", "bytes"},
    {"storage.shared.read_ops", "count", "storage", "count"},
    {"storage.shared.bytes_read", "bytes", "storage", "bytes"},
    {"storage.memory.bytes_written", "bytes", "storage", "bytes"},
    {"storage.memory.bytes_read", "bytes", "storage", "bytes"},
    {"copier.copy_vs", "s", "storage", "virtual"},
    {"copier.drain_wait_vs", "s", "storage", "virtual"},
    {"storage.replay_wall_s", "s", "storage", "wall"},
    {"apps.map_wall_s", "s", "apps", "wall"},
    {"apps.reduce_wall_s", "s", "apps", "wall"},
    {"apps.map_calls", "count", "apps", "count"},
    {"apps.callback_cpu_share", "ratio", "apps", "cpu"},
    {"trace.job_wall_s", "s", "perfbench", "wall"},
    {"trace.untraced_job_wall_s", "s", "perfbench", "wall"},
    {"trace.overhead_ratio", "ratio", "perfbench", "wall"},
};

const MetricDef& layer_def(std::string_view name) {
  for (const MetricDef& d : kPerLayer) {
    if (d.name == name) return d;
  }
  std::abort();
}

constexpr int kMinJobs = 2;          // a run always measures at least this many
constexpr int kCorpusRepeats = 3;    // corpus + ground truth, median taken
constexpr double kHardCapS = 120.0;  // never start a job after this

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path out;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\nworkloads:",
               why);
  for (const Workload& w : all_workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--out") a.out = v;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() && a.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

struct Reported {
  const MetricDef* def;
  double value;
  std::vector<double> samples;  // one per job (empty for run-level values)
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string json_samples(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + json_number(v[i]);
  return s + "]";
}

std::string describe(const ExactCounts& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "ops=%lld sends=%lld ckpt_writes=%lld records=%lld/%lld/%lld/%lld/%lld",
                static_cast<long long>(c.ops), static_cast<long long>(c.status_sends),
                static_cast<long long>(c.ckpt_writes),
                static_cast<long long>(c.records[0]), static_cast<long long>(c.records[1]),
                static_cast<long long>(c.records[2]), static_cast<long long>(c.records[3]),
                static_cast<long long>(c.records[4]));
  return buf;
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (!w) return usage("unknown workload");
  fs::create_directories(args.out);
  JobPlan plan;
  plan.w = w;
  plan.seed = args.seed;
  plan.sandbox = args.out / ("sandbox-" + std::to_string(::getpid()));
  struct RemoveOnExit {
    fs::path dir;
    ~RemoveOnExit() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } sandbox_cleanup{plan.sandbox};
  fs::remove_all(plan.sandbox);

  std::printf("perfbench workload=%s seed=%llu trace=%d seconds=%g\n", w->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.seconds);
  std::printf("  why: %s\n", w->why.c_str());
  std::printf("  shape: %d ranks, %d chunks x %d lines, kills=%d, replication k=%d, "
              "budget ratio=%d, records_per_ckpt=%lld, worker_threads=%d, closed "
              "loop, 1 job at a time\n",
              w->nranks, w->nchunks, w->lines_per_chunk, w->kills,
              w->memory_replication_k, w->budget_ratio,
              static_cast<long long>(w->records_per_ckpt), kWorkerThreads);

  std::vector<std::string> errors;
  // -- set-up --------------------------------------------------------------
  std::vector<double> corpus_s;
  for (int i = 0; i < kCorpusRepeats; ++i) {
    const double t0 = wall_now();
    make_corpus(plan);
    corpus_s.push_back(wall_now() - t0);
  }
  double t0 = wall_now();
  make_plan(plan);
  const double plan_s = wall_now() - t0;
  t0 = wall_now();
  const JobSample warm = run_job(plan, nullptr);
  const double warm_s = wall_now() - t0;
  if (!warm.error.empty()) errors.push_back("warm-up job: " + warm.error);
  const double setup_s = median(corpus_s) + plan_s + warm_s;
  std::printf("  setup: corpus+truth %.3f s (median of %d), golden runs %.3f s, "
              "warm-up job %.3f s\n",
              median(corpus_s), kCorpusRepeats, plan_s, warm_s);
  if (plan.opts.memory_budget > 0) {
    std::printf("  memory_budget: %zu bytes/rank (map output %zu bytes total)\n",
                plan.opts.memory_budget, plan.map_output_bytes);
  }
  for (const auto& k : plan.kills) {
    if (k.after_ops >= 0) {
      std::printf("  kill: rank %d at op %lld\n", k.rank,
                  static_cast<long long>(k.after_ops));
    } else {
      std::printf("  kill: rank %d at virtual time %.6f s\n", k.rank, k.vtime);
    }
  }

  // -- measured closed loop ------------------------------------------------
  Tracer tracer(w->nranks);
  std::vector<JobSample> untraced, traced;
  std::vector<double> iteration_s;
  int attempted = 0, failed = 0;
  const double loop0 = wall_now();
  for (;;) {
    const double elapsed = wall_now() - loop0;
    if (attempted >= kMinJobs &&
        (elapsed + median(iteration_s) > args.seconds || elapsed > kHardCapS)) {
      break;
    }
    const bool traced_job = args.trace && attempted % 2 == 0;
    const double i0 = wall_now();
    JobSample s = run_job(plan, traced_job ? &tracer : nullptr);
    iteration_s.push_back(wall_now() - i0);
    // Failure-free jobs must repeat the warm-up's exact counts.
    if (s.error.empty() && plan.kills.empty() && !(s.counts == warm.counts)) {
      s.error = "exact counts differ from the warm-up job: " + describe(s.counts) +
                " vs " + describe(warm.counts);
    }
    ++attempted;
    if (!s.error.empty()) {
      ++failed;
      errors.push_back("job " + std::to_string(attempted) + ": " + s.error);
    }
    (traced_job ? traced : untraced).push_back(std::move(s));
  }
  if (!tracer.replay_error().empty()) errors.push_back(tracer.replay_error());

  // -- metrics -------------------------------------------------------------
  std::vector<Reported> out;
  auto samples = [](const std::vector<JobSample>& v, auto f) {
    std::vector<double> xs;
    for (const JobSample& s : v) xs.push_back(f(s));
    return xs;
  };
  const auto walls = samples(untraced, [](const JobSample& s) { return s.wall_s; });
  const double fail_frac = static_cast<double>(failed) / attempted;
  if (!args.trace) {
    const auto cpus = samples(untraced, [](const JobSample& s) {
      return s.cpu_user_s + s.cpu_sys_s;
    });
    const auto spans =
        samples(untraced, [](const JobSample& s) { return s.makespan_vs; });
    out.push_back({&kEndToEnd[0], median(walls), walls});
    out.push_back({&kEndToEnd[1], median(cpus), cpus});
    out.push_back({&kEndToEnd[2], peak_rss_mib(), {}});
    out.push_back({&kEndToEnd[3], median(spans), spans});
    out.push_back({&kEndToEnd[4], setup_s, {}});
  } else {
    const auto& vals = tracer.values();
    for (const MetricDef& d : kPerLayer) {
      const auto it = vals.find(d.name);
      if (it != vals.end()) out.push_back({&d, median(it->second), it->second});
    }
    const auto twalls = samples(traced, [](const JobSample& s) { return s.wall_s; });
    const double tw = median(twalls), uw = median(walls);
    out.push_back({&layer_def("trace.job_wall_s"), tw, twalls});
    out.push_back({&layer_def("trace.untraced_job_wall_s"), uw, walls});
    out.push_back({&layer_def("trace.overhead_ratio"), uw > 0 ? tw / uw - 1.0 : 0.0, {}});
  }
  const std::vector<double> drained =
      samples(untraced, [](const JobSample& s) { return s.status_drained; });

  // -- acceptance checks on the layers each workload isolates --------------
  if (args.trace) {
    const auto& vals = tracer.values();
    auto val = [&vals](const char* n) {
      const auto it = vals.find(n);
      return it == vals.end() ? 0.0 : median(it->second);
    };
    if (w->kills == 0 && val("core.recovery_vs") > 0.0) {
      errors.push_back("core.recovery_vs > 0 on a failure-free workload");
    }
    if (w->kills > 0 && !(val("core.recovery_vs") > 0.0)) {
      errors.push_back("core.recovery_vs == 0 on a workload with kills");
    }
    const double budget = static_cast<double>(plan.opts.memory_budget);
    const double peak = val("mr.peak_resident_bytes");
    if (budget > 0.0 && (peak <= 0.0 || peak > 1.5 * budget)) {
      errors.push_back("mr.peak_resident_bytes " + json_number(peak) +
                       " outside (0, 1.5 x budget " + json_number(budget) + "]");
    }
    if (budget == 0.0 && peak != 0.0) {
      errors.push_back("mr.peak_resident_bytes reported on an in-core workload");
    }
  }

  // -- report --------------------------------------------------------------
  const bool correct = errors.empty();
  std::printf("\n%-30s %16s %-6s %-12s %-8s  %s\n", "metric", "value", "unit", "layer",
              "clock", "jobs: min .. max");
  auto print_row = [](const MetricDef& d, double v, const std::vector<double>& xs) {
    std::printf("%-30s %16.6f %-6s %-12s %-8s", d.name, v, d.unit, d.layer, d.clock);
    if (!xs.empty()) {
      std::printf("  n=%zu: %.6g .. %.6g", xs.size(),
                  *std::min_element(xs.begin(), xs.end()),
                  *std::max_element(xs.begin(), xs.end()));
    }
    std::printf("\n");
  };
  for (const Reported& r : out) print_row(*r.def, r.value, r.samples);
  print_row(kFailFrac, fail_frac, {});
  if (!drained.empty()) {
    std::printf("master.status_drained (untraced jobs, measured, not exact): "
                "n=%zu median %.0f min %.0f max %.0f\n",
                drained.size(), median(drained),
                *std::min_element(drained.begin(), drained.end()),
                *std::max_element(drained.begin(), drained.end()));
  }
  std::printf("exact counts (warm-up): %s\n", describe(warm.counts).c_str());
  if (args.trace) {
    std::printf("\nself time by span (wall, summed over spans):\n");
    for (const auto& [name, secs] : tracer.self_seconds()) {
      std::printf("  %-24s %12.6f s\n", name.c_str(), secs);
    }
  }
  for (const std::string& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("checks: %s (%d jobs attempted, %d failed)\n", correct ? "PASS" : "FAIL",
              attempted, failed);

  // Full record under --out: labels, samples, set-up parts, checks.
  const std::string stem = w->name + "-s" + std::to_string(args.seed) +
                           (args.trace ? "-trace" : "");
  if (args.trace) (void)tracer.write_spans(args.out / ("spans-" + stem + ".json"));
  if (std::FILE* f = std::fopen((args.out / ("result-" + stem + ".json")).c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n",
                 w->name.c_str(), static_cast<unsigned long long>(args.seed),
                 args.trace ? 1 : 0);
    std::fprintf(f, " \"worker_threads\": %d, \"correct\": %s, \"attempted\": %d, "
                 "\"failed\": %d,\n",
                 kWorkerThreads, correct ? "true" : "false", attempted, failed);
    std::fprintf(f, " \"setup\": {\"corpus_s\": %s, \"golden_s\": %s, \"warmup_s\": %s},\n",
                 json_samples(corpus_s).c_str(), json_number(plan_s).c_str(),
                 json_number(warm_s).c_str());
    std::fprintf(f, " \"memory_budget\": %zu, \"kills\": [", plan.opts.memory_budget);
    for (size_t i = 0; i < plan.kills.size(); ++i) {
      const auto& k = plan.kills[i];
      std::fprintf(f, "%s{\"rank\": %d, \"after_ops\": %lld, \"vtime\": %s}", i ? ", " : "",
                   k.rank, static_cast<long long>(k.after_ops), json_number(k.vtime).c_str());
    }
    std::fprintf(f, "],\n \"metrics\": {\n");
    std::vector<Reported> all = out;
    all.push_back({&kFailFrac, fail_frac, {}});
    for (size_t i = 0; i < all.size(); ++i) {
      const Reported& r = all[i];
      std::fprintf(f,
                   "  \"%s\": {\"value\": %s, \"unit\": \"%s\", \"layer\": \"%s\", "
                   "\"clock\": \"%s\", \"samples\": %s}%s\n",
                   r.def->name, json_number(r.value).c_str(), r.def->unit, r.def->layer,
                   r.def->clock, json_samples(r.samples).c_str(),
                   i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, " },\n \"errors\": [");
    for (size_t i = 0; i < errors.size(); ++i) {
      std::fprintf(f, "%s%s", i ? ", " : "", json_string(errors[i]).c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                out[i].def->name, json_number(out[i].value).c_str(), out[i].def->unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage("bad arguments");
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
