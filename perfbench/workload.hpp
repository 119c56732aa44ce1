// workload.hpp — the repo benchmark's workloads and its job runner.
//
// Every workload is wordcount on FtJob in detect/resume work-conserving
// mode with checkpoints on (the wordcount_mini settings of the figure
// benches: ppn 2, a checkpoint every 32 records). A run builds one
// JobPlan from (workload, seed) — corpus, ground truth, spill budget and
// kill schedule — and then executes closed-loop jobs from it, one at a
// time, each in a fresh storage sandbox.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/ftjob.hpp"
#include "simmpi/types.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string why;
  int nranks = 8;
  int nchunks = 64;
  int lines_per_chunk = 48;
  /// Kills placed from golden runs (0 or 2).
  int kills = 0;
  int memory_replication_k = 0;
  /// Per-rank map output / memory_budget; 0 = in-core.
  int budget_ratio = 0;
  /// Record-granularity checkpoint interval.
  int64_t records_per_ckpt = 32;
};

/// Every job runs on a fixed fiber worker pool, below the core count of
/// the 4-core machine the bounds were set on.
inline constexpr int kWorkerThreads = 3;

/// The workload table; nullptr when `name` is unknown.
const Workload* find_workload(std::string_view name);
const std::vector<Workload>& all_workloads();

/// Everything one run derives from (workload, seed) before timing jobs.
struct JobPlan {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  std::filesystem::path sandbox;  // run-private scratch root
  std::filesystem::path corpus;   // real directory holding input chunks
  std::map<std::string, int64_t> expected;  // ground-truth word counts
  size_t map_output_bytes = 0;    // wire bytes of all map output
  ftmr::core::FtJobOptions opts;
  std::vector<ftmr::simmpi::KillEvent> kills;
  int jobs_started = 0;           // sandbox naming
};

/// Per-job record counts and counters that repeat exactly between two
/// identical failure-free jobs.
struct ExactCounts {
  int64_t ops = 0;           // sum of RankResult::ops
  int64_t status_sends = 0;  // master.status_sends
  int64_t ckpt_writes = 0;   // ckpt.writes
  int64_t records[5] = {};   // mr.records.{map_emitted..output_written}
  bool operator==(const ExactCounts&) const = default;
};

class Tracer;  // layers.hpp

struct JobSample {
  std::string error;          // first failed check; empty = job is correct
  double wall_s = 0.0;        // first Runtime::run .. last submission
  double cpu_user_s = 0.0;
  double cpu_sys_s = 0.0;
  double minor_faults = 0.0;
  double makespan_vs = 0.0;
  double status_drained = 0.0;
  ExactCounts counts;
};

/// Generate the corpus and ground truth (timed by the caller as set-up).
void make_corpus(JobPlan& plan);
/// Job options, spill budget and (golden runs) kill placement.
void make_plan(JobPlan& plan);

/// Run one job in a fresh sandbox and check it. `tracer` (may be null)
/// wraps the layer calls and collects per-layer data for this job.
JobSample run_job(JobPlan& plan, Tracer* tracer);

/// Sum of a MetricsRegistry counter over ranks [0, nranks).
double counter_total(std::string_view name, int nranks);

}  // namespace perfbench
