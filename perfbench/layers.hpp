// layers.hpp — the traced run: per-layer numbers measured from outside.
//
// The Tracer measures each layer three ways without touching src/:
//   1. wall-clock spans around the calls the benchmark makes into a layer
//      (Runtime::run, the FtJob constructor, run_stage and write_output per
//      rank) plus wall time and call counts of the wordcount map/reduce
//      callbacks, which it wraps;
//   2. the counters and virtual-time spans the program already exports
//      (MetricsRegistry, FtJob::trace()/times(), TierStats, ReplicaStore
//      stats, residency());
//   3. replays: the traffic a job sent through a pure layer (map output,
//      checkpoint payloads, sandbox files) is recorded and re-issued
//      against that layer's public functions, timed.
// Spans live in memory (name, start, end, parent, job) and are written out
// at exit with their derived self time.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/ftjob.hpp"
#include "mr/kv.hpp"
#include "simmpi/types.hpp"
#include "storage/storage.hpp"
#include "workload.hpp"

namespace perfbench {

/// Seconds since the process-wide benchmark epoch (steady clock).
double wall_now();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  // index into the span list; -1 = root
  int job = 0;
  /// Wall time of aggregated children that are counted, not spanned (the
  /// map/reduce callbacks inside a run_stage span).
  double busy = 0.0;
};

class Tracer {
 public:
  explicit Tracer(int nranks);

  // -- hooks called by run_job --
  /// Open the next job's root span and its Runtime::run child span (the
  /// parent of every per-rank span).
  void begin_run();
  void end_run(const ftmr::simmpi::JobResult& r);
  /// Wrap the stage callbacks of `rank`: time and count every call, and
  /// record the map output for the mr replay.
  ftmr::core::StageFns wrap(ftmr::core::StageFns fns, int rank);
  /// RAII span of one rank-level layer call, a child of the run span.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, int rank);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    const char* name_;
    int rank_;
    double start_;
    double busy0_;
  };
  /// Harvest a surviving rank's exported state after FtJob::run returns.
  void collect_rank(int rank, ftmr::core::FtJob& ft);
  /// Close the job: read the registry and storage counters, run the
  /// replays (outside the job's timed interval) and record this job's
  /// per-layer values.
  void end_job(const JobSample& s, ftmr::storage::StorageSystem& fs,
               const std::filesystem::path& job_root);

  /// Per-layer metric name -> one value per traced job.
  [[nodiscard]] const std::map<std::string, std::vector<double>>& values() const {
    return values_;
  }
  /// First replay that failed to round-trip its traffic ("" = none).
  [[nodiscard]] const std::string& replay_error() const { return replay_error_; }
  /// Self time summed by span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Write every span (with self time) as JSON.
  bool write_spans(const std::filesystem::path& path) const;

 private:
  /// One rank's slot; only that rank's fiber writes it during a job.
  struct RankData {
    double map_busy = 0.0;
    double reduce_busy = 0.0;
    int64_t map_calls = 0;
    ftmr::mr::KvBuffer map_out;  // recorded traffic for the mr replay
    // Exported state, harvested by collect_rank on survivors.
    ftmr::TimeBuckets times;
    std::map<std::string, double> vspans;  // virtual seconds by span name
    int recoveries = 0;
    size_t tasks_reassigned = 0;
    size_t peak_resident = 0;
  };

  int add_span(Span s);
  /// Per span: duration minus the union of its children and its busy time.
  [[nodiscard]] std::vector<double> self_times() const;
  void put(const std::string& name, double v) { values_[name].push_back(v); }

  int nranks_;
  int job_ = 0;
  int job_span_ = -1;
  int run_span_ = -1;
  std::vector<RankData> ranks_;  // each rank's fiber touches only its slot

  mutable std::mutex mu_;  // guards spans_, appended from rank fibers
  std::vector<Span> spans_;
  double run_wall_ = 0.0;
  int64_t ops_ = 0;

  std::map<std::string, std::vector<double>> values_;
  std::string replay_error_;
};

}  // namespace perfbench
