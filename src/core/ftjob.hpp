// ftjob.hpp — the FT-MRMPI job engine.
//
// This is the paper's primary contribution assembled: the task runner with
// record-level commit points (Sec. 3.2, Algorithm 1), distributed masters
// (3.3), the automated load balancer (3.4), asynchronous record/chunk
// checkpointing with local+copier placement (4.1), and the two fault-
// tolerance models:
//
//   * checkpoint/restart (4.1) — a custom MPI error handler flushes state
//     and calls MPI_Abort; the process manager tears the job down; the user
//     resubmits; the new job primes itself from checkpoints and skips
//     processed records.
//   * detect/resume (4.2) — ULFM: the detecting rank revokes the work and
//     master communicators, survivors shrink, agree, redistribute the dead
//     ranks' work (work-conserving: read their checkpoints; non-work-
//     conserving: re-execute their tasks), and resume in place with fewer
//     processes. Continuous failures shrink repeatedly.
//
// Execution model. A job is a sequence of map-shuffle-reduce *stages*
// driven by a user callback (the driver). Keys hash into a fixed set of
// P0 = initial-comm-size partitions; partitions (not ranks) are the unit of
// reduce work and of post-failure redistribution. The driver is replayed
// after every recovery; completed stages fast-forward from retained or
// recovered state, the current stage re-enters mid-phase and skips
// committed records. All of this is deterministic in virtual time.
#pragma once

#include <functional>
#include <memory>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "core/balancer.hpp"
#include "core/checkpoint.hpp"
#include "core/interfaces.hpp"
#include "core/master.hpp"
#include "mr/convert.hpp"
#include "mr/kv.hpp"
#include "simmpi/comm.hpp"
#include "storage/storage.hpp"

namespace ftmr::core {

enum class FtMode {
  kNone,              // baseline behaviour: a failure aborts the job
  kCheckpointRestart, // Sec. 4.1
  kDetectResumeWC,    // Sec. 4.2, work-conserving
  kDetectResumeNWC,   // Sec. 4.2, non-work-conserving
};

struct FtJobOptions {
  FtMode mode = FtMode::kDetectResumeWC;
  CkptOptions ckpt{};
  std::string input_dir = "input";
  std::string output_dir = "output";
  double map_cost_per_record = 2e-7;
  double reduce_cost_per_value = 1e-7;
  /// Cheap per-record skip on recovery (record-granularity replay).
  double skip_cost_per_record = 1e-8;
  int ppn = 8;
  int io_concurrency = 0;  // 0 = initial comm size
  bool two_pass_convert = true;
  size_t convert_segment_bytes = 4096;
  bool load_balance = true;
  int status_interval_commits = 256;
  /// Checkpoint/restart: read recovery state from the shared tier instead
  /// of the node-local disk (the Fig. 15 recovery-source ablation).
  bool restart_read_shared = false;
  /// TEST-ONLY fault: deliberately break recovery by adopting checkpointed
  /// record cursors while dropping the KV data they cover (both the
  /// work-conserving adoption path and checkpoint/restart priming). The
  /// resumed job then skips records it never re-emits — a silent-data-loss
  /// bug by construction. The schedule explorer's mutation sanity check
  /// flips this flag to prove its invariants can actually fail; it must
  /// never be set outside tests (see testing/explorer.hpp).
  bool testing_break_recovery = false;
  /// TEST-ONLY fault: deliberately break cross-iteration checkpoint reuse.
  /// The iterative engine (core/iterjob.hpp) invalidates the retained state
  /// of an already-completed round on the first post-failure driver replay,
  /// forcing it to re-execute. Re-execution is deterministic, so the final
  /// output stays byte-identical — only the iteration-reuse invariants
  /// (testing/invariants.hpp) can catch it. The schedule explorer's
  /// mutation sanity check flips this flag to prove those invariants can
  /// actually fail; it must never be set outside tests.
  bool testing_break_iteration_reuse = false;
  /// Optional output formatter (Table 1: FileRecordWriter). When set,
  /// write_output() serializes each final record through it (e.g. a
  /// TsvRecordWriter produces "key<TAB>value" text); when unset, output is
  /// the library's length-prefixed binary encoding. The views alias the
  /// output buffer's arena and are valid only for the duration of the call.
  std::function<void(std::string_view key, std::string_view value,
                     std::string& sink)> output_writer;
  /// Per-rank byte budget for intermediate KV/KMV residency. Map output,
  /// shuffle-received partitions and the convert result always live in
  /// spillable buffers; this budget decides whether they ever spill.
  /// 0 = unbounded (in-core): nothing spills, the shuffle is one exchange
  /// and partition checkpoints are written whole. When set, pages beyond
  /// the budget spill under `spill_dir`, the shuffle exchanges data in
  /// budget-bounded rounds, and partition checkpoints stream page by page —
  /// peak residency stays O(budget) however large the dataset. See
  /// DESIGN.md "Out-of-core KV".
  size_t memory_budget = 0;
  /// Scratch namespace on the node-local tier for spill pages.
  std::string spill_dir = "spill";
  /// Spill page size; clamped so one page always fits the shared budget.
  size_t spill_page_bytes = 1 << 20;
};

/// User logic of one stage, view-typed (the Table-1 templates adapt onto
/// this via ftjob_adapters.hpp). All key/value views alias engine-owned
/// arenas and are valid only for the duration of the call — callbacks must
/// copy anything they keep.
struct StageFns {
  /// Map one input record; returns number of KV pairs emitted.
  std::function<int32_t(std::string_view key, std::string_view value,
                        mr::KvBuffer& out)> map;
  /// Reduce one key group; returns number of KV pairs emitted.
  std::function<int32_t(std::string_view key,
                        std::span<const std::string_view> values,
                        mr::KvBuffer& out)> reduce;
  /// Optional combiner: locally pre-aggregates each partition's KV pairs
  /// before the shuffle (classic MapReduce optimization; must be
  /// associative/commutative with `reduce`). Same signature as reduce.
  /// Cuts shuffle volume and shuffle-end partition checkpoints.
  std::function<int32_t(std::string_view key,
                        std::span<const std::string_view> values,
                        mr::KvBuffer& out)> combine;
  /// Optional custom input reader (Table 1: FileRecordReader). The factory
  /// is invoked per map task; default is the line-oriented TextLineReader.
  /// Only used for file-input stages.
  std::function<std::unique_ptr<FileRecordReader<int64_t, std::string>>()>
      make_reader;
  /// Optional per-stage cost overrides (<0: use job options).
  double map_cost_per_record = -1.0;
  double reduce_cost_per_value = -1.0;
};

/// Thrown internally when an MPI-level failure is observed in detect/resume
/// mode; caught by FtJob::run, which recovers and replays the driver.
struct FailureDetected {
  Status cause;
};

/// Thread model: one FtJob per rank, confined to that rank's thread. The
/// only cross-thread objects it touches are the shared StorageSystem (its
/// stats/injector state is internally locked) and the simmpi Job state
/// behind the communicators (guarded by the job-wide mutex). All stage
/// state, KV buffers, and time buckets are rank-private by construction.
class FtJob {
 public:
  /// Driver: calls job.run_stage(...) once per stage, in a fixed order, and
  /// finally job.write_output(...). Replayed verbatim after recoveries.
  using Driver = std::function<Status(FtJob&)>;

  // Phase progression within a stage. Values are ordered; the composite
  // (stage*8 + phase) is what checkpoint/restart ranks agree on. Public so
  // the iterative engine can classify a replay encounter (fast-forward vs
  // re-entry) via stage_phase().
  enum Phase : int { kPhaseMap = 0, kPhaseShuffleDone = 1, kPhaseDone = 2 };

  FtJob(simmpi::Comm& world, storage::StorageSystem* fs, FtJobOptions opts);

  /// Execute the job (driver + recovery loop). In checkpoint/restart mode a
  /// failure ends with MPI_Abort (this call never returns on that path —
  /// the AbortError propagates); the caller resubmits via Runtime::run and
  /// the fresh FtJob primes itself from checkpoints.
  Status run(const Driver& driver);

  /// One map-shuffle-reduce stage. `kv_input=false`: map reads the input
  /// chunks in options.input_dir. `kv_input=true`: map iterates the
  /// previous stage's output partitions (iterative jobs). `output`, if
  /// non-null, receives this rank's reduce output for the stage.
  Status run_stage(const StageFns& fns, bool kv_input, mr::KvBuffer* output);

  /// Write this rank's final output (its owned partitions of the last
  /// stage) under options.output_dir.
  Status write_output();

  // -- introspection --
  [[nodiscard]] const TimeBuckets& times() const noexcept { return times_; }
  [[nodiscard]] TimeBuckets& mutable_times() noexcept { return times_; }
  /// This rank's trace recorder. Phase spans (cat "phase") mirror every
  /// seconds-valued TimeBuckets charge 1:1; component spans/instants
  /// (cats "ckpt", "copier", "prefetch", "master", "shuffle") ride along.
  /// Merge into a collector after the rank threads join (the recorder is
  /// internally locked, but the convention keeps exports deterministic).
  [[nodiscard]] metrics::TraceRecorder& trace() noexcept { return trace_; }
  [[nodiscard]] simmpi::Comm& work_comm() noexcept { return wc_; }
  [[nodiscard]] int initial_size() const noexcept { return p0_; }
  [[nodiscard]] int node() const noexcept;
  [[nodiscard]] const std::vector<int>& partition_owners() const noexcept {
    return part_owner_;
  }
  [[nodiscard]] DistributedMaster& master() noexcept { return *master_; }
  [[nodiscard]] CheckpointManager& ckpt() noexcept { return *ckpt_; }
  [[nodiscard]] bool resumed_from_checkpoint() const noexcept {
    return primed_from_ckpt_;
  }
  [[nodiscard]] int recoveries() const noexcept { return recoveries_; }
  /// Resident-byte accounting across every spill-backed buffer this rank
  /// opened; `peak` is the high-water mark the budget promises to bound
  /// (meaningful only when memory_budget > 0).
  [[nodiscard]] const mr::ResidencyMeter& residency() const noexcept {
    return meter_;
  }
  /// This rank's spill traffic by kind of store, each the sum of those
  /// stores' own SpillStats (all zero when memory_budget is 0).
  struct SpillBreakdown {
    mr::SpillStats map;   // map-output stores
    mr::SpillStats part;  // received-partition stores
    mr::SpillStats kmv;   // convert output (KMV runs)
  };
  [[nodiscard]] const SpillBreakdown& spill_breakdown() const noexcept {
    return spilled_;
  }
  [[nodiscard]] const FtJobOptions& options() const noexcept { return opts_; }
  // Invariant probes (read-only views for the schedule explorer and the
  // redistribution-invariant tests; see testing/invariants.hpp).
  /// Stage-0 file tasks reassigned away from their hash-default owner
  /// (task id -> inheriting global rank), accumulated across recoveries.
  [[nodiscard]] const std::map<uint64_t, int>& task_reassignments() const noexcept {
    return task_reassign_;
  }
  /// Global ranks this rank knows to be dead (post-census union).
  [[nodiscard]] const std::set<int>& known_dead() const noexcept {
    return known_dead_;
  }
  /// Stage-0 input chunk names, in task-id order (empty until the first
  /// file-input stage listed the input directory).
  [[nodiscard]] const std::vector<std::string>& input_chunks() const noexcept {
    return chunks_;
  }
  /// Phase of a stage this rank holds state for (a Phase value), or -1 when
  /// the stage has no state yet. Lets the iterative engine tell a replay
  /// fast-forward (kPhaseDone) from a partial re-entry from first
  /// execution before the driver calls run_stage().
  [[nodiscard]] int stage_phase(int stage) const noexcept {
    const auto it = stages_.find(stage);
    return it == stages_.end() ? -1 : it->second.phase;
  }
  /// TEST-ONLY: drop a stage's retained state so the next run_stage() call
  /// re-executes it from scratch. This is the iteration-reuse mutation hook
  /// (FtJobOptions::testing_break_iteration_reuse); never call it outside
  /// tests.
  void testing_invalidate_stage(int stage) { stages_.erase(stage); }

 private:

  struct TaskProgress {
    uint64_t pos = 0;            // committed record cursor
    uint64_t last_ckpt_pos = 0;  // cursor at the last checkpoint
    bool done = false;
    bool rerun_from_scratch = false;  // NWC-recovered task
    mr::KvBuffer pending_delta;  // emitted since the last checkpoint
    /// Emitted KV of the task still running, partitioned (P0); moved into
    /// the stage's map stores when the task completes.
    std::vector<mr::KvBuffer> parts;
  };

  struct ReduceProgress {
    uint64_t entries_done = 0;
    uint64_t last_ckpt_entries = 0;
    bool done = false;
    mr::KvBuffer out;
    mr::KvBuffer pending_delta;
    /// The partition's convert result, streamed into reduce (survives a
    /// FailureDetected unwind so re-entry resumes mid-stream).
    std::unique_ptr<mr::SpillableKmvBuffer> kmv;
  };

  struct StageState {
    int phase = kPhaseMap;
    // Task-id space marker: file-input stages key `tasks` by input chunk,
    // kv-input stages by partition. Recovery must restore a dead rank's map
    // progress in the right space (set by run_stage on every entry).
    bool kv_input = false;
    std::map<uint64_t, TaskProgress> tasks;
    std::set<int> partitions_missing;  // orphans needing NWC rebuild
    std::map<int, ReduceProgress> reduce;
    std::map<int, mr::KvBuffer> outputs;  // reduce output per owned partition
    // Completed map tasks move their partitioned output here (the send side
    // of the shuffle and of the orphan rebuild), and the shuffle absorbs
    // receives here; convert consumes a partition's store.
    std::map<int, mr::SpillableKvBuffer> map_stores;        // by partition
    std::map<int, mr::SpillableKvBuffer> partition_stores;  // by owned p
  };

  // -- helpers --
  [[nodiscard]] int io_conc() const noexcept {
    return opts_.io_concurrency > 0 ? opts_.io_concurrency : p0_;
  }
  /// Route a status: OK passes; failure classes throw FailureDetected (or
  /// flush+abort in CR mode); anything else is returned.
  Status check(Status s);
  [[nodiscard]] bool is_failure(const Status& s) const noexcept;
  void commit(uint64_t task, TaskProgress& tp, int stage);
  Status map_phase(const StageFns& fns, bool kv_input, int stage, StageState& st);
  Status run_one_map_task(const StageFns& fns, bool kv_input, int stage,
                          StageState& st, uint64_t task);
  /// Exchange the map stores: rounds of at most half the budget of pages
  /// (one round when the budget is unbounded), absorbed into the partition
  /// stores, then checkpointed.
  Status shuffle_phase(const StageFns& fns, int stage, StageState& st);
  /// Re-exchange the `missing` partitions from the survivors' map stores
  /// and replace (and re-checkpoint) the owned ones.
  Status rebuild_orphan_partitions(const StageFns& fns, int stage,
                                   StageState& st,
                                   const std::vector<int>& missing);
  Status reduce_phase(const StageFns& fns, int stage, StageState& st);
  /// One Algorithm-1 reduce step of partition p: reduce the key group into
  /// `emitted` (reused scratch), commit it, checkpoint at the record
  /// interval, and poll for failures.
  Status reduce_entry(const StageFns& fns, int stage, int p, ReduceProgress& rp,
                      std::string_view key,
                      std::span<const std::string_view> values,
                      double reduce_cost, mr::KvBuffer& emitted);
  /// Close partition p's reduce: flush the checkpoint tail, charge the
  /// streamed KMV's spill I/O, publish the output and checkpoint it.
  Status finish_reduce_partition(int stage, StageState& st, int p,
                                 ReduceProgress& rp);
  // -- spillable stores --
  /// Spill namespace for one component of one stage on this rank; the
  /// per-rank budget is split evenly between the KV side (map output or
  /// received partitions) and the convert/KMV side. Disabled (nothing
  /// spills) when memory_budget is 0.
  [[nodiscard]] mr::SpillConfig spill_config(int stage,
                                             std::string_view what) const;
  /// The stage's spill store for map-output partition p (created on first
  /// use, budget shared across all P0 partitions).
  mr::SpillableKvBuffer& map_store(StageState& st, int stage, int p);
  /// The stage's spill store for owned partition p (created on first use,
  /// budget shared across this rank's owned partitions).
  mr::SpillableKvBuffer& partition_store(StageState& st, int stage, int p);
  /// Replace owned partition p's store with a recovered partition (WC
  /// adoption and CR priming).
  void adopt_partition(StageState& st, int stage, int p, mr::KvBuffer&& kv);
  /// Restore a map task's recovered progress (WC adoption and CR priming):
  /// its cursor and, unless recovery is deliberately broken for a mutation
  /// test, its checkpointed KV split into the task's partitions.
  void restore_map_task(TaskProgress& tp, const RankRecovery::MapTask& rec) const;
  /// Restore a partition's recovered reduce progress (WC and CR alike).
  static void restore_reduce(ReduceProgress& rp, RankRecovery::Reduce&& rec);
  /// Decode an alltoall receive buffer and absorb its blocks into the
  /// owned-partition stores; `pairs_received`, if set, accumulates the
  /// record count for the shuffle tap.
  Status absorb_shuffle_blocks(StageState& st, int stage, const Bytes& recv,
                               size_t* pairs_received);
  void recover();
  void patch_state_after_shrink(const std::vector<int>& new_dead);
  void prime_from_own_checkpoints();
  [[nodiscard]] std::vector<uint64_t> my_task_ids(int stage, bool kv_input) const;
  [[nodiscard]] std::string chunk_name(uint64_t task) const;
  [[nodiscard]] int owner_rel(int partition) const;  // rel rank on wc_
  /// Encode each non-empty (partition, block) into the alltoall send buffer
  /// of the partition's current owner. Empty blocks never reach the wire,
  /// so a destination with nothing to receive gets an empty buffer and the
  /// exchange costs O(non-empty partitions), not O(p). Fails (through
  /// check) with `owner_died` if an owner left the work comm.
  Status route_blocks(const std::map<int, mr::KvBuffer>& blocks,
                      const char* owner_died, std::vector<Bytes>& send);
  [[nodiscard]] double current_map_cost(const StageFns& f) const {
    return f.map_cost_per_record >= 0 ? f.map_cost_per_record
                                      : opts_.map_cost_per_record;
  }
  [[nodiscard]] double current_reduce_cost(const StageFns& f) const {
    return f.reduce_cost_per_value >= 0 ? f.reduce_cost_per_value
                                        : opts_.reduce_cost_per_value;
  }
  /// Charge wc_.now()-t0 into `bucket` AND record the matching phase span,
  /// so the trace reproduces the TimeBuckets decomposition exactly.
  void charge_span(const char* bucket, double t0);
  /// Same for pre-computed costs charged after a wc_.compute(cost): the
  /// span covers [now-cost, now].
  void charge_cost(const char* bucket, double cost);

  simmpi::Comm world_;  // never shrinks; failure census
  simmpi::Comm wc_;     // work comm (shrinks on recovery)
  storage::StorageSystem* fs_;
  FtJobOptions opts_;
  int p0_;  // initial size == partition count
  std::unique_ptr<DistributedMaster> master_;
  std::unique_ptr<CheckpointManager> ckpt_;

  std::vector<std::string> chunks_;        // stage-0 input chunk names
  std::vector<int> part_owner_;            // partition -> global rank
  size_t owned_parts_ = 1;  // partitions this rank owns (recounted on change)
  std::map<uint64_t, int> task_reassign_;  // stage-0 task -> new global rank
  std::set<int> known_dead_;               // global ranks
  std::set<std::pair<int, int>> wc_loaded_;  // (dead rank, stage) already loaded

  std::map<int, StageState> stages_;
  int stage_cursor_ = 0;
  int last_stage_ = -1;
  /// A failure was already detected while constructing (the master-comm dup
  /// is collective); run() recovers before the first driver attempt.
  bool ctor_failure_ = false;
  bool primed_from_ckpt_ = false;
  int recoveries_ = 0;
  TimeBuckets times_;
  // Mutated through SpillConfig::meter by the buffers spill_config() opens
  // (accounting state, like times_; spill_config itself stays const).
  mutable mr::ResidencyMeter meter_;
  SpillBreakdown spilled_;  // mutated through SpillConfig::tally
  metrics::TraceRecorder trace_;
  double map_bytes_done_ = 0.0;  // load-balancer observation feed
  double map_vtime_spent_ = 0.0;
};

}  // namespace ftmr::core
