// explorer.hpp — systematic fault-schedule exploration with invariant
// checking and schedule minimization.
//
// The existing fault tests each hard-code a handful of kill points. This
// engine turns fault coverage into a search problem over the job's actual
// execution structure:
//
//   1. HARVEST  — run the workload once failure-free (the "golden" run).
//      Every trace event is stamped with the recording rank's MPI op index
//      (TraceEvent::op, deterministic on failure-free runs), so the golden
//      trace *is* a map of interesting kill points: phase boundaries,
//      checkpoint frame writes, shuffle and master operations. Dedup the op
//      values, add the first-ops and last-op boundaries, and the result is
//      the candidate set.
//   2. SWEEP    — re-execute the job under generated schedules: a
//      single-kill sweep (every candidate op x every rank that reaches it,
//      addressed via KillEvent::after_ops) plus bounded random multi-kill
//      sequences (continuous failures for detect/resume; kills spread
//      across resubmissions for checkpoint/restart).
//   3. CHECK    — after every run, evaluate the invariants in
//      testing/invariants.hpp: exactly-once output vs the generator's
//      ground truth, run completion, survivor-view consistency, and
//      checkpoint-chain well-formedness.
//   4. MINIMIZE — a violating schedule is greedily shrunk (drop one kill at
//      a time while the violation reproduces) and recorded as a replayable
//      JSON artifact carrying the workload, seed, and kill list.
//
// Determinism contract: kill *firing* is exact (op-index addressing), and
// the golden run's per-rank op counts are deterministic. Which survivor
// *detects* a failure first is real-time nondeterministic, but every
// invariant is timing-independent (see invariants.hpp), so a violating
// artifact replays meaningfully even when the detection interleaving
// differs.
//
// The mutation sanity check: FtJobOptions::testing_break_recovery plants a
// silent-record-loss bug in recovery; ExplorerOptions::break_recovery flips
// it so CI can prove the explorer actually detects planted bugs (a fault
// harness that cannot fail is not evidence).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/status.hpp"
#include "simmpi/types.hpp"
#include "testing/invariants.hpp"

namespace ftmr::testing {

/// One scheduled kill. `after_ops`/`vtime` mirror simmpi::KillEvent;
/// `submission` selects which checkpoint/restart resubmission the kill is
/// injected into (always 0 for detect/resume, which never resubmits).
struct KillSpec {
  int rank = -1;
  int64_t after_ops = -1;  // <0: disabled
  double vtime = -1.0;     // <0: disabled
  int submission = 0;

  friend bool operator==(const KillSpec&, const KillSpec&) = default;
};

/// A complete, replayable fault schedule.
struct FaultSchedule {
  std::string label;
  std::string mode = "wc";  // "cr" | "wc" | "nwc"
  uint64_t seed = 1;        // generator seed (provenance; kills are explicit)
  std::vector<KillSpec> kills;
};

/// One harvested kill-point candidate: an op index some rank reaches, with
/// the trace event that made it interesting ("<cat>:<name>").
struct Candidate {
  int64_t op = 0;
  std::string source;
};

/// The workload every explored run executes: a small Zipf wordcount (or an
/// iterative graph app, below), sized so a full single-kill sweep stays in
/// CI budget. Serialized into every artifact so `ftmr_explore
/// replay=<file>` reconstructs the exact run.
struct ExplorerWorkload {
  /// "wc" = Zipf wordcount. "sssp" | "cc" | "tri" run the corresponding
  /// graph app on the iterative engine (core/iterjob.hpp): the harvest
  /// then also picks up "iter" round-boundary instants as kill candidates,
  /// ground truth comes from the dependency-free references in
  /// apps/graph.hpp, and (for modes wc/cr) every run additionally arms the
  /// no-completed-iteration-reexecution invariant.
  std::string app = "wc";
  int nranks = 4;
  int chunks = 4;
  int lines_per_chunk = 10;
  int words_per_line = 6;
  int vocabulary = 60;
  // -- graph-app inputs (ignored for "wc") --
  int graph_nodes = 24;
  int graph_max_weight = 3;
  /// Engine iterations for sssp/cc (tri's pipeline has a fixed depth).
  int iterations = 3;
  int sssp_source = 0;
  int64_t records_per_ckpt = 8;
  int ppn = 2;
  int max_submissions = 8;        // checkpoint/restart resubmission cap
  double deadlock_timeout_s = 30.0;
  /// In-memory replication degree (CkptOptions::memory_replication_k).
  /// >0 makes peer RAM the primary recovery source, adds replication-window
  /// kill candidates (ckpt.replica_push spans) to the harvest, and arms the
  /// replica-coverage invariant after every run.
  int memory_replication_k = 0;
  /// Per-rank resident-byte budget (FtJobOptions::memory_budget). >0 runs
  /// the job out-of-core: map output, shuffle receive, and convert page
  /// through the spill tier, so every kill schedule also runs recovery
  /// against spilling stores and streamed partition checkpoints.
  /// 0 = unbounded, nothing spills (the default).
  int64_t memory_budget = 0;
};

struct ExplorerOptions {
  std::string mode = "wc";  // "cr" | "wc" | "nwc"
  ExplorerWorkload workload{};
  uint64_t seed = 1;              // multi-kill generator seed
  /// Cap on single-kill runs; 0 = the full sweep (every candidate x rank).
  /// When capped, candidates are subsampled evenly, never truncated.
  int max_single_kill_runs = 0;
  int multi_kill_schedules = 0;   // number of random multi-kill schedules
  int max_kills_per_schedule = 2; // kills per multi-kill schedule (>= 2)
  bool break_recovery = false;    // mutation sanity check (see file comment)
  /// Mutation sanity check for the iterative engine: flips
  /// FtJobOptions::testing_break_iteration_reuse so a post-failure replay
  /// deliberately re-executes its newest completed round — the
  /// iteration-reuse invariant must catch it (graph apps only).
  bool break_iteration_reuse = false;
  bool minimize = true;
  std::string artifact_dir;       // host path; empty = no artifacts written
};

/// Outcome of one explored run.
struct RunReport {
  FaultSchedule schedule;
  bool completed = false;  // final submission finished (no abort/hang)
  int submissions = 0;
  std::vector<Violation> violations;
};

/// Outcome of a full exploration.
struct ExploreReport {
  std::vector<Candidate> candidates;
  int schedules = 0;  // schedules explored (pre-minimization)
  int runs = 0;       // total job executions, incl. golden + minimization
  std::vector<RunReport> failing;       // minimized violating schedules
  std::vector<std::string> artifacts;   // JSON artifact paths written
};

class Explorer {
 public:
  explicit Explorer(ExplorerOptions opts);

  /// Phase 1: run the golden (failure-free) job, harvest kill-point
  /// candidates from its op-stamped trace, record per-rank op totals, and
  /// check the golden run itself (output exactness, checkpoint chains,
  /// record conservation). Fails if the golden run violates anything —
  /// exploration on a broken baseline would be meaningless.
  Status harvest();

  /// Execute one schedule end-to-end (fresh storage + corpus, submission
  /// loop, invariant checks). Usable directly for artifact replay.
  /// `trace_out`, if non-null, receives the merged trace of the final
  /// submission's surviving ranks.
  RunReport run_schedule(const FaultSchedule& schedule,
                         std::vector<metrics::TraceEvent>* trace_out = nullptr);

  /// Phases 2-4: harvest (if not yet done), sweep single-kill + multi-kill
  /// schedules, minimize violations, write artifacts.
  ExploreReport explore();

  /// Greedily drop kills while the schedule still violates; returns the
  /// minimized schedule and its report. `runs` (if non-null) accumulates
  /// the number of job executions spent minimizing.
  RunReport minimize(const FaultSchedule& schedule, int* runs = nullptr);

  // -- generated schedules (harvest() must have succeeded) --
  [[nodiscard]] std::vector<FaultSchedule> single_kill_schedules() const;
  [[nodiscard]] std::vector<FaultSchedule> multi_kill_schedules() const;

  [[nodiscard]] const std::vector<Candidate>& candidates() const noexcept {
    return candidates_;
  }
  /// Golden per-rank MPI op totals (the reachable op-index horizon).
  [[nodiscard]] const std::vector<int64_t>& golden_ops() const noexcept {
    return golden_ops_;
  }
  [[nodiscard]] const ExplorerOptions& options() const noexcept { return opts_; }

  // -- replay artifacts --
  /// Serialize a schedule (+ workload + violations) as a replay artifact.
  [[nodiscard]] static std::string artifact_json(
      const FaultSchedule& schedule, const ExplorerWorkload& workload,
      bool break_recovery, bool break_iteration_reuse,
      const std::vector<Violation>& violations);
  /// Parse an artifact produced by artifact_json. The mutation-flag out
  /// params may be null. Unknown fields are ignored (artifacts are
  /// forward-compatible).
  static Status artifact_parse(const std::string& json, FaultSchedule& schedule,
                               ExplorerWorkload& workload, bool* break_recovery,
                               bool* break_iteration_reuse = nullptr);

 private:
  ExplorerOptions opts_;
  bool harvested_ = false;
  std::vector<Candidate> candidates_;
  std::vector<int64_t> golden_ops_;
};

}  // namespace ftmr::testing
