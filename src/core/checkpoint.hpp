// checkpoint.hpp — checkpoint creation, placement, and recovery loading.
//
// Paper Sec. 4.1: checkpoints combine job state (record cursors, reduce
// progress) with intermediate data (KV deltas, shuffled partitions). They
// are written asynchronously per process (4.1.1), at record or chunk
// granularity (4.1.2), and placed on the node-local disk with a background
// copier draining them to the shared persistent storage (4.1.3) — or
// written to shared storage directly / kept local-only, both of which the
// paper discusses as inferior and which we keep selectable for the Fig. 4
// ablation.
//
// Checkpoint kinds, replayed in sequence order:
//   map  — (task, record position, KV delta emitted since last checkpoint);
//          a chain: recovery is the union of all segments
//   part — one shuffled partition's full KV content (made at shuffle end);
//          a snapshot: the newest valid segment wins
//   red  — (partition, entries reduced so far, output KV delta); a chain,
//          but only segments newer than the partition snapshot they reduce
//          (an older one belongs to a superseded shuffle) are replayed
//   out  — one partition of a completed stage's reduce output; a snapshot
// Sequence numbers are per rank and survive restarts (a resubmitted job
// appends new segments after its predecessor's), so one rank's files
// totally order by write time across process incarnations.
//
// Shared-tier copies carry their simulated drain-completion time in the
// file name; recovery ignores checkpoints that had not finished draining by
// the failure horizon, which models the tail of work lost when a process
// dies before the copier catches up.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>

#include "common/metrics.hpp"
#include "mr/kv.hpp"
#include "mr/spill.hpp"
#include "simmpi/comm.hpp"
#include "storage/copier.hpp"
#include "storage/storage.hpp"

namespace ftmr::core {

// ---------------------------------------------------------------------------
// Checkpoint file framing (see DESIGN.md "Checkpoint file format")
//
// Every checkpoint file is self-verifying:
//   [magic u32 "FTCK"][version u16][reserved u16][payload_len u64]
//   [payload bytes][crc32 u32 over header+payload]
// A torn write (any strict prefix), a truncation, a bit flip, or a stale
// format all fail unframe_checkpoint with kCorrupt — never with garbage
// state. kCorrupt is deliberately distinct from kNotFound so recovery can
// branch: absent file = never written / wiped node; invalid file = written
// but unusable, try the other tier's replica.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kCkptMagic = 0x4B435446u;  // "FTCK" little-endian
inline constexpr uint16_t kCkptVersion = 1;
inline constexpr size_t kCkptFrameOverhead = 4 + 2 + 2 + 8 + 4;

/// Parsed checkpoint file name: "<kind>_s<stage>_p<id>_q<seq>[_d<usec>]".
/// `kind` is "map", "part", "red", or "out"; `id` is the task id (map) or
/// partition number (part/red/out); `seq` totally orders one rank's files
/// across process incarnations; `drained_usec` is the shared-tier drain
/// stamp (-1 on files that never passed through the copier). Public so the
/// fault-schedule explorer's chain-wellformedness invariant can audit the
/// on-disk checkpoint state without reaching into manager internals.
struct CkptFileName {
  std::string kind;
  int stage = -1;
  uint64_t id = 0;
  int seq = -1;
  int64_t drained_usec = -1;  // -1: no drain stamp (local file)
};

/// Parse a checkpoint file name; false if it doesn't match the grammar.
[[nodiscard]] bool parse_checkpoint_name(const std::string& name,
                                         CkptFileName& out);

/// Directory (relative to either tier root) holding rank `rank`'s
/// checkpoint files.
[[nodiscard]] std::string checkpoint_rank_dir(int rank);

/// Wrap a checkpoint payload in the verified frame.
[[nodiscard]] Bytes frame_checkpoint(std::span<const std::byte> payload);

/// Verify and strip the frame. Returns kCorrupt (with a diagnostic message)
/// on any integrity violation; `payload` is untouched on failure.
Status unframe_checkpoint(std::span<const std::byte> framed, Bytes& payload);

/// Robustness counters for the checkpoint integrity layer. Accumulated per
/// CheckpointManager (i.e. per rank); benches/tests sum across ranks.
struct IntegrityStats {
  int64_t corrupt_frames = 0;       // framing/CRC verification failures seen
  int64_t io_retries = 0;           // same-tier retries after an I/O error
  int64_t tier_fallbacks = 0;       // other tier's replica used successfully
  int64_t files_quarantined = 0;    // no valid replica on any tier; skipped
  int64_t segments_reprocessed = 0; // tasks/partitions re-executed because
                                    // their checkpoints were quarantined
  int64_t ckpt_write_failures = 0;  // checkpoint writes dropped after retry
  int64_t drain_failures = 0;       // copier drains that permanently failed
  int64_t replica_hits = 0;         // recovery reads served from peer memory
  int64_t replica_misses = 0;       // memory rung exhausted; fell to files
  int64_t replica_push_failures = 0;// replication pushes lost (dead target
                                    // or injected fault); best-effort drops
  int64_t rereplications = 0;       // blobs re-pushed after a shrink
};

struct CkptOptions {
  enum class Granularity { kRecord, kChunk };
  enum class Location { kLocalWithCopier, kSharedDirect, kLocalOnly };

  bool enabled = true;
  Granularity granularity = Granularity::kRecord;
  /// With record granularity, checkpoint every this many records
  /// (user-tunable; the paper sweeps 1..1e6 in Fig. 6).
  int64_t records_per_ckpt = 100;
  Location location = Location::kLocalWithCopier;
  /// Stage recovery reads use the prefetcher (paper Sec. 5.1 refinement).
  bool prefetch_recovery = false;
  /// In-memory replication degree (Tier::kMemory): every checkpoint blob is
  /// pushed to this many peer ranks' RAM (never the owner's node) and
  /// detect/resume recovery reads a surviving replica before touching any
  /// file tier. 0 disables the memory tier. Memory replicas do not survive
  /// a job teardown, so checkpoint/restart resubmissions start cold.
  int memory_replication_k = 0;
};

/// Everything recoverable about one (rank, stage) from its checkpoints.
struct RankRecovery {
  struct MapTask {
    uint64_t pos = 0;   // records processed through the last checkpoint
    mr::KvBuffer kv;    // KV emitted for those records
  };
  struct Reduce {
    uint64_t entries_done = 0;
    mr::KvBuffer out;
  };
  std::map<uint64_t, MapTask> map_tasks;
  std::map<int, mr::KvBuffer> partitions;   // shuffle-end partition data
  std::map<int, Reduce> reduce;
  std::map<int, mr::KvBuffer> stage_outputs;
  size_t files_read = 0;
  size_t bytes_read = 0;
  // Integrity outcome of this load (also accumulated in the manager).
  size_t corrupt_frames = 0;   // verification failures observed
  size_t tier_fallbacks = 0;   // files served from the other tier's replica
  size_t quarantined = 0;      // files with no valid replica (work lost)
};

/// Optional selection when loading another rank's checkpoints: a survivor
/// only reads the files covering the tasks/partitions it was assigned, so
/// the aggregate recovery I/O stays proportional to the dead rank's data.
struct LoadFilter {
  const std::set<uint64_t>* tasks = nullptr;  // map checkpoints
  const std::set<int>* partitions = nullptr;  // part/red/out checkpoints
};

/// Thread model: a CheckpointManager is confined to its rank's thread (one
/// instance per rank, created by FtJob). Its CopierAgent member and the
/// StorageSystem it writes through are the shared, internally-synchronized
/// objects; everything else (sequence counters, integrity stats) is
/// single-thread state and must not be shared across rank threads.
class CheckpointManager {
 public:
  /// `ppn` (processes per node) drives replica placement: no replica may
  /// land on the owner's node, or a node crash would take a blob and its
  /// replicas together.
  CheckpointManager(storage::StorageSystem* fs, int node, int rank,
                    CkptOptions opts, int io_concurrency, int ppn = 1);

  /// Record-granularity map checkpoint (Algorithm 1's commit path). The
  /// delta covers records [start, pos); carrying the start cursor lets
  /// replay distinguish a chain *continuation* from a chain *restart* by a
  /// later incarnation that re-executed the task from scratch — merging
  /// both would replay the overlap twice.
  Status map_ckpt(simmpi::Comm& comm, int stage, uint64_t task, uint64_t start,
                  uint64_t pos, const mr::KvBuffer& delta);
  /// Shuffle-end partition checkpoint of a partition store. The producer
  /// follows the store: an in-memory store (one that cannot spill) is
  /// framed whole and written with one put(), replicated to the memory tier
  /// like every other checkpoint; a spill-backed store is streamed — frame
  /// header first, then one append per KV page (spilled pages load one at
  /// a time and stay intact), CRC accumulated incrementally, trailer last,
  /// then a size probe — so the partition is never whole in memory, and is
  /// not replicated (a full in-RAM replica would re-buy exactly the
  /// residency the spill budget gave up). Both produce byte-identical files
  /// through the same write_ckpt ladder.
  Status partition_ckpt(simmpi::Comm& comm, int stage, int partition,
                        mr::SpillableKvBuffer& kv);
  /// Reduce-progress checkpoint; the delta covers KMV entries
  /// [start, entries_done) (see map_ckpt for why start is carried).
  Status reduce_ckpt(simmpi::Comm& comm, int stage, int partition,
                     uint64_t start, uint64_t entries_done,
                     const mr::KvBuffer& out_delta);
  /// Completed-stage output checkpoint (iterative jobs resume at stage
  /// boundaries without recomputing earlier stages).
  Status stage_output_ckpt(simmpi::Comm& comm, int stage, int partition,
                           const mr::KvBuffer& out);

  /// Phase-boundary synchronization with the copier: the worker waits (in
  /// virtual time) until all enqueued checkpoints are drained.
  void drain(simmpi::Comm& comm);

  /// Restore the replication invariant after a shrink: every blob in the
  /// memory tier regains >= min(k, eligible-peers) intact replicas before
  /// the next stage. Two passes, both coordination-free (every survivor
  /// derives identical placement from the identical post-shrink live set):
  ///   1. under-replicated blobs still held somewhere — the lowest-ranked
  ///      live holder pushes the missing copies;
  ///   2. blobs whose holders all died — the (surviving) owner re-pushes
  ///      from its own CRC-verified checkpoint files.
  /// Failure-transparent: a peer dying mid-push surfaces kProcFailed /
  /// FailureDetected exactly like any other MPI op, and the interrupted
  /// repair is simply redone by the next recovery round.
  Status rereplicate(simmpi::Comm& comm);

  /// Iteration-scoped memory-tier lifecycle (core/iterjob.hpp). The
  /// iterative engine pins the stages of the newest fully-converged round —
  /// rereplicate() heals their blobs before anything else after a shrink,
  /// so the resume frontier regains coverage first even if repair is
  /// interrupted by another failure.
  void pin_stage_memory(int stage);
  /// Release this rank's memory replicas of blobs from stages below
  /// `keep_from_stage`: superseded-round state stays recoverable from the
  /// file tiers but no longer occupies peer RAM, and rereplicate() will not
  /// resurrect it. Pins below the frontier are dropped too. Returns the
  /// number of (blob, holder) replicas removed. Monotone: the release
  /// frontier only advances.
  int release_stage_memory(int keep_from_stage);
  /// Current release frontier (stages < this have no memory-tier claim).
  [[nodiscard]] int released_below_stage() const noexcept {
    return released_below_;
  }
  [[nodiscard]] const std::set<int>& pinned_stages() const noexcept {
    return pinned_stages_;
  }

  /// Stages for which rank `src_rank` has any checkpoint on the given tier.
  std::set<int> stages_present(int src_rank, int src_node, bool from_shared) const;

  /// Load rank `src_rank`'s checkpoints for `stage`.
  ///   from_shared=false — read the rank's own node-local files (restart on
  ///     the same node after a process crash);
  ///   from_shared=true  — read the drained copies (detect/resume WC reads
  ///     a *dead* rank's state), honoring `horizon` and optionally staging
  ///     through the prefetcher.
  /// Corruption-tolerant: every file is CRC-verified; a corrupt or
  /// truncated file is re-read (transient bit rot), then served from the
  /// other tier's replica (local torn -> drained shared copy; shared copy
  /// corrupt -> the dead rank's intact local file), and finally
  /// quarantined — recovery loses bounded work but never aborts on bad
  /// bytes and never ingests garbage. Outcomes are counted in `out` and in
  /// integrity().
  Status load_rank_stage(simmpi::Comm& comm, int stage, int src_rank, int src_node,
                         bool from_shared, double horizon, RankRecovery& out,
                         const LoadFilter& filter = LoadFilter{});

  [[nodiscard]] const CkptOptions& options() const noexcept { return opts_; }
  [[nodiscard]] storage::CopierAgent& copier() noexcept { return copier_; }
  [[nodiscard]] double write_seconds() const noexcept { return write_seconds_; }
  [[nodiscard]] size_t bytes_written() const noexcept { return bytes_written_; }
  [[nodiscard]] int count() const noexcept { return count_; }

  [[nodiscard]] IntegrityStats integrity() const noexcept { return integ_; }
  /// Called by the recovery engine when quarantined checkpoints force work
  /// (a map task or a partition) to be re-executed from scratch.
  void note_segments_reprocessed(int n) noexcept { integ_.segments_reprocessed += n; }

  /// Record checkpoint write/read spans and integrity instants into `t`
  /// (not owned; may be null). Forwarded to the copier and to recovery
  /// prefetchers; set once during job construction.
  void set_trace(metrics::TraceRecorder* t) noexcept {
    trace_ = t;
    copier_.set_trace(t);
  }

 private:
  /// Writes one checkpoint file once, from scratch, to (tier, path) at the
  /// given I/O concurrency, charging its modeled cost as it goes.
  using WriteOnce = std::function<Status(storage::Tier tier,
                                         const std::string& path,
                                         int concurrency)>;
  /// The one checkpoint write path: placement (local, local + copier
  /// drain, or shared-direct with a stamp), the retry ladder with its
  /// best-effort drop, and the write bookkeeping (counters, ckpt.frame and
  /// ckpt.write spans). `write_once` produces the `framed_size`-byte file;
  /// the framing began at `t0`. Only a `whole_frame` (a frame already in
  /// memory) is replicated to the memory tier. `pages`, if set, is the
  /// spill-backed store a streamed file was read from: its page re-load I/O
  /// elapses at the checkpoint boundary.
  Status write_ckpt(simmpi::Comm& comm, double t0, const std::string& name,
                    uint64_t framed_size, const WriteOnce& write_once,
                    const Bytes* whole_frame, mr::SpillableKvBuffer* pages);
  /// Frame `payload` whole and write it with one write_file per attempt.
  Status put(simmpi::Comm& comm, const std::string& name, const Bytes& payload);
  /// Elapse `seconds` of checkpoint write time on the writer's clock.
  void charge_write(simmpi::Comm& comm, double seconds);
  /// Copier-drain a just-written local checkpoint to the shared tier and
  /// stamp the shared copy with its drain-completion time by renaming it.
  /// Degrades (counts a drain failure) instead of failing: the local copy
  /// stays readable.
  Status drain_to_shared(simmpi::Comm& comm, const std::string& probe);
  /// Push the framed blob to the placement peers' memories (best-effort:
  /// lost pushes are counted, never fail the checkpoint; a kill landing on
  /// the rma op propagates like any MPI death).
  void replicate(simmpi::Comm& comm, const std::string& name,
                 const Bytes& framed);
  /// Push `framed` as memory-tier blob `mpath` to every placement target of
  /// `owner` over `live` that is not among `holders`. Shared by write-time
  /// replication and rereplicate(); every lost push (dead target, failed
  /// rma, failed deposit) is counted in integrity() and in the
  /// ckpt.replica_push_failures counter. Returns the pushes that landed.
  int push_replicas(simmpi::Comm& comm, int owner, const std::vector<int>& live,
                    const std::string& mpath, const Bytes& framed,
                    const std::vector<int>& holders);
  /// Live global ranks of `comm`, ascending.
  static std::vector<int> live_ranks(const simmpi::Comm& comm);
  /// Read `rank_dir`/`name` from `tier` and return its verified payload.
  /// Implements retry -> other-tier fallback -> quarantine; returns
  /// kCorrupt only when no valid replica exists anywhere.
  Status read_verified(simmpi::Comm& comm, storage::Tier tier, int src_node,
                       const std::string& rank_dir, const std::string& name,
                       storage::Prefetcher* prefetch, size_t prefetch_index,
                       std::vector<std::string>* other_tier_listing,
                       Bytes& payload, RankRecovery& out);

  storage::StorageSystem* fs_;
  int node_;
  int rank_;
  CkptOptions opts_;
  int conc_;
  int ppn_ = 1;
  storage::RetryPolicy retry_;
  storage::CopierAgent copier_;
  /// File sequence number, global across checkpoint kinds so names order
  /// all of one rank's files by write time. Initialized past any sequence
  /// numbers already on disk: a restarted submission must *append* to the
  /// delta chains of its predecessor — reusing a number would overwrite an
  /// older segment in place and silently sever the chain's prefix.
  int next_seq_ = 0;
  /// Iteration-scoped memory-tier state (pin_stage_memory /
  /// release_stage_memory). Stages < released_below_ are excluded from
  /// rereplicate()'s file-sourced pass 2; pinned stages heal first.
  int released_below_ = 0;
  std::set<int> pinned_stages_;
  double write_seconds_ = 0.0;
  size_t bytes_written_ = 0;
  int count_ = 0;
  IntegrityStats integ_;
  metrics::TraceRecorder* trace_ = nullptr;
};

}  // namespace ftmr::core
