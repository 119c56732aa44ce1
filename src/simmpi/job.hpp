// job.hpp — internal shared state of one simulated MPI job.
//
// Concurrency design (CP.20/CP.22 style): one job-wide mutex guards all
// cross-rank state (mailboxes, collective slots, comm registry, liveness);
// it keeps the failure paths easy to audit. Blocking and wakeups, however,
// are *targeted*: rank fibers park on per-predicate WaitChannels (a rank's
// recv channel, a collective slot's channel) via Job::wait_blocked, and a
// state change wakes only the channel whose predicate it touched — a send
// wakes its destination, a collective arrival wakes that slot. Only rare
// global events (death, revoke, abort, rank finish) broadcast via
// Job::wake_all. Point-to-point sends additionally stage into a per-rank
// Inbox with its own small mutex, so a receiver drains a whole batch of
// pending sends with one lock acquisition and senders issue at most one
// wakeup per batch (see Inbox).
//
// Lock ordering: Job::mu -> Scheduler internals; Job::mu -> Inbox::mu.
// Inbox::mu and the scheduler mutex are never held together.
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/sync.hpp"
#include "simmpi/scheduler.hpp"
#include "simmpi/types.hpp"

namespace ftmr::simmpi {

/// An in-flight point-to-point message. `src_rel` is the sender's rank
/// *within the communicator* identified by `ctx`; matching is on
/// (ctx, src_rel, tag). `arrival` is the virtual time at which the payload
/// is fully available at the receiver (0 for non-time-accounting comms).
struct Message {
  uint64_t ctx = 0;
  int src_rel = 0;
  int tag = 0;
  Bytes payload;
  double arrival = 0.0;
};

/// Shared state of a communicator. `group[i]` is the global rank of the
/// comm-relative rank i. Revocation (ULFM MPI_Comm_revoke) is a flag here:
/// every op except shrink/agree observes it.
///
/// Thread model: `ctx`, `group` and `accounts_time` are immutable once the
/// CommState is published into Job::comms (they are set by the constructor,
/// inside the critical section that creates the comm), so they may be read
/// without a lock. `revoked` is mutable shared state guarded by the owning
/// Job's `mu` — the analysis cannot express a guard living in a different
/// object, so that rule is enforced by review + TSan.
struct CommState {
  /// Builds the inverse index global rank -> rel rank alongside the group,
  /// so rel_rank_of is O(1) (it sits under per-partition owner lookups that
  /// every rank makes for every partition).
  CommState(uint64_t ctx_, std::vector<int> group_, bool accounts_time_)
      : ctx(ctx_), group(std::move(group_)), accounts_time(accounts_time_) {
    int max_global = -1;
    for (int g : group) max_global = std::max(max_global, g);
    rel_index_.assign(static_cast<size_t>(max_global + 1), -1);
    for (size_t i = 0; i < group.size(); ++i) {
      rel_index_[static_cast<size_t>(group[i])] = static_cast<int>(i);
    }
  }

  const uint64_t ctx;
  const std::vector<int> group;
  bool revoked = false;
  /// Master/copier-thread comms don't advance the rank's virtual clock.
  const bool accounts_time;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(group.size()); }
  /// Comm-relative rank of `global_rank`, or -1 if it is not a member.
  [[nodiscard]] int rel_rank_of(int global_rank) const noexcept {
    return global_rank >= 0 && global_rank < static_cast<int>(rel_index_.size())
               ? rel_index_[static_cast<size_t>(global_rank)]
               : -1;
  }

 private:
  std::vector<int> rel_index_;  // global rank -> rel rank (-1: not a member)
};

/// Rendezvous state for one arrival-synchronized collective call.
/// Keyed by (ctx, per-rank call sequence number); MPI requires all ranks to
/// issue collectives on a comm in the same order, which makes the sequence
/// number a consistent key.
struct CollectiveSlot {
  std::map<int, Bytes> contribs;       // rel rank -> contribution payload
  std::map<int, double> arrive_vtime;  // rel rank -> clock at arrival
  std::map<int, Bytes> results;        // rel rank -> result payload
  std::map<int, double> done_vtime;    // rel rank -> clock after the op
  bool computed = false;
  bool failed = false;  // a participant died (fails intolerant collectives)
  /// Contributors that are alive and have not yet picked up their result.
  /// A pickup removes the rank's `contribs` entry and decrements this;
  /// Job::die_locked decrements it for a dead contributor still present in
  /// `contribs`. The slot is erased when it reaches 0 after `computed` —
  /// exactly when its last live contributor picks up (or dies) — with no
  /// per-pickup recount of the group.
  int unpicked = 0;
  /// First group index not yet arrived-or-dead. Arrivals and deaths are
  /// both monotone, so the completion predicate advances this cursor
  /// instead of rescanning the whole group — amortized O(p log p) per
  /// collective instead of O(p^2) (which was O(p^3) via rel_rank_of).
  int scan_cursor = 0;
  /// Fibers waiting on this slot (arrivals / compute) park here, so an
  /// arrival wakes only this collective's participants, not the whole job.
  /// Safe against slot erasure: waiters hold their own shared_ptr to the
  /// slot, and a slot is only erased once `unpicked` hits 0 — at which point
  /// every live participant has picked up (none can be parked here).
  WaitChannel ch;
};

/// Staging area for point-to-point sends to one rank. Senders append under
/// `mu` (already holding Job::mu for liveness/vtime checks) and issue a
/// wakeup only when `waiting` was set; the receiver splices the whole batch
/// into its private mailbox in one acquisition. `waiting` is the receiver's
/// published intent to park (two-phase: set waiting, re-check staged, then
/// park) — it makes "N pending sends" cost one wakeup instead of N.
struct Inbox {
  Mutex mu{"inbox.mu"};
  std::vector<Message> staged FTMR_GUARDED_BY(mu);
  bool waiting FTMR_GUARDED_BY(mu) = false;
};

/// Per-rank runtime state. Every field is guarded by the owning Job's `mu`
/// (expressed there via FTMR_GUARDED_BY on Job::ranks; access through
/// references escaping the container is covered by TSan, not the static
/// analysis).
struct RankState {
  bool alive = true;
  bool killed = false;
  bool finished = false;
  int exit_code = 0;
  double vtime = 0.0;
  int64_t op_count = 0;
  /// Depth of nested Comm uncounted-ops sections: while > 0, MPI calls do
  /// not advance op_count (kill triggers still fire). Keeps real-time-racy
  /// polling loops off the deterministic op axis.
  int64_t uncounted_depth = 0;
  // Failure injection triggers (either may be set).
  double kill_vtime = -1.0;
  int64_t kill_after_ops = -1;
  std::deque<Message> mailbox;
  std::map<uint64_t, uint64_t> coll_seq;          // ctx -> next collective seq
  std::map<uint64_t, std::vector<int>> acked;     // ctx -> acked dead global ranks
};

/// Whole-job shared state; owned by the Runtime, outlives all rank fibers.
class Job {
 public:
  Job(int nranks, JobOptions opts);

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  // ---- guarded by mu ----
  Mutex mu{"job.mu"};

  const int nranks;
  const JobOptions opts;
  /// Set by the Runtime for the duration of the run (before the worker
  /// pool starts, cleared after it joins — publication is ordered by
  /// thread creation/join, so no lock is needed). Every rank body runs on
  /// one of its fibers, so every wait_blocked caller parks here.
  Scheduler* sched = nullptr;
  /// Per-global-rank recv wait channel; sized at construction, immutable
  /// after. Channel contents are guarded by the scheduler's mutex.
  std::vector<WaitChannel> recv_ch;
  /// Per-global-rank send staging; sized at construction, immutable after.
  std::vector<std::unique_ptr<Inbox>> inboxes;
  std::vector<RankState> ranks FTMR_GUARDED_BY(mu);
  std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<CollectiveSlot>> slots
      FTMR_GUARDED_BY(mu);
  /// Current epoch of the tolerant collectives (shrink/agree) per
  /// (ctx, namespace). Bumped by the rank that computes a slot, in the same
  /// critical section that sets `computed` — so a rank entering afterwards
  /// always lands in the next logical operation.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> tol_epochs FTMR_GUARDED_BY(mu);
  std::map<uint64_t, std::shared_ptr<CommState>> comms FTMR_GUARDED_BY(mu);
  bool aborted FTMR_GUARDED_BY(mu) = false;
  int abort_code FTMR_GUARDED_BY(mu) = 0;
  uint64_t next_ctx FTMR_GUARDED_BY(mu) = 1;  // 0 is the world comm

  // ---- helpers; "locked" variants require mu held ----

  /// Mark `rank` dead and wake everyone. Idempotent. Settles the rank's
  /// unpicked collective results (see CollectiveSlot::unpicked).
  void die_locked(int rank) FTMR_REQUIRES(mu);

  /// Entry check for every MPI call issued on behalf of `rank` by any of
  /// its threads: throws AbortError when the job is aborted, KilledError
  /// when the rank is (or must now become) dead. Counts the op.
  void check_callable(int rank) FTMR_EXCLUDES(mu);

  /// Same check for use inside wait_blocked loops (mu already held, op not
  /// re-counted).
  void check_callable_locked(int rank) FTMR_REQUIRES(mu);

  /// Called after advancing `rank`'s virtual clock: enforces vtime kills.
  void check_vtime_kill(int rank) FTMR_EXCLUDES(mu);

  /// Global ranks of dead members of `cs` (mu held).
  [[nodiscard]] std::vector<int> dead_in_locked(const CommState& cs) const
      FTMR_REQUIRES(mu);
  [[nodiscard]] bool any_dead_in_locked(const CommState& cs) const FTMR_REQUIRES(mu);

  /// Rank `rel` of the comm keyed by `key` takes its result from `slot`
  /// (mu held): drops its contribution, and erases the slot when it was the
  /// last live contributor to do so. O(log p): the group is not recounted.
  void pick_up_locked(const std::pair<uint64_t, uint64_t>& key,
                      CollectiveSlot& slot, int rel) FTMR_REQUIRES(mu);

  /// Dead members not yet acked by `rank` on this comm (mu held).
  [[nodiscard]] std::vector<int> unacked_dead_locked(int rank, const CommState& cs)
      const FTMR_REQUIRES(mu);

  /// Allocate a fresh communicator context id (mu held).
  uint64_t alloc_ctx_locked() FTMR_REQUIRES(mu) { return next_ctx++; }

  /// Trigger job-wide abort (MPI_Abort semantics).
  void abort_job(int code) FTMR_EXCLUDES(mu);

  // ---- blocking / wakeup ----

  /// Park the calling fiber on `ch` until a wake arrives, releasing `mu`
  /// for the duration (condition-variable style; the caller re-checks its
  /// predicate in a loop). Precondition: called from a scheduler fiber of
  /// this job's run (Runtime::run is the only creator of a Job); any other
  /// caller is a fatal error. Returns true if the wait was ended by
  /// deadlock detection / timeout.
  bool wait_blocked(WaitChannel& ch) FTMR_REQUIRES(mu) FTMR_MAY_PARK;

  /// Wake fibers parked on `ch`. Callable with or without `mu`; the caller
  /// must have already applied its state change.
  void wake_channel(WaitChannel& ch);

  /// Wake `global_rank`'s recv channel (a message was staged for it).
  void wake_recv(int global_rank) { wake_channel(recv_ch[global_rank]); }

  /// Broadcast: wake every parked fiber. For events whose predicate spans
  /// all channels (death, revoke, abort, finish).
  void wake_all();
};

}  // namespace ftmr::simmpi
