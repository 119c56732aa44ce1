// master.hpp — the distributed master (paper Sec. 3.3).
//
// One master per process; no dedicated master process (which would be both
// a wasted rank and a single point of failure — Sec. 2.2). The master
//   * creates one task per input chunk and assigns tasks by hashing the
//     task id, identically on every rank with no coordination;
//   * tracks local task progress and periodically gossips it to the other
//     masters, keeping a merged global status table;
//   * piggybacks the load-balancer's profiling observation on the status
//     message so every rank can fit every other rank's linear model.
//
// The periodic broadcast is a dissemination schedule of deltas: an exchange
// sends to the ceil(log2 p) peers at relative distance 2^k (mod p) only what
// changed — the rank's own updated entries plus whatever it learned since
// its last send — and receivers forward what was news to them. Every rank's
// entries reach every other rank within ceil(log2 p) exchanges (DESIGN.md,
// "Distributed master").
//
// Substitution note (DESIGN.md): the paper runs the master as a dedicated
// thread. Here its logic is driven at the task runner's commit() points and
// at phase boundaries; the messaging is identical (a dedicated, dup'ed
// communicator), and the background data movement the paper delegates to
// the master thread is carried by the virtual-time CopierAgent.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "common/metrics.hpp"
#include "common/regression.hpp"
#include "core/task.hpp"
#include "simmpi/comm.hpp"

namespace ftmr::core {

/// Thread model: one DistributedMaster per rank, confined to that rank's
/// thread. Cross-rank coordination happens exclusively through the
/// dedicated communicator (whose Job-level state is lock-protected inside
/// simmpi), never through shared memory — so the task tables and the
/// balancer fit need no locks.
class DistributedMaster {
 public:
  /// `mcomm` must be a dedicated communicator (typically a non-time-
  /// accounting dup of the work comm) so gossip never cross-matches with
  /// data-plane traffic.
  DistributedMaster(simmpi::Comm& mcomm, int status_interval_commits = 256);

  /// Deterministic hash assignment of `ntasks` tasks over `nranks` ranks;
  /// returns this rank's task ids (every master computes the same global
  /// mapping — Sec. 3.3).
  static std::vector<uint64_t> assign_tasks(size_t ntasks, int nranks, int rank);

  // -- local progress tracking (called by the task runner) --
  void on_task_start(uint64_t task_id, uint64_t total_bytes);
  void on_task_progress(uint64_t task_id, uint64_t records_done,
                        uint64_t bytes_done);
  void on_task_done(uint64_t task_id, uint64_t records_done, uint64_t bytes_done);

  /// Called at every commit(): counts commits, and every `status_interval`
  /// commits runs an exchange.
  /// Returns a non-OK status when the gossip I/O observes a failure — the
  /// caller's failure handler takes it from there.
  Status tick();

  /// Force a status exchange immediately (phase boundaries): drain the
  /// inbox, then send the delta to this rank's dissemination peers.
  Status exchange_now();

  /// Drain the inbox without sending. Run after a barrier, it receives every
  /// status message sent before that barrier (sends are staged
  /// synchronously), which makes master.status_drained an exact count.
  Status drain();

  /// Rel ranks this rank sends to on a comm of `size`: rank + 2^k (mod size)
  /// for 2^k < size — ceil(log2 size) distinct peers, none of them `rank`.
  static std::vector<int> dissemination_peers(int rank, int size);

  /// Merged global view (own table + everything gossiped in).
  [[nodiscard]] const TaskTable& global_table() const noexcept { return global_; }
  [[nodiscard]] const TaskTable& local_table() const noexcept { return local_; }

  /// The observation fed by the runner for the load balancer.
  void observe(double units_done, double elapsed) {
    units_done_ = units_done;
    elapsed_ = elapsed;
    own_obs_dirty_ = true;
    fit_.add(units_done, elapsed);
  }
  [[nodiscard]] LinearModel local_model() const { return fit_.fit(); }
  /// Latest gossiped observation of rank `r` (rel rank on mcomm), if any.
  [[nodiscard]] std::optional<std::pair<double, double>> peer_observation(int r) const;

  [[nodiscard]] simmpi::Comm& comm() noexcept { return mcomm_; }
  /// Re-bind the master to a shrunken communicator after recovery. Rel
  /// ranks change with the group, so the peer observations restart empty
  /// (sized to the new comm), and the whole global table plus the own
  /// observation are queued for re-dissemination over the new schedule.
  void rebind(simmpi::Comm mcomm);

  /// Record gossip broadcast/drain spans into `t` (not owned; may be null).
  /// Set once during job construction, before any gossip traffic.
  void set_trace(metrics::TraceRecorder* t) noexcept { trace_ = t; }

 private:
  struct PeerObservation {
    double units = 0.0;
    double elapsed = 0.0;
    bool valid = false;
  };

  /// Send the delta to the dissemination peers. Wire format:
  ///   blob  TaskTable::encode() of the entries in outbox_
  ///   u32   n, then n x {i32 rel rank, f64 units_done, f64 elapsed}: the
  ///         own observation if it changed, and peers' newer observations.
  Status broadcast_status();
  /// Size the peer tables to the current comm, all entries invalid.
  void reset_peer_tables();

  simmpi::Comm mcomm_;
  int status_interval_;
  int64_t commits_since_exchange_ = 0;
  TaskTable local_;
  TaskTable global_;
  /// Delta for the next send: own entries updated and entries drained that
  /// advanced global_, since the last send.
  TaskTable outbox_;
  OnlineLinearFit fit_;
  double units_done_ = 0.0;
  double elapsed_ = 0.0;
  bool own_obs_dirty_ = false;            // own observation not yet sent
  std::vector<PeerObservation> peer_obs_;  // rel rank -> latest (units, t)
  std::set<int> obs_outbox_;              // rel ranks whose newer obs to forward
  metrics::TraceRecorder* trace_ = nullptr;
};

}  // namespace ftmr::core
