#include "core/master.hpp"

#include "common/hash.hpp"
#include "common/log.hpp"

namespace ftmr::core {

namespace {
constexpr int kStatusTag = 9001;
}

DistributedMaster::DistributedMaster(simmpi::Comm& mcomm, int status_interval_commits)
    : mcomm_(mcomm), status_interval_(status_interval_commits) {
  reset_peer_tables();
}

void DistributedMaster::reset_peer_tables() {
  peer_obs_.assign(static_cast<size_t>(mcomm_.size()), PeerObservation{});
  obs_outbox_.clear();
}

void DistributedMaster::rebind(simmpi::Comm mcomm) {
  mcomm_ = std::move(mcomm);
  reset_peer_tables();
  // Deltas the dead ranks swallowed are gone; re-disseminating the whole
  // merged view restores the convergence bound on the new group.
  outbox_ = global_;
  own_obs_dirty_ = true;
}

std::vector<int> DistributedMaster::dissemination_peers(int rank, int size) {
  std::vector<int> peers;
  for (int d = 1; d < size; d *= 2) peers.push_back((rank + d) % size);
  return peers;
}

std::vector<uint64_t> DistributedMaster::assign_tasks(size_t ntasks, int nranks,
                                                      int rank) {
  std::vector<uint64_t> mine;
  for (uint64_t t = 0; t < ntasks; ++t) {
    if (assign_task_to_rank(t, nranks) == rank) mine.push_back(t);
  }
  return mine;
}

void DistributedMaster::on_task_start(uint64_t task_id, uint64_t total_bytes) {
  TaskStatus ts;
  ts.task_id = task_id;
  ts.owner = mcomm_.global_rank();
  ts.state = TaskState::kRunning;
  ts.bytes_done = 0;
  ts.total_bytes = total_bytes;
  local_.upsert(ts);
  global_.upsert(ts);
  outbox_.upsert(ts);
}

void DistributedMaster::on_task_progress(uint64_t task_id, uint64_t records_done,
                                         uint64_t bytes_done) {
  TaskStatus ts;
  ts.task_id = task_id;
  ts.owner = mcomm_.global_rank();
  ts.state = TaskState::kRunning;
  ts.records_done = records_done;
  ts.bytes_done = bytes_done;
  local_.upsert(ts);
  global_.upsert(ts);
  outbox_.upsert(ts);
}

void DistributedMaster::on_task_done(uint64_t task_id, uint64_t records_done,
                                     uint64_t bytes_done) {
  TaskStatus ts;
  ts.task_id = task_id;
  ts.owner = mcomm_.global_rank();
  ts.state = TaskState::kDone;
  ts.records_done = records_done;
  ts.bytes_done = bytes_done;
  local_.upsert(ts);
  global_.upsert(ts);
  outbox_.upsert(ts);
}

Status DistributedMaster::tick() {
  if (++commits_since_exchange_ < status_interval_) return Status::Ok();
  return exchange_now();
}

Status DistributedMaster::exchange_now() {
  commits_since_exchange_ = 0;
  // Drain first: what arrived since the last exchange is forwarded by this
  // very send, so each hop of the dissemination costs one exchange.
  if (auto s = drain(); !s.ok()) return s;
  return broadcast_status();
}

Status DistributedMaster::broadcast_status() {
  const double t0 = mcomm_.now();
  ByteWriter w;
  w.put_blob(outbox_.encode());
  std::vector<std::pair<int, PeerObservation>> obs;
  obs.reserve(obs_outbox_.size() + 1);
  if (own_obs_dirty_) obs.push_back({mcomm_.rank(), {units_done_, elapsed_, true}});
  for (int r : obs_outbox_) obs.push_back({r, peer_obs_[static_cast<size_t>(r)]});
  w.put<uint32_t>(static_cast<uint32_t>(obs.size()));
  for (const auto& [r, o] : obs) {
    w.put<int32_t>(r);
    w.put<double>(o.units);
    w.put<double>(o.elapsed);
  }
  outbox_.clear();
  obs_outbox_.clear();
  own_obs_dirty_ = false;
  Status first_error;
  int sent = 0;
  for (int r : dissemination_peers(mcomm_.rank(), mcomm_.size())) {
    // A send to a dead master fails with PROC_FAILED; remember the first
    // error but keep informing the live peers. Gossip is not the failure
    // detector of record — commit()'s failed_ranks() check and the failing
    // collectives are — so a dead rank off this schedule goes unnoticed
    // here without harm.
    if (auto s = mcomm_.send(r, kStatusTag, w.bytes()); !s.ok() && first_error.ok()) {
      first_error = s;
    } else if (s.ok()) {
      sent++;
    }
  }
  if (trace_) trace_->span("master.broadcast", "master", t0, mcomm_.now());
  metrics::MetricsRegistry::global().add("master.status_sends",
                                         mcomm_.global_rank(),
                                         static_cast<double>(sent));
  return first_error;
}

Status DistributedMaster::drain() {
  const double t0 = mcomm_.now();
  // How many status messages are in the inbox at poll time is a real-time
  // race (peers send asynchronously); keep the racy iprobe/recv count off
  // the deterministic op axis or every later op index would shift run to
  // run, breaking op-addressed fault schedules.
  simmpi::UncountedOps uncounted(mcomm_);
  int drained = 0;
  simmpi::MessageInfo info;
  while (mcomm_.iprobe(simmpi::kAnySource, kStatusTag, &info)) {
    Bytes msg;
    if (auto s = mcomm_.recv(info.source, kStatusTag, msg); !s.ok()) return s;
    ByteReader r(msg);
    Bytes table_bytes;
    if (auto s = r.get_blob(table_bytes); !s.ok()) return s;
    TaskTable t;
    if (auto s = TaskTable::decode(table_bytes, t); !s.ok()) return s;
    for (const auto& [id, ts] : t.all()) {
      // Forward only news: an entry that did not advance global_ has
      // already been (or is being) forwarded by this rank.
      if (global_.merge_entry(ts)) outbox_.upsert(*global_.find(id));
    }
    uint32_t nobs = 0;
    if (auto s = r.get(nobs); !s.ok()) return s;
    for (uint32_t i = 0; i < nobs; ++i) {
      int32_t rel = -1;
      PeerObservation o{0.0, 0.0, true};
      if (auto s = r.get(rel); !s.ok()) return s;
      if (auto s = r.get(o.units); !s.ok()) return s;
      if (auto s = r.get(o.elapsed); !s.ok()) return s;
      if (rel < 0 || rel >= static_cast<int32_t>(peer_obs_.size()) ||
          rel == mcomm_.rank()) {
        continue;
      }
      PeerObservation& cur = peer_obs_[static_cast<size_t>(rel)];
      if (cur.valid && o.elapsed <= cur.elapsed) continue;
      cur = o;
      obs_outbox_.insert(rel);
    }
    drained++;
  }
  if (trace_) trace_->span("master.drain", "master", t0, mcomm_.now());
  if (drained > 0) {
    metrics::MetricsRegistry::global().add("master.status_drained",
                                           mcomm_.global_rank(),
                                           static_cast<double>(drained));
  }
  return Status::Ok();
}

std::optional<std::pair<double, double>> DistributedMaster::peer_observation(
    int r) const {
  if (r < 0 || r >= static_cast<int>(peer_obs_.size()) ||
      !peer_obs_[static_cast<size_t>(r)].valid) {
    return std::nullopt;
  }
  const PeerObservation& o = peer_obs_[static_cast<size_t>(r)];
  return std::make_pair(o.units, o.elapsed);
}

}  // namespace ftmr::core
