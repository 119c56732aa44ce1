#include "simmpi/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/log.hpp"

namespace ftmr::simmpi {

namespace {

double log2ceil(int p) noexcept {
  return p > 1 ? std::ceil(std::log2(static_cast<double>(p))) : 0.0;
}

// Tolerant-op namespaces for collective slot keys (see comm.hpp: shrink and
// agree rendezvous by shared epoch, not per-rank sequence, so ranks whose
// op counts diverged after a failure still meet in the same slot).
constexpr uint64_t kNsNormal = 0;
constexpr uint64_t kNsShrink = 1;
constexpr uint64_t kNsAgree = 2;

uint64_t slot_seq(uint64_t ns, uint64_t n) noexcept { return (ns << 56) | n; }

// Cooperative-progress guard for the non-blocking query ops (iprobe,
// failure/revocation observation, clock reads). User and engine code spins
// on these — `while (failed_ranks().empty()) {}` — and under cooperative
// scheduling such a loop would otherwise pin its worker and starve the very
// fibers whose progress would terminate it (with preemptive thread-per-rank
// the OS forced fairness; the scheduler needs the op itself to yield).
void cooperative_yield(Job* job) {
  if (job != nullptr && job->sched != nullptr && Scheduler::current() != nullptr) {
    job->sched->yield();
  }
}

template <typename T>
T apply_op(ReduceOp op, T a, T b) noexcept {
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kMin: return std::min(a, b);
    case ReduceOp::kMax: return std::max(a, b);
    case ReduceOp::kLand: return static_cast<T>((a != T{}) && (b != T{}));
    case ReduceOp::kLor: return static_cast<T>((a != T{}) || (b != T{}));
  }
  return a;
}

}  // namespace

Comm::Comm(Job* job, std::shared_ptr<CommState> state, int global_rank)
    : job_(job), state_(std::move(state)), global_rank_(global_rank) {
  rel_rank_ = state_ ? state_->rel_rank_of(global_rank) : -1;
}

Status Comm::handle(Status s) {
  if (s.ok() || !errhandler_) return s;
  errhandler_(*this, s);
  return s;
}

double Comm::now() const {
  MutexLock lock(job_->mu);
  return job_->ranks[global_rank_].vtime;
}

int64_t Comm::ops_issued() const {
  if (job_ == nullptr) return -1;
  MutexLock lock(job_->mu);
  return job_->ranks[global_rank_].op_count;
}

void Comm::begin_uncounted_ops() {
  if (job_ == nullptr) return;
  MutexLock lock(job_->mu);
  job_->ranks[global_rank_].uncounted_depth++;
}

void Comm::end_uncounted_ops() {
  if (job_ == nullptr) return;
  MutexLock lock(job_->mu);
  auto& depth = job_->ranks[global_rank_].uncounted_depth;
  if (depth > 0) depth--;
}

void Comm::compute(double seconds) {
  {
    MutexLock lock(job_->mu);
    if (job_->aborted) throw AbortError(job_->abort_code);
    RankState& st = job_->ranks[global_rank_];
    if (!st.alive) throw KilledError();
    st.vtime += seconds;
  }
  job_->check_vtime_kill(global_rank_);
}

void Comm::abort(int code) {
  FTMR_INFO << "rank " << global_rank_ << " calls MPI_Abort(" << code << ")";
  job_->abort_job(code);
  throw AbortError(code);
}

// ---------------------------------------------------------------------------
// point-to-point
// ---------------------------------------------------------------------------

Status Comm::send(int dst, int tag, std::span<const std::byte> data) {
  job_->check_callable(global_rank_);
  if (dst < 0 || dst >= size()) {
    return handle({ErrorCode::kInvalidArgument, "send: bad destination rank"});
  }
  MutexLock lock(job_->mu);
  if (state_->revoked) {
    lock.unlock();
    return handle({ErrorCode::kRevoked, "send on revoked comm"});
  }
  const int dst_global = state_->group[dst];
  if (!job_->ranks[dst_global].alive) {
    lock.unlock();
    return handle({ErrorCode::kProcFailed, "send: peer is dead"});
  }
  RankState& me = job_->ranks[global_rank_];
  double arrival = 0.0;
  if (state_->accounts_time) {
    // Eager protocol: sender pays serialization, wire adds latency.
    me.vtime += static_cast<double>(data.size()) / job_->opts.net.bandwidth_Bps;
    arrival = me.vtime + job_->opts.net.latency_s;
  }
  Message msg;
  msg.ctx = state_->ctx;
  msg.src_rel = rel_rank_;
  msg.tag = tag;
  msg.payload.assign(data.begin(), data.end());
  msg.arrival = arrival;
  // Batched delivery: stage into the destination's inbox. A wakeup is
  // issued only when the receiver has published its intent to park
  // (inbox.waiting), and clearing the flag here makes the *first* send of
  // a batch pay the wakeup while the rest just append — the receiver
  // splices the entire batch in one drain.
  bool need_wake = false;
  {
    Inbox& inbox = *job_->inboxes[dst_global];
    MutexLock il(inbox.mu);
    inbox.staged.push_back(std::move(msg));
    need_wake = inbox.waiting;
    inbox.waiting = false;
  }
  lock.unlock();
  if (need_wake) job_->wake_recv(dst_global);
  job_->check_vtime_kill(global_rank_);
  return Status::Ok();
}

Status Comm::send_string(int dst, int tag, std::string_view s) {
  return send(dst, tag, as_bytes_view(s));
}

// One-sided ops: the wire handshake only. The caller moves the actual
// bytes through the external replica store after the op returns OK, so a
// kill that lands on the op (it is counted, hence addressable by
// KillEvent::after_ops) leaves no partial deposit behind.

Status Comm::rma_put(int dst, size_t bytes) {
  job_->check_callable(global_rank_);
  if (dst < 0 || dst >= size()) {
    return handle({ErrorCode::kInvalidArgument, "rma_put: bad target rank"});
  }
  MutexLock lock(job_->mu);
  if (state_->revoked) {
    lock.unlock();
    return handle({ErrorCode::kRevoked, "rma_put on revoked comm"});
  }
  const int dst_global = state_->group[dst];
  if (!job_->ranks[dst_global].alive) {
    lock.unlock();
    return handle({ErrorCode::kProcFailed, "rma_put: target is dead"});
  }
  if (state_->accounts_time) {
    job_->ranks[global_rank_].vtime += job_->opts.net.point_to_point_cost(bytes);
  }
  lock.unlock();
  job_->check_vtime_kill(global_rank_);
  return Status::Ok();
}

Status Comm::rma_get(int src, size_t bytes) {
  job_->check_callable(global_rank_);
  if (src < 0 || src >= size()) {
    return handle({ErrorCode::kInvalidArgument, "rma_get: bad source rank"});
  }
  MutexLock lock(job_->mu);
  if (state_->revoked) {
    lock.unlock();
    return handle({ErrorCode::kRevoked, "rma_get on revoked comm"});
  }
  const int src_global = state_->group[src];
  if (!job_->ranks[src_global].alive) {
    lock.unlock();
    return handle({ErrorCode::kProcFailed, "rma_get: source is dead"});
  }
  if (state_->accounts_time) {
    job_->ranks[global_rank_].vtime += job_->opts.net.point_to_point_cost(bytes);
  }
  lock.unlock();
  job_->check_vtime_kill(global_rank_);
  return Status::Ok();
}

Status Comm::recv(int src, int tag, Bytes& out, MessageInfo* info) {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  RankState& me = job_->ranks[global_rank_];
  Inbox& inbox = *job_->inboxes[global_rank_];
  for (;;) {
    job_->check_callable_locked(global_rank_);
    // 0) drain the whole staged batch into the private mailbox: one lock
    //    acquisition per batch, however many sends are pending.
    {
      MutexLock il(inbox.mu);
      inbox.waiting = false;
      for (Message& m : inbox.staged) me.mailbox.push_back(std::move(m));
      inbox.staged.clear();
    }
    // 1) a buffered matching message is deliverable even if the sender has
    //    since died (eager buffering survives the sender).
    auto& box = me.mailbox;
    for (auto it = box.begin(); it != box.end(); ++it) {
      if (it->ctx != state_->ctx) continue;
      if (src != kAnySource && it->src_rel != src) continue;
      if (tag != kAnyTag && it->tag != tag) continue;
      if (info) {
        info->source = it->src_rel;
        info->tag = it->tag;
        info->size = it->payload.size();
      }
      out = std::move(it->payload);
      if (state_->accounts_time) me.vtime = std::max(me.vtime, it->arrival);
      box.erase(it);
      lock.unlock();
      job_->check_vtime_kill(global_rank_);
      return Status::Ok();
    }
    // 2) otherwise fail on revocation / peer death.
    if (state_->revoked) {
      lock.unlock();
      return handle({ErrorCode::kRevoked, "recv on revoked comm"});
    }
    if (src != kAnySource) {
      const int src_global = state_->group[src];
      if (!job_->ranks[src_global].alive) {
        lock.unlock();
        return handle({ErrorCode::kProcFailed, "recv: peer is dead"});
      }
    } else {
      // ULFM semantics: a wildcard receive cannot complete while there are
      // un-acknowledged failures in the communicator.
      if (!job_->unacked_dead_locked(global_rank_, *state_).empty()) {
        lock.unlock();
        return handle({ErrorCode::kProcFailedPending,
                       "recv(ANY_SOURCE) with un-acked failures"});
      }
    }
    // 3) two-phase park: publish the intent to sleep, re-check for sends
    //    staged in between, then block. The first sender to stage after
    //    `waiting` is set clears it and issues exactly one wakeup (a wake
    //    racing the park itself is latched on the channel).
    {
      MutexLock il(inbox.mu);
      if (!inbox.staged.empty()) continue;
      inbox.waiting = true;
    }
    if (job_->wait_blocked(job_->recv_ch[global_rank_])) {
      lock.unlock();
      return handle({ErrorCode::kInternal, "recv: deadlock timeout"});
    }
  }
}

bool Comm::iprobe(int src, int tag, MessageInfo* info) {
  job_->check_callable(global_rank_);
  {
    MutexLock lock(job_->mu);
    {
      Inbox& inbox = *job_->inboxes[global_rank_];
      MutexLock il(inbox.mu);
      inbox.waiting = false;
      for (Message& m : inbox.staged) {
        job_->ranks[global_rank_].mailbox.push_back(std::move(m));
      }
      inbox.staged.clear();
    }
    for (const Message& m : job_->ranks[global_rank_].mailbox) {
      if (m.ctx != state_->ctx) continue;
      if (src != kAnySource && m.src_rel != src) continue;
      if (tag != kAnyTag && m.tag != tag) continue;
      if (info) {
        info->source = m.src_rel;
        info->tag = m.tag;
        info->size = m.payload.size();
      }
      return true;
    }
  }
  // Miss: yield (outside the lock) so the peers a spinning prober is
  // waiting on get scheduled. A hit must NOT yield — drain loops probe
  // millions of times and each hit is immediately followed by a recv.
  cooperative_yield(job_);
  return false;
}

// ---------------------------------------------------------------------------
// nonblocking point-to-point
// ---------------------------------------------------------------------------

struct Request::State {
  bool done = false;
  Status status;
  // Pending receive parameters (unused for sends, which complete eagerly).
  bool is_recv = false;
  Comm comm;
  int src = kAnySource;
  int tag = kAnyTag;
  Bytes* out = nullptr;
  MessageInfo* info = nullptr;
};

bool Request::done() const { return !state_ || state_->done; }

Status Request::status() const { return state_ ? state_->status : Status::Ok(); }

bool Request::test() {
  if (!state_ || state_->done) return true;
  if (!state_->is_recv) {
    state_->done = true;
    return true;
  }
  MessageInfo probe;
  if (!state_->comm.iprobe(state_->src, state_->tag, &probe)) return false;
  // A matching message is buffered: the blocking recv returns immediately.
  state_->status =
      state_->comm.recv(probe.source, probe.tag, *state_->out, state_->info);
  state_->done = true;
  return true;
}

Status Request::wait() {
  if (!state_ || state_->done) return status();
  if (state_->is_recv) {
    state_->status = state_->comm.recv(state_->src, state_->tag, *state_->out,
                                       state_->info);
  }
  state_->done = true;
  return state_->status;
}

Status Request::wait_all(std::span<Request> requests) {
  Status first;
  for (Request& r : requests) {
    Status s = r.wait();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Request Comm::isend(int dst, int tag, std::span<const std::byte> data) {
  Request r;
  r.state_ = std::make_shared<Request::State>();
  // Eager buffering: the send happens now; the request carries its status.
  r.state_->status = send(dst, tag, data);
  r.state_->done = true;
  return r;
}

Request Comm::irecv(int src, int tag, Bytes* out, MessageInfo* info) {
  Request r;
  r.state_ = std::make_shared<Request::State>();
  r.state_->is_recv = true;
  r.state_->comm = *this;
  r.state_->src = src;
  r.state_->tag = tag;
  r.state_->out = out;
  r.state_->info = info;
  return r;
}

// ---------------------------------------------------------------------------
// generic arrival-synchronized collective
// ---------------------------------------------------------------------------

Status Comm::run_collective(
    Bytes contribution,
    const std::function<void(CollectiveSlot&, const CommState&, Job&)>& compute,
    bool tolerant, Bytes* result_out) {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  RankState& me = job_->ranks[global_rank_];
  if (!tolerant && state_->revoked) {
    lock.unlock();
    return handle({ErrorCode::kRevoked, "collective on revoked comm"});
  }

  uint64_t seq = 0;
  if (tolerant) {
    // Handled by caller passing a namespaced seq via coll_seq on the ctx
    // keyed with the tolerant namespace; see shrink()/agree() which bump
    // shared epochs. Normal path below.
  }
  seq = slot_seq(kNsNormal, me.coll_seq[state_->ctx]++);

  const auto key = std::make_pair(state_->ctx, seq);
  auto& slot_ptr = job_->slots[key];
  if (!slot_ptr) slot_ptr = std::make_shared<CollectiveSlot>();
  auto slot = slot_ptr;

  slot->contribs[rel_rank_] = std::move(contribution);
  slot->arrive_vtime[rel_rank_] = state_->accounts_time ? me.vtime : 0.0;
  slot->unpicked++;
  // No wake here: intermediate arrivals don't change a parked waiter's
  // predicate (it waits for `computed`; deaths/revokes broadcast via
  // wake_all). The last arriver runs the completion check inline below —
  // waking k parked peers per arrival is an O(n^2) thundering herd at
  // thousands of ranks.

  auto all_arrived_or_dead = [&]() {
    job_->mu.assert_held();  // only called from the wait loop below
    // A group index is settled once it contributed or died — both
    // monotone, so the cursor never moves backwards. Iterating by index
    // also avoids the O(p) rel_rank_of lookup per member.
    int& cur = slot->scan_cursor;
    const int p = state_->size();
    while (cur < p && (slot->contribs.count(cur) != 0 ||
                       !job_->ranks[state_->group[cur]].alive)) {
      ++cur;
    }
    return cur >= p;
  };

  for (;;) {
    job_->check_callable_locked(global_rank_);
    if (!tolerant && state_->revoked && !slot->computed) {
      lock.unlock();
      return handle({ErrorCode::kRevoked, "collective interrupted by revoke"});
    }
    if (slot->computed) break;
    if (all_arrived_or_dead()) {
      if (!tolerant && job_->any_dead_in_locked(*state_)) {
        slot->failed = true;
      } else {
        compute(*slot, *state_, *job_);
      }
      slot->computed = true;
      job_->wake_channel(slot->ch);
      break;
    }
    if (job_->wait_blocked(slot->ch)) {
      lock.unlock();
      return handle({ErrorCode::kInternal, "collective: deadlock timeout"});
    }
  }

  // Pick up my result and advance my clock to the op's completion time.
  Bytes my_result;
  if (auto it = slot->results.find(rel_rank_); it != slot->results.end()) {
    my_result = std::move(it->second);
  }
  if (state_->accounts_time) {
    if (auto it = slot->done_vtime.find(rel_rank_); it != slot->done_vtime.end()) {
      me.vtime = std::max(me.vtime, it->second);
    }
  }
  const bool failed = slot->failed;
  job_->pick_up_locked(key, *slot, rel_rank_);
  lock.unlock();
  job_->check_vtime_kill(global_rank_);
  if (failed) return handle({ErrorCode::kProcFailed, "collective: participant died"});
  if (result_out) *result_out = std::move(my_result);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// the concrete collectives
// ---------------------------------------------------------------------------

Status Comm::barrier() {
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha](CollectiveSlot& slot, const CommState& cs, Job&) {
    double t = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t = std::max(t, v);
    t += alpha * log2ceil(cs.size());
    for (const auto& [r, c] : slot.contribs) {
      (void)c;
      slot.done_vtime[r] = t;
    }
  };
  return run_collective({}, compute, /*tolerant=*/false, nullptr);
}

Status Comm::bcast(int root, Bytes& data) {
  if (root < 0 || root >= size()) {
    return handle({ErrorCode::kInvalidArgument, "bcast: bad root"});
  }
  Bytes contribution = (rel_rank_ == root) ? data : Bytes{};
  const NetworkModel net = job_->opts.net;
  auto compute = [root, net](CollectiveSlot& slot, const CommState& cs, Job&) {
    const Bytes& payload = slot.contribs[root];
    double t = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t = std::max(t, v);
    t += log2ceil(cs.size()) *
         (net.latency_s + static_cast<double>(payload.size()) / net.bandwidth_Bps);
    for (const auto& [r, c] : slot.contribs) {
      (void)c;
      slot.results[r] = payload;
      slot.done_vtime[r] = t;
    }
  };
  Bytes result;
  Status s = run_collective(std::move(contribution), compute, false, &result);
  if (s.ok()) data = std::move(result);
  return s;
}

template <typename T>
Status Comm::reduce_impl(int root, ReduceOp op, std::span<const T> in,
                         std::vector<T>& out, bool to_all) {
  ByteWriter w;
  w.put<uint64_t>(in.size());
  for (const T& v : in) w.put(v);
  const NetworkModel net = job_->opts.net;
  auto compute = [root, op, net, to_all](CollectiveSlot& slot, const CommState& cs,
                                         Job&) {
    std::vector<T> acc;
    bool first = true;
    size_t payload_bytes = 0;
    // Deterministic order: reduce in rel-rank order.
    for (const auto& [r, c] : slot.contribs) {
      (void)r;
      ByteReader reader(c);
      uint64_t n = 0;
      (void)reader.get(n);
      payload_bytes = std::max(payload_bytes, c.size());
      std::vector<T> vals(n);
      for (auto& v : vals) (void)reader.get(v);
      if (first) {
        acc = std::move(vals);
        first = false;
      } else {
        for (size_t i = 0; i < acc.size() && i < vals.size(); ++i) {
          acc[i] = apply_op(op, acc[i], vals[i]);
        }
      }
    }
    ByteWriter rw;
    rw.put<uint64_t>(acc.size());
    for (const T& v : acc) rw.put(v);
    Bytes result = std::move(rw).take();
    double t = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t = std::max(t, v);
    t += (to_all ? 2.0 : 1.0) * log2ceil(cs.size()) *
         (net.latency_s + static_cast<double>(payload_bytes) / net.bandwidth_Bps);
    for (const auto& [r, c] : slot.contribs) {
      (void)c;
      if (to_all || r == root) slot.results[r] = result;
      slot.done_vtime[r] = t;
    }
  };
  Bytes result;
  Status s = run_collective(std::move(w).take(), compute, false, &result);
  if (!s.ok()) return s;
  out.clear();
  if (!result.empty()) {
    ByteReader reader(result);
    uint64_t n = 0;
    (void)reader.get(n);
    out.resize(n);
    for (auto& v : out) (void)reader.get(v);
  }
  return Status::Ok();
}

Status Comm::reduce(int root, ReduceOp op, std::span<const double> in,
                    std::vector<double>& out) {
  return reduce_impl<double>(root, op, in, out, false);
}
Status Comm::reduce(int root, ReduceOp op, std::span<const int64_t> in,
                    std::vector<int64_t>& out) {
  return reduce_impl<int64_t>(root, op, in, out, false);
}
Status Comm::allreduce(ReduceOp op, std::span<const double> in,
                       std::vector<double>& out) {
  return reduce_impl<double>(0, op, in, out, true);
}
Status Comm::allreduce(ReduceOp op, std::span<const int64_t> in,
                       std::vector<int64_t>& out) {
  return reduce_impl<int64_t>(0, op, in, out, true);
}
Status Comm::allreduce_one(ReduceOp op, double in, double& out) {
  std::vector<double> v;
  Status s = allreduce(op, std::span<const double>(&in, 1), v);
  if (s.ok() && !v.empty()) out = v[0];
  return s;
}
Status Comm::allreduce_one(ReduceOp op, int64_t in, int64_t& out) {
  std::vector<int64_t> v;
  Status s = allreduce(op, std::span<const int64_t>(&in, 1), v);
  if (s.ok() && !v.empty()) out = v[0];
  return s;
}

Status Comm::gather(int root, std::span<const std::byte> in, std::vector<Bytes>& out) {
  Bytes contribution(in.begin(), in.end());
  const NetworkModel net = job_->opts.net;
  const int p = size();
  auto compute = [root, net, p](CollectiveSlot& slot, const CommState& cs, Job&) {
    ByteWriter w;
    w.put<uint32_t>(static_cast<uint32_t>(p));
    size_t total = 0;
    for (int r = 0; r < p; ++r) {
      auto it = slot.contribs.find(r);
      if (it != slot.contribs.end()) {
        w.put_blob(it->second);
        total += it->second.size();
      } else {
        w.put_blob({});
      }
    }
    double t = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t = std::max(t, v);
    const double base = t + log2ceil(cs.size()) * net.latency_s;
    for (const auto& [r, c] : slot.contribs) {
      if (r == root) {
        slot.results[r] = w.bytes();
        slot.done_vtime[r] = base + static_cast<double>(total) / net.bandwidth_Bps;
      } else {
        slot.done_vtime[r] = base + static_cast<double>(c.size()) / net.bandwidth_Bps;
      }
    }
  };
  Bytes result;
  Status s = run_collective(std::move(contribution), compute, false, &result);
  if (!s.ok()) return s;
  out.clear();
  if (rel_rank_ == root && !result.empty()) {
    ByteReader reader(result);
    uint32_t n = 0;
    (void)reader.get(n);
    out.resize(n);
    for (auto& b : out) (void)reader.get_blob(b);
  }
  return Status::Ok();
}

Status Comm::allgather(std::span<const std::byte> in, std::vector<Bytes>& out) {
  Bytes contribution(in.begin(), in.end());
  const NetworkModel net = job_->opts.net;
  const int p = size();
  auto compute = [net, p](CollectiveSlot& slot, const CommState& cs, Job&) {
    ByteWriter w;
    w.put<uint32_t>(static_cast<uint32_t>(p));
    size_t total = 0;
    for (int r = 0; r < p; ++r) {
      auto it = slot.contribs.find(r);
      if (it != slot.contribs.end()) {
        w.put_blob(it->second);
        total += it->second.size();
      } else {
        w.put_blob({});
      }
    }
    double t = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t = std::max(t, v);
    t += log2ceil(cs.size()) * net.latency_s +
         static_cast<double>(total) / net.bandwidth_Bps;
    for (const auto& [r, c] : slot.contribs) {
      (void)c;
      slot.results[r] = w.bytes();
      slot.done_vtime[r] = t;
    }
  };
  Bytes result;
  Status s = run_collective(std::move(contribution), compute, false, &result);
  if (!s.ok()) return s;
  out.clear();
  if (!result.empty()) {
    ByteReader reader(result);
    uint32_t n = 0;
    (void)reader.get(n);
    out.resize(n);
    for (auto& b : out) (void)reader.get_blob(b);
  }
  return Status::Ok();
}

Status Comm::alltoall(const std::vector<Bytes>& send, std::vector<Bytes>& recv) {
  const int p = size();
  if (static_cast<int>(send.size()) != p) {
    return handle({ErrorCode::kInvalidArgument, "alltoall: send.size() != comm size"});
  }
  // Sparse wire format on both legs: only non-empty blobs travel, each
  // tagged with its peer's rel rank. An empty blob moves no bytes, so it
  // costs nothing in the time model either; dropping it from the wire keeps
  // the completion compute proportional to the data moved instead of p^2.
  uint32_t nonempty = 0;
  for (const Bytes& b : send) nonempty += b.empty() ? 0 : 1;
  ByteWriter w;
  w.put<uint32_t>(nonempty);
  for (int dst = 0; dst < p; ++dst) {
    if (send[static_cast<size_t>(dst)].empty()) continue;
    w.put<int32_t>(dst);
    w.put_blob(send[static_cast<size_t>(dst)]);
  }
  const NetworkModel net = job_->opts.net;
  auto compute = [net, p](CollectiveSlot& slot, const CommState& cs, Job&) {
    // Route every contributor's non-empty blobs to their destinations, in
    // source order. The spans alias slot.contribs, untouched until pickup.
    struct Piece {
      int32_t src;
      std::span<const std::byte> data;
    };
    std::vector<std::vector<Piece>> incoming(static_cast<size_t>(p));
    std::vector<size_t> send_bytes(static_cast<size_t>(p), 0);
    for (const auto& [src, c] : slot.contribs) {
      ByteReader reader(c);
      uint32_t n = 0;
      (void)reader.get(n);
      size_t& sent = send_bytes[static_cast<size_t>(src)];
      for (uint32_t i = 0; i < n; ++i) {
        int32_t dst = -1;
        uint32_t len = 0;
        std::span<const std::byte> blob;
        if (!reader.get(dst).ok() || !reader.get(len).ok() ||
            !reader.get_view(len, blob).ok()) {
          break;
        }
        if (dst < 0 || dst >= p) continue;
        incoming[static_cast<size_t>(dst)].push_back({src, blob});
        sent += blob.size();
      }
    }
    double t0 = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t0 = std::max(t0, v);
    for (const auto& [dst, c] : slot.contribs) {
      (void)c;
      const std::vector<Piece>& in = incoming[static_cast<size_t>(dst)];
      ByteWriter rw;
      rw.put<uint32_t>(static_cast<uint32_t>(in.size()));
      size_t recv_bytes = 0;
      for (const Piece& piece : in) {
        rw.put<int32_t>(piece.src);
        rw.put_blob(piece.data);
        recv_bytes += piece.data.size();
      }
      slot.results[dst] = std::move(rw).take();
      slot.done_vtime[dst] =
          t0 + static_cast<double>(cs.size()) * net.latency_s +
          static_cast<double>(send_bytes[static_cast<size_t>(dst)] + recv_bytes) /
              net.bandwidth_Bps;
    }
  };
  Bytes result;
  Status s = run_collective(std::move(w).take(), compute, false, &result);
  if (!s.ok()) return s;
  recv.assign(static_cast<size_t>(p), Bytes{});
  ByteReader reader(result);
  uint32_t n = 0;
  (void)reader.get(n);
  for (uint32_t i = 0; i < n; ++i) {
    int32_t src = -1;
    Bytes blob;
    if (!reader.get(src).ok() || !reader.get_blob(blob).ok()) break;
    if (src >= 0 && src < p) recv[static_cast<size_t>(src)] = std::move(blob);
  }
  return Status::Ok();
}

Status Comm::dup(Comm& out, bool accounts_time) {
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha, accounts_time](CollectiveSlot& slot, const CommState& cs,
                                        Job& job) {
    job.mu.assert_held();  // compute callbacks run inside run_collective's CS
    auto ns = std::make_shared<CommState>(job.alloc_ctx_locked(), cs.group,
                                          accounts_time);
    job.comms[ns->ctx] = ns;
    ByteWriter w;
    w.put<uint64_t>(ns->ctx);
    double t = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t = std::max(t, v);
    t += alpha * log2ceil(cs.size());
    for (const auto& [r, c] : slot.contribs) {
      (void)c;
      slot.results[r] = w.bytes();
      slot.done_vtime[r] = t;
    }
  };
  Bytes result;
  Status s = run_collective({}, compute, false, &result);
  if (!s.ok()) return s;
  ByteReader reader(result);
  uint64_t ctx = 0;
  (void)reader.get(ctx);
  MutexLock lock(job_->mu);
  out = Comm(job_, job_->comms.at(ctx), global_rank_);
  return Status::Ok();
}

Status Comm::split(int color, int key, Comm& out) {
  ByteWriter w;
  w.put<int32_t>(color);
  w.put<int32_t>(key);
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha](CollectiveSlot& slot, const CommState& cs, Job& job) {
    job.mu.assert_held();  // compute callbacks run inside run_collective's CS
    // (color, key, old rel rank) triples, grouped by color.
    struct Entry {
      int color, key, rel;
    };
    std::vector<Entry> entries;
    for (const auto& [r, c] : slot.contribs) {
      ByteReader reader(c);
      int32_t col = 0, k = 0;
      (void)reader.get(col);
      (void)reader.get(k);
      entries.push_back({col, k, r});
    }
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (a.color != b.color) return a.color < b.color;
      if (a.key != b.key) return a.key < b.key;
      return a.rel < b.rel;
    });
    std::map<int, uint64_t> ctx_of_color;
    for (const Entry& e : entries) {
      if (e.color < 0) continue;  // MPI_UNDEFINED
      if (!ctx_of_color.count(e.color)) {
        std::vector<int> group;
        for (const Entry& e2 : entries) {
          if (e2.color == e.color) group.push_back(cs.group[e2.rel]);
        }
        auto ns = std::make_shared<CommState>(job.alloc_ctx_locked(),
                                              std::move(group), cs.accounts_time);
        job.comms[ns->ctx] = ns;
        ctx_of_color[e.color] = ns->ctx;
      }
    }
    double t = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t = std::max(t, v);
    t += alpha * log2ceil(cs.size());
    for (const Entry& e : entries) {
      ByteWriter rw;
      rw.put<uint64_t>(e.color >= 0 ? ctx_of_color[e.color] : 0);
      slot.results[e.rel] = std::move(rw).take();
      slot.done_vtime[e.rel] = t;
    }
  };
  Bytes result;
  Status s = run_collective(std::move(w).take(), compute, false, &result);
  if (!s.ok()) return s;
  ByteReader reader(result);
  uint64_t ctx = 0;
  (void)reader.get(ctx);
  if (ctx == 0) {
    out = Comm();
    return Status::Ok();
  }
  MutexLock lock(job_->mu);
  out = Comm(job_, job_->comms.at(ctx), global_rank_);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ULFM extensions
// ---------------------------------------------------------------------------

Status Comm::revoke() {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  if (!state_->revoked) {
    FTMR_INFO << "rank " << global_rank_ << " revokes comm ctx=" << state_->ctx;
    state_->revoked = true;
  }
  // Revocation interrupts recvs and collectives on every channel: broadcast.
  job_->wake_all();
  return Status::Ok();
}

bool Comm::is_revoked() const {
  cooperative_yield(job_);
  MutexLock lock(job_->mu);
  return state_->revoked;
}

// Tolerant rendezvous used by shrink/agree: ranks meet by a shared epoch
// (one counter per op namespace per comm, see Job::tol_epochs), not by
// per-rank sequence numbers — survivors whose op streams diverged after a
// failure still pair up. The epoch is bumped by whichever rank computes the
// slot, inside the same critical section, so a rank entering afterwards
// joins the *next* logical operation.
Status Comm::run_tolerant(
    uint64_t ns, Bytes contribution,
    const std::function<void(CollectiveSlot&, const CommState&, Job&)>& compute,
    Bytes* result_out) {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  RankState& me = job_->ranks[global_rank_];

  const auto epoch_key = std::make_pair(state_->ctx, ns);
  const uint64_t epoch = job_->tol_epochs[epoch_key];
  const auto key = std::make_pair(state_->ctx, slot_seq(ns, epoch));
  auto& slot_ref = job_->slots[key];
  if (!slot_ref) slot_ref = std::make_shared<CollectiveSlot>();
  auto slot = slot_ref;

  slot->contribs[rel_rank_] = std::move(contribution);
  slot->arrive_vtime[rel_rank_] = state_->accounts_time ? me.vtime : 0.0;
  slot->unpicked++;
  // No arrival wake — same thundering-herd reasoning as run_collective.

  auto all_alive_arrived = [&]() {
    job_->mu.assert_held();  // only called from the wait loop below
    // Same monotone-cursor scan as run_collective's all_arrived_or_dead.
    int& cur = slot->scan_cursor;
    const int p = state_->size();
    while (cur < p && (slot->contribs.count(cur) != 0 ||
                       !job_->ranks[state_->group[cur]].alive)) {
      ++cur;
    }
    return cur >= p;
  };

  for (;;) {
    job_->check_callable_locked(global_rank_);
    if (slot->computed) break;
    if (all_alive_arrived()) {
      compute(*slot, *state_, *job_);
      slot->computed = true;
      job_->tol_epochs[epoch_key] = epoch + 1;
      job_->wake_channel(slot->ch);
      break;
    }
    if (job_->wait_blocked(slot->ch)) {
      lock.unlock();
      return handle({ErrorCode::kInternal, "tolerant collective: deadlock timeout"});
    }
  }

  Bytes result;
  if (auto it = slot->results.find(rel_rank_); it != slot->results.end()) {
    result = std::move(it->second);
  }
  if (state_->accounts_time) {
    if (auto it = slot->done_vtime.find(rel_rank_); it != slot->done_vtime.end()) {
      me.vtime = std::max(me.vtime, it->second);
    }
  }
  job_->pick_up_locked(key, *slot, rel_rank_);
  lock.unlock();
  job_->check_vtime_kill(global_rank_);
  if (result_out) *result_out = std::move(result);
  return Status::Ok();
}

Status Comm::shrink(Comm& out) {
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha](CollectiveSlot& slot, const CommState& cs, Job& job) {
    job.mu.assert_held();  // compute callbacks run inside run_tolerant's CS
    // Build the shrunken communicator from alive contributors, ordered by
    // old rel rank (dense new ranks) — ULFM MPI_Comm_shrink semantics.
    std::vector<int> group;
    for (int rel = 0; rel < cs.size(); ++rel) {
      const int g = cs.group[rel];
      if (job.ranks[g].alive && slot.contribs.count(rel)) group.push_back(g);
    }
    auto ns = std::make_shared<CommState>(job.alloc_ctx_locked(), std::move(group),
                                          cs.accounts_time);
    job.comms[ns->ctx] = ns;
    ByteWriter w;
    w.put<uint64_t>(ns->ctx);
    double t = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t = std::max(t, v);
    t += 3.0 * alpha * log2ceil(cs.size());  // ~agreement-protocol rounds
    for (const auto& [r, c] : slot.contribs) {
      (void)c;
      slot.results[r] = w.bytes();
      slot.done_vtime[r] = t;
    }
  };
  Bytes result;
  Status s = run_tolerant(kNsShrink, {}, compute, &result);
  if (!s.ok()) return s;
  ByteReader reader(result);
  uint64_t ctx = 0;
  (void)reader.get(ctx);
  MutexLock lock(job_->mu);
  out = Comm(job_, job_->comms.at(ctx), global_rank_);
  return Status::Ok();
}

Status Comm::agree(int& flag) {
  ByteWriter w;
  w.put<int32_t>(flag);
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha](CollectiveSlot& slot, const CommState& cs, Job&) {
    int32_t acc = ~0;
    for (const auto& [r, c] : slot.contribs) {
      (void)r;
      ByteReader reader(c);
      int32_t v = 0;
      (void)reader.get(v);
      acc &= v;
    }
    ByteWriter rw;
    rw.put<int32_t>(acc);
    double t = 0.0;
    for (const auto& [r, v] : slot.arrive_vtime) t = std::max(t, v);
    t += 3.0 * alpha * log2ceil(cs.size());
    for (const auto& [r, c] : slot.contribs) {
      (void)c;
      slot.results[r] = rw.bytes();
      slot.done_vtime[r] = t;
    }
  };
  Bytes result;
  Status s = run_tolerant(kNsAgree, std::move(w).take(), compute, &result);
  if (!s.ok()) return s;
  ByteReader reader(result);
  int32_t v = 0;
  (void)reader.get(v);
  flag = v;
  bool unacked = false;
  {
    MutexLock lock(job_->mu);
    unacked = !job_->unacked_dead_locked(global_rank_, *state_).empty();
  }
  if (unacked) {
    // ULFM: the agreed flag is valid, but the caller is told about the
    // failures it has not yet acknowledged. Deliberately NOT routed through
    // the error handler: agree is itself a recovery primitive.
    return {ErrorCode::kProcFailed, "agree: un-acked failures present"};
  }
  return Status::Ok();
}

void Comm::ack_failures() {
  MutexLock lock(job_->mu);
  job_->ranks[global_rank_].acked[state_->ctx] = job_->dead_in_locked(*state_);
}

std::vector<int> Comm::failed_ranks() const {
  cooperative_yield(job_);
  MutexLock lock(job_->mu);
  std::vector<int> out;
  for (int rel = 0; rel < state_->size(); ++rel) {
    if (!job_->ranks[state_->group[rel]].alive) out.push_back(rel);
  }
  return out;
}

std::vector<int> Comm::failed_global_ranks() const {
  cooperative_yield(job_);
  MutexLock lock(job_->mu);
  return job_->dead_in_locked(*state_);
}

}  // namespace ftmr::simmpi
