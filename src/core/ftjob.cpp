#include "core/ftjob.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "mr/accounting.hpp"
#include "mr/shuffle.hpp"

namespace ftmr::core {

namespace {
constexpr int kMaxStagesScan = 64;  // prime scan bound for CR restarts
}

FtJob::FtJob(simmpi::Comm& world, storage::StorageSystem* fs, FtJobOptions opts)
    : world_(world), wc_(world), fs_(fs), opts_(std::move(opts)),
      p0_(world.size()) {
  part_owner_.resize(static_cast<size_t>(p0_));
  for (int p = 0; p < p0_; ++p) part_owner_[p] = p;  // identity group at start

  simmpi::Comm mc;
  try {
    (void)check(wc_.dup(mc, /*accounts_time=*/false));
  } catch (const FailureDetected&) {
    // A peer was already dead at construction (possible under continuous
    // failures). The dup is collective, so `mc` is unusable; defer to
    // run(), whose recovery shrinks and rebinds the master comm before the
    // driver starts.
    ctor_failure_ = true;
  }
  master_ = std::make_unique<DistributedMaster>(mc, opts_.status_interval_commits);
  ckpt_ = std::make_unique<CheckpointManager>(fs_, node(), world_.global_rank(),
                                              opts_.ckpt, io_conc(), opts_.ppn);
  trace_.set_tid(world_.global_rank());
  trace_.set_op_probe([this] { return world_.ops_issued(); });
  master_->set_trace(&trace_);
  ckpt_->set_trace(&trace_);
  if (opts_.mode == FtMode::kCheckpointRestart && opts_.ckpt.enabled) {
    prime_from_own_checkpoints();
  }
}

void FtJob::charge_span(const char* bucket, double t0) {
  const double t1 = wc_.now();
  times_.charge(bucket, t1 - t0);
  trace_.span(bucket, "phase", t0, t1);
}

void FtJob::charge_cost(const char* bucket, double cost) {
  times_.charge(bucket, cost);
  const double t1 = wc_.now();
  trace_.span(bucket, "phase", t1 - cost, t1);
}

int FtJob::node() const noexcept { return world_.global_rank() / opts_.ppn; }

bool FtJob::is_failure(const Status& s) const noexcept {
  switch (s.code()) {
    case ErrorCode::kProcFailed:
    case ErrorCode::kProcFailedPending:
    case ErrorCode::kRevoked:
      return true;
    default:
      return false;
  }
}

Status FtJob::check(Status s) {
  if (s.ok() || !is_failure(s)) return s;
  switch (opts_.mode) {
    case FtMode::kNone:
      // Baseline behaviour: stock MPI semantics, errors are fatal.
      wc_.abort(1);
    case FtMode::kCheckpointRestart: {
      // The paper's custom error handler (Sec. 4.1): preserve the local
      // consistent state, then propagate the failure by terminating — the
      // process manager broadcasts it and traps every surviving rank here.
      // Only record-granularity checkpointing may preserve partial-task
      // state; chunk granularity commits whole chunks only (Sec. 4.1.2 —
      // "all work on partially processed input chunks will be lost").
      if (opts_.ckpt.granularity == CkptOptions::Granularity::kRecord) {
        for (auto& [sid, st] : stages_) {
          for (auto& [task, tp] : st.tasks) {
            if (!tp.pending_delta.empty()) {
              (void)ckpt_->map_ckpt(wc_, sid, task, tp.last_ckpt_pos, tp.pos,
                                    tp.pending_delta);
              tp.pending_delta.clear();
              tp.last_ckpt_pos = tp.pos;
            }
          }
          for (auto& [p, rp] : st.reduce) {
            if (!rp.pending_delta.empty()) {
              (void)ckpt_->reduce_ckpt(wc_, sid, p, rp.last_ckpt_entries,
                                       rp.entries_done, rp.pending_delta);
              rp.pending_delta.clear();
              rp.last_ckpt_entries = rp.entries_done;
            }
          }
        }
      }
      wc_.abort(2);
    }
    case FtMode::kDetectResumeWC:
    case FtMode::kDetectResumeNWC:
      throw FailureDetected{std::move(s)};
  }
  return s;
}

Status FtJob::run(const Driver& driver) {
  bool pending_recover = ctor_failure_;
  for (;;) {
    try {
      if (pending_recover) {
        pending_recover = false;
        recoveries_++;
        const double t0 = wc_.now();
        recover();
        charge_span("recovery", t0);
      }
      stage_cursor_ = 0;
      return driver(*this);
    } catch (const FailureDetected& f) {
      FTMR_INFO << "rank " << world_.global_rank()
                << " detected failure: " << f.cause.to_string();
      pending_recover = true;
    }
  }
}

std::string FtJob::chunk_name(uint64_t task) const { return chunks_[task]; }

int FtJob::owner_rel(int partition) const {
  return wc_.rel_of_global(part_owner_[static_cast<size_t>(partition)]);
}

std::vector<uint64_t> FtJob::my_task_ids(int stage, bool kv_input) const {
  std::vector<uint64_t> mine;
  const int me = world_.global_rank();
  if (kv_input) {
    (void)stage;
    for (int p = 0; p < p0_; ++p) {
      if (part_owner_[p] == me) mine.push_back(static_cast<uint64_t>(p));
    }
    return mine;
  }
  for (uint64_t t = 0; t < chunks_.size(); ++t) {
    auto it = task_reassign_.find(t);
    const int owner = (it != task_reassign_.end()) ? it->second
                                                   : assign_task_to_rank(t, p0_);
    if (owner == me) mine.push_back(t);
  }
  return mine;
}

// ---------------------------------------------------------------------------
// task runner (Algorithm 1): read - map - commit loop
// ---------------------------------------------------------------------------

void FtJob::commit(uint64_t task, TaskProgress& tp, int stage) {
  // Record-granularity checkpoint every records_per_ckpt commits.
  if (opts_.ckpt.enabled &&
      opts_.ckpt.granularity == CkptOptions::Granularity::kRecord &&
      static_cast<int64_t>(tp.pos - tp.last_ckpt_pos) >= opts_.ckpt.records_per_ckpt) {
    const double t0 = wc_.now();
    (void)check(ckpt_->map_ckpt(wc_, stage, task, tp.last_ckpt_pos, tp.pos,
                                tp.pending_delta));
    tp.pending_delta.clear();
    tp.last_ckpt_pos = tp.pos;
    charge_span("ckpt", t0);
  }
  // Periodic master duties + eager failure observation (every few commits,
  // not every record, to keep the real-time overhead of the simulator low).
  if ((tp.pos & 0x3f) == 0) {
    master_->on_task_progress(task, tp.pos, 0);
    master_->observe(map_bytes_done_, wc_.now());
    (void)check(master_->tick());
    if (!wc_.failed_ranks().empty()) {
      (void)check(Status{ErrorCode::kProcFailed, "failure observed at commit"});
    }
  }
}

Status FtJob::run_one_map_task(const StageFns& fns, bool kv_input, int stage,
                               StageState& st, uint64_t task) {
  TaskProgress& tp = st.tasks[task];
  if (tp.done) return Status::Ok();
  const double task_start = wc_.now();
  if (tp.parts.empty()) tp.parts.resize(static_cast<size_t>(p0_));

  // -- fetch input --
  std::string chunk;                 // file-task payload
  const mr::KvBuffer* kv_in = nullptr;  // kv-task payload
  if (!kv_input) {
    Bytes data;
    double cost = 0.0;
    if (auto s = fs_->read_file(storage::Tier::kShared, node(),
                                opts_.input_dir + "/" + chunk_name(task), data,
                                &cost, io_conc());
        !s.ok()) {
      return s;
    }
    wc_.compute(cost);
    charge_cost("io_wait", cost);
    chunk.assign(reinterpret_cast<const char*>(data.data()), data.size());
  } else {
    auto pit = stages_.find(stage - 1);
    if (pit == stages_.end()) {
      return {ErrorCode::kFailedPrecondition, "kv-input stage without predecessor"};
    }
    kv_in = &pit->second.outputs[static_cast<int>(task)];
  }

  master_->on_task_start(task, kv_input ? kv_in->bytes() : chunk.size());

  // -- recovery fast-path: skip records committed before the failure --
  std::unique_ptr<FileRecordReader<int64_t, std::string>> reader_holder =
      fns.make_reader ? fns.make_reader()
                      : std::make_unique<TextLineReader>();
  FileRecordReader<int64_t, std::string>& reader = *reader_holder;
  size_t kv_cursor = 0;
  if (!kv_input) reader.open(task, chunk);
  if (tp.pos > 0) {
    if (!kv_input) {
      reader.skip(tp.pos);
    } else {
      kv_cursor = tp.pos;
    }
    wc_.compute(static_cast<double>(tp.pos) * opts_.skip_cost_per_record);
    charge_cost("skip", static_cast<double>(tp.pos) * opts_.skip_cost_per_record);
  }

  // -- the Algorithm-1 loop: while next() { map(); commit(); } --
  const double map_cost = current_map_cost(fns);
  mr::KvBuffer emitted;
  std::string key_storage, value_storage;
  for (;;) {
    std::string_view key, value;
    if (!kv_input) {
      int64_t line_no = 0;
      if (!reader.next(line_no, value_storage)) break;
      key_storage = std::to_string(line_no);
      key = key_storage;
      value = value_storage;
    } else {
      if (kv_cursor >= kv_in->size()) break;
      const mr::KvView p = kv_in->view(kv_cursor++);
      key = p.key;
      value = p.value;
    }
    emitted.clear();
    fns.map(key, value, emitted);
    mr::tap_records(mr::kTapMapEmitted, world_.global_rank(), emitted.size());
    for (size_t i = 0; i < emitted.size(); ++i) {
      // Route each emitted record by key hash; the record bytes are already
      // wire-encoded in `emitted`'s arena, so both the partition copy and
      // the checkpoint delta are single memcpys.
      const int part = partition_of_key(emitted.view(i).key, p0_);
      tp.parts[static_cast<size_t>(part)].append_record_from(emitted, i);
      tp.pending_delta.append_record_from(emitted, i);
    }
    wc_.compute(map_cost);
    map_bytes_done_ += static_cast<double>(key.size() + value.size());
    tp.pos++;
    commit(task, tp, stage);
  }

  // -- task completion: flush the tail checkpoint --
  if (opts_.ckpt.enabled && !tp.pending_delta.empty()) {
    const double t0 = wc_.now();
    (void)check(ckpt_->map_ckpt(wc_, stage, task, tp.last_ckpt_pos, tp.pos,
                                tp.pending_delta));
    tp.pending_delta.clear();
    tp.last_ckpt_pos = tp.pos;
    charge_span("ckpt", t0);
  }
  // Completed task: move its partitioned output into the stage's map stores
  // (under a budget, residency drops back to O(budget) before the next
  // task). absorb_kv keeps a page it could not spill resident (over budget,
  // never lost), so a spill error degrades instead of losing data.
  for (int p = 0; p < p0_; ++p) {
    mr::KvBuffer& part = tp.parts[static_cast<size_t>(p)];
    if (part.empty()) continue;
    if (auto s = map_store(st, stage, p).absorb_kv(std::move(part)); !s.ok()) {
      FTMR_WARN << "rank " << world_.global_rank() << " map output for "
                << "partition " << p
                << " spill degraded to resident: " << s.to_string();
    }
  }
  tp.parts.clear();
  tp.parts.shrink_to_fit();
  tp.done = true;
  master_->on_task_done(task, tp.pos, 0);
  master_->observe(map_bytes_done_, wc_.now());
  metrics::MetricsRegistry::global().observe("task.map_seconds",
                                             world_.global_rank(),
                                             wc_.now() - task_start);
  return Status::Ok();
}

Status FtJob::map_phase(const StageFns& fns, bool kv_input, int stage,
                        StageState& st) {
  const double t0 = wc_.now();
  for (uint64_t task : my_task_ids(stage, kv_input)) {
    if (auto s = check(run_one_map_task(fns, kv_input, stage, st, task)); !s.ok()) {
      return s;
    }
  }
  double spill_io = 0.0;
  for (auto& [p, store] : st.map_stores) spill_io += store.take_io_seconds();
  if (spill_io > 0.0) {
    wc_.compute(spill_io);
    charge_cost("io_wait", spill_io);
  }
  ckpt_->drain(wc_);
  if (auto s = check(master_->exchange_now()); !s.ok()) return s;
  if (auto s = check(wc_.barrier()); !s.ok()) return s;
  // Every map-phase status message was staged before the barrier: drain
  // them now (uncounted, so the op axis is unchanged) and the gossip is
  // fully consumed on a failure-free job.
  if (auto s = check(master_->drain()); !s.ok()) return s;
  charge_span("map", t0);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// shuffle
// ---------------------------------------------------------------------------

namespace {

/// Encode a set of (partition, KvBuffer) blocks destined to one rank.
Bytes encode_blocks(const std::vector<std::pair<int, const mr::KvBuffer*>>& blocks) {
  ByteWriter w;
  w.put<uint32_t>(static_cast<uint32_t>(blocks.size()));
  for (const auto& [p, kv] : blocks) {
    w.put<int32_t>(p);
    w.put_blob(kv->wire_view());  // the arena IS the wire image
  }
  return std::move(w).take();
}

/// Apply a combiner to a KV block: group by key (deterministic order) and
/// feed each group through the combine function.
mr::KvBuffer combine_block(const mr::KvBuffer& in,
                           const StageFns& fns) {
  if (!fns.combine || in.empty()) return in;
  const mr::KmvBuffer grouped = mr::convert_2pass(in);
  mr::KvBuffer out;
  std::vector<std::string_view> scratch;
  for (size_t i = 0; i < grouped.size(); ++i) {
    grouped.values_of(i, scratch);
    fns.combine(grouped.entry(i).key(), scratch, out);
  }
  return out;
}

}  // namespace

Status FtJob::route_blocks(const std::map<int, mr::KvBuffer>& blocks,
                           const char* owner_died, std::vector<Bytes>& send) {
  std::map<int, std::vector<std::pair<int, const mr::KvBuffer*>>> by_dest;
  for (const auto& [p, kv] : blocks) {
    if (kv.empty()) continue;
    const int rel = owner_rel(p);
    if (rel < 0) return check({ErrorCode::kProcFailed, owner_died});
    by_dest[rel].push_back({p, &kv});
  }
  send.assign(static_cast<size_t>(wc_.size()), Bytes{});
  for (const auto& [rel, list] : by_dest) {
    send[static_cast<size_t>(rel)] = encode_blocks(list);
  }
  return Status::Ok();
}

// Intermediate KV/KMV data lives in spillable buffers: completed map tasks
// move their partitioned output into paged stores, the shuffle exchanges
// rounds of pages, partition checkpoints follow the stores, and
// convert/reduce stream the spillable KMV result. With a memory budget,
// peak residency stays O(memory_budget) however large the dataset (see
// DESIGN.md "Out-of-core KV"); without one (memory_budget == 0) nothing
// spills and the shuffle is a single exchange.

mr::SpillConfig FtJob::spill_config(int stage, std::string_view what) const {
  mr::SpillConfig cfg;
  if (opts_.memory_budget == 0 || fs_ == nullptr) return cfg;  // never spills
  cfg.fs = fs_;
  cfg.node = node();
  cfg.dir = opts_.spill_dir + "/r" + std::to_string(world_.global_rank()) +
            "/s" + std::to_string(stage) + "/" + std::string(what);
  // One per-rank budget, split evenly between the KV side (map output or
  // received partitions) and the convert/KMV side, which peak together.
  cfg.memory_budget = std::max<size_t>(1, opts_.memory_budget / 2);
  cfg.page_bytes = std::min(opts_.spill_page_bytes,
                            std::max<size_t>(4096, cfg.memory_budget / 8));
  cfg.meter = &meter_;
  return cfg;
}

mr::SpillableKvBuffer& FtJob::map_store(StageState& st, int stage, int p) {
  auto it = st.map_stores.find(p);
  if (it == st.map_stores.end()) {
    mr::SpillConfig cfg = spill_config(stage, "map")
                              .share(static_cast<size_t>(p0_))
                              .sub("p" + std::to_string(p));
    cfg.tally = &spilled_.map;
    it = st.map_stores.emplace(p, mr::SpillableKvBuffer(cfg)).first;
  }
  return it->second;
}

mr::SpillableKvBuffer& FtJob::partition_store(StageState& st, int stage, int p) {
  auto it = st.partition_stores.find(p);
  if (it == st.partition_stores.end()) {
    mr::SpillConfig cfg = spill_config(stage, "part")
                              .share(std::max<size_t>(1, owned_parts_))
                              .sub("p" + std::to_string(p));
    cfg.tally = &spilled_.part;
    it = st.partition_stores.emplace(p, mr::SpillableKvBuffer(cfg)).first;
  }
  return it->second;
}

void FtJob::adopt_partition(StageState& st, int stage, int p, mr::KvBuffer&& kv) {
  st.partition_stores.erase(p);
  if (auto s = partition_store(st, stage, p).absorb_kv(std::move(kv)); !s.ok()) {
    FTMR_WARN << "rank " << world_.global_rank() << " recovered partition " << p
              << " spill degraded to resident: " << s.to_string();
  }
}

Status FtJob::absorb_shuffle_blocks(StageState& st, int stage, const Bytes& recv,
                                    size_t* pairs_received) {
  if (recv.empty()) return Status::Ok();
  ByteReader r(recv);
  uint32_t n = 0;
  if (auto s = r.get(n); !s.ok()) return s;
  for (uint32_t i = 0; i < n; ++i) {
    int32_t p = 0;
    Bytes blob;
    if (auto s = r.get(p); !s.ok()) return s;
    if (auto s = r.get_blob(blob); !s.ok()) return s;
    mr::KvBuffer kv;
    if (auto s = kv.adopt(std::move(blob)); !s.ok()) return s;
    if (kv.empty()) continue;
    if (pairs_received) *pairs_received += kv.size();
    if (auto s = partition_store(st, stage, p).append_page(std::move(kv));
        !s.ok()) {
      // The spill layer keeps a page it could not write resident (over
      // budget, never lost), so this degrades to extra residency.
      FTMR_WARN << "rank " << world_.global_rank() << " partition " << p
                << " spill degraded to resident: " << s.to_string();
    }
  }
  return Status::Ok();
}

Status FtJob::shuffle_phase(const StageFns& fns, int stage, StageState& st) {
  const double t0 = wc_.now();
  // A failure mid-exchange re-enters here with partial receives absorbed.
  // The send side reads the map stores non-destructively, so dropping the
  // receive stores makes re-entry idempotent.
  st.partition_stores.clear();

  // Rounds: each assembles at most round_budget bytes of outgoing pages
  // from the per-partition cursors, combines, exchanges, and absorbs into
  // the partition stores. Unbounded (no budget), one round carries
  // everything. Under a budget, the ranks agree (max-reduce) after each
  // round on whether anyone still holds unsent pages, and the round is
  // sized with the clamped page the map stores use: the raw
  // spill_page_bytes (1 MiB by default) can exceed the whole budget, and
  // one round would carry the dataset.
  const mr::SpillConfig map_cfg = spill_config(stage, "map");
  const size_t round_budget =
      map_cfg.enabled()
          ? std::max(map_cfg.page_bytes, opts_.memory_budget / 2)
          : std::numeric_limits<size_t>::max();
  std::map<int, size_t> cursor;  // partition -> next unsent page
  size_t received_total = 0;
  for (;;) {
    const double c0 = wc_.now();
    std::map<int, mr::KvBuffer> chunks;
    size_t assembled = 0;
    for (auto& [p, store] : st.map_stores) {
      size_t& cur = cursor[p];
      const size_t npages = store.page_count();
      mr::KvBuffer page;
      while (cur < npages && assembled < round_budget) {
        if (auto s = store.read_page(cur, page); !s.ok()) return s;
        assembled += page.bytes();
        chunks[p].absorb(std::move(page));
        ++cur;
      }
      if (assembled >= round_budget) break;
    }
    if (fns.combine) {
      // Pre-aggregate each chunk before the wire. Combining a partition's
      // round is a valid partial aggregation: the owner's convert regroups
      // across rounds, and combine/reduce are associative by contract.
      for (auto& [p, kv] : chunks) {
        const size_t before = kv.bytes();
        kv = combine_block(kv, fns);
        if (before > kv.bytes()) {
          times_.charge("combine_saved_bytes",
                        static_cast<double>(before - kv.bytes()));
        }
      }
    }
    std::vector<Bytes> send;
    if (auto s = route_blocks(chunks, "partition owner died mid-shuffle", send);
        !s.ok()) {
      return s;
    }
    size_t sent = 0;
    for (const auto& [p, kv] : chunks) sent += kv.size();
    mr::tap_records(mr::kTapShuffleSent, world_.global_rank(), sent);
    trace_.span("shuffle.census", "shuffle", c0, wc_.now());

    const double a0 = wc_.now();
    std::vector<Bytes> recv;
    if (auto s = check(wc_.alltoall(send, recv)); !s.ok()) return s;
    trace_.span("shuffle.alltoall", "shuffle", a0, wc_.now());
    const double d0 = wc_.now();
    for (const Bytes& b : recv) {
      if (auto s = absorb_shuffle_blocks(st, stage, b, &received_total); !s.ok()) {
        return s;
      }
    }
    trace_.span("shuffle.adopt", "shuffle", d0, wc_.now());

    if (!map_cfg.enabled()) break;
    int64_t more = 0;
    for (auto& [p, store] : st.map_stores) {
      if (cursor[p] < store.page_count()) {
        more = 1;
        break;
      }
    }
    int64_t any_more = 0;
    if (auto s = check(wc_.allreduce_one(simmpi::ReduceOp::kMax, more, any_more));
        !s.ok()) {
      return s;
    }
    if (any_more == 0) break;
  }
  mr::tap_records(mr::kTapShuffleReceived, world_.global_rank(), received_total);
  double spill_io = 0.0;
  for (auto& [p, store] : st.map_stores) spill_io += store.take_io_seconds();
  for (auto& [p, store] : st.partition_stores) {
    spill_io += store.take_io_seconds();
  }
  if (spill_io > 0.0) wc_.compute(spill_io);

  // Partition checkpoints make the shuffle result durable (a work-conserving
  // resume after a reduce-phase failure reads exactly these), for every
  // owned partition — including ones that received nothing: restart
  // priming claims shuffle-done only when each owned partition's checkpoint
  // is present.
  if (opts_.ckpt.enabled) {
    const double c0 = wc_.now();
    const int me = world_.global_rank();
    for (int p = 0; p < p0_; ++p) {
      if (part_owner_[static_cast<size_t>(p)] != me) continue;
      if (auto s = check(ckpt_->partition_ckpt(wc_, stage, p,
                                               partition_store(st, stage, p)));
          !s.ok()) {
        return s;
      }
    }
    ckpt_->drain(wc_);
    charge_span("ckpt", c0);
  }
  st.phase = kPhaseShuffleDone;
  // Sender-side stores are only needed again by the detect/resume orphan
  // rebuild; the other modes never rebuild, so their pages free now.
  if (opts_.mode == FtMode::kNone || opts_.mode == FtMode::kCheckpointRestart) {
    st.map_stores.clear();
  }
  if (auto s = check(wc_.barrier()); !s.ok()) return s;
  charge_span("shuffle", t0);
  return Status::Ok();
}

Status FtJob::rebuild_orphan_partitions(const StageFns& fns, int stage,
                                        StageState& st,
                                        const std::vector<int>& missing) {
  const double t0 = wc_.now();
  // Survivors re-exchange only the orphaned partitions, streamed out of
  // their retained (and patch-up re-executed) map stores. `missing` is the
  // allgathered union, so every rank participates in the same exchange.
  // Orphans are a small subset of P0, so materializing just their blocks
  // keeps residency near the budget.
  std::map<int, mr::KvBuffer> merged;
  for (int p : missing) {
    auto it = st.map_stores.find(p);
    if (it == st.map_stores.end()) continue;
    if (auto s = it->second.for_each_page([&](const mr::KvBuffer& page) {
          merged[p].merge_from(page);
          return Status::Ok();
        });
        !s.ok()) {
      return s;
    }
  }
  if (fns.combine) {
    for (auto& [p, kv] : merged) kv = combine_block(kv, fns);
  }
  std::vector<Bytes> send;
  if (auto s = route_blocks(merged, "orphan partition owner died", send); !s.ok()) {
    return s;
  }
  const double a0 = wc_.now();
  std::vector<Bytes> recv;
  if (auto s = check(wc_.alltoall(send, recv)); !s.ok()) return s;
  trace_.span("shuffle.alltoall", "shuffle", a0, wc_.now());
  // Replace each owned orphan — idempotent under retry — and restart its
  // reduce. Every one is re-checkpointed, even when no survivor held data
  // for it.
  std::vector<int> rebuilt;
  for (int p : missing) {
    if (part_owner_[static_cast<size_t>(p)] != world_.global_rank()) continue;
    st.partition_stores.erase(p);
    st.reduce.erase(p);
    rebuilt.push_back(p);
  }
  for (const Bytes& b : recv) {
    if (auto s = absorb_shuffle_blocks(st, stage, b, nullptr); !s.ok()) return s;
  }
  if (opts_.ckpt.enabled) {
    for (int p : rebuilt) {
      if (auto s = check(ckpt_->partition_ckpt(wc_, stage, p,
                                               partition_store(st, stage, p)));
          !s.ok()) {
        return s;
      }
    }
    ckpt_->drain(wc_);
  }
  double spill_io = 0.0;
  for (auto& [p, store] : st.map_stores) spill_io += store.take_io_seconds();
  for (auto& [p, store] : st.partition_stores) {
    spill_io += store.take_io_seconds();
  }
  if (spill_io > 0.0) wc_.compute(spill_io);
  st.partitions_missing.clear();
  if (auto s = check(wc_.barrier()); !s.ok()) return s;
  charge_span("recovery", t0);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// reduce
// ---------------------------------------------------------------------------

Status FtJob::reduce_entry(const StageFns& fns, int stage, int p,
                           ReduceProgress& rp, std::string_view key,
                           std::span<const std::string_view> values,
                           double reduce_cost, mr::KvBuffer& emitted) {
  emitted.clear();
  fns.reduce(key, values, emitted);
  mr::tap_records(mr::kTapReduceEmitted, world_.global_rank(), emitted.size());
  rp.out.merge_from(emitted);
  rp.pending_delta.merge_from(emitted);
  wc_.compute(reduce_cost * static_cast<double>(values.size()));
  rp.entries_done++;
  if (opts_.ckpt.enabled &&
      opts_.ckpt.granularity == CkptOptions::Granularity::kRecord &&
      static_cast<int64_t>(rp.entries_done - rp.last_ckpt_entries) >=
          opts_.ckpt.records_per_ckpt) {
    const double c0 = wc_.now();
    if (auto s = check(ckpt_->reduce_ckpt(wc_, stage, p, rp.last_ckpt_entries,
                                          rp.entries_done, rp.pending_delta));
        !s.ok()) {
      return s;
    }
    rp.pending_delta.clear();
    rp.last_ckpt_entries = rp.entries_done;
    charge_span("ckpt", c0);
  }
  if ((rp.entries_done & 0x3f) == 0) {
    if (auto s = check(master_->tick()); !s.ok()) return s;
    if (!wc_.failed_ranks().empty()) {
      return check({ErrorCode::kProcFailed, "failure observed in reduce"});
    }
  }
  return Status::Ok();
}

Status FtJob::finish_reduce_partition(int stage, StageState& st, int p,
                                      ReduceProgress& rp) {
  if (opts_.ckpt.enabled && !rp.pending_delta.empty()) {
    if (auto s = check(ckpt_->reduce_ckpt(wc_, stage, p, rp.last_ckpt_entries,
                                          rp.entries_done, rp.pending_delta));
        !s.ok()) {
      return s;
    }
    rp.pending_delta.clear();
    rp.last_ckpt_entries = rp.entries_done;
  }
  if (rp.kmv) {
    const double kmv_io = rp.kmv->take_io_seconds();
    if (kmv_io > 0.0) wc_.compute(kmv_io);
    rp.kmv.reset();
  }
  rp.done = true;
  st.outputs[p] = rp.out;
  if (opts_.ckpt.enabled) {
    return check(ckpt_->stage_output_ckpt(wc_, stage, p, rp.out));
  }
  return Status::Ok();
}

Status FtJob::reduce_phase(const StageFns& fns, int stage, StageState& st) {
  const double t0 = wc_.now();
  const double reduce_cost = current_reduce_cost(fns);
  const int me = world_.global_rank();
  mr::KvBuffer emitted;
  for (int p = 0; p < p0_; ++p) {
    if (part_owner_[static_cast<size_t>(p)] != me) continue;
    ReduceProgress& rp = st.reduce[p];
    if (rp.done) continue;
    if (!rp.kmv) {
      // KV→KMV conversion (the "merge" of Fig. 10): consumes the partition
      // store page by page into a spillable KMV result. Entry order is
      // global key order whatever the budget (the k-way merge of the
      // sorted runs restores it), so the reduce-entry cursor is a valid
      // recovery position.
      const double m0 = wc_.now();
      mr::SpillConfig kmv_cfg = spill_config(stage, "kmv_p" + std::to_string(p));
      kmv_cfg.tally = &spilled_.kmv;
      auto kmv = std::make_unique<mr::SpillableKmvBuffer>(kmv_cfg);
      mr::ConvertStats cst;
      mr::SpillableKvBuffer& in = partition_store(st, stage, p);
      if (auto s = mr::convert_2pass_spill(in, *kmv, kmv_cfg.memory_budget, &cst,
                                           opts_.convert_segment_bytes,
                                           opts_.two_pass_convert);
          !s.ok()) {
        return s;
      }
      double convert_io =
          fs_->cost_of(storage::Tier::kLocal, cst.bytes_moved, cst.passes);
      convert_io += in.take_io_seconds() + kmv->take_io_seconds();
      wc_.compute(convert_io);
      st.partition_stores.erase(p);  // consumed by the convert
      rp.kmv = std::move(kmv);
      charge_span("merge", m0);
    }

    if (rp.entries_done > 0) {
      wc_.compute(static_cast<double>(rp.entries_done) * opts_.skip_cost_per_record);
    }
    // The Algorithm-1 reduce loop, driven by the streamed KMV. check() may
    // throw FailureDetected out of the stream; rp.kmv survives in the stage
    // state, so re-entry resumes at the committed entry cursor without
    // re-converting.
    if (auto s = rp.kmv->for_each_entry(
            rp.entries_done,
            [&](std::string_view key,
                std::span<const std::string_view> values) -> Status {
              return reduce_entry(fns, stage, p, rp, key, values, reduce_cost,
                                  emitted);
            });
        !s.ok()) {
      return s;
    }
    if (auto s = finish_reduce_partition(stage, st, p, rp); !s.ok()) return s;
  }
  ckpt_->drain(wc_);
  if (auto s = check(wc_.barrier()); !s.ok()) return s;
  st.phase = kPhaseDone;
  charge_span("reduce", t0);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// stage orchestration
// ---------------------------------------------------------------------------

Status FtJob::run_stage(const StageFns& fns, bool kv_input, mr::KvBuffer* output) {
  const int stage = stage_cursor_++;
  if (kv_input && stage == 0) {
    return {ErrorCode::kInvalidArgument, "stage 0 cannot take kv input"};
  }
  if (!kv_input && chunks_.empty()) {
    if (auto s = fs_->list_dir(storage::Tier::kShared, node(), opts_.input_dir,
                               chunks_);
        !s.ok()) {
      return s;
    }
  }
  StageState& st = stages_[stage];
  st.kv_input = kv_input;
  if (st.phase != kPhaseDone) {
    if (st.phase == kPhaseMap) {
      if (auto s = map_phase(fns, kv_input, stage, st); !s.ok()) return s;
      if (auto s = shuffle_phase(fns, stage, st); !s.ok()) return s;
    }
    // Agree on the orphan-rebuild set: a work-conserving fallback may mark
    // a partition missing on the inheriting rank only, but the rebuild is a
    // collective exchange — everyone must join or nobody may. (On the
    // failure-free path the union is empty and this is one cheap allgather.)
    {
      ByteWriter w;
      w.put<uint32_t>(static_cast<uint32_t>(st.partitions_missing.size()));
      for (int p : st.partitions_missing) w.put<int32_t>(p);
      std::vector<Bytes> gathered;
      if (auto s = check(wc_.allgather(w.bytes(), gathered)); !s.ok()) return s;
      std::set<int> union_missing;
      for (const Bytes& b : gathered) {
        ByteReader r(b);
        uint32_t n = 0;
        (void)r.get(n);
        for (uint32_t i = 0; i < n; ++i) {
          int32_t p = 0;
          (void)r.get(p);
          union_missing.insert(p);
        }
      }
      if (!union_missing.empty()) {
        // Patch-up: re-execute every unfinished or newly inherited map task
        // — the dead ranks' contributions to the orphaned partitions can
        // only come from these re-executions.
        for (uint64_t task : my_task_ids(stage, kv_input)) {
          auto it = st.tasks.find(task);
          if (it != st.tasks.end() && it->second.done) continue;
          if (auto s = check(run_one_map_task(fns, kv_input, stage, st, task));
              !s.ok()) {
            return s;
          }
        }
        std::vector<int> missing(union_missing.begin(), union_missing.end());
        if (auto s = rebuild_orphan_partitions(fns, stage, st, missing);
            !s.ok()) {
          return s;
        }
      }
    }
    if (auto s = reduce_phase(fns, stage, st); !s.ok()) return s;
  }
  last_stage_ = stage;
  if (output) {
    output->clear();
    const int me = world_.global_rank();
    for (int p = 0; p < p0_; ++p) {
      if (part_owner_[static_cast<size_t>(p)] == me) {
        output->merge_from(st.outputs[p]);
      }
    }
  }
  return Status::Ok();
}

Status FtJob::write_output() {
  if (last_stage_ < 0) {
    return {ErrorCode::kFailedPrecondition, "write_output before any stage"};
  }
  StageState& st = stages_[last_stage_];
  const int me = world_.global_rank();
  for (int p = 0; p < p0_; ++p) {
    if (part_owner_[static_cast<size_t>(p)] != me) continue;
    Bytes payload;
    if (opts_.output_writer) {
      // User-formatted records (Table 1 FileRecordWriter path).
      std::string sink;
      for (mr::KvView pair : st.outputs[p]) {
        opts_.output_writer(pair.key, pair.value, sink);
      }
      payload = to_bytes(sink);
    } else {
      ByteWriter w;
      for (mr::KvView pair : st.outputs[p]) {
        w.put_string(pair.key);
        w.put_string(pair.value);
      }
      payload = std::move(w).take();
    }
    char name[64];
    std::snprintf(name, sizeof(name), "part-%05d", p);
    mr::tap_records(mr::kTapOutputWritten, world_.global_rank(),
                    st.outputs[p].size());
    double cost = 0.0;
    if (auto s = fs_->write_file(storage::Tier::kShared, node(),
                                 opts_.output_dir + "/" + name, payload, &cost,
                                 io_conc());
        !s.ok()) {
      return s;
    }
    wc_.compute(cost);
    charge_cost("io_wait", cost);
  }
  return check(wc_.barrier());
}

// ---------------------------------------------------------------------------
// recovery (detect/resume, Sec. 4.2)
// ---------------------------------------------------------------------------

void FtJob::recover() {
  // 1. Failure notification: revoke both communicators so every survivor —
  //    including ones blocked in collectives — lands in recovery.
  (void)wc_.revoke();
  // The master comm is invalid when construction itself hit the failure
  // (ctor_failure_): nothing to revoke, the rebind below creates it.
  if (master_->comm().valid()) (void)master_->comm().revoke();

  // 2. Rebuild communication capability: shrink, then a fresh master comm.
  simmpi::Comm new_wc;
  if (auto s = wc_.shrink(new_wc); !s.ok()) {
    throw std::runtime_error("shrink failed: " + s.to_string());
  }
  wc_ = new_wc;
  simmpi::Comm new_mc;
  (void)check(wc_.dup(new_mc, /*accounts_time=*/false));
  master_->rebind(std::move(new_mc));

  // 3. Uniform agreement that everyone reached recovery with the same view.
  int flag = 1;
  (void)wc_.agree(flag);
  wc_.ack_failures();
  world_.ack_failures();

  // 4. Collective census of the dead. Survivors may locally observe
  //    slightly different dead sets (detection is asynchronous), so the
  //    sets are allgathered and unioned — every survivor patches against
  //    the identical census. If yet another rank dies during these
  //    collectives they fail *uniformly* (nobody mutates state), the
  //    FailureDetected unwinds, and recovery restarts cleanly.
  std::vector<int> local_dead = world_.failed_global_ranks();
  ByteWriter w;
  w.put<uint32_t>(static_cast<uint32_t>(local_dead.size()));
  for (int d : local_dead) w.put<int32_t>(d);
  std::vector<Bytes> gathered;
  (void)check(wc_.allgather(w.bytes(), gathered));
  std::set<int> union_dead;
  for (const Bytes& b : gathered) {
    ByteReader r(b);
    uint32_t n = 0;
    (void)r.get(n);
    for (uint32_t i = 0; i < n; ++i) {
      int32_t d = 0;
      (void)r.get(d);
      union_dead.insert(d);
    }
  }
  std::vector<int> new_dead;
  for (int d : union_dead) {
    if (!known_dead_.count(d)) new_dead.push_back(d);
  }
  FTMR_INFO << "rank " << world_.global_rank() << " recovering; "
            << new_dead.size() << " newly dead, comm now " << wc_.size();
  patch_state_after_shrink(new_dead);
  for (int d : new_dead) known_dead_.insert(d);

  // 5. Restore the memory tier's replication invariant before any new work
  //    runs: orphaned blobs regain their replica count now, so the *next*
  //    failure can again recover from peer RAM instead of shared storage.
  //    Routed through check(): a rank dying mid-repair re-enters recovery
  //    cleanly and the interrupted repair is redone against the new census.
  if (opts_.ckpt.enabled && opts_.ckpt.memory_replication_k > 0) {
    (void)check(ckpt_->rereplicate(wc_));
  }
}

void FtJob::patch_state_after_shrink(const std::vector<int>& new_dead) {
  if (new_dead.empty()) return;

  // NOTE ordering invariant: every communication below happens *before*
  // any state mutation. Collectives fail uniformly in simmpi, so either
  // every survivor reaches the mutation section (and applies the same
  // deterministic updates from the same gathered inputs), or none does.

  // Failure horizon: checkpoints that had not drained by the earliest
  // detection time are treated as lost.
  double horizon = wc_.now();
  (void)check(wc_.allreduce_one(simmpi::ReduceOp::kMin, wc_.now(), horizon));

  // Load-balancer models of every survivor (identical vector everywhere).
  std::vector<LinearModel> models;
  if (opts_.load_balance) {
    (void)check(LoadBalancer::exchange_models(wc_, master_->local_model(), models));
  } else {
    models.assign(static_cast<size_t>(wc_.size()), LinearModel{});
  }
  // known_dead_ is updated by the caller *after* this function succeeds;
  // build the effective dead set here.
  std::set<int> dead_now = known_dead_;
  for (int d : new_dead) dead_now.insert(d);

  // --- Reassign the dead ranks' partitions (deterministically). ---
  std::vector<int> orphan_parts;
  for (int p = 0; p < p0_; ++p) {
    if (dead_now.count(part_owner_[static_cast<size_t>(p)])) {
      orphan_parts.push_back(p);
    }
  }
  {
    std::vector<double> weights(orphan_parts.size(), 1.0);
    std::vector<double> finish(static_cast<size_t>(wc_.size()), 0.0);
    // Survivors keep their own partitions; seed their predicted finish with
    // the number of partitions they already own.
    for (int p = 0; p < p0_; ++p) {
      const int rel = owner_rel(p);
      if (rel >= 0) finish[static_cast<size_t>(rel)] += 1.0;
    }
    const std::vector<int> owner =
        LoadBalancer::assign(weights, models, std::move(finish));
    for (size_t i = 0; i < orphan_parts.size(); ++i) {
      part_owner_[static_cast<size_t>(orphan_parts[i])] =
          wc_.global_of_rel(owner[i]);
    }
    owned_parts_ = static_cast<size_t>(
        std::count(part_owner_.begin(), part_owner_.end(), world_.global_rank()));
  }

  // --- Reassign the dead ranks' file tasks. ---
  // A failure before the first run_stage (e.g. during job construction)
  // arrives here with `chunks_` still unlisted; without the listing the
  // dead ranks' stage-0 tasks would keep their hash-default owners and
  // silently never execute. The listing is deterministic (shared tier),
  // so every survivor derives the identical task census.
  if (chunks_.empty()) {
    if (auto s = fs_->list_dir(storage::Tier::kShared, node(), opts_.input_dir,
                               chunks_);
        !s.ok()) {
      FTMR_WARN << "rank " << world_.global_rank()
                << " could not list input chunks during recovery: "
                << s.to_string();
    }
  }
  std::vector<uint64_t> orphan_tasks;
  for (uint64_t t = 0; t < chunks_.size(); ++t) {
    auto it = task_reassign_.find(t);
    const int owner = (it != task_reassign_.end()) ? it->second
                                                   : assign_task_to_rank(t, p0_);
    if (dead_now.count(owner)) orphan_tasks.push_back(t);
  }
  {
    std::vector<double> weights;
    weights.reserve(orphan_tasks.size());
    for (uint64_t t : orphan_tasks) {
      const int64_t sz = fs_->file_size(storage::Tier::kShared, node(),
                                        opts_.input_dir + "/" + chunks_[t]);
      weights.push_back(sz > 0 ? static_cast<double>(sz) : 1.0);
    }
    std::vector<double> finish(static_cast<size_t>(wc_.size()), 0.0);
    const std::vector<int> owner =
        LoadBalancer::assign(weights, models, std::move(finish));
    for (size_t i = 0; i < orphan_tasks.size(); ++i) {
      task_reassign_[orphan_tasks[i]] = wc_.global_of_rel(owner[i]);
    }
  }

  // --- Current stage & per-stage state patching. ---
  int cur_stage = stage_cursor_ > 0 ? stage_cursor_ - 1 : 0;
  for (const auto& [sid, st] : stages_) {
    if (st.phase != kPhaseDone) {
      cur_stage = sid;
      break;
    }
    cur_stage = sid + 1;
  }

  if (opts_.mode == FtMode::kDetectResumeNWC) {
    // Non-work-conserving (Sec. 4.2.2): the lost work is re-executed. Any
    // completed stage whose outputs lived (partly) in dead memory cannot be
    // reconstructed without its inputs, so a multi-stage job falls all the
    // way back to stage 0 — previously finished work is lost, exactly the
    // behaviour Figs. 11/12 show under continuous failures.
    const bool multi_stage = cur_stage > 0 || stages_.size() > 1;
    if (multi_stage) {
      stages_.clear();
      return;
    }
    auto sit = stages_.find(cur_stage);
    if (sit == stages_.end()) return;
    StageState& st = sit->second;
    if (st.phase == kPhaseMap) {
      // Dead tasks simply re-run from scratch on their new owners: drop any
      // state (there is none on this rank) — nothing else to do, the map
      // loop will execute them because my_task_ids() now includes them.
      return;
    }
    // Reduce-phase failure: the dead ranks' partitions are orphaned; their
    // content is rebuilt from the survivors' retained map outputs plus the
    // re-executed dead map tasks.
    for (int p : orphan_parts) st.partitions_missing.insert(p);
    for (uint64_t t : orphan_tasks) {
      if (task_reassign_[t] == world_.global_rank()) {
        st.tasks[t] = TaskProgress{};  // re-execute from record 0
        st.tasks[t].rerun_from_scratch = true;
      }
    }
    return;
  }

  // Work-conserving (WC): survivors read the dead ranks' checkpoints from
  // the shared storage — only the files covering the work they inherited.
  std::set<uint64_t> my_new_tasks;
  for (uint64_t t : orphan_tasks) {
    if (task_reassign_[t] == world_.global_rank()) my_new_tasks.insert(t);
  }
  std::set<int> my_new_parts;
  for (int p : orphan_parts) {
    if (part_owner_[static_cast<size_t>(p)] == world_.global_rank()) {
      my_new_parts.insert(p);
    }
  }

  for (int d : new_dead) {
    const int d_node = d / opts_.ppn;
    for (auto& [sid, st] : stages_) {
      if (wc_loaded_.count({d, sid})) continue;
      wc_loaded_.insert({d, sid});
      RankRecovery rec;
      LoadFilter filter;
      filter.tasks = &my_new_tasks;
      filter.partitions = &my_new_parts;
      const double r0 = wc_.now();
      Status s = ckpt_->load_rank_stage(wc_, sid, d, d_node, /*from_shared=*/true,
                                        horizon, rec, filter);
      charge_span("recovery_io", r0);
      if (!s.ok()) {
        FTMR_WARN << "WC recovery load failed for rank " << d << " stage " << sid
                  << ": " << s.to_string();
      }
      if (sid < cur_stage || st.phase == kPhaseDone) {
        // Completed stage: adopt the dead rank's stage outputs for the
        // partitions I now own (they are the next stage's inputs).
        for (auto& [p, kv] : rec.stage_outputs) {
          if (my_new_parts.count(p)) st.outputs[p] = std::move(kv);
        }
        continue;
      }
      if (st.phase == kPhaseMap) {
        // A kv-input stage's map tasks are partitions, so the dead rank's
        // progress must land on the rank that inherited the *partition*.
        // Keying by inherited file tasks would park the restored output on
        // a rank that never runs the task — and since the shuffle merges
        // every entry in st.tasks, the partition owner's re-execution would
        // then be counted alongside it, duplicating the task's records.
        std::set<uint64_t> inherited;
        if (st.kv_input) {
          for (int p : my_new_parts) inherited.insert(static_cast<uint64_t>(p));
        } else {
          inherited = my_new_tasks;
        }
        for (uint64_t t : inherited) {
          TaskProgress& tp = st.tasks[t];
          if (tp.done) continue;
          auto rit = rec.map_tasks.find(t);
          if (rit == rec.map_tasks.end()) {
            // No usable checkpoint: the task reruns from record 0. When the
            // load quarantined files this is work lost to corruption (not
            // merely an undrained tail) — count it.
            if (rec.quarantined > 0) ckpt_->note_segments_reprocessed(1);
            continue;
          }
          if (rit->second.pos <= tp.pos) continue;   // already have newer
          restore_map_task(tp, rit->second);
        }
      } else {  // kPhaseShuffleDone: adopt partition + reduce progress
        for (int p : my_new_parts) {
          auto pit = rec.partitions.find(p);
          if (pit == rec.partitions.end()) {
            // Partition checkpoint missing (not drained in time, or
            // quarantined as corrupt): fall back to the NWC rebuild.
            if (rec.quarantined > 0) ckpt_->note_segments_reprocessed(1);
            st.partitions_missing.insert(p);
            // Seed the inherited map tasks (partition ids on kv-input
            // stages) so the patch-up re-execution covers them.
            if (st.kv_input) {
              for (int q : my_new_parts) {
                if (!st.tasks.count(static_cast<uint64_t>(q))) {
                  st.tasks[static_cast<uint64_t>(q)] = TaskProgress{};
                }
              }
            } else {
              for (uint64_t t : my_new_tasks) {
                if (!st.tasks.count(t)) st.tasks[t] = TaskProgress{};
              }
            }
            continue;
          }
          adopt_partition(st, sid, p, std::move(pit->second));
          auto rrit = rec.reduce.find(p);
          if (rrit != rec.reduce.end()) {
            restore_reduce(st.reduce[p], std::move(rrit->second));
          }
        }
      }
    }
  }
}

void FtJob::restore_map_task(TaskProgress& tp,
                             const RankRecovery::MapTask& rec) const {
  tp.pos = rec.pos;
  tp.last_ckpt_pos = rec.pos;
  tp.parts.assign(static_cast<size_t>(p0_), mr::KvBuffer{});
  tp.pending_delta.clear();
  if (opts_.testing_break_recovery) return;  // drop the KV, keep the cursor
  for (size_t i = 0; i < rec.kv.size(); ++i) {
    tp.parts[static_cast<size_t>(partition_of_key(rec.kv.view(i).key, p0_))]
        .append_record_from(rec.kv, i);
  }
}

void FtJob::restore_reduce(ReduceProgress& rp, RankRecovery::Reduce&& rec) {
  rp.entries_done = rec.entries_done;
  rp.last_ckpt_entries = rec.entries_done;
  rp.out = std::move(rec.out);
}

// ---------------------------------------------------------------------------
// checkpoint/restart priming (Sec. 4.1)
// ---------------------------------------------------------------------------

void FtJob::prime_from_own_checkpoints() {
  const bool shared = opts_.restart_read_shared;
  const std::set<int> present =
      ckpt_->stages_present(world_.global_rank(), node(), shared);
  // My local resume candidate: the furthest (stage, phase) my checkpoints
  // support. The job-wide resume point is the minimum across ranks.
  int64_t my_composite = 0;
  std::map<int, RankRecovery> recs;
  for (int sid : present) {
    if (sid >= kMaxStagesScan) break;
    RankRecovery rec;
    const double r0 = wc_.now();
    Status s = ckpt_->load_rank_stage(wc_, sid, world_.global_rank(), node(),
                                      shared, /*horizon=*/-1.0, rec);
    charge_span("init_recover", r0);
    if (!s.ok()) continue;
    int phase = kPhaseMap;
    // All owned partitions produced output -> the stage completed.
    bool all_out = true;
    for (int p = 0; p < p0_; ++p) {
      if (part_owner_[static_cast<size_t>(p)] == world_.global_rank() &&
          !rec.stage_outputs.count(p)) {
        all_out = false;
        break;
      }
    }
    // Claiming shuffle-done requires *every* owned partition's checkpoint —
    // with corruption-tolerant loading a quarantined partition file is
    // simply absent from `rec`, and resuming reduce without it would
    // silently drop its keys. Fall back to map phase (map progress is still
    // usable) and let the shuffle regenerate the partitions.
    bool all_parts = !rec.partitions.empty();
    for (int p = 0; p < p0_ && all_parts; ++p) {
      if (part_owner_[static_cast<size_t>(p)] == world_.global_rank() &&
          !rec.partitions.count(p)) {
        all_parts = false;
      }
    }
    if (all_out && !rec.stage_outputs.empty()) {
      phase = kPhaseDone;
    } else if (all_parts) {
      phase = kPhaseShuffleDone;
    } else if (rec.quarantined > 0 && !rec.partitions.empty()) {
      ckpt_->note_segments_reprocessed(1);  // shuffle re-executed for corruption
    }
    my_composite = static_cast<int64_t>(sid) * 8 + phase;
    recs[sid] = std::move(rec);
  }
  int64_t agreed = 0;
  if (auto s = wc_.allreduce_one(simmpi::ReduceOp::kMin, my_composite, agreed);
      !s.ok()) {
    return;  // degenerate (e.g. failure during restart): start fresh
  }
  const int agreed_stage = static_cast<int>(agreed / 8);
  const int agreed_phase = static_cast<int>(agreed % 8);
  for (auto& [sid, rec] : recs) {
    if (sid > agreed_stage) break;  // ahead of the job-wide resume point
    StageState& st = stages_[sid];
    if (sid < agreed_stage || agreed_phase == kPhaseDone) {
      // Fully completed job-wide (either behind the resume stage, or the
      // resume stage itself when every rank's checkpoints prove it done —
      // a failure at a stage/iteration boundary). Prime to kPhaseDone so
      // the driver replay fast-forwards it and execution resumes at the
      // *next* stage; re-running its reduce from a full cursor would be
      // wasted work and (on the iterative engine) a spurious re-execution
      // of a converged round.
      st.phase = kPhaseDone;
      for (auto& [p, kv] : rec.stage_outputs) st.outputs[p] = std::move(kv);
      // Keep reduce marks consistent for completeness.
      for (auto& [p, kv] : st.outputs) {
        ReduceProgress& rp = st.reduce[p];
        rp.done = true;
        rp.out = kv;
      }
      continue;
    }
    // The stage every rank resumes in. Cap my state at the agreed phase.
    st.phase = std::min<int>(agreed_phase, kPhaseShuffleDone);
    // Map progress is always usable.
    for (const auto& [t, mrec] : rec.map_tasks) restore_map_task(st.tasks[t], mrec);
    if (st.phase >= kPhaseShuffleDone) {
      for (auto& [p, kv] : rec.partitions) {
        adopt_partition(st, sid, p, std::move(kv));
      }
      for (auto& [p, rrec] : rec.reduce) restore_reduce(st.reduce[p], std::move(rrec));
    }
  }
  primed_from_ckpt_ = !stages_.empty();
  if (primed_from_ckpt_) {
    FTMR_INFO << "rank " << world_.global_rank() << " restart: resuming at stage "
              << agreed_stage << " phase " << agreed_phase;
  }
}

}  // namespace ftmr::core
