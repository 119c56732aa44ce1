#include "core/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"
#include "common/log.hpp"
#include "storage/replica.hpp"

namespace ftmr::core {

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

Bytes frame_checkpoint(std::span<const std::byte> payload) {
  ByteWriter w;
  w.put<uint32_t>(kCkptMagic);
  w.put<uint16_t>(kCkptVersion);
  w.put<uint16_t>(0);  // reserved
  w.put<uint64_t>(payload.size());
  w.put_bytes(payload);
  w.put<uint32_t>(crc32(w.bytes()));
  return std::move(w).take();
}

Status unframe_checkpoint(std::span<const std::byte> framed, Bytes& payload) {
  if (framed.size() < kCkptFrameOverhead) {
    return {ErrorCode::kCorrupt, "ckpt frame: truncated (torn write?)"};
  }
  ByteReader r(framed);
  uint32_t magic = 0;
  uint16_t version = 0, reserved = 0;
  uint64_t len = 0;
  (void)r.get(magic);
  (void)r.get(version);
  (void)r.get(reserved);
  (void)r.get(len);
  if (magic != kCkptMagic) {
    return {ErrorCode::kCorrupt, "ckpt frame: bad magic"};
  }
  if (version != kCkptVersion) {
    return {ErrorCode::kCorrupt,
            "ckpt frame: unsupported version " + std::to_string(version)};
  }
  if (len != framed.size() - kCkptFrameOverhead) {
    return {ErrorCode::kCorrupt, "ckpt frame: payload length mismatch"};
  }
  uint32_t stored = 0;
  std::memcpy(&stored, framed.data() + framed.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (stored != crc32(framed.first(framed.size() - sizeof(uint32_t)))) {
    return {ErrorCode::kCorrupt, "ckpt frame: CRC mismatch"};
  }
  constexpr size_t kHeader = kCkptFrameOverhead - sizeof(uint32_t);
  payload.assign(framed.begin() + static_cast<ptrdiff_t>(kHeader),
                 framed.end() - static_cast<ptrdiff_t>(sizeof(uint32_t)));
  return Status::Ok();
}

namespace {

// Checkpoint kinds as they appear in file names.
constexpr char kMap[] = "map";
constexpr char kPart[] = "part";
constexpr char kRed[] = "red";
constexpr char kOut[] = "out";

std::string base_name(const char* kind, int stage, uint64_t id, int seq) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s_s%03d_p%012" PRIu64 "_q%06d", kind, stage, id,
                seq);
  return buf;
}

/// The shared tier's drain stamp: a drained copy of `name` is stored as
/// "<name>_d<usec>", `usec` being the simulated drain-completion time.
std::string drain_stamped(const std::string& name, double t) {
  return name + "_d" + std::to_string(static_cast<int64_t>(t * 1e6));
}

/// `name` without its drain stamp: the base name the local file and the
/// memory-tier replica carry.
std::string strip_drain_stamp(const std::string& name) {
  const auto pos = name.rfind("_d");
  return pos == std::string::npos ? name : name.substr(0, pos);
}

/// Delta-chain contiguity, shared by map and red chains: a delta covering
/// [start, end) is merged only if it extends the applied chain contiguously.
/// Re-execution is deterministic (map over a chunk, reduce over a given
/// partition snapshot in sorted entry order), so a chain restarted from 0 by
/// a later incarnation carries the *same* records as the prefix it shadows;
/// merging both would replay them twice (the duplication bug the schedule
/// explorer caught under CR kills in two consecutive submissions). Returns
/// false on a gap or partial overlap: a flat KV blob cannot be split, so the
/// caller poisons the chain, keeping the verified prefix, and the tail is
/// reprocessed from input.
bool extend_chain(uint64_t start, uint64_t end, const mr::KvBuffer& delta,
                  uint64_t& chain_end, mr::KvBuffer& chain) {
  if (start != chain_end) {
    if (start != 0) return false;
    if (end <= chain_end) return true;  // duplicate prefix of what is applied
    chain = mr::KvBuffer();             // restart supersedes the shorter prefix
  }
  chain_end = end;
  chain.merge_from(delta);
  return true;
}

/// A partition checkpoint's payload up to the record bytes:
/// [i32 partition][u32 blob_len][u64 record count] — the partition id, then
/// put_blob() of the KV wire image, whose own header is the record count.
void put_partition_prefix(ByteWriter& w, int partition,
                          const mr::SpillableKvBuffer& kv) {
  w.put<int32_t>(partition);
  w.put<uint32_t>(static_cast<uint32_t>(mr::kCountHeaderBytes + kv.bytes()));
  w.put<uint64_t>(kv.size());
}

}  // namespace

bool parse_checkpoint_name(const std::string& name, CkptFileName& out) {
  const auto kind_end = name.find("_s");
  if (kind_end == std::string::npos) return false;
  out.kind = name.substr(0, kind_end);
  if (out.kind != kMap && out.kind != kPart && out.kind != kRed &&
      out.kind != kOut) {
    return false;
  }
  int consumed = 0;
  const char* rest = name.c_str() + kind_end;
  if (std::sscanf(rest, "_s%d_p%" SCNu64 "_q%d%n", &out.stage, &out.id, &out.seq,
                  &consumed) != 3) {
    return false;
  }
  rest += consumed;
  long long usec = -1;
  if (std::sscanf(rest, "_d%lld", &usec) == 1) out.drained_usec = usec;
  return true;
}

std::string checkpoint_rank_dir(int rank) {
  return "ck/r" + std::to_string(rank);
}

CheckpointManager::CheckpointManager(storage::StorageSystem* fs, int node, int rank,
                                     CkptOptions opts, int io_concurrency, int ppn)
    : fs_(fs), node_(node), rank_(rank), opts_(opts), conc_(io_concurrency),
      ppn_(ppn > 0 ? ppn : 1), copier_(fs, node, io_concurrency) {
  if (!opts_.enabled) return;
  // Continue the file sequence after any earlier incarnation of this rank
  // (checkpoint/restart resubmits the whole job): the chains on disk are
  // append-only, and reusing a sequence number would overwrite an older
  // delta segment in place — recovery would then see the chain's maximum
  // position but miss the records the clobbered segment carried.
  const std::string rank_dir = checkpoint_rank_dir(rank_);
  for (storage::Tier tier : {storage::Tier::kLocal, storage::Tier::kShared}) {
    std::vector<std::string> names;
    if (!fs_->list_dir(tier, node_, rank_dir, names).ok()) continue;
    for (const std::string& n : names) {
      CkptFileName p;
      if (parse_checkpoint_name(n, p) && p.seq >= next_seq_) next_seq_ = p.seq + 1;
    }
  }
}

void CheckpointManager::charge_write(simmpi::Comm& comm, double seconds) {
  comm.compute(seconds);
  write_seconds_ += seconds;
}

Status CheckpointManager::write_ckpt(simmpi::Comm& comm, double t0,
                                     const std::string& name,
                                     uint64_t framed_size,
                                     const WriteOnce& write_once,
                                     const Bytes* whole_frame,
                                     mr::SpillableKvBuffer* pages) {
  // Framing + CRC are free in virtual time (CPU is not modeled for them);
  // a zero-duration span still marks every frame event on the timeline.
  if (trace_) trace_->span("ckpt.frame", "ckpt", t0, comm.now());
  count_++;
  bytes_written_ += framed_size;

  storage::Tier tier = storage::Tier::kLocal;
  std::string path = checkpoint_rank_dir(rank_) + "/" + name;
  int concurrency = 1;
  switch (opts_.location) {
    case CkptOptions::Location::kSharedDirect:
      // The inferior baseline: every (small) checkpoint pays a shared-
      // storage op, with full contention.
      tier = storage::Tier::kShared;
      path = drain_stamped(path, comm.now());
      concurrency = conc_;
      break;
    case CkptOptions::Location::kLocalOnly:
    case CkptOptions::Location::kLocalWithCopier:
      break;
  }

  // Checkpoint writes are best-effort: a write that still fails after the
  // retry budget costs future recovery work (that delta is simply not
  // durable), never correctness, so it is counted and dropped rather than
  // failing the job — the whole point of this layer is surviving faulty
  // checkpoint I/O. Each attempt rewrites the file from scratch.
  Status s;
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    s = write_once(tier, path, concurrency);
    // Stop on success or on a non-transient error: retrying cannot help,
    // and dropping a kFailedPrecondition would hide a misconfiguration
    // (e.g. local placement on a cluster with no local disks).
    if (s.ok() || s.code() == ErrorCode::kFailedPrecondition ||
        s.code() == ErrorCode::kInvalidArgument) {
      break;
    }
    if (attempt < retry_.max_attempts) {
      charge_write(comm, retry_.backoff_before(attempt));
      integ_.io_retries++;
      if (trace_) trace_->instant("ckpt.retry", "ckpt", comm.now());
      metrics::MetricsRegistry::global().add("ckpt.io_retries", rank_);
    }
  }
  Status result = Status::Ok();
  if (s.code() == ErrorCode::kFailedPrecondition) {
    result = s;
  } else if (!s.ok()) {
    // The last attempt may have left a torn file; recovery would count it
    // as corruption, but this checkpoint was simply never written.
    (void)fs_->remove(tier, node_, path);
    integ_.ckpt_write_failures++;
    FTMR_WARN << "rank " << rank_ << " dropped checkpoint " << name << ": "
              << s.to_string();
  } else if (opts_.location == CkptOptions::Location::kLocalWithCopier) {
    result = drain_to_shared(comm, path);
  }
  // Spill I/O incurred re-loading pages for a stream elapses on the
  // writer's clock here, at the checkpoint boundary.
  if (pages) comm.compute(pages->take_io_seconds());
  if (trace_) trace_->span("ckpt.write", "ckpt", t0, comm.now());
  metrics::MetricsRegistry::global().add("ckpt.writes", rank_);
  metrics::MetricsRegistry::global().add("ckpt.bytes_written", rank_,
                                         static_cast<double>(framed_size));
  // Only a frame already whole in memory is replicated: a full in-RAM
  // replica of a streamed (out-of-core) partition would re-buy exactly the
  // residency the spill budget gave up, so those recover from files only.
  if (result.ok() && whole_frame) replicate(comm, name, *whole_frame);
  return result;
}

Status CheckpointManager::put(simmpi::Comm& comm, const std::string& name,
                              const Bytes& payload) {
  const double t0 = comm.now();
  const Bytes framed = frame_checkpoint(payload);
  return write_ckpt(
      comm, t0, name, framed.size(),
      [&](storage::Tier tier, const std::string& path, int concurrency) {
        double cost = 0.0;
        Status s = fs_->write_file(tier, node_, path, framed, &cost, concurrency);
        if (s.ok()) charge_write(comm, cost);
        return s;
      },
      &framed, nullptr);
}

std::vector<int> CheckpointManager::live_ranks(const simmpi::Comm& comm) {
  std::vector<int> live;
  live.reserve(static_cast<size_t>(comm.size()));
  for (int rel = 0; rel < comm.size(); ++rel) {
    live.push_back(comm.global_of_rel(rel));
  }
  std::sort(live.begin(), live.end());
  return live;
}

int CheckpointManager::push_replicas(simmpi::Comm& comm, int owner,
                                     const std::vector<int>& live,
                                     const std::string& mpath,
                                     const Bytes& framed,
                                     const std::vector<int>& holders) {
  storage::ReplicaStore& mem = fs_->memory();
  int pushed = 0;
  for (int tgt : storage::replica_placement(owner, opts_.memory_replication_k,
                                            live, ppn_)) {
    if (std::find(holders.begin(), holders.end(), tgt) != holders.end()) {
      continue;  // already replicated there
    }
    // The rma handshake charges the wire and verifies the target lives
    // (a dead target surfaces kProcFailed through the errhandler, exactly
    // like a send); the deposit itself can still lose a razor-thin race
    // with the target's death — the store's dead-mark turns that into a
    // counted lost push instead of a ghost replica.
    const int rel = comm.rel_of_global(tgt);
    if (rel >= 0 && comm.rma_put(rel, framed.size()).ok() &&
        mem.put(tgt, mpath, framed, nullptr).ok()) {
      pushed++;
      continue;
    }
    integ_.replica_push_failures++;
    metrics::MetricsRegistry::global().add("ckpt.replica_push_failures", rank_);
  }
  return pushed;
}

void CheckpointManager::replicate(simmpi::Comm& comm, const std::string& name,
                                  const Bytes& framed) {
  if (opts_.memory_replication_k <= 0) return;
  const double t0 = comm.now();
  const int pushed =
      push_replicas(comm, rank_, live_ranks(comm),
                    checkpoint_rank_dir(rank_) + "/" + name, framed, {});
  if (pushed > 0) {
    metrics::MetricsRegistry::global().add("ckpt.replica_pushes", rank_,
                                           static_cast<double>(pushed));
    metrics::MetricsRegistry::global().add(
        "ckpt.replica_bytes", rank_,
        static_cast<double>(pushed) * static_cast<double>(framed.size()));
  }
  // The span's op stamp marks the replication window on the timeline, so
  // the fault explorer harvests kill candidates inside it.
  if (trace_) trace_->span("ckpt.replica_push", "ckpt", t0, comm.now());
}

Status CheckpointManager::drain_to_shared(simmpi::Comm& comm,
                                          const std::string& probe) {
  double done_at = 0.0;
  // The copier drains in the background (its own virtual timeline); the
  // shared copy is stamped with its drain-completion time.
  if (auto s = copier_.enqueue(probe, probe, comm.now(), &done_at); !s.ok()) {
    // Permanently failed drain: reported by the copier, counted here. The
    // local copy exists, so restart-on-same-node still works.
    integ_.drain_failures++;
    FTMR_WARN << "rank " << rank_ << " drain failed for " << probe << ": "
              << s.to_string();
    return Status::Ok();
  }
  // Stamp the drained copy by renaming it. If the rename fails the
  // unstamped probe remains readable, so this too degrades instead of
  // failing the job.
  if (!fs_->rename(storage::Tier::kShared, node_, probe,
                   drain_stamped(probe, done_at))
           .ok()) {
    integ_.drain_failures++;
  }
  return Status::Ok();
}

Status CheckpointManager::map_ckpt(simmpi::Comm& comm, int stage, uint64_t task,
                                   uint64_t start, uint64_t pos,
                                   const mr::KvBuffer& delta) {
  if (!opts_.enabled) return Status::Ok();
  const int seq = next_seq_++;
  ByteWriter w;
  w.put<uint64_t>(task);
  w.put<uint64_t>(start);
  w.put<uint64_t>(pos);
  w.put_blob(delta.wire_view());
  return put(comm, base_name(kMap, stage, task, seq), std::move(w).take());
}

Status CheckpointManager::partition_ckpt(simmpi::Comm& comm, int stage,
                                         int partition,
                                         mr::SpillableKvBuffer& kv) {
  if (!opts_.enabled) return Status::Ok();
  const int seq = next_seq_++;
  const std::string name =
      base_name(kPart, stage, static_cast<uint64_t>(partition), seq);
  if (!kv.can_spill()) {
    // An in-memory store is framed whole: one put(), replicas included.
    Bytes payload;
    payload.reserve(sizeof(int32_t) + sizeof(uint32_t) + mr::kCountHeaderBytes +
                    kv.bytes());
    ByteWriter w(std::move(payload));
    put_partition_prefix(w, partition, kv);
    if (auto s = kv.for_each_page([&w](const mr::KvBuffer& page) {
          w.put_bytes(page.wire_view().subspan(mr::kCountHeaderBytes));
          return Status::Ok();
        });
        !s.ok()) {
      return s;
    }
    return put(comm, name, std::move(w).take());
  }

  // A spill-backed store is streamed. Frame prefix: header + payload fields
  // up to the KV wire body, built once. The resulting file is byte-identical
  // to frame_checkpoint() over the in-memory payload, but the record bytes
  // are appended one page at a time, so the partition is never whole in
  // memory.
  const double t0 = comm.now();
  const uint64_t payload_len = sizeof(int32_t) + sizeof(uint32_t) +
                               mr::kCountHeaderBytes + kv.bytes();
  const uint64_t framed_size = kCkptFrameOverhead + payload_len;
  ByteWriter w;
  w.put<uint32_t>(kCkptMagic);
  w.put<uint16_t>(kCkptVersion);
  w.put<uint16_t>(0);  // reserved
  w.put<uint64_t>(payload_len);
  put_partition_prefix(w, partition, kv);
  const Bytes prefix = std::move(w).take();

  // One streaming pass: prefix, then each page's wire body (spilled pages
  // load one at a time and stay intact in their spill segment), then the CRC
  // trailer accumulated across everything written. Appends cannot be
  // rewound, so each attempt first removes what an earlier one left. A
  // final size probe catches torn appends — a stream that raced a storage
  // fault mid-page would otherwise leave a plausible-length file that only
  // recovery-time CRC checking could reject.
  auto stream_once = [&](storage::Tier tier, const std::string& path,
                         int concurrency) -> Status {
    (void)fs_->remove(tier, node_, path);
    auto write_part = [&](std::span<const std::byte> bytes, bool create) {
      double cost = 0.0;
      Status s =
          create ? fs_->write_file(tier, node_, path, bytes, &cost, concurrency)
                 : fs_->append_file(tier, node_, path, bytes, &cost, concurrency);
      if (s.ok()) charge_write(comm, cost);
      return s;
    };
    uint32_t crc = crc32_update(crc32_init(), prefix);
    if (auto s = write_part(prefix, true); !s.ok()) return s;
    const size_t npages = kv.page_count();
    mr::KvBuffer page;
    for (size_t i = 0; i < npages; ++i) {
      if (auto s = kv.read_page(i, page); !s.ok()) return s;
      const auto body = page.wire_view().subspan(mr::kCountHeaderBytes);
      crc = crc32_update(crc, body);
      if (auto s = write_part(body, false); !s.ok()) return s;
    }
    ByteWriter tw;
    tw.put<uint32_t>(crc32_final(crc));
    if (auto s = write_part(std::move(tw).take(), false); !s.ok()) return s;
    const int64_t sz = fs_->file_size(tier, node_, path);
    if (sz < 0 || static_cast<uint64_t>(sz) != framed_size) {
      return {ErrorCode::kCorrupt, "paged ckpt: torn stream on " + path};
    }
    return Status::Ok();
  };
  return write_ckpt(comm, t0, name, framed_size, stream_once, nullptr, &kv);
}

Status CheckpointManager::reduce_ckpt(simmpi::Comm& comm, int stage, int partition,
                                      uint64_t start, uint64_t entries_done,
                                      const mr::KvBuffer& out_delta) {
  if (!opts_.enabled) return Status::Ok();
  const int seq = next_seq_++;
  ByteWriter w;
  w.put<int32_t>(partition);
  w.put<uint64_t>(start);
  w.put<uint64_t>(entries_done);
  w.put_blob(out_delta.wire_view());
  return put(comm, base_name(kRed, stage, static_cast<uint64_t>(partition), seq),
             std::move(w).take());
}

Status CheckpointManager::stage_output_ckpt(simmpi::Comm& comm, int stage,
                                            int partition, const mr::KvBuffer& out) {
  if (!opts_.enabled) return Status::Ok();
  const int seq = next_seq_++;
  ByteWriter w;
  w.put<int32_t>(partition);
  w.put_blob(out.wire_view());
  return put(comm, base_name(kOut, stage, static_cast<uint64_t>(partition), seq),
             std::move(w).take());
}

void CheckpointManager::drain(simmpi::Comm& comm) {
  if (!opts_.enabled || opts_.location != CkptOptions::Location::kLocalWithCopier) {
    return;
  }
  const double t0 = comm.now();
  const double wait = copier_.drain_wait(t0);
  if (wait > 0.0) {
    comm.compute(wait);
    metrics::MetricsRegistry::global().observe("copier.drain_wait_seconds", rank_,
                                               wait);
  }
  if (trace_) trace_->span("copier.drain_wait", "copier", t0, comm.now());
}

namespace {

/// Owner rank encoded in a memory-tier path "ck/r<owner>/<name>"; -1 if the
/// path is not a checkpoint rank directory.
int replica_path_owner(const std::string& path) {
  if (path.compare(0, 4, "ck/r") != 0) return -1;
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos || slash == 4) return -1;
  int owner = 0;
  for (size_t i = 4; i < slash; ++i) {
    if (path[i] < '0' || path[i] > '9') return -1;
    owner = owner * 10 + (path[i] - '0');
  }
  return owner;
}

}  // namespace

void CheckpointManager::pin_stage_memory(int stage) {
  if (stage >= released_below_) pinned_stages_.insert(stage);
}

int CheckpointManager::release_stage_memory(int keep_from_stage) {
  if (keep_from_stage <= released_below_) return 0;
  released_below_ = keep_from_stage;
  for (auto it = pinned_stages_.begin(); it != pinned_stages_.end();) {
    it = *it < keep_from_stage ? pinned_stages_.erase(it) : std::next(it);
  }
  if (!opts_.enabled || opts_.memory_replication_k <= 0 || fs_ == nullptr) {
    return 0;
  }
  // Drop every holder's copy of this rank's superseded-stage blobs. The
  // invalidation is a local metadata drop at each holder (piggybacked on
  // the next collective in a real system), so no wire time is charged.
  storage::ReplicaStore& mem = fs_->memory();
  const std::string prefix = checkpoint_rank_dir(rank_) + "/";
  int removed = 0;
  for (const std::string& mpath : mem.all_paths()) {
    if (mpath.compare(0, prefix.size(), prefix) != 0) continue;
    CkptFileName p;
    if (!parse_checkpoint_name(mpath.substr(prefix.size()), p)) continue;
    if (p.stage >= keep_from_stage) continue;
    for (int holder : mem.holders_of(mpath)) {
      mem.remove(holder, mpath);
      removed++;
    }
  }
  return removed;
}

Status CheckpointManager::rereplicate(simmpi::Comm& comm) {
  if (!opts_.enabled || opts_.memory_replication_k <= 0) return Status::Ok();
  const double t0 = comm.now();
  storage::ReplicaStore& mem = fs_->memory();
  const std::vector<int> live = live_ranks(comm);
  int healed = 0;

  // Pinned (converged-frontier) stages heal first in both passes: if repair
  // is interrupted by another failure, the resume frontier has already
  // regained coverage. Non-frontier blobs keep their harvest order.
  auto stage_pinned = [this](const std::string& name) {
    CkptFileName p;
    return parse_checkpoint_name(name, p) && pinned_stages_.count(p.stage) > 0;
  };
  auto pinned_first = [&](std::vector<std::string>& items, bool full_path) {
    std::stable_sort(items.begin(), items.end(),
                     [&](const std::string& a, const std::string& b) {
                       auto pinned = [&](const std::string& s) {
                         return stage_pinned(
                             full_path ? s.substr(s.rfind('/') + 1) : s);
                       };
                       return pinned(a) && !pinned(b);
                     });
  };

  // Pass 1: blobs still held somewhere but under-replicated after the
  // shrink. Every survivor derives the identical placement from the
  // identical live set, and exactly one (the lowest-ranked live holder)
  // pushes — puts are idempotent, so even a double push would be harmless.
  std::vector<std::string> held = mem.all_paths();
  pinned_first(held, true);
  for (const std::string& mpath : held) {
    const int owner = replica_path_owner(mpath);
    if (owner < 0) continue;
    const std::vector<int> holders = mem.holders_of(mpath);
    if (holders.empty() || holders.front() != rank_) continue;
    Bytes framed;
    if (!mem.get(rank_, mpath, framed, nullptr).ok()) continue;
    comm.compute(mem.cost_of(framed.size(), 1));
    healed += push_replicas(comm, owner, live, mpath, framed, holders);
  }

  // Pass 2: blobs whose replicas all died. A surviving owner re-pushes
  // from its own checkpoint files, CRC-verified first so a torn or rotten
  // file never becomes a plausible-looking replica. (A *dead* owner's
  // blobs are not re-pushed: its state was already absorbed by the WC
  // recovery load, and future checkpoints belong to the new owners.)
  const std::string rank_dir = checkpoint_rank_dir(rank_);
  const bool use_local =
      opts_.location != CkptOptions::Location::kSharedDirect &&
      fs_->options().has_local_disk;
  const storage::Tier tier =
      use_local ? storage::Tier::kLocal : storage::Tier::kShared;
  std::vector<std::string> names;
  (void)fs_->list_dir(tier, node_, rank_dir, names);
  pinned_first(names, false);
  for (const std::string& n : names) {
    CkptFileName p;
    if (!parse_checkpoint_name(n, p)) continue;
    // Released (superseded-round) stages keep their files but have no
    // memory-tier claim — resurrecting them would undo the release.
    if (p.stage < released_below_) continue;
    const std::string mpath = rank_dir + "/" + strip_drain_stamp(n);
    if (!mem.holders_of(mpath).empty()) continue;  // pass 1 territory
    Bytes raw;
    double cost = 0.0;
    if (!fs_->read_file(tier, node_, rank_dir + "/" + n, raw, &cost,
                        use_local ? 1 : conc_)
             .ok()) {
      continue;
    }
    comm.compute(cost);
    Bytes payload;
    if (!unframe_checkpoint(raw, payload).ok()) continue;
    healed += push_replicas(comm, rank_, live, mpath, raw, {});
  }

  if (healed > 0) {
    integ_.rereplications += healed;
    metrics::MetricsRegistry::global().add("ckpt.rereplications", rank_,
                                           static_cast<double>(healed));
  }
  if (trace_) trace_->span("ckpt.rereplicate", "ckpt", t0, comm.now());
  return Status::Ok();
}

std::set<int> CheckpointManager::stages_present(int src_rank, int src_node,
                                                bool from_shared) const {
  const std::string rank_dir = checkpoint_rank_dir(src_rank);
  const storage::Tier tier =
      from_shared ? storage::Tier::kShared : storage::Tier::kLocal;
  std::vector<std::string> names;
  std::set<int> stages;
  if (!fs_->list_dir(tier, src_node, rank_dir, names).ok()) return stages;
  for (const std::string& n : names) {
    CkptFileName p;
    if (parse_checkpoint_name(n, p)) stages.insert(p.stage);
  }
  return stages;
}

Status CheckpointManager::read_verified(simmpi::Comm& comm, storage::Tier tier,
                                        int src_node, const std::string& rank_dir,
                                        const std::string& name,
                                        storage::Prefetcher* prefetch,
                                        size_t prefetch_index,
                                        std::vector<std::string>* other_tier_listing,
                                        Bytes& payload, RankRecovery& out) {
  const bool from_shared = (tier == storage::Tier::kShared);
  const std::string path = rank_dir + "/" + name;
  const std::string base = strip_drain_stamp(name);
  const double t0 = comm.now();
  Status last;

  // Every fetched copy, from any rung, is CRC-verified and counted the same
  // way: read on success, corrupt (the ladder moves on) on failure.
  auto verify = [&](const Bytes& raw) -> Status {
    const double v0 = comm.now();
    Status v = unframe_checkpoint(raw, payload);
    if (trace_) trace_->span("ckpt.crc", "ckpt", v0, comm.now());
    if (v.ok()) {
      out.files_read++;
      out.bytes_read += raw.size();
    } else {
      integ_.corrupt_frames++;
      out.corrupt_frames++;
      if (trace_) trace_->instant("ckpt.corrupt", "ckpt", comm.now());
      metrics::MetricsRegistry::global().add("ckpt.corrupt_frames", rank_);
    }
    return v;
  };

  // 0) Memory tier: a surviving replica of the blob in some peer's RAM is
  //    the fastest source by orders of magnitude (wire vs shared-fs
  //    contention), so it is tried before any file I/O. Replicas are keyed
  //    by base name. A corrupt replica falls to the next holder, and an
  //    exhausted holder list falls down the file ladder (counted as a miss)
  //    — the memory tier can only shortcut recovery, never lose to it.
  if (opts_.memory_replication_k > 0) {
    const std::string mpath = rank_dir + "/" + base;
    storage::ReplicaStore& mem = fs_->memory();
    for (int holder : mem.holders_of(mpath)) {
      Bytes raw;
      if (!mem.get(holder, mpath, raw, nullptr).ok()) continue;
      if (holder == rank_) {
        // The replica sits in this process's own memory: no wire.
        comm.compute(mem.cost_of(raw.size(), 1));
      } else {
        const int rel = comm.rel_of_global(holder);
        if (rel < 0) continue;
        if (auto s = comm.rma_get(rel, raw.size()); !s.ok()) continue;
      }
      if (verify(raw).ok()) {
        integ_.replica_hits++;
        if (trace_) {
          trace_->span("ckpt.replica_fetch", "ckpt", t0, comm.now());
          trace_->span("ckpt.read", "ckpt", t0, comm.now());
        }
        metrics::MetricsRegistry::global().add("ckpt.replica_hits", rank_);
        metrics::MetricsRegistry::global().add(
            "ckpt.replica_read_bytes", rank_, static_cast<double>(raw.size()));
        return Status::Ok();
      }
    }
    integ_.replica_misses++;
    metrics::MetricsRegistry::global().add("ckpt.replica_misses", rank_);
  }

  // 1) Primary tier, with bounded retry. A retry redraws both transient
  //    read failures and transient corrupt-on-read; the backoff elapses on
  //    the reader's virtual clock. Attempt 1 may come from the prefetch
  //    pipeline; later attempts bypass it (its staged copy may be the
  //    corrupt one).
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    Bytes raw;
    double cost = 0.0;
    Status s = (prefetch && attempt == 1)
                   ? prefetch->read(prefetch_index, comm.now(), raw, &cost)
                   : fs_->read_file(tier, src_node, path, raw, &cost,
                                    from_shared ? conc_ : 1);
    if (s.ok()) {
      comm.compute(cost);
      last = verify(raw);
      if (last.ok()) {
        if (trace_) trace_->span("ckpt.read", "ckpt", t0, comm.now());
        return Status::Ok();
      }
    } else {
      last = s;
      if (s.code() == ErrorCode::kNotFound) break;  // waiting will not help
    }
    if (attempt < retry_.max_attempts) {
      comm.compute(retry_.backoff_before(attempt));
      integ_.io_retries++;
      if (trace_) trace_->instant("ckpt.retry", "ckpt", comm.now());
      metrics::MetricsRegistry::global().add("ckpt.io_retries", rank_);
    }
  }

  // 2) The other tier's replica. Reading shared (detect/resume): a process
  //    crash leaves the dead rank's node-local file intact under the base
  //    name. Reading local (restart): the drained shared copy carries a
  //    stamp suffix — search the shared listing for it.
  Bytes raw;
  double cost = 0.0;
  Status fb;
  if (from_shared) {
    fb = fs_->read_file(storage::Tier::kLocal, src_node, rank_dir + "/" + base,
                        raw, &cost, 1);
  } else {
    if (other_tier_listing->empty()) {
      (void)fs_->list_dir(storage::Tier::kShared, src_node, rank_dir,
                          *other_tier_listing);
    }
    const auto found =
        std::find_if(other_tier_listing->begin(), other_tier_listing->end(),
                     [&](const std::string& cand) {
                       return strip_drain_stamp(cand) == name;
                     });
    fb = found == other_tier_listing->end()
             ? Status{ErrorCode::kNotFound, "no shared replica of " + path}
             : fs_->read_file(storage::Tier::kShared, src_node,
                              rank_dir + "/" + *found, raw, &cost, conc_);
  }
  if (fb.ok()) {
    comm.compute(cost);
    const Status v = verify(raw);
    if (v.ok()) {
      integ_.tier_fallbacks++;
      out.tier_fallbacks++;
      if (trace_) {
        trace_->instant("ckpt.tier_fallback", "ckpt", comm.now());
        trace_->span("ckpt.read", "ckpt", t0, comm.now());
      }
      metrics::MetricsRegistry::global().add("ckpt.tier_fallbacks", rank_);
      return Status::Ok();
    }
    last = v;
  } else if (!last.ok() && last.code() == ErrorCode::kNotFound) {
    last = fb;
  }

  // 3) Quarantine: no valid replica anywhere. The caller skips this file
  //    (bounded work lost, reprocessed from input) instead of aborting.
  integ_.files_quarantined++;
  out.quarantined++;
  if (trace_) {
    trace_->instant("ckpt.quarantine", "ckpt", comm.now());
    trace_->span("ckpt.read", "ckpt", t0, comm.now());
  }
  metrics::MetricsRegistry::global().add("ckpt.files_quarantined", rank_);
  FTMR_WARN << "rank " << rank_ << " quarantined checkpoint " << path << ": "
            << last.to_string();
  return {ErrorCode::kCorrupt, "no valid replica of " + path};
}

Status CheckpointManager::load_rank_stage(simmpi::Comm& comm, int stage,
                                          int src_rank, int src_node,
                                          bool from_shared, double horizon,
                                          RankRecovery& out,
                                          const LoadFilter& filter) {
  const std::string rank_dir = checkpoint_rank_dir(src_rank);
  const storage::Tier tier =
      from_shared ? storage::Tier::kShared : storage::Tier::kLocal;
  std::vector<std::string> names;
  if (auto s = fs_->list_dir(tier, src_node, rank_dir, names); !s.ok()) return s;

  // Union in blobs the memory tier holds that the file listing misses:
  // an undrained delta lost to the horizon (or dropped by a faulty write)
  // can still be served from a peer's RAM. Memory names carry no drain
  // stamp, so they bypass the horizon filter below by construction — the
  // replica was durable in a survivor's memory the moment the owner's
  // rma push completed, which is exactly the tail the file tiers lose.
  if (opts_.memory_replication_k > 0) {
    std::set<std::string> have;
    for (const std::string& n : names) have.insert(strip_drain_stamp(n));
    const std::string prefix = rank_dir + "/";
    for (const std::string& p : fs_->memory().all_paths()) {
      if (p.size() <= prefix.size() || p.compare(0, prefix.size(), prefix) != 0) {
        continue;
      }
      std::string base = p.substr(prefix.size());
      if (have.insert(base).second) names.push_back(std::move(base));
    }
  }

  // Sorted names give sequence order per (kind, id). Filter to this stage,
  // to the caller's assigned tasks/partitions, and (for shared reads) to
  // checkpoints drained before the horizon.
  std::vector<std::pair<CkptFileName, std::string>> files;
  for (const std::string& n : names) {
    CkptFileName p;
    if (!parse_checkpoint_name(n, p)) continue;
    if (p.stage != stage) continue;
    if (from_shared && horizon >= 0.0 &&
        p.drained_usec > static_cast<int64_t>(horizon * 1e6)) {
      continue;  // this checkpoint had not finished draining — lost
    }
    if (p.kind == kMap && filter.tasks && !filter.tasks->count(p.id)) continue;
    if (p.kind != kMap && filter.partitions &&
        !filter.partitions->count(static_cast<int>(p.id))) {
      continue;
    }
    files.emplace_back(std::move(p), n);
  }
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.kind, a.first.id, a.first.seq) <
           std::tie(b.first.kind, b.first.id, b.first.seq);
  });

  // Optional prefetch staging for shared reads (Sec. 5.1): the reads below
  // then hit the local disk, stalling only when they outrun the pipeline.
  std::unique_ptr<storage::Prefetcher> prefetch;
  if (from_shared && opts_.prefetch_recovery && !files.empty()) {
    prefetch = std::make_unique<storage::Prefetcher>(fs_, node_, conc_);
    prefetch->set_trace(trace_);
    std::vector<std::string> paths;
    paths.reserve(files.size());
    for (const auto& [p, n] : files) paths.push_back(rank_dir + "/" + n);
    if (auto s = prefetch->start(paths, "prefetch/r" + std::to_string(src_rank),
                                 comm.now());
        !s.ok()) {
      return s;
    }
  }

  // Files are applied in (kind, id, seq) order. Delta chains (map, red)
  // must be replayed from a contiguous prefix: once one sequence element is
  // quarantined, every later delta of that (kind, id) would merge onto an
  // inconsistent base, so the chain is poisoned from that point on. The
  // verified prefix already applied stays usable; the tail is bounded work
  // the recovery engine reprocesses from input. Snapshot kinds (part, out)
  // replace: the newest segment that verifies wins (a re-executed shuffle
  // or stage rewrites its snapshot under a fresh sequence number). A red
  // delta older than the applied partition snapshot reduced a superseded
  // shuffle's content and is dropped — merging it would double-count; the
  // kind sort order ("part" < "red") guarantees the snapshot's sequence
  // number is known before its reduce chain is replayed.
  std::vector<std::string> other_listing;  // lazy shared listing for fallback
  std::set<std::pair<std::string, uint64_t>> poisoned;
  std::map<int, int> part_seq_applied;  // partition -> seq of adopted snapshot
  for (size_t i = 0; i < files.size(); ++i) {
    const auto& [p, n] = files[i];
    if (poisoned.count({p.kind, p.id})) continue;
    Bytes data;
    if (auto s = read_verified(comm, tier, src_node, rank_dir, n, prefetch.get(),
                               i, &other_listing, data, out);
        !s.ok()) {
      if (p.kind == kMap || p.kind == kRed) poisoned.insert({p.kind, p.id});
      continue;
    }

    // Decode only mutates `out` after every field of the payload has been
    // read successfully, so a decode failure never leaves a partial merge.
    const auto decode = [&]() -> Status {
      ByteReader r(data);
      if (p.kind == kMap) {
        uint64_t task = 0, start = 0, pos = 0;
        Bytes blob;
        if (auto s = r.get(task); !s.ok()) return s;
        if (auto s = r.get(start); !s.ok()) return s;
        if (auto s = r.get(pos); !s.ok()) return s;
        if (auto s = r.get_blob(blob); !s.ok()) return s;
        mr::KvBuffer delta;
        if (auto s = delta.adopt(std::move(blob)); !s.ok()) return s;
        auto& mt = out.map_tasks[task];
        if (!extend_chain(start, pos, delta, mt.pos, mt.kv)) {
          poisoned.insert({p.kind, p.id});
        }
      } else if (p.kind == kPart) {
        int32_t part = 0;
        Bytes blob;
        if (auto s = r.get(part); !s.ok()) return s;
        if (auto s = r.get_blob(blob); !s.ok()) return s;
        mr::KvBuffer kv;
        if (auto s = kv.adopt(std::move(blob)); !s.ok()) return s;
        out.partitions[part] = std::move(kv);  // snapshot: newest wins
        part_seq_applied[part] = p.seq;
      } else if (p.kind == kRed) {
        int32_t part = 0;
        uint64_t start = 0, done = 0;
        Bytes blob;
        if (auto s = r.get(part); !s.ok()) return s;
        if (auto s = r.get(start); !s.ok()) return s;
        if (auto s = r.get(done); !s.ok()) return s;
        if (auto s = r.get_blob(blob); !s.ok()) return s;
        auto psit = part_seq_applied.find(part);
        if (psit != part_seq_applied.end() && p.seq < psit->second) {
          return Status::Ok();  // reduced a superseded shuffle: stale
        }
        mr::KvBuffer delta;
        if (auto s = delta.adopt(std::move(blob)); !s.ok()) return s;
        auto& rr = out.reduce[part];
        if (!extend_chain(start, done, delta, rr.entries_done, rr.out)) {
          poisoned.insert({p.kind, p.id});
        }
      } else if (p.kind == kOut) {
        int32_t part = 0;
        Bytes blob;
        if (auto s = r.get(part); !s.ok()) return s;
        if (auto s = r.get_blob(blob); !s.ok()) return s;
        mr::KvBuffer kv;
        if (auto s = kv.adopt(std::move(blob)); !s.ok()) return s;
        out.stage_outputs[part] = std::move(kv);  // snapshot: newest wins
      }
      return Status::Ok();
    };
    if (auto s = decode(); !s.ok()) {
      // Passed CRC but would not decode (stale layout, format bug): treat
      // exactly like a corrupt file — quarantine and skip, never abort.
      integ_.files_quarantined++;
      out.quarantined++;
      if (p.kind == kMap || p.kind == kRed) poisoned.insert({p.kind, p.id});
      FTMR_WARN << "rank " << rank_ << " quarantined undecodable checkpoint "
                << rank_dir << "/" << n << ": " << s.to_string();
      continue;
    }
  }
  return Status::Ok();
}

}  // namespace ftmr::core
