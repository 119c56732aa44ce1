// storage.hpp — the simulated HPC storage hierarchy.
//
// The paper's cluster has two tiers (Sec. 4.1.3):
//   * node-local SATA disks — private, cheap ops, survive a *process* crash
//     (the node keeps running; only the MPI process died);
//   * a shared parallel file system (GPFS) — globally visible, optimized for
//     large I/O, and a scalability bottleneck beyond ~256 concurrent
//     writers (the Fig. 5 observation).
//
// This module stores real files in a sandbox directory (correctness: the
// checkpoint/recovery code manipulates actual bytes) while *costing* every
// operation with a tier model (latency per op + per-byte bandwidth + an
// aggregate-bandwidth contention term for the shared tier). Costs are
// returned to the caller, which charges them to its rank's virtual clock.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"

namespace ftmr::storage {

class ReplicaStore;  // replica.hpp — the kMemory tier's backing object

/// kMemory is the diskless replication tier (replica.hpp): checkpoint blobs
/// k-replicated into peer ranks' RAM. It is not file-backed — the file-path
/// StorageSystem operations reject it; access it via StorageSystem::memory().
enum class Tier { kLocal, kShared, kMemory };

/// Cost model of one storage tier.
struct TierModel {
  double op_latency_s = 0.0;            // fixed cost per I/O operation
  double bandwidth_Bps = 1.0e9;         // per-process streaming bandwidth
  /// Aggregate bandwidth across all concurrent writers; 0 = uncontended
  /// (local disks are private). Effective per-process bandwidth is
  /// min(bandwidth_Bps, aggregate_bandwidth_Bps / concurrency).
  double aggregate_bandwidth_Bps = 0.0;

  /// Simulated seconds for `ops` operations moving `bytes` bytes with
  /// `concurrency` processes hitting the tier simultaneously.
  [[nodiscard]] double cost(size_t bytes, int ops, int concurrency = 1) const noexcept {
    double bw = bandwidth_Bps;
    if (aggregate_bandwidth_Bps > 0.0 && concurrency > 0) {
      const double share = aggregate_bandwidth_Bps / static_cast<double>(concurrency);
      if (share < bw) bw = share;
    }
    return static_cast<double>(ops) * op_latency_s + static_cast<double>(bytes) / bw;
  }
};

/// Defaults calibrated to the paper's testbed: 250 GB SATA drives
/// (~100 MB/s, sub-ms ops) and a GPFS whose aggregate bandwidth saturates
/// once a few hundred processes write checkpoints concurrently.
struct StorageOptions {
  std::filesystem::path root;  // sandbox; created on demand
  TierModel local{5e-4, 1.0e8, 0.0};
  TierModel shared{2e-3, 4.0e8, 2.0e10};
  /// Memory tier: peer-RAM over the interconnect. Matches the simmpi
  /// NetworkModel defaults (2 us latency, 3.2 GB/s) so pure-model bench
  /// series agree with functional runs that charge wire time via rma ops.
  TierModel memory{2e-6, 3.2e9, 0.0};
  /// Some HPC clusters have no local disks (Sec. 4.1.3 drawback #1);
  /// setting this false makes kLocal operations fail with IO errors so the
  /// library's shared-storage-only fallback paths can be exercised.
  bool has_local_disk = true;
};

/// Byte/op counters per tier, for Fig. 7-style decompositions.
struct TierStats {
  size_t bytes_written = 0;
  size_t bytes_read = 0;
  int64_t write_ops = 0;
  int64_t read_ops = 0;
};

/// Per-tier fault probabilities for the storage fault injector. Each
/// operation draws independently from the injector's seeded RNG.
struct TierFaults {
  /// Write/append fails cleanly (kIo returned, nothing persisted).
  double p_write_fail = 0.0;
  /// Torn write: a random strict prefix of the data is persisted and the
  /// operation *reports success* — the failure mode of a process dying
  /// mid-write, detectable only by end-to-end verification (CRC framing).
  double p_torn_write = 0.0;
  /// Read fails cleanly with kIo (transient: a retry redraws).
  double p_read_fail = 0.0;
  /// Corrupt-on-read: one random bit of the returned buffer is flipped and
  /// the read reports success. Transient (the file on disk is untouched),
  /// modeling bus/media bit rot caught only by checksums.
  double p_corrupt_read = 0.0;
};

/// Seeded, deterministic storage fault injector configuration.
struct FaultInjectorConfig {
  uint64_t seed = 0x5eedULL;
  TierFaults local;
  TierFaults shared;
  TierFaults memory;  // replica-store faults (forwarded to ReplicaStore)
  /// If non-empty, only operations whose logical path contains this
  /// substring are eligible for injection (e.g. "ck/r2" to attack one
  /// rank's checkpoints while leaving job input/output pristine).
  std::string path_filter;
  /// File-tier faults to inject before the injector goes quiet (0 = no
  /// limit): `p_torn_write = 1` with `max_faults = 1` tears exactly the
  /// first matching write and lets its retry through.
  int64_t max_faults = 0;
};

/// Robustness counters: what the injector actually did. Benches and tests
/// assert on these the way they assert on TierStats.
struct FaultStats {
  int64_t write_failures = 0;   // clean injected write failures
  int64_t torn_writes = 0;      // silent prefix-only writes
  int64_t read_failures = 0;    // clean injected read failures
  int64_t corrupt_reads = 0;    // silent bit flips on read
  int64_t count_failures = 0;   // legacy inject_io_failures() consumptions
};

class StorageSystem {
 public:
  explicit StorageSystem(StorageOptions opts);
  ~StorageSystem();

  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  /// The in-memory replica tier (Tier::kMemory). File-path operations on
  /// kMemory fail with kInvalidArgument; this is the real interface.
  [[nodiscard]] ReplicaStore& memory() const noexcept { return *memory_; }

  /// Write (create/truncate) a file. `node` namespaces the local tier
  /// (each compute node has its own disk); ignored for kShared.
  /// On success `*sim_cost` (if non-null) is the modeled time.
  Status write_file(Tier tier, int node, std::string_view path,
                    std::span<const std::byte> data, double* sim_cost = nullptr,
                    int concurrency = 1);

  /// Append to a file (creating it if needed).
  Status append_file(Tier tier, int node, std::string_view path,
                     std::span<const std::byte> data, double* sim_cost = nullptr,
                     int concurrency = 1);

  Status read_file(Tier tier, int node, std::string_view path, Bytes& out,
                   double* sim_cost = nullptr, int concurrency = 1);

  /// Read the `len` bytes at `offset` of a file: one operation with
  /// read_file's fault draws, stats booking and cost model, over `len`
  /// bytes. A file that ends before offset + len is a kIo short read.
  Status read_range(Tier tier, int node, std::string_view path,
                    uint64_t offset, uint64_t len, Bytes& out,
                    double* sim_cost = nullptr, int concurrency = 1);

  [[nodiscard]] bool exists(Tier tier, int node, std::string_view path) const;
  [[nodiscard]] int64_t file_size(Tier tier, int node, std::string_view path) const;

  Status remove(Tier tier, int node, std::string_view path);
  /// Rename a file within one tier (replacing `to`; its directory must
  /// exist). Metadata only: no bytes move, so no cost, stats or fault
  /// draws.
  Status rename(Tier tier, int node, std::string_view from,
                std::string_view to);
  /// Recursively list file paths (relative) under a logical directory.
  Status list_dir(Tier tier, int node, std::string_view dir,
                  std::vector<std::string>& names) const;

  /// Copy a file across tiers (the copier/prefetcher primitive). The cost
  /// is read(src tier) + write(dst tier).
  Status copy(Tier src_tier, int src_node, std::string_view src_path,
              Tier dst_tier, int dst_node, std::string_view dst_path,
              double* sim_cost = nullptr, int concurrency = 1);

  /// Model a node crash: node-local files are lost. (A plain process crash
  /// leaves them intact; the checkpoint/restart model depends on that.)
  void wipe_node_local(int node);

  /// Pure cost query (no I/O): used by components that batch real I/O but
  /// charge modeled time per logical operation.
  [[nodiscard]] double cost_of(Tier tier, size_t bytes, int ops,
                               int concurrency = 1) const noexcept;

  [[nodiscard]] TierStats stats(Tier tier) const;
  [[nodiscard]] const StorageOptions& options() const noexcept { return opts_; }

  /// Deterministic fault injection: after `pass_first` more read/write/
  /// append operations succeed, the next `count` ones fail with `error`.
  /// Kept for tests that need an exact failure (e.g. "the first read
  /// fails, the retry succeeds", or "the second page's reads fail"); the
  /// probabilistic injector below is the general mechanism.
  void inject_io_failures(int count,
                          Status error = {ErrorCode::kIo, "injected I/O failure"},
                          int pass_first = 0);

  /// Arm the seeded probabilistic fault injector (torn writes, bit flips,
  /// clean failures; per tier, optionally path-filtered). Replaces any
  /// previous configuration; fault statistics keep accumulating.
  void set_fault_injector(FaultInjectorConfig cfg);
  /// Disarm the probabilistic injector (stats are retained).
  void clear_fault_injector();
  [[nodiscard]] FaultStats fault_stats() const;

  /// Filesystem location of a logical path (for tests/debugging).
  [[nodiscard]] std::filesystem::path real_path(Tier tier, int node,
                                                std::string_view path) const;

 private:
  Status check_tier(Tier tier) const;

  /// read_file / read_range: the whole file when `len` is empty.
  Status read_impl(Tier tier, int node, std::string_view path, uint64_t offset,
                   std::optional<uint64_t> len, Bytes& out, double* sim_cost,
                   int concurrency);

  /// Consume one injected failure if armed (returns it), else OK.
  Status take_injected_failure() FTMR_EXCLUDES(stats_mu_);

  /// Whether the armed injector may fault an operation on `path`.
  bool injector_eligible(std::string_view path) const
      FTMR_REQUIRES(stats_mu_);
  /// Injector decision for one operation (locks stats_mu_ internally).
  enum class WriteFault { kNone, kFail, kTorn };
  enum class ReadFault { kNone, kFail, kCorrupt };
  WriteFault draw_write_fault(Tier tier, std::string_view path, size_t size,
                              size_t* torn_prefix) FTMR_EXCLUDES(stats_mu_);
  ReadFault draw_read_fault(Tier tier, std::string_view path)
      FTMR_EXCLUDES(stats_mu_);
  void corrupt_buffer(Bytes& buf) FTMR_EXCLUDES(stats_mu_);

  // `opts_` is immutable after construction; real file I/O is delegated to
  // the (thread-safe) filesystem. Everything mutable — counters and the
  // fault injector, which share one seeded RNG stream — lives under
  // stats_mu_, which rank threads and the stress tests hit concurrently.
  StorageOptions opts_;
  mutable Mutex stats_mu_{"storage.stats"};
  TierStats local_stats_ FTMR_GUARDED_BY(stats_mu_);
  TierStats shared_stats_ FTMR_GUARDED_BY(stats_mu_);
  int injected_failures_ FTMR_GUARDED_BY(stats_mu_) = 0;
  int injected_passes_ FTMR_GUARDED_BY(stats_mu_) = 0;
  Status injected_error_ FTMR_GUARDED_BY(stats_mu_);
  bool injector_armed_ FTMR_GUARDED_BY(stats_mu_) = false;
  FaultInjectorConfig injector_ FTMR_GUARDED_BY(stats_mu_);
  Rng injector_rng_ FTMR_GUARDED_BY(stats_mu_);
  int64_t injector_faults_ FTMR_GUARDED_BY(stats_mu_) = 0;  // since armed
  FaultStats fault_stats_ FTMR_GUARDED_BY(stats_mu_);
  // unique_ptr to a forward-declared type: replica.hpp includes this
  // header, so the concrete type is only visible in storage.cpp.
  std::unique_ptr<ReplicaStore> memory_;
};

/// RAII temp sandbox for tests/benches: creates a unique directory under
/// the system temp dir and removes it on destruction.
class TempDir {
 public:
  explicit TempDir(std::string_view prefix = "ftmr");
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace ftmr::storage
