// spill.hpp — out-of-core paged key-value / key-multivalue storage.
//
// MR-MPI's defining capability is processing intermediate data larger than
// memory: KV data lives in fixed-size pages, and pages beyond a memory
// budget spill to the node-local disk and stream back on iteration (the
// keyvalue.h paging design of the original library). The convert/merge
// costs the paper measures come from exactly these disk-resident pages, so
// the paging machinery is implemented and tested for real: pages genuinely
// round-trip through the storage layer, and the hot paths (FtJob's
// shuffle, convert_2pass_spill) stream them page by page instead of
// re-materializing the dataset.
//
// Page model. A buffer is an ordered list of closed pages — each either
// resident (an in-memory KvBuffer) or on disk (an extent of the buffer's
// spill segment whose header info, pair/byte counts, stays in memory) —
// plus one open page being filled. Pair order is the page order; spilling
// never reorders. The memory budget counts every resident byte *including
// the open page*; when (resident closed pages + open page) exceed the
// budget, the oldest resident page spills. Residency can exceed the budget
// only while a single page is itself larger than the budget (it spills as
// soon as it closes).
//
// Segment layout. Each buffer spills into one append-only file,
// `<spill_dir>/kv.pages` (KV) or `<spill_dir>/kmv.pages` (KMV): a spilled
// page is its CRC-sealed wire image at an (offset, len) extent, loaded back
// with one StorageSystem::read_range. One file per store instead of one per
// page keeps spilling off the file system's create path.
//
// Failure-path guarantees (see DESIGN.md "Out-of-core KV"):
//   * spill writes retain the page until the append has been verified
//     (size probe); a write error or a torn append is retried on the
//     storage layer's bounded-backoff ladder — a torn tail stays behind as
//     dead bytes and the retry appends past it — and if the ladder is
//     exhausted the page stays resident (over budget, never lost) and the
//     error surfaces to the caller;
//   * drain_to clears `out` on a mid-stream read failure and leaves every
//     page — including the already-copied ones — intact and re-readable
//     (the segment is only removed by clear(), by pop_front_page once its
//     last spilled page is consumed, or by the destructor), so the caller
//     can retry or fall back;
//   * clear() removes the segment file and reports a removal error after
//     clearing all in-memory state.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mr/kv.hpp"
#include "storage/copier.hpp"
#include "storage/storage.hpp"

namespace ftmr::mr {

struct SpillStats {
  int files_created = 0;        // segment files created (see SpillSegment)
  int pages_spilled = 0;
  int pages_loaded = 0;
  size_t bytes_spilled = 0;
  double sim_io_seconds = 0.0;  // modeled local-disk time
  int write_retries = 0;        // spill-write retries on the backoff ladder
  int read_retries = 0;         // page-load retries (transient read faults)
  int write_failures = 0;       // spills that failed after the full ladder
};

/// Cross-buffer residency accounting. Every spill-backed buffer opened on
/// the same meter books its resident bytes here, and `peak` records the
/// high-water mark of the sum — the per-rank "RSS" the out-of-core pipeline
/// promises to bound. The hook sits *before* budget enforcement spills, so
/// the peak includes the transient over-budget moment a single oversized
/// page can cause (ext07 and CI validate peak <= 1.5x budget against it).
/// Single-rank state: buffers on different ranks use different meters.
struct ResidencyMeter {
  size_t current = 0;
  size_t peak = 0;
  /// One buffer's booking moves from `from` to `to` resident bytes.
  void rebook(size_t from, size_t to) noexcept {
    current = current - (from < current ? from : current) + to;
    if (current > peak) peak = current;
  }
};

/// Transient bytes held outside any buffer (a merge cursor's loaded page,
/// the convert's run accumulator), booked on a meter and released on every
/// exit path. A null meter books nothing.
class ResidencyBooking {
 public:
  explicit ResidencyBooking(ResidencyMeter* meter) noexcept : meter_(meter) {}
  ~ResidencyBooking() { set(0); }
  ResidencyBooking(const ResidencyBooking&) = delete;
  ResidencyBooking& operator=(const ResidencyBooking&) = delete;

  /// The booking now stands at `n` bytes.
  void set(size_t n) noexcept {
    if (meter_ == nullptr) return;
    meter_->rebook(booked_, n);
    booked_ = n;
  }

 private:
  ResidencyMeter* meter_;
  size_t booked_ = 0;
};

/// Everything a component needs to open spill-backed buffers: the storage
/// system, the node whose local disk receives the pages, a scratch
/// directory namespace, and the page/budget sizing. `memory_budget == 0`
/// (or a null fs) disables spilling — buffers are purely in-memory and the
/// streamed algorithms degrade to their in-core behaviour.
struct SpillConfig {
  storage::StorageSystem* fs = nullptr;
  int node = 0;
  std::string dir;             // scratch root on the local tier
  size_t page_bytes = 1 << 20;
  size_t memory_budget = 0;    // per-buffer byte budget; 0 = in-core
  /// Optional shared residency accounting (one meter per rank, shared by
  /// every buffer the rank opens); null = no accounting.
  ResidencyMeter* meter = nullptr;
  /// Optional spill-traffic sink: every store opened on this config adds
  /// its SpillStats here as they accrue (one sink per kind of store gives
  /// a per-store breakdown); null = none.
  SpillStats* tally = nullptr;

  [[nodiscard]] bool enabled() const noexcept {
    return fs != nullptr && memory_budget > 0;
  }
  /// The same config one namespace deeper (dir + "/" + name).
  [[nodiscard]] SpillConfig sub(std::string_view name) const {
    SpillConfig c = *this;
    c.dir = dir.empty() ? std::string(name) : dir + "/" + std::string(name);
    return c;
  }
  /// The same config with the budget divided across `n` cooperating
  /// buffers (never below one page — a buffer must be able to fill the
  /// page it is about to spill).
  [[nodiscard]] SpillConfig share(size_t n) const {
    SpillConfig c = *this;
    if (n > 1) c.memory_budget = std::max(page_bytes, memory_budget / n);
    return c;
  }
};

/// One store's append-only spill file and its retry ladder. Every page the
/// store spills is sealed with a CRC-32 trailer and lands in the file as an
/// Extent. The first page a file holds is written with write_file (which
/// drops a stale file or a failed attempt's leftovers), later pages are
/// appended. After every attempt a metadata-only size probe moves the end
/// offset past whatever the attempt left: a torn append — success
/// reported, a strict prefix persisted — is retried past its tail, which
/// stays behind as dead bytes until the file goes. The file goes on
/// clear(), on destruction, and when release() drops the last live page.
/// Owns the store's SpillStats (mirrored into an optional tally) and its
/// pending modeled I/O time.
class SpillSegment {
 public:
  /// Where one spilled page lives in the file.
  struct Extent {
    uint64_t offset = 0;
    uint64_t len = 0;
  };

  SpillSegment() = default;
  /// `fs` null: a segment that never spills (an in-memory store).
  SpillSegment(storage::StorageSystem* fs, int node, std::string path,
               SpillStats* tally = nullptr)
      : fs_(fs), node_(node), path_(std::move(path)), tally_(tally) {}
  ~SpillSegment() { (void)clear(); }

  SpillSegment(const SpillSegment&) = delete;
  SpillSegment& operator=(const SpillSegment&) = delete;
  /// Moves hand the file over; the moved-from segment holds none.
  SpillSegment(SpillSegment&& other) noexcept;
  SpillSegment& operator=(SpillSegment&& other) noexcept;

  [[nodiscard]] bool enabled() const noexcept { return fs_ != nullptr; }

  /// Seal `wire` and append it on the retry ladder; on success `at` is its
  /// extent. On failure `wire` is handed back unsealed, so the caller keeps
  /// the page.
  Status append(Bytes& wire, Extent& at);
  /// Read extent `at` back on the retry ladder: the CRC trailer is checked
  /// and stripped, then `accept` decodes (and structurally validates) the
  /// wire image; a failure of either is retried as transient corruption.
  Status load(Extent at, const std::function<Status(Bytes&&)>& accept);
  /// One spilled page was consumed; the file goes with the last one.
  void release();
  /// Remove the file (if any); counters are kept.
  Status clear();

  [[nodiscard]] const SpillStats& stats() const noexcept { return stats_; }
  /// Simulated spill I/O seconds accumulated since the last take (workers
  /// charge this to their virtual clock at phase boundaries).
  [[nodiscard]] double take_io_seconds() noexcept {
    return std::exchange(pending_io_seconds_, 0.0);
  }

 private:
  /// Apply one update to the store's stats and to the tally, if any.
  template <class Fn>
  void count(Fn&& fn) noexcept {
    fn(stats_);
    if (tally_ != nullptr) fn(*tally_);
  }
  void charge_io(double cost) noexcept {
    count([cost](SpillStats& s) { s.sim_io_seconds += cost; });
    pending_io_seconds_ += cost;
  }

  storage::StorageSystem* fs_ = nullptr;
  int node_ = 0;
  std::string path_;
  SpillStats* tally_ = nullptr;
  storage::RetryPolicy retry_{};
  uint64_t end_ = 0;        // file size: the next append's offset
  size_t live_pages_ = 0;   // appended and not yet released
  bool exists_ = false;     // the file is on disk
  SpillStats stats_;
  double pending_io_seconds_ = 0.0;
};

/// Append-only KV store that keeps at most `memory_budget` bytes of pairs
/// in memory; older full pages spill to local disk under `spill_dir`.
/// Iteration (for_each / for_each_page / drain_to) streams spilled pages
/// back in order.
class SpillableKvBuffer {
 public:
  /// Per-page header: the census the streamed shuffle/convert passes read
  /// without touching page data.
  struct PageInfo {
    size_t pairs = 0;
    size_t bytes = 0;   // KvBuffer::bytes() unit (payload + pair prefixes)
    bool on_disk = false;
  };

  /// Purely in-memory buffer (no spilling). Constructing one allocates
  /// nothing, so a job can keep one per partition when it runs in-core.
  SpillableKvBuffer() = default;
  /// `storage` may be null for a purely in-memory buffer (no spilling).
  SpillableKvBuffer(storage::StorageSystem* storage, int node,
                    std::string spill_dir, size_t page_bytes = 1 << 20,
                    size_t memory_budget = 4 << 20);
  explicit SpillableKvBuffer(const SpillConfig& cfg);
  ~SpillableKvBuffer();

  SpillableKvBuffer(const SpillableKvBuffer&) = delete;
  SpillableKvBuffer& operator=(const SpillableKvBuffer&) = delete;
  SpillableKvBuffer(SpillableKvBuffer&& other) noexcept;
  SpillableKvBuffer& operator=(SpillableKvBuffer&& other) noexcept;

  Status add(std::string_view key, std::string_view value);

  /// Merge a whole KvBuffer into the open page (single memcpy), then close
  /// and spill as the page/budget sizes demand. Order-preserving.
  Status absorb_kv(KvBuffer&& kv);

  /// Close the open page and append `page` as a closed page of its own
  /// (the paged-shuffle receive path: one adopted wire image per call).
  Status append_page(KvBuffer&& page);

  /// Pairs added so far (in memory + spilled).
  [[nodiscard]] size_t size() const noexcept { return total_pairs_; }
  [[nodiscard]] size_t bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] bool empty() const noexcept { return total_pairs_ == 0; }
  [[nodiscard]] const SpillStats& stats() const noexcept { return seg_.stats(); }

  /// Closed pages plus the open page (if non-empty).
  [[nodiscard]] size_t page_count() const noexcept {
    return pages_.size() - head_ + (open_page_.empty() ? 0 : 1);
  }
  [[nodiscard]] size_t spilled_page_count() const noexcept;
  /// Header of closed page `i` (in order); the open page is not listed.
  [[nodiscard]] PageInfo page_info(size_t i) const noexcept;
  /// Bytes currently resident in memory, open page included — the quantity
  /// the budget bounds.
  [[nodiscard]] size_t resident_bytes() const noexcept {
    return resident_bytes_ + open_page_.bytes();
  }
  [[nodiscard]] size_t memory_budget() const noexcept { return memory_budget_; }
  /// False for a purely in-memory buffer (no storage): its pages never
  /// leave memory, whatever the budget.
  [[nodiscard]] bool can_spill() const noexcept { return seg_.enabled(); }
  /// The meter this buffer books on (null = none); a consumer holding its
  /// pages outside the buffer books them here too.
  [[nodiscard]] ResidencyMeter* meter() const noexcept { return meter_; }

  /// Visit every pair in insertion order, streaming spilled pages back.
  /// The views passed to `fn` alias a page arena and are only valid for
  /// the duration of the call.
  Status for_each(const std::function<void(KvView)>& fn);

  /// Visit every page in order (open page last), loading spilled pages one
  /// at a time; stops and propagates the first non-OK status `fn` returns.
  /// Pages stay intact (on-disk pages are re-readable afterwards).
  Status for_each_page(const std::function<Status(const KvBuffer&)>& fn);

  /// Non-destructive random page access for streamed senders: closed page
  /// `i` is copied (resident) or loaded back (spilled; the file is kept),
  /// and index page_count()-1 addresses the open page when it is non-empty.
  /// kOutOfRange past the last page.
  Status read_page(size_t i, KvBuffer& out);

  /// Consume the oldest page: `out` receives it (loaded if spilled; the
  /// segment file goes with its last spilled page), `have` is false when
  /// the buffer is empty.
  /// Streaming consumers use this so freed pages stop counting against
  /// the budget the moment they are handed off.
  Status pop_front_page(KvBuffer& out, bool& have);

  /// Move everything into a plain in-memory KvBuffer (insertion order):
  /// spilled pages are adopted wholesale from their wire image, resident
  /// and open pages are moved — no per-pair copies. On success the buffer
  /// is cleared (segment removed). On a mid-stream failure `out` is
  /// cleared and every page of this buffer — including the already-copied
  /// prefix — remains intact and re-readable.
  Status drain_to(KvBuffer& out);

  /// Drop all contents, including spilled pages.
  Status clear();

  /// Simulated spill I/O seconds accumulated since the last take (workers
  /// charge this to their virtual clock at phase boundaries).
  [[nodiscard]] double take_io_seconds() noexcept {
    return seg_.take_io_seconds();
  }

 private:
  struct Page {
    KvBuffer mem;             // meaningful when !on_disk
    SpillSegment::Extent at;  // meaningful when on_disk
    size_t pairs = 0;
    size_t bytes = 0;
    bool on_disk = false;
  };

  /// Closed pages not yet consumed by pop_front_page, oldest first.
  [[nodiscard]] std::span<Page> live() noexcept {
    return std::span<Page>(pages_).subspan(head_);
  }
  [[nodiscard]] std::span<const Page> live() const noexcept {
    return std::span<const Page>(pages_).subspan(head_);
  }
  void close_open_page();
  /// Spill the oldest resident closed page; no-op if none.
  Status spill_oldest_resident();
  /// Spill until (closed resident + open page) fits the budget.
  Status enforce_budget();
  Status load_page(const Page& p, KvBuffer& out);
  /// Re-book this buffer's resident bytes with the shared meter.
  void sync_meter() noexcept {
    if (meter_ == nullptr) return;
    const size_t now = resident_bytes();
    meter_->rebook(metered_, now);
    metered_ = now;
  }

  SpillSegment seg_;
  size_t page_bytes_ = 1 << 20;
  size_t memory_budget_ = 0;
  ResidencyMeter* meter_ = nullptr;
  size_t metered_ = 0;            // bytes currently booked with meter_

  // Closed pages, oldest first. A vector (not a deque, which allocates a
  // block on construction) keeps an empty buffer free; pop_front_page
  // advances head_ instead of erasing, and the vector resets once drained.
  std::vector<Page> pages_;
  size_t head_ = 0;
  KvBuffer open_page_;            // the page being filled
  size_t resident_bytes_ = 0;     // closed resident pages only
  size_t total_pairs_ = 0;
  size_t total_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Spillable KMV output (the convert result, streamed into reduce)
// ---------------------------------------------------------------------------

/// KMV page wire encoding ([u64 nentries][entry: u32 klen, key, u64
/// nvalues, (u32 vlen, value)*]), used for KMV spill pages and validated on
/// the way back in (kCorrupt / kOutOfRange on damage, never UB).
[[nodiscard]] Bytes encode_kmv(const KmvBuffer& kmv);
Status decode_kmv(std::span<const std::byte> wire, KmvBuffer& out);

/// Out-of-core KMV store: sorted *runs* of grouped entries (one run per
/// convert accumulator fill), paged under the same budget model as
/// SpillableKvBuffer.
/// for_each_entry streams entries back in global key order by k-way-merging
/// the runs, holding one page per run in memory — peak residency is
/// O(page_bytes x runs), never O(dataset).
class SpillableKmvBuffer {
 public:
  SpillableKmvBuffer() = default;
  explicit SpillableKmvBuffer(const SpillConfig& cfg);
  ~SpillableKmvBuffer();

  SpillableKmvBuffer(const SpillableKmvBuffer&) = delete;
  SpillableKmvBuffer& operator=(const SpillableKmvBuffer&) = delete;
  SpillableKmvBuffer(SpillableKmvBuffer&& other) noexcept;
  SpillableKmvBuffer& operator=(SpillableKmvBuffer&&) noexcept;

  /// Append one run. The run must be sorted by key with unique keys (what
  /// convert_2pass produces); it is split into whole-entry pages of about
  /// page_bytes each, spilled as the budget demands (a buffer that cannot
  /// spill keeps it as one page).
  Status add_run(KmvBuffer&& run);

  /// Re-page future runs at `n` bytes. The k-way merge in for_each_entry
  /// holds one page per run, so a producer expecting many runs shrinks the
  /// pages to keep runs x page_bytes within its budget (convert_2pass_spill
  /// sets budget / runs here). Pages already added keep their size.
  void set_run_page_bytes(size_t n) noexcept { page_bytes_ = n ? n : 1; }

  /// Total grouped entries across all runs. Keys may repeat *across* runs
  /// (for_each_entry merges their value lists in run order).
  [[nodiscard]] size_t size() const noexcept { return total_entries_; }
  [[nodiscard]] bool empty() const noexcept { return total_entries_ == 0; }
  [[nodiscard]] size_t bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] size_t runs() const noexcept { return runs_.size(); }
  [[nodiscard]] const SpillStats& stats() const noexcept { return seg_.stats(); }
  [[nodiscard]] size_t resident_bytes() const noexcept { return resident_bytes_; }

  /// Stream every entry in ascending key order (ties across runs merge
  /// their values in run order), skipping the first `skip` merged entries
  /// — the reduce-recovery cursor. Stops on the first non-OK status from
  /// `fn`. Views alias per-run page buffers and are valid only for the
  /// duration of the call. Pages stay intact (re-streamable).
  Status for_each_entry(
      size_t skip,
      const std::function<Status(std::string_view key,
                                 std::span<const std::string_view> values)>& fn);

  Status clear();

  [[nodiscard]] double take_io_seconds() noexcept {
    return seg_.take_io_seconds();
  }

 private:
  struct Page {
    KmvBuffer mem;            // meaningful when !on_disk
    SpillSegment::Extent at;  // meaningful when on_disk
    size_t entries = 0;
    size_t bytes = 0;    // serialized size (what residency/spill accounting uses)
    bool on_disk = false;
  };
  struct Run {
    size_t first_page = 0;
    size_t npages = 0;
  };

  Status append_page(KmvBuffer&& chunk);
  Status enforce_budget();
  Status load_page(const Page& p, KmvBuffer& out);
  void sync_meter() noexcept {
    if (meter_ == nullptr) return;
    meter_->rebook(metered_, resident_bytes_);
    metered_ = resident_bytes_;
  }

  SpillSegment seg_;
  size_t page_bytes_ = 1 << 20;
  size_t memory_budget_ = 0;
  ResidencyMeter* meter_ = nullptr;
  size_t metered_ = 0;        // bytes currently booked with meter_

  std::vector<Page> pages_;   // run pages, grouped: runs_[r] indexes into this
  std::vector<Run> runs_;
  size_t resident_bytes_ = 0;
  size_t total_entries_ = 0;
  size_t total_bytes_ = 0;
};

}  // namespace ftmr::mr
