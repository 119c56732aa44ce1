#include "mr/spill.hpp"

#include <algorithm>

#include "common/crc32.hpp"

namespace ftmr::mr {

namespace {

// Every spilled page carries a CRC-32 trailer. Structural validation on the
// way back in (KvBuffer::adopt / decode_kmv) catches truncation and length
// corruption, but a bit flip inside key/value payload bytes would pass it
// silently and surface as wrong *data*. The trailer turns payload corruption
// into a detectable — and for transient read corruption, retryable — error.
constexpr size_t kPageCrcBytes = 4;

void seal_page(Bytes& wire) {
  const uint32_t crc = crc32(std::span<const std::byte>(wire));
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFFu));
  }
}

Status unseal_page(Bytes& wire) {
  if (wire.size() < kPageCrcBytes) {
    return {ErrorCode::kCorrupt, "spill page shorter than its CRC trailer"};
  }
  const size_t body = wire.size() - kPageCrcBytes;
  uint32_t stored = 0;
  for (size_t i = 0; i < kPageCrcBytes; ++i) {
    stored |= static_cast<uint32_t>(static_cast<uint8_t>(wire[body + i]))
              << (8 * i);
  }
  const uint32_t crc = crc32(std::span<const std::byte>(wire.data(), body));
  if (crc != stored) {
    return {ErrorCode::kCorrupt, "spill page CRC mismatch"};
  }
  wire.resize(body);
  return Status::Ok();
}

/// Segment `name` under `cfg.dir`, or one that never spills (and holds no
/// path) when `cfg` does not spill.
SpillSegment segment_for(const SpillConfig& cfg, const char* name) {
  if (!cfg.enabled()) return {};
  return {cfg.fs, cfg.node, cfg.dir + "/" + name, cfg.tally};
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillSegment
// ---------------------------------------------------------------------------

SpillSegment::SpillSegment(SpillSegment&& other) noexcept
    : fs_(other.fs_), node_(other.node_), path_(std::move(other.path_)),
      tally_(std::exchange(other.tally_, nullptr)), retry_(other.retry_),
      end_(std::exchange(other.end_, 0)),
      live_pages_(std::exchange(other.live_pages_, 0)),
      exists_(std::exchange(other.exists_, false)),
      stats_(std::exchange(other.stats_, {})),
      pending_io_seconds_(std::exchange(other.pending_io_seconds_, 0.0)) {}

SpillSegment& SpillSegment::operator=(SpillSegment&& other) noexcept {
  if (this == &other) return *this;
  (void)clear();
  fs_ = other.fs_;
  node_ = other.node_;
  path_ = std::move(other.path_);
  tally_ = std::exchange(other.tally_, nullptr);
  retry_ = other.retry_;
  end_ = std::exchange(other.end_, 0);
  live_pages_ = std::exchange(other.live_pages_, 0);
  exists_ = std::exchange(other.exists_, false);
  stats_ = std::exchange(other.stats_, {});
  pending_io_seconds_ = std::exchange(other.pending_io_seconds_, 0.0);
  return *this;
}

Status SpillSegment::append(Bytes& wire, Extent& at) {
  seal_page(wire);
  const uint64_t len = wire.size();
  Status last;
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    if (attempt > 1) {
      charge_io(retry_.backoff_before(attempt - 1));
      count([](SpillStats& s) { s.write_retries++; });
    }
    const bool fresh = live_pages_ == 0;
    const uint64_t offset = fresh ? 0 : end_;
    double cost = 0.0;
    last = fresh ? fs_->write_file(storage::Tier::kLocal, node_, path_, wire,
                                   &cost)
                 : fs_->append_file(storage::Tier::kLocal, node_, path_, wire,
                                    &cost);
    // A torn write reports success but persists a strict prefix; the size
    // probe is metadata-only and catches it before the page leaves memory.
    const int64_t size = fs_->file_size(storage::Tier::kLocal, node_, path_);
    if (size >= 0) {
      if (!exists_) {
        exists_ = true;
        count([](SpillStats& s) { s.files_created++; });
      }
      end_ = static_cast<uint64_t>(size);
    }
    if (!last.ok()) continue;
    if (size < 0 || end_ != offset + len) {
      last = {ErrorCode::kIo, "torn spill write detected"};
      continue;
    }
    charge_io(cost);
    at = {offset, len};
    live_pages_++;
    count([len](SpillStats& s) {
      s.pages_spilled++;
      s.bytes_spilled += len;
    });
    return Status::Ok();
  }
  count([](SpillStats& s) { s.write_failures++; });
  if (live_pages_ == 0) (void)clear();  // only dead bytes: drop the file
  wire.resize(len - kPageCrcBytes);
  return last;
}

Status SpillSegment::load(Extent at,
                          const std::function<Status(Bytes&&)>& accept) {
  Status last;
  for (int attempt = 1; attempt <= retry_.max_attempts; ++attempt) {
    if (attempt > 1) {
      charge_io(retry_.backoff_before(attempt - 1));
      count([](SpillStats& s) { s.read_retries++; });
    }
    Bytes wire;
    double cost = 0.0;
    last = fs_->read_range(storage::Tier::kLocal, node_, path_, at.offset,
                           at.len, wire, &cost);
    if (!last.ok()) continue;  // clean read failures are transient
    // The CRC trailer plus the decoder's structural validation catch any
    // bit flip on the way back in (file intact on disk), so corruption
    // retries rather than surfacing garbage — or, worse, silently altered
    // payloads.
    last = unseal_page(wire);
    if (!last.ok()) continue;
    last = accept(std::move(wire));
    if (last.ok()) {
      charge_io(cost);
      count([](SpillStats& s) { s.pages_loaded++; });
      return Status::Ok();
    }
  }
  return last;
}

void SpillSegment::release() {
  if (live_pages_ > 0 && --live_pages_ == 0) (void)clear();
}

Status SpillSegment::clear() {
  live_pages_ = 0;
  end_ = 0;
  if (!exists_) return Status::Ok();
  exists_ = false;
  return fs_->remove(storage::Tier::kLocal, node_, path_);
}

// ---------------------------------------------------------------------------
// SpillableKvBuffer
// ---------------------------------------------------------------------------

SpillableKvBuffer::SpillableKvBuffer(storage::StorageSystem* storage, int node,
                                     std::string spill_dir, size_t page_bytes,
                                     size_t memory_budget)
    : seg_(storage, node, std::move(spill_dir) + "/kv.pages"),
      page_bytes_(page_bytes ? page_bytes : 1),
      memory_budget_(memory_budget) {}

SpillableKvBuffer::SpillableKvBuffer(const SpillConfig& cfg)
    : seg_(segment_for(cfg, "kv.pages")),
      page_bytes_(cfg.page_bytes ? cfg.page_bytes : 1),
      memory_budget_(cfg.memory_budget ? cfg.memory_budget : size_t{4} << 20),
      meter_(cfg.meter) {}

SpillableKvBuffer::~SpillableKvBuffer() { (void)clear(); }

SpillableKvBuffer::SpillableKvBuffer(SpillableKvBuffer&& other) noexcept
    : seg_(std::move(other.seg_)), page_bytes_(other.page_bytes_),
      memory_budget_(other.memory_budget_),
      // The residency booking moves with the pages.
      meter_(std::exchange(other.meter_, nullptr)),
      metered_(std::exchange(other.metered_, 0)),
      pages_(std::move(other.pages_)), head_(std::exchange(other.head_, 0)),
      open_page_(std::move(other.open_page_)),
      resident_bytes_(std::exchange(other.resident_bytes_, 0)),
      total_pairs_(std::exchange(other.total_pairs_, 0)),
      total_bytes_(std::exchange(other.total_bytes_, 0)) {
  other.pages_.clear();
  other.open_page_.clear();
}

SpillableKvBuffer& SpillableKvBuffer::operator=(
    SpillableKvBuffer&& other) noexcept {
  if (this == &other) return *this;
  (void)clear();
  seg_ = std::move(other.seg_);
  page_bytes_ = other.page_bytes_;
  memory_budget_ = other.memory_budget_;
  meter_ = std::exchange(other.meter_, nullptr);
  metered_ = std::exchange(other.metered_, 0);
  pages_ = std::move(other.pages_);
  head_ = std::exchange(other.head_, 0);
  open_page_ = std::move(other.open_page_);
  resident_bytes_ = std::exchange(other.resident_bytes_, 0);
  total_pairs_ = std::exchange(other.total_pairs_, 0);
  total_bytes_ = std::exchange(other.total_bytes_, 0);
  other.pages_.clear();
  other.open_page_.clear();
  return *this;
}

Status SpillableKvBuffer::add(std::string_view key, std::string_view value) {
  open_page_.add(key, value);
  total_pairs_++;
  total_bytes_ += key.size() + value.size() + KvBuffer::kPairOverhead;
  if (open_page_.bytes() >= page_bytes_) close_open_page();
  Status s = enforce_budget();
  sync_meter();
  return s;
}

Status SpillableKvBuffer::absorb_kv(KvBuffer&& kv) {
  if (kv.empty()) return Status::Ok();
  total_pairs_ += kv.size();
  total_bytes_ += kv.bytes();
  open_page_.absorb(std::move(kv));
  if (open_page_.bytes() >= page_bytes_) close_open_page();
  Status s = enforce_budget();
  sync_meter();
  return s;
}

Status SpillableKvBuffer::append_page(KvBuffer&& page) {
  if (page.empty()) return Status::Ok();
  close_open_page();
  Page p;
  p.pairs = page.size();
  p.bytes = page.bytes();
  p.mem = std::move(page);
  resident_bytes_ += p.bytes;
  total_pairs_ += p.pairs;
  total_bytes_ += p.bytes;
  pages_.push_back(std::move(p));
  Status s = enforce_budget();
  sync_meter();
  return s;
}

size_t SpillableKvBuffer::spilled_page_count() const noexcept {
  size_t n = 0;
  for (const Page& p : live()) n += p.on_disk ? 1 : 0;
  return n;
}

SpillableKvBuffer::PageInfo SpillableKvBuffer::page_info(
    size_t i) const noexcept {
  const Page& p = live()[i];
  return {p.pairs, p.bytes, p.on_disk};
}

void SpillableKvBuffer::close_open_page() {
  if (open_page_.empty()) return;
  Page p;
  p.pairs = open_page_.size();
  p.bytes = open_page_.bytes();
  p.mem = std::move(open_page_);
  open_page_ = KvBuffer{};
  resident_bytes_ += p.bytes;
  pages_.push_back(std::move(p));
}

Status SpillableKvBuffer::spill_oldest_resident() {
  const std::span<Page> pages = live();
  auto it = std::find_if(pages.begin(), pages.end(),
                         [](const Page& p) { return !p.on_disk; });
  if (it == pages.end()) return Status::Ok();
  Page& p = *it;
  // The wire image stays owned here until an append is verified complete: a
  // failed (or torn) spill re-adopts it, so no page is ever lost to the
  // storage layer.
  Bytes wire = std::move(p.mem).take_wire();
  if (auto s = seg_.append(wire, p.at); !s.ok()) {
    KvBuffer back;
    (void)back.adopt(std::move(wire));  // our own bytes; validation cannot fail
    p.mem = std::move(back);
    return s;
  }
  p.on_disk = true;
  p.mem = KvBuffer{};
  resident_bytes_ -= p.bytes;
  return Status::Ok();
}

Status SpillableKvBuffer::enforce_budget() {
  // Book the pre-spill residency: the meter's peak must see the transient
  // over-budget moment the budget is about to spill away.
  sync_meter();
  if (!can_spill() || memory_budget_ == 0) return Status::Ok();
  while (resident_bytes_ + open_page_.bytes() > memory_budget_) {
    const std::span<const Page> pages = live();
    const bool have_resident = std::any_of(
        pages.begin(), pages.end(), [](const Page& p) { return !p.on_disk; });
    // Only closed pages spill; an open page larger than the budget closes
    // (and then spills) as soon as it reaches page_bytes.
    if (!have_resident) break;
    if (auto s = spill_oldest_resident(); !s.ok()) return s;
  }
  return Status::Ok();
}

Status SpillableKvBuffer::load_page(const Page& p, KvBuffer& out) {
  return seg_.load(p.at, [&out](Bytes&& wire) { return out.adopt(std::move(wire)); });
}

Status SpillableKvBuffer::for_each(const std::function<void(KvView)>& fn) {
  return for_each_page([&fn](const KvBuffer& page) {
    for (KvView p : page) fn(p);
    return Status::Ok();
  });
}

Status SpillableKvBuffer::for_each_page(
    const std::function<Status(const KvBuffer&)>& fn) {
  for (const Page& p : live()) {
    if (p.on_disk) {
      KvBuffer page;
      if (auto s = load_page(p, page); !s.ok()) return s;
      if (auto s = fn(page); !s.ok()) return s;
    } else {
      if (auto s = fn(p.mem); !s.ok()) return s;
    }
  }
  if (!open_page_.empty()) return fn(open_page_);
  return Status::Ok();
}

Status SpillableKvBuffer::read_page(size_t i, KvBuffer& out) {
  out.clear();
  const std::span<const Page> pages = live();
  if (i < pages.size()) {
    const Page& p = pages[i];
    if (p.on_disk) return load_page(p, out);
    out.reserve_records(p.pairs, p.bytes);
    out.merge_from(p.mem);
    return Status::Ok();
  }
  if (i == pages.size() && !open_page_.empty()) {
    out.reserve_records(open_page_.size(), open_page_.bytes());
    out.merge_from(open_page_);
    return Status::Ok();
  }
  return {ErrorCode::kOutOfRange, "read_page: no such page"};
}

Status SpillableKvBuffer::pop_front_page(KvBuffer& out, bool& have) {
  out.clear();
  have = false;
  if (head_ < pages_.size()) {
    Page& p = pages_[head_];
    if (p.on_disk) {
      if (auto s = load_page(p, out); !s.ok()) return s;  // page stays intact
      seg_.release();
    } else {
      out = std::move(p.mem);
      resident_bytes_ -= p.bytes;
    }
    total_pairs_ -= p.pairs;
    total_bytes_ -= p.bytes;
    p = Page{};
    if (++head_ == pages_.size()) {
      pages_.clear();
      head_ = 0;
    }
    have = true;
    sync_meter();
    return Status::Ok();
  }
  if (!open_page_.empty()) {
    total_pairs_ -= open_page_.size();
    total_bytes_ -= open_page_.bytes();
    out = std::move(open_page_);
    open_page_ = KvBuffer{};
    have = true;
    sync_meter();
  }
  return Status::Ok();
}

Status SpillableKvBuffer::drain_to(KvBuffer& out) {
  out.clear();
  const std::span<Page> pages = live();
  const bool any_disk = std::any_of(pages.begin(), pages.end(),
                                    [](const Page& p) { return p.on_disk; });
  if (!any_disk) {
    // Nothing can fail: move every page (and splice the rest) wholesale.
    for (Page& p : pages) out.absorb(std::move(p.mem));
    out.absorb(std::move(open_page_));
    pages_.clear();
    head_ = 0;
    resident_bytes_ = total_pairs_ = total_bytes_ = 0;
    sync_meter();
    return Status::Ok();
  }
  // Disk reads can fail mid-stream, so nothing is moved out of this buffer
  // until every page has been copied: on failure `out` is cleared and every
  // page — including the already-copied prefix — stays intact and
  // re-readable (the segment is only removed by the success path below).
  out.reserve_records(total_pairs_, total_bytes_);
  for (const Page& p : pages) {
    if (p.on_disk) {
      KvBuffer page;
      if (auto s = load_page(p, page); !s.ok()) {
        out.clear();
        return s;
      }
      out.absorb(std::move(page));
    } else {
      out.merge_from(p.mem);
    }
  }
  out.merge_from(open_page_);
  return clear();
}

Status SpillableKvBuffer::clear() {
  const Status removed = seg_.clear();
  pages_.clear();
  head_ = 0;
  open_page_.clear();
  resident_bytes_ = 0;
  total_pairs_ = 0;
  total_bytes_ = 0;
  sync_meter();
  return removed;
}

// ---------------------------------------------------------------------------
// KMV page codec
// ---------------------------------------------------------------------------

Bytes encode_kmv(const KmvBuffer& kmv) {
  ByteWriter w;
  w.put<uint64_t>(kmv.size());
  for (size_t i = 0; i < kmv.size(); ++i) {
    const KmvView e = kmv.entry(i);
    w.put_string(e.key());
    w.put<uint64_t>(e.size());
    for (size_t v = 0; v < e.size(); ++v) w.put_string(e.value(v));
  }
  return std::move(w).take();
}

namespace {

std::string_view sv_of(std::span<const std::byte> b) noexcept {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace

Status decode_kmv(std::span<const std::byte> wire, KmvBuffer& out) {
  out.clear();
  ByteReader r(wire);
  uint64_t nentries = 0;
  if (auto s = r.get(nentries); !s.ok()) return s;
  // An entry is at least its two count fields; a header claiming more than
  // the payload could hold is structural corruption, caught before any
  // per-entry work.
  if (nentries > r.remaining() / (kLenPrefixBytes + sizeof(uint64_t))) {
    return {ErrorCode::kCorrupt, "kmv wire: entry count exceeds payload"};
  }
  for (uint64_t i = 0; i < nentries; ++i) {
    uint32_t klen = 0;
    std::span<const std::byte> key;
    if (auto s = r.get(klen); !s.ok()) { out.clear(); return s; }
    if (auto s = r.get_view(klen, key); !s.ok()) { out.clear(); return s; }
    uint64_t nvalues = 0;
    if (auto s = r.get(nvalues); !s.ok()) { out.clear(); return s; }
    if (nvalues > r.remaining() / kLenPrefixBytes) {
      out.clear();
      return {ErrorCode::kCorrupt, "kmv wire: value count exceeds payload"};
    }
    out.begin_entry(sv_of(key));
    for (uint64_t v = 0; v < nvalues; ++v) {
      uint32_t vlen = 0;
      std::span<const std::byte> val;
      if (auto s = r.get(vlen); !s.ok()) { out.clear(); return s; }
      if (auto s = r.get_view(vlen, val); !s.ok()) { out.clear(); return s; }
      out.append_value(sv_of(val));
    }
  }
  if (!r.exhausted()) {
    out.clear();
    return {ErrorCode::kCorrupt, "kmv wire: trailing bytes after last entry"};
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// SpillableKmvBuffer
// ---------------------------------------------------------------------------

SpillableKmvBuffer::SpillableKmvBuffer(const SpillConfig& cfg)
    : seg_(segment_for(cfg, "kmv.pages")),
      page_bytes_(cfg.page_bytes ? cfg.page_bytes : 1),
      memory_budget_(cfg.memory_budget) {}

SpillableKmvBuffer::~SpillableKmvBuffer() { (void)clear(); }

SpillableKmvBuffer::SpillableKmvBuffer(SpillableKmvBuffer&& other) noexcept
    : seg_(std::move(other.seg_)), page_bytes_(other.page_bytes_),
      memory_budget_(other.memory_budget_),
      // The residency booking moves with the pages.
      meter_(std::exchange(other.meter_, nullptr)),
      metered_(std::exchange(other.metered_, 0)),
      pages_(std::move(other.pages_)), runs_(std::move(other.runs_)),
      resident_bytes_(std::exchange(other.resident_bytes_, 0)),
      total_entries_(std::exchange(other.total_entries_, 0)),
      total_bytes_(std::exchange(other.total_bytes_, 0)) {
  other.pages_.clear();
  other.runs_.clear();
}

SpillableKmvBuffer& SpillableKmvBuffer::operator=(
    SpillableKmvBuffer&& other) noexcept {
  if (this == &other) return *this;
  (void)clear();
  seg_ = std::move(other.seg_);
  page_bytes_ = other.page_bytes_;
  memory_budget_ = other.memory_budget_;
  meter_ = std::exchange(other.meter_, nullptr);
  metered_ = std::exchange(other.metered_, 0);
  pages_ = std::move(other.pages_);
  runs_ = std::move(other.runs_);
  resident_bytes_ = std::exchange(other.resident_bytes_, 0);
  total_entries_ = std::exchange(other.total_entries_, 0);
  total_bytes_ = std::exchange(other.total_bytes_, 0);
  other.pages_.clear();
  other.runs_.clear();
  return *this;
}

Status SpillableKmvBuffer::add_run(KmvBuffer&& run) {
  if (run.empty()) return Status::Ok();
  Run r;
  r.first_page = pages_.size();
  total_entries_ += run.size();
  total_bytes_ += run.bytes();
  // A spill failure retains the page resident (over budget, never lost), so
  // the run is always registered whole; the first error is surfaced after.
  Status first;
  auto flush = [&](KmvBuffer&& chunk) {
    if (auto s = append_page(std::move(chunk)); !s.ok() && first.ok()) first = s;
  };
  if (run.bytes() <= page_bytes_ || !seg_.enabled()) {
    // Pages only bound what may spill: an in-memory buffer keeps a run
    // whole instead of copying it into page-sized chunks.
    flush(std::move(run));
  } else {
    // Split into whole-entry pages of about page_bytes each.
    KmvBuffer chunk;
    for (size_t i = 0; i < run.size(); ++i) {
      const KmvView e = run.entry(i);
      chunk.begin_entry(e.key());
      for (size_t v = 0; v < e.size(); ++v) chunk.append_value(e.value(v));
      if (chunk.bytes() >= page_bytes_ && i + 1 < run.size()) {
        flush(std::move(chunk));
        chunk = KmvBuffer{};
      }
    }
    if (!chunk.empty()) flush(std::move(chunk));
  }
  r.npages = pages_.size() - r.first_page;
  runs_.push_back(r);
  return first;
}

Status SpillableKmvBuffer::append_page(KmvBuffer&& chunk) {
  Page p;
  p.entries = chunk.size();
  p.bytes = chunk.bytes();
  p.mem = std::move(chunk);
  resident_bytes_ += p.bytes;
  pages_.push_back(std::move(p));
  Status s = enforce_budget();
  sync_meter();
  return s;
}

Status SpillableKmvBuffer::enforce_budget() {
  sync_meter();  // book the pre-spill residency (see SpillableKvBuffer)
  if (!seg_.enabled() || memory_budget_ == 0) return Status::Ok();
  while (resident_bytes_ > memory_budget_) {
    auto it = std::find_if(pages_.begin(), pages_.end(),
                           [](const Page& p) { return !p.on_disk; });
    if (it == pages_.end()) break;
    Page& p = *it;
    Bytes wire = encode_kmv(p.mem);
    if (auto s = seg_.append(wire, p.at); !s.ok()) {
      return s;  // page stays resident; nothing lost
    }
    p.on_disk = true;
    p.mem = KmvBuffer{};
    resident_bytes_ -= p.bytes;
  }
  return Status::Ok();
}

Status SpillableKmvBuffer::load_page(const Page& p, KmvBuffer& out) {
  return seg_.load(p.at, [&out](Bytes&& wire) { return decode_kmv(wire, out); });
}

Status SpillableKmvBuffer::for_each_entry(
    size_t skip,
    const std::function<Status(std::string_view key,
                               std::span<const std::string_view> values)>& fn) {
  // One cursor per run; each holds exactly one page (resident pages are
  // referenced in place, spilled pages are loaded on arrival), so peak
  // residency of the merge is O(page_bytes x runs).
  // Cursors are stored (and moved) in a vector, so a cursor never holds a
  // pointer to its own `loaded` buffer: `resident` selects between the page
  // in place in pages_ and the cursor-owned loaded copy. Key/value views
  // stay valid across cursor moves because the KmvBuffer arena is heap
  // storage that moves by pointer.
  struct Cursor {
    size_t page = 0;      // global index into pages_
    size_t end_page = 0;  // first page past this run
    size_t entry = 0;     // within the current page
    KmvBuffer loaded;
    bool resident = false;  // current page is pages_[page].mem, not `loaded`
    bool done = false;
    std::string_view key;  // current entry's key
  };
  std::vector<Cursor> curs;
  curs.reserve(runs_.size());
  auto buf = [&](const Cursor& c) -> const KmvBuffer& {
    return c.resident ? pages_[c.page].mem : c.loaded;
  };
  // Cursor-loaded pages are real residency beyond resident_bytes_ — book
  // them with the shared meter for the duration of the merge.
  ResidencyBooking booking(meter_);
  auto rebook_cursors = [&] {
    size_t n = 0;
    for (const Cursor& c : curs) {
      if (!c.done && !c.resident) n += pages_[c.page].bytes;
    }
    booking.set(n);
  };
  auto open_page = [&](Cursor& c) -> Status {
    const Page& p = pages_[c.page];
    if (p.on_disk) {
      c.loaded = KmvBuffer{};
      if (auto s = load_page(p, c.loaded); !s.ok()) return s;
      c.resident = false;
    } else {
      c.loaded = KmvBuffer{};
      c.resident = true;
    }
    c.entry = 0;
    return Status::Ok();
  };
  auto advance = [&](Cursor& c) -> Status {
    c.entry++;
    while (c.entry >= buf(c).size()) {
      c.page++;
      if (c.page >= c.end_page) {
        c.done = true;
        c.loaded = KmvBuffer{};
        return Status::Ok();
      }
      if (auto s = open_page(c); !s.ok()) return s;
    }
    c.key = buf(c).entry(c.entry).key();
    return Status::Ok();
  };
  for (const Run& r : runs_) {
    if (r.npages == 0) continue;
    Cursor c;
    c.page = r.first_page;
    c.end_page = r.first_page + r.npages;
    if (auto s = open_page(c); !s.ok()) return s;
    while (c.entry >= buf(c).size()) {  // tolerate empty leading pages
      c.page++;
      if (c.page >= c.end_page) {
        c.done = true;
        break;
      }
      if (auto s = open_page(c); !s.ok()) return s;
    }
    if (c.done) continue;
    c.key = buf(c).entry(c.entry).key();
    curs.push_back(std::move(c));
  }
  rebook_cursors();
  size_t live = curs.size();
  std::vector<size_t> winners;
  std::vector<std::string_view> values;
  while (live > 0) {
    // Min key across live cursors; ties merge their value lists in run
    // order, which is the order the runs were added (for the convert's
    // runs, arrival order), so a key's values keep their arrival order.
    std::string_view min_key;
    bool found = false;
    for (const Cursor& c : curs) {
      if (c.done) continue;
      if (!found || c.key < min_key) {
        min_key = c.key;
        found = true;
      }
    }
    winners.clear();
    for (size_t i = 0; i < curs.size(); ++i) {
      if (!curs[i].done && curs[i].key == min_key) winners.push_back(i);
    }
    if (skip > 0) {
      skip--;
    } else {
      values.clear();
      for (size_t w : winners) {
        const Cursor& c = curs[w];
        const KmvView e = buf(c).entry(c.entry);
        for (size_t v = 0; v < e.size(); ++v) values.push_back(e.value(v));
      }
      if (auto s = fn(min_key, values); !s.ok()) return s;
    }
    // Advance only after fn returned: the views above alias winner pages.
    for (size_t w : winners) {
      if (auto s = advance(curs[w]); !s.ok()) return s;
      if (curs[w].done) live--;
    }
    rebook_cursors();
  }
  return Status::Ok();
}

Status SpillableKmvBuffer::clear() {
  const Status removed = seg_.clear();
  pages_.clear();
  runs_.clear();
  resident_bytes_ = 0;
  total_entries_ = 0;
  total_bytes_ = 0;
  sync_meter();
  return removed;
}

}  // namespace ftmr::mr
