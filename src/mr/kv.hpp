// kv.hpp — key-value and key-multivalue buffers (arena-backed flat layout).
//
// These are the central data structures of MapReduce-MPI (Plimpton &
// Devine, Parallel Computing 2011): a KV buffer collects <key,value> pairs
// emitted by map tasks; the shuffle exchanges KV pages between ranks; a
// KV→KMV conversion groups values by key; reduce consumes KMV entries.
// FtJob (src/core) runs on them in every mode, including the MR-MPI
// comparator (FtMode::kNone).
//
// Storage model (DESIGN.md "Flat KV/KMV buffers"): instead of one
// std::string pair per record (two heap allocations plus a copy at every
// pipeline stage), a KvBuffer owns a single contiguous byte arena holding
// length-prefixed records *in wire format*, plus an index of record
// offsets. The arena IS the serialized encoding, so:
//   * serialize()  is one allocation + one memcpy (wire_view() is zero-copy),
//   * deserialize() is a validating scan + one memcpy,
//   * adopt()      is a validating scan + a move (zero-copy receive path),
//   * merge_from() is one memcpy + an index extension,
//   * the shuffle forwards whole records with append_record_from() —
//     a single memcpy of the already-encoded bytes, no re-framing.
//
// Accessors return KvView / KmvView string_views aliasing the arena.
// Lifetime rule: views are invalidated by any mutation of the owning
// buffer (add/merge/adopt/clear/destruction) — the arena may reallocate.
// Callbacks (Mapper/Reducer) receive views into buffers the engine does
// not mutate for the duration of the call; they must copy anything they
// keep beyond it.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"

namespace ftmr::mr {

// -- wire format constants --------------------------------------------------
// KV wire/file encoding: [u64 record count][record]*, where one record is
// [u32 klen][klen bytes key][u32 vlen][vlen bytes value]. All integers are
// raw little-endian (see common/bytes.hpp). Every byte-accounting figure in
// the tree (shuffle volumes, convert cost model, checkpoint size stats)
// derives from these constants so the perf model and the actual encoding
// cannot drift apart.
inline constexpr size_t kLenPrefixBytes = 4;    // one u32 length prefix
inline constexpr size_t kCountHeaderBytes = 8;  // u64 record-count header

/// Zero-copy view of one record. Both views alias the buffer's arena; see
/// the lifetime rule in the header comment.
struct KvView {
  std::string_view key;
  std::string_view value;

  friend bool operator==(const KvView& a, const KvView& b) = default;
};

/// Append-only buffer of key-value pairs with byte accounting, stored as a
/// flat wire-format arena + record-offset index.
class KvBuffer {
 public:
  /// Serialized overhead of one pair: its two u32 length prefixes.
  static constexpr size_t kPairOverhead = 2 * kLenPrefixBytes;

  /// Payloads at or above this are "jumbo": arena growth they trigger uses
  /// a steeper size class (8x instead of 2x capacity). Growing a doubling
  /// arena under a stream of large records re-copies roughly the full
  /// payload volume once more (and, above the allocator's mmap threshold,
  /// faults in a fresh mapping each time); the 8x class cuts the bytes
  /// re-copied per growth cascade to ~1/7 while small-record streams keep
  /// the tighter doubling footprint.
  static constexpr size_t kJumboPayloadBytes = 2048;

  void add(std::string_view key, std::string_view value) {
    reserve_header();
    const size_t payload = kPairOverhead + key.size() + value.size();
    const size_t need = arena_.size() + payload;
    // Grow once up front so the four appends below never reallocate (and,
    // unlike resize(), never zero-fill bytes that are about to be written).
    if (need > arena_.capacity()) {
      const size_t factor = payload >= kJumboPayloadBytes ? 8 : 2;
      arena_.reserve(std::max(need, factor * arena_.capacity()));
    }
    offsets_.push_back(arena_.size());
    append_len(key.size());
    append_body(key);
    append_len(value.size());
    append_body(value);
    bump_count();
  }

  /// Pre-size for `nrecords` records totalling `record_bytes` (the bytes()
  /// unit: payload + per-pair prefixes). Exact reservations from a census
  /// pass keep the append paths to a single allocation.
  void reserve_records(size_t nrecords, size_t record_bytes) {
    offsets_.reserve(offsets_.size() + nrecords);
    arena_.reserve(std::max(arena_.size(), kCountHeaderBytes) + record_bytes);
  }

  /// Forward record `i` of `src` verbatim: one memcpy of the already
  /// wire-encoded bytes (the shuffle/partition/checkpoint-delta hot path).
  void append_record_from(const KvBuffer& src, size_t i) {
    const size_t beg = src.offsets_[i];
    const size_t end =
        i + 1 < src.offsets_.size() ? src.offsets_[i + 1] : src.arena_.size();
    reserve_header();
    offsets_.push_back(arena_.size());
    arena_.insert(arena_.end(), src.arena_.begin() + static_cast<ptrdiff_t>(beg),
                  src.arena_.begin() + static_cast<ptrdiff_t>(end));
    bump_count();
  }

  [[nodiscard]] size_t size() const noexcept { return offsets_.size(); }
  [[nodiscard]] bool empty() const noexcept { return offsets_.empty(); }
  /// Serialized footprint of the records (the unit the shuffle and convert
  /// cost models use): arena bytes minus the count header.
  [[nodiscard]] size_t bytes() const noexcept {
    return arena_.empty() ? 0 : arena_.size() - kCountHeaderBytes;
  }

  [[nodiscard]] KvView view(size_t i) const noexcept {
    const std::byte* base = arena_.data();
    size_t off = offsets_[i];
    const uint32_t klen = get_len(base + off);
    off += kLenPrefixBytes;
    const std::string_view key(reinterpret_cast<const char*>(base + off), klen);
    off += klen;
    const uint32_t vlen = get_len(base + off);
    off += kLenPrefixBytes;
    return {key, {reinterpret_cast<const char*>(base + off), vlen}};
  }
  [[nodiscard]] KvView operator[](size_t i) const noexcept { return view(i); }

  /// Forward iteration over views (range-for support).
  class const_iterator {
   public:
    const_iterator(const KvBuffer* b, size_t i) : buf_(b), i_(i) {}
    KvView operator*() const { return buf_->view(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const KvBuffer* buf_;
    size_t i_;
  };
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, size()}; }

  void clear() noexcept {
    arena_.clear();
    offsets_.clear();
  }

  /// Zero-copy view of the full wire encoding ([u64 count][records...]).
  [[nodiscard]] std::span<const std::byte> wire_view() const noexcept {
    if (arena_.empty()) return {kEmptyWire, kCountHeaderBytes};
    return arena_;
  }

  /// Wire/file encoding as an owned buffer: one allocation + one memcpy.
  [[nodiscard]] Bytes serialize() const {
    const auto w = wire_view();
    return Bytes(w.begin(), w.end());
  }

  /// Move the arena out as the wire encoding (zero-copy send path). The
  /// buffer is left empty.
  [[nodiscard]] Bytes take_wire() && {
    if (arena_.empty()) return Bytes(kCountHeaderBytes, std::byte{0});
    offsets_.clear();
    return std::move(arena_);
  }

  /// Validate `data` as a wire image and copy it in (one memcpy, no
  /// per-pair work). Empty input is an empty buffer. Returns kOutOfRange
  /// on truncation and kCorrupt on structural damage (record count vs
  /// payload mismatch, trailing bytes); `out` is empty on failure.
  static Status deserialize(std::span<const std::byte> data, KvBuffer& out) {
    out.clear();
    if (data.empty()) return Status::Ok();
    if (auto s = index_wire(data, out.offsets_); !s.ok()) {
      out.clear();
      return s;
    }
    if (out.offsets_.empty()) return Status::Ok();  // count==0: stay empty
    out.arena_.assign(data.begin(), data.end());
    return Status::Ok();
  }

  /// Validate and take ownership of a received wire image — the zero-copy
  /// ingest path for shuffle receives and spill page loads.
  Status adopt(Bytes&& wire) {
    clear();
    if (wire.empty()) return Status::Ok();
    if (auto s = index_wire(wire, offsets_); !s.ok()) {
      clear();
      return s;
    }
    if (offsets_.empty()) return Status::Ok();
    arena_ = std::move(wire);
    return Status::Ok();
  }

  /// Append every record of `other`: one memcpy + index extension.
  void merge_from(const KvBuffer& other) {
    if (other.empty()) return;
    reserve_header();
    const size_t base = arena_.size();
    arena_.insert(arena_.end(),
                  other.arena_.begin() + static_cast<ptrdiff_t>(kCountHeaderBytes),
                  other.arena_.end());
    offsets_.reserve(offsets_.size() + other.offsets_.size());
    for (size_t off : other.offsets_) {
      offsets_.push_back(base + (off - kCountHeaderBytes));
    }
    bump_count();
  }

  /// Move `other`'s contents in wholesale: arena move when this buffer is
  /// empty, single-memcpy merge otherwise. `other` is left empty.
  void absorb(KvBuffer&& other) {
    if (empty()) {
      arena_ = std::move(other.arena_);
      offsets_ = std::move(other.offsets_);
    } else {
      merge_from(other);
    }
    other.clear();
  }

  /// Byte-wise equality (same records in the same order).
  friend bool operator==(const KvBuffer& a, const KvBuffer& b) noexcept {
    return a.arena_ == b.arena_;
  }

 private:
  static inline constexpr std::byte kEmptyWire[kCountHeaderBytes] = {};

  void append_len(size_t n) {
    const uint32_t v = static_cast<uint32_t>(n);
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    arena_.insert(arena_.end(), p, p + kLenPrefixBytes);
  }
  void append_body(std::string_view s) {
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    arena_.insert(arena_.end(), p, p + s.size());
  }
  static uint32_t get_len(const std::byte* p) noexcept {
    uint32_t v = 0;
    std::memcpy(&v, p, kLenPrefixBytes);
    return v;
  }

  void reserve_header() {
    if (arena_.empty()) arena_.resize(kCountHeaderBytes);  // zeroed count
  }
  void bump_count() noexcept {
    const uint64_t n = offsets_.size();
    std::memcpy(arena_.data(), &n, kCountHeaderBytes);
  }

  /// Walk a wire image, bounds-checking every record, and fill `offsets`
  /// with the record start positions. Never reads out of bounds: corrupt
  /// input yields kOutOfRange/kCorrupt, not UB.
  static Status index_wire(std::span<const std::byte> wire,
                           std::vector<size_t>& offsets) {
    offsets.clear();
    if (wire.size() < kCountHeaderBytes) {
      return {ErrorCode::kOutOfRange, "kv wire: truncated count header"};
    }
    uint64_t n = 0;
    std::memcpy(&n, wire.data(), kCountHeaderBytes);
    // Each record needs at least its two length prefixes; a count claiming
    // more records than the payload could hold is structural corruption
    // (e.g. a truncated index), caught before any per-record scan.
    if (n > (wire.size() - kCountHeaderBytes) / kPairOverhead) {
      return {ErrorCode::kCorrupt, "kv wire: record count exceeds payload"};
    }
    offsets.reserve(static_cast<size_t>(n));
    uint64_t off = kCountHeaderBytes;
    const uint64_t total = wire.size();
    for (uint64_t i = 0; i < n; ++i) {
      offsets.push_back(static_cast<size_t>(off));
      for (int part = 0; part < 2; ++part) {  // key then value
        if (off + kLenPrefixBytes > total) {
          offsets.clear();
          return {ErrorCode::kOutOfRange, "kv wire: truncated length prefix"};
        }
        const uint32_t len = get_len(wire.data() + off);
        off += kLenPrefixBytes;
        if (len > total - off) {
          offsets.clear();
          return {ErrorCode::kOutOfRange, "kv wire: record overruns arena"};
        }
        off += len;
      }
    }
    if (off != total) {
      offsets.clear();
      return {ErrorCode::kCorrupt, "kv wire: trailing bytes after last record"};
    }
    return Status::Ok();
  }

  Bytes arena_;                  // [u64 count][wire records...]; empty if no pairs
  std::vector<size_t> offsets_;  // record start offsets into arena_
};

class KmvBuffer;

/// Zero-copy view of one grouped entry: a key plus indexed access to its
/// values, all aliasing the owning KmvBuffer's arena.
class KmvView {
 public:
  [[nodiscard]] std::string_view key() const noexcept;
  [[nodiscard]] size_t size() const noexcept;  // number of values
  [[nodiscard]] std::string_view value(size_t i) const noexcept;

 private:
  friend class KmvBuffer;
  KmvView(const KmvBuffer* buf, size_t idx) : buf_(buf), idx_(idx) {}
  const KmvBuffer* buf_;
  size_t idx_;
};

/// Key-multivalue buffer: the result of grouping a KvBuffer by key. Keys
/// and values live in one byte arena; entries index value ranges in a flat
/// value table (no per-entry vector<string>).
class KmvBuffer {
 public:
  // Byte accounting charges each key/value its u32 length prefix, the same
  // unit KvBuffer::kPairOverhead is built from, so KV and KMV volumes are
  // directly comparable in the perf model.
  static constexpr size_t kKeyOverhead = kLenPrefixBytes;
  static constexpr size_t kValueOverhead = kLenPrefixBytes;

  /// Open a new entry. Subsequent append_value() calls attach to it; the
  /// entry is complete at the next begin_entry() (or when the buffer is
  /// read). Values of one entry are contiguous in the value table.
  void begin_entry(std::string_view key) {
    entries_.push_back({arena_.size(), static_cast<uint32_t>(key.size()),
                        values_.size(), 0});
    append_bytes(key);
    bytes_ += key.size() + kKeyOverhead;
  }
  void append_value(std::string_view v) {
    values_.push_back({arena_.size(), static_cast<uint32_t>(v.size())});
    append_bytes(v);
    entries_.back().nvalues++;
    bytes_ += v.size() + kValueOverhead;
  }
  /// Whole-entry convenience.
  void add(std::string_view key, std::span<const std::string_view> values) {
    begin_entry(key);
    for (std::string_view v : values) append_value(v);
  }

  /// Pre-size for `nentries` groups holding `nvalues` values and
  /// `payload_bytes` of raw key+value bytes; the converts census these
  /// exactly, so the emit sweep allocates once.
  void reserve(size_t nentries, size_t nvalues, size_t payload_bytes) {
    entries_.reserve(entries_.size() + nentries);
    values_.reserve(values_.size() + nvalues);
    arena_.reserve(arena_.size() + payload_bytes);
  }

  [[nodiscard]] size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
  [[nodiscard]] size_t bytes() const noexcept { return bytes_; }

  [[nodiscard]] KmvView entry(size_t i) const noexcept { return {this, i}; }

  /// Fill `out` with views of entry `i`'s values (reused scratch storage —
  /// the per-entry span handed to Reducer callbacks).
  void values_of(size_t i, std::vector<std::string_view>& out) const {
    const EntryMeta& e = entries_[i];
    out.clear();
    out.reserve(e.nvalues);
    for (size_t v = e.first_value; v < e.first_value + e.nvalues; ++v) {
      out.push_back(value_at(v));
    }
  }

  /// Sort entries by key (deterministic reduce order). Only the entry
  /// index moves; arena and value table stay put, so views taken after
  /// the sort are stable.
  void sort_by_key();

  void clear() noexcept {
    arena_.clear();
    entries_.clear();
    values_.clear();
    bytes_ = 0;
  }

 private:
  friend class KmvView;
  struct EntryMeta {
    size_t key_off;
    uint32_t key_len;
    size_t first_value;
    size_t nvalues;
  };
  struct ValueRef {
    size_t off;
    uint32_t len;
  };

  void append_bytes(std::string_view s) {
    if (s.empty()) return;
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    arena_.insert(arena_.end(), p, p + s.size());
  }
  [[nodiscard]] std::string_view key_at(size_t i) const noexcept {
    const EntryMeta& e = entries_[i];
    return {reinterpret_cast<const char*>(arena_.data() + e.key_off), e.key_len};
  }
  [[nodiscard]] std::string_view value_at(size_t v) const noexcept {
    const ValueRef& r = values_[v];
    return {reinterpret_cast<const char*>(arena_.data() + r.off), r.len};
  }

  Bytes arena_;                    // keys and values, raw concatenation
  std::vector<EntryMeta> entries_; // entry order (sortable)
  std::vector<ValueRef> values_;   // flat value table, contiguous per entry
  size_t bytes_ = 0;
};

inline std::string_view KmvView::key() const noexcept { return buf_->key_at(idx_); }
inline size_t KmvView::size() const noexcept {
  return buf_->entries_[idx_].nvalues;
}
inline std::string_view KmvView::value(size_t i) const noexcept {
  return buf_->value_at(buf_->entries_[idx_].first_value + i);
}

}  // namespace ftmr::mr
