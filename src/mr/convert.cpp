#include "mr/convert.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/hash.hpp"

namespace ftmr::mr {

KmvBuffer convert_4pass(const KvBuffer& in, ConvertStats* stats) {
  constexpr int kBuckets = 16;
  const size_t volume = in.bytes();
  ConvertStats st;

  // Pass 1 — census: scan the KV data, size each hash bucket, and spill the
  // annotated pages back out so pass 2 can pre-allocate its partitions.
  // (Read + write the full volume — MR-MPI's convert touches the
  // intermediate data in every pass.)
  std::vector<size_t> bucket_pairs(kBuckets, 0);
  for (KvView p : in) {
    bucket_pairs[fnv1a(p.key) % kBuckets]++;
  }
  st.passes++;
  st.bytes_moved += 2 * volume;

  // Pass 2 — partition: rewrite every pair into its hash bucket. The
  // buckets hold pair indices; the record bytes never leave `in`'s arena.
  // (Read + write the full volume.)
  std::vector<std::vector<size_t>> buckets(kBuckets);
  for (int b = 0; b < kBuckets; ++b) buckets[b].reserve(bucket_pairs[b]);
  for (size_t i = 0; i < in.size(); ++i) {
    buckets[fnv1a(in.view(i).key) % kBuckets].push_back(i);
  }
  st.passes++;
  st.bytes_moved += 2 * volume;

  // Pass 3 — group: within each bucket, gather each key's values. Keys and
  // values stay as views into `in` (stable: `in` is not mutated here).
  // (Read + write the full volume.)
  std::vector<std::map<std::string_view, std::vector<std::string_view>>> grouped(
      kBuckets);
  for (int b = 0; b < kBuckets; ++b) {
    for (size_t i : buckets[b]) {
      const KvView p = in.view(i);
      grouped[b][p.key].push_back(p.value);
    }
  }
  st.passes++;
  st.bytes_moved += 2 * volume;

  // Pass 4 — emit KMV pages, pre-sized from the grouping (walking the map
  // nodes and value views is cheap next to the byte copies it saves).
  // (Read + write the full volume.)
  KmvBuffer out;
  size_t nentries = 0;
  size_t kmv_payload = 0;
  for (int b = 0; b < kBuckets; ++b) {
    nentries += grouped[b].size();
    for (const auto& [key, values] : grouped[b]) {
      kmv_payload += key.size();
      for (std::string_view v : values) kmv_payload += v.size();
    }
  }
  out.reserve(nentries, in.size(), kmv_payload);
  for (int b = 0; b < kBuckets; ++b) {
    for (auto& [key, values] : grouped[b]) {
      out.begin_entry(key);
      for (std::string_view v : values) out.append_value(v);
      st.distinct_keys++;
    }
  }
  st.passes++;
  st.bytes_moved += 2 * volume;

  out.sort_by_key();
  if (stats) *stats = st;
  return out;
}

KmvBuffer convert_2pass(const KvBuffer& in, ConvertStats* stats,
                        size_t segment_bytes) {
  if (segment_bytes == 0) segment_bytes = 4096;
  const size_t volume = in.bytes();
  ConvertStats st;

  // Log-structured segment store (paper Sec. 5.2, inspired by LFS): values
  // are appended to fixed-size segments; each key owns a chain of segments.
  // A segment holds values of exactly one key, so the chain can own its
  // segments directly and the open segment is simply chain.segments.back()
  // — one hash lookup per pair, keyed by a view into `in`'s arena, and the
  // segments store pair indices instead of copied value strings.
  struct Segment {
    std::vector<size_t> value_pairs;  // indices into `in`, in append order
    size_t used = 0;
  };
  struct KeyChain {
    std::vector<Segment> segments;
    size_t nvalues = 0;
  };
  std::unordered_map<std::string_view, KeyChain> chains;

  // Pass 1 — read the KV data once, append each value to its key's open
  // segment, allocating a new segment when the current one fills up.
  // (Read + write the full volume.)
  size_t kmv_payload = 0;  // raw key+value bytes the KMV arena will hold
  for (size_t i = 0; i < in.size(); ++i) {
    const KvView p = in.view(i);
    KeyChain& chain = chains[p.key];
    if (chain.segments.empty()) kmv_payload += p.key.size();
    kmv_payload += p.value.size();
    const size_t vcost = p.value.size() + KmvBuffer::kValueOverhead;
    if (chain.segments.empty() ||
        chain.segments.back().used + vcost > segment_bytes) {
      chain.segments.push_back({});
      st.segments++;
    }
    Segment& seg = chain.segments.back();
    seg.value_pairs.push_back(i);
    seg.used += vcost;
    chain.nvalues++;
  }
  st.passes++;
  st.bytes_moved += 2 * volume;

  // Pass 2 — single sweep over the chains: merge each key's (possibly
  // non-contiguous) segment chain into one contiguous KMV entry. The pass-1
  // census sized everything, so the sweep allocates once.
  // (Read + write the full volume.)
  KmvBuffer out;
  out.reserve(chains.size(), in.size(), kmv_payload);
  for (auto& [key, chain] : chains) {
    out.begin_entry(key);
    for (const Segment& seg : chain.segments) {
      for (size_t i : seg.value_pairs) out.append_value(in.view(i).value);
    }
    st.distinct_keys++;
  }
  st.passes++;
  st.bytes_moved += 2 * volume;

  out.sort_by_key();
  if (stats) *stats = st;
  return out;
}

Status convert_2pass_spill(SpillableKvBuffer& in, SpillableKmvBuffer& out,
                           size_t memory_budget, ConvertStats* stats,
                           size_t segment_bytes, bool two_pass) {
  ConvertStats st;
  // Convert one run in-core; its key-sorted result joins the merge set.
  auto emit = [&](const KvBuffer& kv) -> Status {
    ConvertStats cs;
    KmvBuffer run = two_pass ? convert_2pass(kv, &cs, segment_bytes)
                             : convert_4pass(kv, &cs);
    st.bytes_moved += cs.bytes_moved;
    st.passes = cs.passes;
    st.segments += cs.segments;
    st.distinct_keys += cs.distinct_keys;
    st.runs++;
    return out.add_run(std::move(run));
  };
  // A run of half the budget leaves the other half for the grouping
  // structure and the KMV run converting it emits.
  const size_t run_bytes = std::max<size_t>(1, memory_budget / 2);
  const size_t total = in.bytes();
  if (memory_budget == 0 || total <= run_bytes) {
    KvBuffer flat;
    if (auto s = in.drain_to(flat); !s.ok()) return s;
    Status s = emit(flat);
    if (stats) *stats = st;
    return s;
  }
  // Run formation: pop `in` page by page into one accumulator, booked on
  // the input's meter while it fills, and convert it whenever it reaches
  // run_bytes. The merge holds one page per run, so runs are paged at
  // budget / nruns to keep it at about one budget.
  constexpr size_t kMinRunPage = 128;
  const size_t nruns = (total + run_bytes - 1) / run_bytes;
  out.set_run_page_bytes(std::max(kMinRunPage, memory_budget / nruns));
  ResidencyBooking booking(in.meter());
  KvBuffer acc;
  KvBuffer page;
  for (bool have = true; have;) {
    if (auto s = in.pop_front_page(page, have); !s.ok()) return s;
    acc.absorb(std::move(page));
    booking.set(acc.bytes());
    if (acc.empty() || (have && acc.bytes() < run_bytes)) continue;
    if (auto s = emit(acc); !s.ok()) return s;
    acc.clear();
    booking.set(0);
  }
  if (stats) *stats = st;
  return Status::Ok();
}

}  // namespace ftmr::mr
