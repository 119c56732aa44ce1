#include "mr/convert.hpp"

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
                           const SpillConfig& cfg, ConvertStats* stats,
                           size_t segment_bytes, bool two_pass) {
  ConvertStats st;
  const size_t total = in.bytes();
  size_t nbuckets = 1;
  if (cfg.enabled() && total > 0) {
    // Bucket working sets of about budget/4 leave headroom for the chain
    // map and the emitted KMV run while a bucket converts in-core.
    const size_t target = std::max<size_t>(1, cfg.memory_budget / 4);
    nbuckets = std::min<size_t>(64, (total + target - 1) / target);
  }
  st.buckets = nbuckets;
  if (nbuckets <= 1) {
    KvBuffer flat;
    if (auto s = in.drain_to(flat); !s.ok()) return s;
    st.spill_io_seconds += in.take_io_seconds();
    ConvertStats cs;
    KmvBuffer kmv = two_pass ? convert_2pass(flat, &cs, segment_bytes)
                             : convert_4pass(flat, &cs);
    st.bytes_moved = cs.bytes_moved;
    st.passes = cs.passes;
    st.segments = cs.segments;
    st.distinct_keys = cs.distinct_keys;
    if (auto s = out.add_run(std::move(kmv)); !s.ok()) return s;
    if (stats) *stats = st;
    return Status::Ok();
  }
  // Bucket pass — consume `in` page by page, routing each pair by a
  // mixed key hash into its (spillable) bucket. One extra read + write of
  // the full volume on top of the in-core algorithm's two passes.
  //
  // Residency discipline: with all nbuckets live at once, each bucket gets
  // an equal slice of the budget as both its budget AND its page size, so
  // the aggregate stays <= max(budget, kMinBucketPage x nbuckets) instead
  // of nbuckets full-size pages (share() floors at cfg.page_bytes, which
  // at high fanout multiplies to many times the budget). The emitted runs
  // are repaged to the same slice so the k-way merge in for_each_entry —
  // one loaded page per run — is bounded the same way.
  constexpr size_t kMinBucketPage = 128;
  const size_t slice =
      std::max(kMinBucketPage, cfg.memory_budget / nbuckets);
  std::vector<SpillableKvBuffer> buckets;
  buckets.reserve(nbuckets);
  SpillConfig bucket_cfg = cfg;
  bucket_cfg.memory_budget = slice;
  bucket_cfg.page_bytes = slice;
  for (size_t b = 0; b < nbuckets; ++b) {
    buckets.emplace_back(bucket_cfg.sub("cvt_b" + std::to_string(b)));
  }
  out.set_run_page_bytes(slice);
  KvBuffer page;
  bool have = false;
  while (true) {
    if (auto s = in.pop_front_page(page, have); !s.ok()) return s;
    if (!have) break;
    for (size_t i = 0; i < page.size(); ++i) {
      const KvView p = page.view(i);
      const size_t b = mix64(fnv1a(p.key)) % nbuckets;
      if (auto s = buckets[b].add(p.key, p.value); !s.ok()) return s;
    }
  }
  st.spill_io_seconds += in.take_io_seconds();
  st.passes++;
  st.bytes_moved += 2 * total;
  // Convert each bucket in-core; its sorted run joins the k-way merge set.
  for (size_t b = 0; b < nbuckets; ++b) {
    KvBuffer flat;
    if (auto s = buckets[b].drain_to(flat); !s.ok()) return s;
    st.spill_io_seconds += buckets[b].take_io_seconds();
    if (flat.empty()) continue;
    ConvertStats cs;
    KmvBuffer kmv = convert_2pass(flat, &cs, segment_bytes);
    st.bytes_moved += cs.bytes_moved;
    st.segments += cs.segments;
    st.distinct_keys += cs.distinct_keys;
    if (auto s = out.add_run(std::move(kmv)); !s.ok()) return s;
  }
  st.passes += 2;
  if (stats) *stats = st;
  return Status::Ok();
}

}  // namespace ftmr::mr
