// Tests for the MR-MPI data structures: KV/KMV buffers, key partitioning,
// both KV→KMV conversion algorithms (incl. their equivalence property), and
// the paged spill buffer.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "mr/convert.hpp"
#include "mr/shuffle.hpp"
#include "storage/storage.hpp"
#include "tests/test_names.hpp"
#include "tests/test_seed.hpp"

namespace ftmr::mr {
namespace {

std::vector<std::string> values_of(const KmvBuffer& kmv, size_t i) {
  std::vector<std::string_view> views;
  kmv.values_of(i, views);
  return {views.begin(), views.end()};
}

TEST(KvBuffer, AddAndAccounting) {
  KvBuffer kv;
  kv.add("key", "value");
  kv.add("k", "v");
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.bytes(), 3 + 5 + 1 + 1 + 2 * KvBuffer::kPairOverhead);
  kv.clear();
  EXPECT_TRUE(kv.empty());
  EXPECT_EQ(kv.bytes(), 0u);
}

TEST(KvBuffer, SerializeRoundTrip) {
  KvBuffer kv;
  kv.add("alpha", "1");
  kv.add("", "empty-key");
  kv.add("beta", "");
  const Bytes wire = kv.serialize();
  KvBuffer back;
  ASSERT_TRUE(KvBuffer::deserialize(wire, back).ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.view(0), (KvView{"alpha", "1"}));
  EXPECT_EQ(back.view(1), (KvView{"", "empty-key"}));
  EXPECT_EQ(back.view(2), (KvView{"beta", ""}));
}

TEST(KvBuffer, DeserializeEmptyAndCorrupt) {
  KvBuffer out;
  EXPECT_TRUE(KvBuffer::deserialize({}, out).ok());
  EXPECT_TRUE(out.empty());
  Bytes garbage = to_bytes("zz");
  EXPECT_FALSE(KvBuffer::deserialize(garbage, out).ok());
}

TEST(Partition, CoversAllPairsConsistently) {
  KvBuffer kv;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    kv.add("key" + std::to_string(rng.next_below(100)), "v");
  }
  auto parts = partition_by_key(kv, 7);
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, kv.size());
  // Same key never lands in two partitions.
  std::map<std::string, int, std::less<>> where;
  for (int j = 0; j < 7; ++j) {
    for (KvView p : parts[j]) {
      auto [it, inserted] = where.try_emplace(std::string(p.key), j);
      if (!inserted) {
        EXPECT_EQ(it->second, j);
      }
    }
  }
}

KvBuffer random_kv(uint64_t seed, int npairs, int nkeys) {
  KvBuffer kv;
  Rng rng(seed);
  for (int i = 0; i < npairs; ++i) {
    kv.add(tests::numbered("k", rng.next_below(nkeys)),
           tests::numbered("v", rng.next_u64() % 1000));
  }
  return kv;
}

TEST(Convert, FourPassGroupsAllValues) {
  KvBuffer kv;
  kv.add("a", "1");
  kv.add("b", "2");
  kv.add("a", "3");
  ConvertStats st;
  KmvBuffer kmv = convert_4pass(kv, &st);
  ASSERT_EQ(kmv.size(), 2u);
  EXPECT_EQ(kmv.entry(0).key(), "a");
  EXPECT_EQ(values_of(kmv, 0), (std::vector<std::string>{"1", "3"}));
  EXPECT_EQ(kmv.entry(1).key(), "b");
  EXPECT_EQ(st.passes, 4);
  EXPECT_EQ(st.distinct_keys, 2u);
}

TEST(Convert, TwoPassGroupsAllValues) {
  KvBuffer kv;
  kv.add("x", "1");
  kv.add("y", "2");
  kv.add("x", "3");
  ConvertStats st;
  KmvBuffer kmv = convert_2pass(kv, &st);
  ASSERT_EQ(kmv.size(), 2u);
  EXPECT_EQ(kmv.entry(0).key(), "x");
  EXPECT_EQ(values_of(kmv, 0), (std::vector<std::string>{"1", "3"}));
  EXPECT_EQ(st.passes, 2);
}

TEST(Convert, TwoPassMovesHalfTheBytes) {
  KvBuffer kv = random_kv(tests::test_seed(3), 5000, 200);
  ConvertStats s4, s2;
  convert_4pass(kv, &s4);
  convert_2pass(kv, &s2);
  // 4 passes of read+write vs 2 passes of read+write: exactly 2x.
  EXPECT_DOUBLE_EQ(static_cast<double>(s4.bytes_moved),
                   2.0 * static_cast<double>(s2.bytes_moved));
}

TEST(Convert, SmallSegmentsChainAcrossTheLog) {
  KvBuffer kv;
  for (int i = 0; i < 100; ++i) kv.add("samekey", std::string(40, 'v'));
  ConvertStats st;
  KmvBuffer kmv = convert_2pass(kv, &st, /*segment_bytes=*/128);
  ASSERT_EQ(kmv.size(), 1u);
  EXPECT_EQ(kmv.entry(0).size(), 100u);
  // 100 values * ~44B with 128B segments -> many non-contiguous segments.
  EXPECT_GT(st.segments, 30u);
}

// Property: the two conversion algorithms produce identical KMV content on
// random inputs, across a seed sweep.
class ConvertEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConvertEquivalence, TwoPassMatchesFourPass) {
  const KvBuffer kv = random_kv(tests::test_seed(GetParam()), 2000, 97);
  const KmvBuffer a = convert_4pass(kv);
  const KmvBuffer b = convert_2pass(kv, nullptr, 64 + GetParam() * 13);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entry(i).key(), b.entry(i).key());
    EXPECT_EQ(values_of(a, i), values_of(b, i)) << a.entry(i).key();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvertEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ftmr::mr

// ---------------------------------------------------------------------------
// Out-of-core paged KV (spill.hpp)
// ---------------------------------------------------------------------------

#include "mr/spill.hpp"

namespace spill_tests {

struct SpillFixture : ::testing::Test {
  SpillFixture() : tmp("ftmr-spill") {
    ftmr::storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<ftmr::storage::StorageSystem>(o);
  }
  ftmr::storage::TempDir tmp;
  std::unique_ptr<ftmr::storage::StorageSystem> fs;
};

TEST_F(SpillFixture, SmallDataStaysInMemory) {
  ftmr::mr::SpillableKvBuffer buf(fs.get(), 0, "spill", 1 << 10, 1 << 20);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(buf.add(ftmr::tests::numbered("k", i), "v").ok());
  }
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.stats().pages_spilled, 0);
  ftmr::mr::KvBuffer out;
  ASSERT_TRUE(buf.drain_to(out).ok());
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.view(0).key, "k0");
  EXPECT_EQ(out.view(9).key, "k9");
}

TEST_F(SpillFixture, LargeDataSpillsAndStreamsBackInOrder) {
  // Tiny pages + tiny budget: most pages must round-trip through disk.
  ftmr::mr::SpillableKvBuffer buf(fs.get(), 0, "spill", 256, 512);
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        buf.add("key" + std::to_string(i), std::string(20, 'x')).ok());
  }
  EXPECT_EQ(buf.size(), static_cast<size_t>(kN));
  EXPECT_GT(buf.stats().pages_spilled, 10);
  EXPECT_GT(buf.stats().sim_io_seconds, 0.0);
  int idx = 0;
  bool ordered = true;
  ASSERT_TRUE(buf.for_each([&](ftmr::mr::KvView p) {
    if (p.key != "key" + std::to_string(idx)) ordered = false;
    idx++;
  }).ok());
  EXPECT_EQ(idx, kN);
  EXPECT_TRUE(ordered);  // insertion order preserved across spills
  EXPECT_GT(buf.stats().pages_loaded, 10);
}

TEST_F(SpillFixture, DrainEquivalentToPlainBuffer) {
  ftmr::mr::SpillableKvBuffer spilled(fs.get(), 0, "spill", 128, 256);
  ftmr::mr::KvBuffer plain;
  ftmr::Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const std::string k = ftmr::tests::numbered("k", rng.next_below(40));
    const std::string v = ftmr::tests::numbered("v", rng.next_u64() % 1000);
    ASSERT_TRUE(spilled.add(k, v).ok());
    plain.add(k, v);
  }
  ftmr::mr::KvBuffer out;
  ASSERT_TRUE(spilled.drain_to(out).ok());
  ASSERT_EQ(out.size(), plain.size());
  EXPECT_EQ(out, plain);  // byte-wise arena equality
  // Converting the round-tripped data groups identically too.
  const auto a = ftmr::mr::convert_2pass(out);
  const auto b = ftmr::mr::convert_2pass(plain);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    std::vector<std::string_view> va, vb;
    a.values_of(i, va);
    b.values_of(i, vb);
    EXPECT_EQ(va, vb);
  }
}

TEST_F(SpillFixture, ClearRemovesSpillFiles) {
  ftmr::mr::SpillableKvBuffer buf(fs.get(), 0, "spill", 64, 64);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(buf.add("key", "valuevaluevalue").ok());
  }
  EXPECT_GT(buf.stats().pages_spilled, 0);
  ASSERT_TRUE(buf.clear().ok());
  EXPECT_EQ(buf.size(), 0u);
  std::vector<std::string> names;
  ASSERT_TRUE(
      fs->list_dir(ftmr::storage::Tier::kLocal, 0, "spill", names).ok());
  EXPECT_TRUE(names.empty());
}

TEST_F(SpillFixture, NullStorageNeverSpills) {
  ftmr::mr::SpillableKvBuffer buf(nullptr, 0, "spill", 64, 64);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(buf.add("k", "vvvvvvvvvvvv").ok());
  }
  EXPECT_EQ(buf.stats().pages_spilled, 0);
  EXPECT_EQ(buf.size(), 200u);
  int n = 0;
  ASSERT_TRUE(buf.for_each([&](ftmr::mr::KvView) { n++; }).ok());
  EXPECT_EQ(n, 200);
}

}  // namespace spill_tests
