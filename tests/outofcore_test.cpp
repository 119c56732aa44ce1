// Out-of-core KV hot path: the spill layer's failure-path guarantees
// (write-retention + retry ladder, budget accounting including the open
// page, drain_to partial-failure semantics), the KMV page codec, the
// streamed convert's equivalence against the in-core reference under
// randomized page boundaries and its sorted-run I/O and residency, and
// end-to-end budget-mode parity of the
// non-fault-tolerant job (FtMode::kNone) on a dataset far larger than its
// budget. The fault-tolerant modes' paged runs are in ftjob_extra_test
// (OutOfCoreFtJob.*).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/wordcount.hpp"
#include "common/rng.hpp"
#include "core/ftjob.hpp"
#include "mr/convert.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"
#include "tests/test_names.hpp"
#include "tests/test_seed.hpp"

namespace ftmr::mr {
namespace {

struct MiniCluster {
  MiniCluster() : tmp("ftmr-ooc-test") {
    storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(o);
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

SpillConfig cfg_of(storage::StorageSystem* fs, std::string dir,
                   size_t page_bytes, size_t budget) {
  SpillConfig c;
  c.fs = fs;
  c.node = 0;
  c.dir = std::move(dir);
  c.page_bytes = page_bytes;
  c.memory_budget = budget;
  return c;
}

std::map<std::string, int64_t> collect_counts(SpillableKvBuffer& buf) {
  std::map<std::string, int64_t> got;
  EXPECT_TRUE(buf.for_each([&](KvView p) { got[std::string(p.key)]++; }).ok());
  return got;
}

// --- bug (a): a failed spill write must never lose the page ---------------

TEST(SpillFailurePath, WriteFailureRetriesOnLadder) {
  MiniCluster cl;
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 256, 256);
  // One injected failure: the first spill write fails, the ladder retries
  // and succeeds; nothing is lost and nothing is duplicated.
  cl.fs->inject_io_failures(1);
  std::map<std::string, int64_t> want;
  for (int i = 0; i < 200; ++i) {
    const std::string k = "key_" + std::to_string(i);
    ASSERT_TRUE(buf.add(k, "v").ok());
    want[k]++;
  }
  EXPECT_GE(buf.stats().write_retries, 1);
  EXPECT_EQ(buf.stats().write_failures, 0);
  EXPECT_GT(buf.stats().pages_spilled, 0);
  EXPECT_EQ(collect_counts(buf), want);
}

TEST(SpillFailurePath, ExhaustedWriteLadderRetainsPageResident) {
  MiniCluster cl;
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 256, 256);
  std::map<std::string, int64_t> want;
  auto fill = [&](int lo, int hi) {
    Status first;
    for (int i = lo; i < hi; ++i) {
      const std::string k = "key_" + std::to_string(i);
      if (auto s = buf.add(k, "v"); !s.ok() && first.ok()) first = s;
      want[k]++;
    }
    return first;
  };
  ASSERT_TRUE(fill(0, 50).ok());
  // Exhaust the whole ladder (4 attempts per spill; fail well past it).
  cl.fs->inject_io_failures(64);
  const Status failed = fill(50, 200);
  EXPECT_FALSE(failed.ok());  // the error surfaced...
  EXPECT_GT(buf.stats().write_failures, 0);
  // ...but every pair is still present: failed pages stayed resident
  // (over budget, never lost), and reads see them in order.
  EXPECT_EQ(collect_counts(buf), want);
  // The buffer recovers once the storage does.
  ASSERT_TRUE(fill(200, 300).ok());
  EXPECT_EQ(collect_counts(buf), want);
}

// --- bug (b): the budget must count the open page -------------------------

TEST(SpillBudget, ResidencyCountsOpenPage) {
  MiniCluster cl;
  const size_t kPage = 4096;
  const size_t kBudget = 8192;
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", kPage, kBudget);
  const std::string val(100, 'v');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(buf.add(tests::numbered("k", i), val).ok());
    // The budget bounds closed resident pages PLUS the open page. (The
    // pre-fix code kept budget + page_bytes resident: resident_ was only
    // compared against the budget after excluding the open page.)
    ASSERT_LE(buf.resident_bytes(), kBudget)
        << "residency must include the open page";
  }
  EXPECT_GT(buf.stats().pages_spilled, 0);
}

TEST(SpillBudget, SinglePageLargerThanBudgetSpillsOnClose) {
  MiniCluster cl;
  // page > budget: residency may exceed the budget only while the open
  // page is still filling; it spills as soon as it closes.
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 4096, 1024);
  const std::string val(200, 'v');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(buf.add(tests::numbered("k", i), val).ok());
    ASSERT_LE(buf.resident_bytes(), 4096u + 256u);
  }
  EXPECT_GT(buf.stats().pages_spilled, 0);
}

TEST(SpillBudget, ResidencyMeterTracksPeakAcrossBuffers) {
  MiniCluster cl;
  ResidencyMeter meter;
  const size_t kPage = 1024;
  const size_t kBudget = 4096;
  SpillConfig base = cfg_of(cl.fs.get(), "spill_meter", kPage, kBudget);
  base.meter = &meter;
  const std::string val(100, 'v');
  {
    SpillableKvBuffer a(base.sub("a"));
    SpillableKvBuffer b(base.sub("b"));
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(a.add("ka" + std::to_string(i), val).ok());
      ASSERT_TRUE(b.add("kb" + std::to_string(i), val).ok());
      // The meter books the *sum* of both buffers' residency...
      EXPECT_EQ(meter.current, a.resident_bytes() + b.resident_bytes());
    }
    // ...and the peak saw at least the steady-state sum, but never more
    // than both budgets plus one closing page each (the transient
    // over-budget moment enforce_budget books before spilling).
    EXPECT_GE(meter.peak, meter.current);
    EXPECT_GT(meter.peak, 0u);
    EXPECT_LE(meter.peak, 2 * (kBudget + kPage + 256));
  }
  // Destruction releases every booking.
  EXPECT_EQ(meter.current, 0u);
  // Moved-from buffers must not double-release their booking.
  const size_t peak_before = meter.peak;
  {
    SpillableKvBuffer a(base.sub("mv"));
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(a.add("k", val).ok());
    SpillableKvBuffer b(std::move(a));
    EXPECT_EQ(meter.current, b.resident_bytes());
  }
  EXPECT_EQ(meter.current, 0u);
  EXPECT_GE(meter.peak, peak_before);
}

// --- bug (c): drain_to mid-stream failure semantics -----------------------

constexpr int kReadAttempts = storage::RetryPolicy{}.max_attempts;

/// Let the next read (the first spilled page's load) through, then fail
/// every attempt of the one after it (the second page's load).
void fail_second_page_reads(storage::StorageSystem& fs) {
  fs.inject_io_failures(kReadAttempts, {ErrorCode::kIo, "injected"},
                        /*pass_first=*/1);
}

TEST(SpillFailurePath, DrainMidStreamFailureRestoresWellDefinedState) {
  MiniCluster cl;
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 256, 256);
  std::map<std::string, int64_t> want;
  for (int i = 0; i < 300; ++i) {
    const std::string k = "key_" + std::to_string(i);
    ASSERT_TRUE(buf.add(k, "v").ok());
    want[k]++;
  }
  ASSERT_GE(buf.spilled_page_count(), 3u);
  const size_t size_before = buf.size();
  // Make one mid-stream page unreadable (every retry included): the second
  // spilled page fails, after the first was already copied into `out`.
  fail_second_page_reads(*cl.fs);
  KvBuffer out;
  out.add("stale", "contents");  // drain must clear this even on failure
  EXPECT_FALSE(buf.drain_to(out).ok());
  EXPECT_TRUE(out.empty()) << "failed drain must clear out";
  EXPECT_EQ(buf.size(), size_before) << "failed drain must keep all pages";
  EXPECT_EQ(cl.fs->fault_stats().count_failures, kReadAttempts);
  // Every page — including the already-copied prefix — is re-readable.
  ASSERT_TRUE(buf.drain_to(out).ok());
  std::map<std::string, int64_t> got;
  for (KvView p : out) got[std::string(p.key)]++;
  EXPECT_EQ(got, want);
  EXPECT_TRUE(buf.empty());
}

TEST(SpillFailurePath, ClearAfterPartialDrainRemovesAllSpillFiles) {
  MiniCluster cl;
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 256, 256);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(buf.add("key_" + std::to_string(i), "v").ok());
  }
  ASSERT_GE(buf.spilled_page_count(), 2u);
  fail_second_page_reads(*cl.fs);
  KvBuffer out;
  EXPECT_FALSE(buf.drain_to(out).ok());
  EXPECT_EQ(cl.fs->fault_stats().count_failures, kReadAttempts);
  ASSERT_TRUE(buf.clear().ok());
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.resident_bytes(), 0u);
  std::vector<std::string> left;
  ASSERT_TRUE(cl.fs->list_dir(storage::Tier::kLocal, 0, "spill", left).ok());
  EXPECT_TRUE(left.empty()) << "clear() must remove every spill file";
}

// --- fault matrix: probabilistic injector, no pair lost or duplicated -----

TEST(SpillFaultMatrix, NoPairLostOrDuplicatedUnderInjectedFaults) {
  MiniCluster cl;
  storage::FaultInjectorConfig fi;
  fi.seed = tests::test_seed(0x0c1);
  fi.local.p_write_fail = 0.05;
  fi.local.p_torn_write = 0.05;  // caught by the post-write size probe
  fi.local.p_read_fail = 0.05;
  fi.local.p_corrupt_read = 0.05;  // caught by wire validation on adopt
  fi.path_filter = "spill";
  cl.fs->set_fault_injector(fi);
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 512, 1024);
  Rng rng(tests::test_seed(0x0c2));
  std::map<std::string, int64_t> want;
  for (int i = 0; i < 3000; ++i) {
    const std::string k = tests::numbered("k", rng.next_below(500));
    const std::string v(1 + rng.next_below(40), 'x');
    ASSERT_TRUE(buf.add(k, v).ok());
    want[k]++;
  }
  // The injector really fired...
  const auto fstats = cl.fs->fault_stats();
  EXPECT_GT(fstats.write_failures + fstats.torn_writes, 0);
  EXPECT_GT(buf.stats().write_retries + buf.stats().read_retries, 0);
  // ...and the ground truth survives both a streamed read and a drain.
  EXPECT_EQ(collect_counts(buf), want);
  KvBuffer flat;
  ASSERT_TRUE(buf.drain_to(flat).ok());
  std::map<std::string, int64_t> got;
  for (KvView p : flat) got[std::string(p.key)]++;
  EXPECT_EQ(got, want);
}

// --- one append-only segment per store -----------------------------------

/// Files under `dir` on node 0's local tier.
std::vector<std::string> files_in(storage::StorageSystem& fs,
                                  const std::string& dir) {
  std::vector<std::string> names;
  EXPECT_TRUE(fs.list_dir(storage::Tier::kLocal, 0, dir, names).ok());
  return names;
}

/// 300 pairs into 256-byte pages under a 256-byte budget: >= 3 spill.
void fill_kv(SpillableKvBuffer& buf) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(buf.add(tests::numbered("key_", i), "v").ok());
  }
  ASSERT_GE(buf.spilled_page_count(), 3u);
}

TEST(SpillSegment, KvStoreHoldsOneFileUntilPoppedClearedOrDestroyed) {
  MiniCluster cl;
  const std::vector<std::string> one = {"kv.pages"};
  {
    SpillableKvBuffer buf(cl.fs.get(), 0, "seg/pop", 256, 256);
    fill_kv(buf);
    EXPECT_EQ(files_in(*cl.fs, "seg/pop"), one);
    EXPECT_EQ(buf.stats().files_created, 1);
    EXPECT_GE(buf.stats().pages_spilled, 3);
    // The file outlives every spilled page but the last; popping that one
    // removes it.
    KvBuffer page;
    bool have = true;
    size_t pairs = 0;
    while (true) {
      ASSERT_TRUE(buf.pop_front_page(page, have).ok());
      if (!have) break;
      pairs += page.size();
      if (buf.spilled_page_count() > 0) {
        EXPECT_EQ(files_in(*cl.fs, "seg/pop"), one);
      }
    }
    EXPECT_EQ(pairs, 300u);
    EXPECT_TRUE(files_in(*cl.fs, "seg/pop").empty());
  }
  {
    SpillableKvBuffer buf(cl.fs.get(), 0, "seg/clear", 256, 256);
    fill_kv(buf);
    EXPECT_EQ(files_in(*cl.fs, "seg/clear"), one);
    ASSERT_TRUE(buf.clear().ok());
    EXPECT_TRUE(files_in(*cl.fs, "seg/clear").empty());
  }
  {
    SpillableKvBuffer buf(cl.fs.get(), 0, "seg/dtor", 256, 256);
    fill_kv(buf);
    EXPECT_EQ(files_in(*cl.fs, "seg/dtor"), one);
  }
  EXPECT_TRUE(files_in(*cl.fs, "seg/dtor").empty());
  {
    // A move hands the segment over: the moved-from store neither removes
    // nor shares it.
    SpillableKvBuffer from(cl.fs.get(), 0, "seg/move", 256, 256);
    fill_kv(from);
    SpillableKvBuffer to(std::move(from));
    ASSERT_TRUE(from.clear().ok());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(files_in(*cl.fs, "seg/move"), one);
    EXPECT_EQ(collect_counts(to).size(), 300u);
  }
  EXPECT_TRUE(files_in(*cl.fs, "seg/move").empty());
}

TEST(SpillSegment, KmvStoreHoldsOneFileUntilClearedOrDestroyed) {
  MiniCluster cl;
  auto fill = [](SpillableKmvBuffer& kmv) {
    for (int r = 0; r < 2; ++r) {
      KmvBuffer run;
      for (int k = 0; k < 60; ++k) {
        run.begin_entry(tests::numbered("key_", 100 + k));
        run.append_value(tests::numbered("v", r));
      }
      ASSERT_TRUE(kmv.add_run(std::move(run)).ok());
    }
    ASSERT_GE(kmv.stats().pages_spilled, 3);
  };
  const std::vector<std::string> one = {"kmv.pages"};
  {
    SpillableKmvBuffer kmv(cfg_of(cl.fs.get(), "seg/kmv_clear", 256, 256));
    fill(kmv);
    EXPECT_EQ(files_in(*cl.fs, "seg/kmv_clear"), one);
    EXPECT_EQ(kmv.stats().files_created, 1);
    // Every entry streams back from its extent, both runs merged.
    size_t entries = 0;
    ASSERT_TRUE(kmv.for_each_entry(0, [&](std::string_view,
                                          std::span<const std::string_view> vs) {
                     EXPECT_EQ(vs.size(), 2u);
                     entries++;
                     return Status::Ok();
                   })
                    .ok());
    EXPECT_EQ(entries, 60u);
    ASSERT_TRUE(kmv.clear().ok());
    EXPECT_TRUE(files_in(*cl.fs, "seg/kmv_clear").empty());
  }
  {
    SpillableKmvBuffer kmv(cfg_of(cl.fs.get(), "seg/kmv_dtor", 256, 256));
    fill(kmv);
    EXPECT_EQ(files_in(*cl.fs, "seg/kmv_dtor"), one);
  }
  EXPECT_TRUE(files_in(*cl.fs, "seg/kmv_dtor").empty());
}

TEST(SpillSegment, TornAppendIsRetriedPastItsDeadTail) {
  MiniCluster cl;
  SpillableKvBuffer buf(cl.fs.get(), 0, "seg/torn", 256, 256);
  std::map<std::string, int64_t> want;
  int i = 0;
  auto add = [&] {
    const std::string k = tests::numbered("key_", i++);
    ASSERT_TRUE(buf.add(k, "v").ok());
    want[k]++;
  };
  // The first page starts the file; the tear must hit an append after it.
  while (buf.stats().pages_spilled == 0) add();
  storage::FaultInjectorConfig fi;
  fi.local.p_torn_write = 1.0;
  fi.max_faults = 1;  // exactly one torn append; its retry goes through
  fi.path_filter = "kv.pages";
  cl.fs->set_fault_injector(fi);
  while (i < 300) add();
  EXPECT_EQ(cl.fs->fault_stats().torn_writes, 1);
  EXPECT_EQ(buf.stats().write_retries, 1);
  EXPECT_EQ(buf.stats().write_failures, 0);
  EXPECT_EQ(buf.stats().files_created, 1);
  // The torn prefix stays in the file as dead bytes between two pages.
  EXPECT_GT(cl.fs->file_size(storage::Tier::kLocal, 0, "seg/torn/kv.pages"),
            static_cast<int64_t>(buf.stats().bytes_spilled));
  // No pair lost, none duplicated: streamed, then drained.
  EXPECT_EQ(collect_counts(buf), want);
  KvBuffer flat;
  ASSERT_TRUE(buf.drain_to(flat).ok());
  std::map<std::string, int64_t> got;
  for (KvView p : flat) got[std::string(p.key)]++;
  EXPECT_EQ(got, want);
  EXPECT_EQ(flat.size(), 300u);
}

// --- KMV page codec -------------------------------------------------------

TEST(KmvCodec, RoundTripsEntriesValuesAndEmpties) {
  KmvBuffer kmv;
  kmv.begin_entry("alpha");
  kmv.append_value("1");
  kmv.append_value("");
  kmv.begin_entry("");  // empty key, no values
  kmv.begin_entry("beta");
  kmv.append_value(std::string(5000, 'j'));  // jumbo value
  const Bytes wire = encode_kmv(kmv);
  KmvBuffer back;
  ASSERT_TRUE(decode_kmv(wire, back).ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.entry(0).key(), "alpha");
  ASSERT_EQ(back.entry(0).size(), 2u);
  EXPECT_EQ(back.entry(0).value(0), "1");
  EXPECT_EQ(back.entry(0).value(1), "");
  EXPECT_EQ(back.entry(1).key(), "");
  EXPECT_EQ(back.entry(1).size(), 0u);
  EXPECT_EQ(back.entry(2).value(0), std::string(5000, 'j'));
}

TEST(KmvCodec, RejectsTruncationAndTrailingBytes) {
  KmvBuffer kmv;
  kmv.begin_entry("key");
  kmv.append_value("value");
  Bytes wire = encode_kmv(kmv);
  KmvBuffer back;
  for (size_t cut : {size_t{1}, wire.size() / 2, wire.size() - 1}) {
    Bytes trunc(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(decode_kmv(trunc, back).ok()) << "cut=" << cut;
    EXPECT_TRUE(back.empty());
  }
  Bytes extra = wire;
  extra.push_back(std::byte{0x5a});
  EXPECT_FALSE(decode_kmv(extra, back).ok());
}

// --- streamed convert vs in-core reference (randomized boundaries) --------

std::vector<std::pair<std::string, std::vector<std::string>>> materialize(
    SpillableKmvBuffer& kmv, size_t skip = 0) {
  std::vector<std::pair<std::string, std::vector<std::string>>> got;
  EXPECT_TRUE(kmv.for_each_entry(
                     skip,
                     [&](std::string_view key,
                         std::span<const std::string_view> values) -> Status {
                       got.emplace_back(std::string(key),
                                        std::vector<std::string>(values.begin(),
                                                                 values.end()));
                       return Status::Ok();
                     })
                  .ok());
  return got;
}

TEST(StreamedConvert, MatchesInCoreReferenceAcrossRandomBoundaries) {
  Rng rng(tests::test_seed(0x0c3));
  for (int iter = 0; iter < 8; ++iter) {
    MiniCluster cl;
    const size_t page = 64 + rng.next_below(1024);
    const size_t budget = 256 + rng.next_below(4096);
    const int npairs = 200 + static_cast<int>(rng.next_below(1500));
    KvBuffer flat;
    SpillableKvBuffer spill(
        cfg_of(cl.fs.get(), "cvt_in", page, budget));
    for (int i = 0; i < npairs; ++i) {
      const std::string k = "key" + std::to_string(rng.next_below(64));
      std::string v = std::to_string(rng.next_u64());
      if (rng.next_below(20) == 0) v.append(3000, 'J');  // jumbo
      flat.add(k, v);
      ASSERT_TRUE(spill.add(k, v).ok());
    }
    // Reference: in-core 2-pass convert, globally key-sorted.
    KmvBuffer ref = convert_2pass(flat);
    // Streamed: sorted runs + k-way merged iteration.
    SpillableKmvBuffer out(cfg_of(cl.fs.get(), "cvt_out", page, budget));
    ConvertStats cs;
    ASSERT_TRUE(convert_2pass_spill(spill, out, budget, &cs).ok());
    EXPECT_TRUE(spill.empty()) << "convert consumes its input";
    const auto got = materialize(out);
    ASSERT_EQ(got.size(), ref.size()) << "iter=" << iter;
    std::vector<std::string_view> vals;
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].first, ref.entry(i).key()) << "iter=" << iter;
      ref.values_of(i, vals);
      ASSERT_EQ(got[i].second.size(), vals.size())
          << "iter=" << iter << " key=" << got[i].first;
      for (size_t v = 0; v < vals.size(); ++v) {
        EXPECT_EQ(got[i].second[v], vals[v]);
      }
    }
    // The skip cursor resumes mid-stream exactly.
    if (!got.empty()) {
      const size_t skip = got.size() / 2;
      const auto tail = materialize(out, skip);
      ASSERT_EQ(tail.size(), got.size() - skip);
      for (size_t i = 0; i < tail.size(); ++i) EXPECT_EQ(tail[i], got[i + skip]);
    }
  }
}

/// `n` filler pairs ("a<k>" and "z<k>", sorting on both sides of the hot
/// key) with one "m_hot" pair after every third; returns the hot values,
/// h0, h1, ..., in insertion order. With 256-byte pages every page holds
/// a hot pair.
std::vector<std::string> fill_with_hot_key(SpillableKvBuffer& in, int n,
                                           Rng& rng) {
  std::vector<std::string> hot;
  for (int i = 0; i < n; ++i) {
    const std::string k = tests::numbered(rng.next_below(2) ? "a" : "z",
                                          rng.next_below(40));
    EXPECT_TRUE(in.add(k, std::to_string(rng.next_u64())).ok());
    if (i % 3 == 2) {
      hot.push_back(tests::numbered("h", hot.size()));
      EXPECT_TRUE(in.add("m_hot", hot.back()).ok());
    }
  }
  return hot;
}

TEST(StreamedConvert, HotKeyAcrossEveryRunKeepsArrivalOrder) {
  MiniCluster cl;
  Rng rng(tests::test_seed(0x0c4));
  SpillableKvBuffer in(cfg_of(cl.fs.get(), "hot_in", 256, 512));
  const std::vector<std::string> hot = fill_with_hot_key(in, 1500, rng);
  ASSERT_GT(in.spilled_page_count(), 0u);
  size_t pages = 0;
  ASSERT_TRUE(in.for_each_page([&](const KvBuffer& page) {
                  bool has_hot = false;
                  for (KvView p : page) has_hot = has_hot || p.key == "m_hot";
                  EXPECT_TRUE(has_hot) << "page " << pages;
                  pages++;
                  return Status::Ok();
                })
                  .ok());
  SpillableKmvBuffer out(cfg_of(cl.fs.get(), "hot_out", 256, 2048));
  ConvertStats cs;
  ASSERT_TRUE(convert_2pass_spill(in, out, 2048, &cs).ok());
  ASSERT_GE(cs.runs, 8u);
  EXPECT_EQ(out.runs(), cs.runs);
  EXPECT_GT(out.stats().pages_spilled, 0);

  const auto all = materialize(out);
  size_t at = all.size();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].first == "m_hot") at = i;
  }
  ASSERT_LT(at, all.size());
  ASSERT_GT(at, 0u) << "filler keys sort on both sides of the hot key";
  EXPECT_EQ(all[at].second, hot);
  // The recovery cursor lands mid-stream, before and exactly on the hot key.
  for (size_t skip : {at / 2, at}) {
    const auto tail = materialize(out, skip);
    ASSERT_EQ(tail.size(), all.size() - skip);
    EXPECT_EQ(tail[at - skip].first, "m_hot");
    EXPECT_EQ(tail[at - skip].second, hot) << "skip=" << skip;
  }
}

TEST(StreamedConvert, ConvertRewritesNoKvPages) {
  MiniCluster cl;
  Rng rng(tests::test_seed(0x0c6));
  SpillableKvBuffer in(cfg_of(cl.fs.get(), "norw_in", 256, 512));
  (void)fill_with_hot_key(in, 1500, rng);
  const size_t kv_bytes = in.bytes();
  ASSERT_GT(in.spilled_page_count(), 0u);
  const int in_files = in.stats().files_created;
  SpillableKmvBuffer out(cfg_of(cl.fs.get(), "norw_out", 256, 2048));
  const storage::TierStats before = cl.fs->stats(storage::Tier::kLocal);
  ConvertStats cs;
  ASSERT_TRUE(convert_2pass_spill(in, out, 2048, &cs).ok());
  const storage::TierStats after = cl.fs->stats(storage::Tier::kLocal);
  ASSERT_GT(cs.runs, 1u);
  // The input pages are read back once and never rewritten: every byte
  // the convert writes is a KMV run page (its CRC trailer included).
  EXPECT_EQ(in.stats().files_created, in_files) << "no new KV segment";
  const size_t written = after.bytes_written - before.bytes_written;
  EXPECT_LE(written, out.stats().bytes_spilled);
  EXPECT_EQ(after.write_ops - before.write_ops, out.stats().pages_spilled);
  // The modeled cost is the in-core algorithm's: two passes over the input.
  EXPECT_EQ(cs.passes, 2);
  EXPECT_EQ(cs.bytes_moved, 4 * kv_bytes);
}

TEST(StreamedConvert, BooksTheFillingRunOnTheInputMeter) {
  MiniCluster cl;
  Rng rng(tests::test_seed(0x0c7));
  ResidencyMeter meter;
  SpillConfig in_cfg = cfg_of(cl.fs.get(), "meter_in", 256, 512);
  in_cfg.meter = &meter;
  SpillableKvBuffer in(in_cfg);
  (void)fill_with_hot_key(in, 1500, rng);
  // The input holds at most its 512-byte budget plus a closing page, so a
  // peak past the 1024-byte run can only be the convert's accumulator.
  meter.peak = meter.current;
  ASSERT_LE(meter.peak, 1024u);
  SpillableKmvBuffer out(cfg_of(cl.fs.get(), "meter_out", 256, 2048));
  ASSERT_TRUE(convert_2pass_spill(in, out, 2048).ok());
  EXPECT_GE(meter.peak, 1024u);
  EXPECT_LE(meter.peak, 1024u + 512u)
      << "a run of whole input pages plus the input's open page";
  EXPECT_EQ(meter.current, 0u) << "the booking is released";
}

// --- end-to-end budget mode ----------------------------------------------

Bytes read_part(storage::StorageSystem& fs, const std::string& dir, int rank) {
  char name[64];
  std::snprintf(name, sizeof(name), "part-%05d", rank);
  Bytes data;
  EXPECT_TRUE(
      fs.read_file(storage::Tier::kShared, 0, dir + "/" + name, data).ok());
  return data;
}

TEST(OutOfCoreJob, OutputByteIdenticalToInCore) {
  MiniCluster cl;
  Rng rng(tests::test_seed(0x0c5));
  // ~200 KB of input against an 8 KB per-rank budget: the dataset is far
  // larger than memory, and every phase must page.
  for (int i = 0; i < 16; ++i) {
    std::string text;
    for (int w = 0; w < 1500; ++w) {
      text += "word" + std::to_string(rng.next_below(300));
      text += ' ';
    }
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%03d", i);
    ASSERT_TRUE(cl.fs->write_file(storage::Tier::kShared, 0,
                                  std::string("input/") + name,
                                  as_bytes_view(text))
                    .ok());
  }
  const int kRanks = 4;
  auto run_mode = [&](size_t budget, const std::string& out_dir) {
    simmpi::JobResult r = simmpi::Runtime::run(kRanks, [&](simmpi::Comm& c) {
      core::FtJobOptions o;
      o.mode = core::FtMode::kNone;
      o.ckpt.enabled = false;
      o.ppn = 2;
      o.two_pass_convert = true;
      o.output_dir = out_dir;
      o.memory_budget = budget;
      o.spill_dir = "spill_" + out_dir;
      o.spill_page_bytes = 2048;
      core::FtJob job(c, cl.fs.get(), o);
      const core::StageFns fns = apps::wordcount_stage();
      ASSERT_TRUE(job.run([&](core::FtJob& j) {
                       if (auto s = j.run_stage(fns, false, nullptr); !s.ok()) {
                         return s;
                       }
                       return j.write_output();
                     }).ok());
    });
    ASSERT_EQ(r.finished_count(), kRanks);
  };
  run_mode(0, "out_incore");
  const size_t local_written_before =
      cl.fs->stats(storage::Tier::kLocal).bytes_written;
  run_mode(8192, "out_ooc");
  // The out-of-core run really paged to the local tier...
  EXPECT_GT(cl.fs->stats(storage::Tier::kLocal).bytes_written,
            local_written_before + 100 * 1024)
      << "budget mode must actually spill";
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(read_part(*cl.fs, "out_ooc", r),
              read_part(*cl.fs, "out_incore", r))
        << "rank " << r << " part file must be byte-identical";
  }
  // ...and cleaned its scratch up afterwards, on every node.
  for (int node = 0; node < kRanks / 2; ++node) {
    std::vector<std::string> spilled;
    ASSERT_TRUE(cl.fs->list_dir(storage::Tier::kLocal, node, "spill_out_ooc",
                                spilled)
                    .ok());
    EXPECT_TRUE(spilled.empty())
        << "node " << node << " spill scratch must be cleaned up";
  }
}

}  // namespace
}  // namespace ftmr::mr
