// Checkpoint integrity layer: CRC framing round trips and rejection, the
// probabilistic storage fault injector, copier/prefetcher retry and
// permanent-failure reporting, tier-fallback recovery in the checkpoint
// manager, and end-to-end FtJob recovery under torn writes and bit rot.
#include <gtest/gtest.h>

#include <map>

#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "core/checkpoint.hpp"
#include "core/ftjob.hpp"
#include "simmpi/runtime.hpp"
#include "storage/copier.hpp"
#include "storage/storage.hpp"
#include "tests/test_names.hpp"
#include "tests/test_seed.hpp"

namespace ftmr::core {
namespace {

using simmpi::Comm;
using simmpi::Runtime;

// ---------------------------------------------------------------------------
// Frame round trip and rejection
// ---------------------------------------------------------------------------

Bytes payload_of(std::string_view s) {
  auto v = as_bytes_view(s);
  return Bytes(v.begin(), v.end());
}

TEST(CkptFrame, RoundTrips) {
  const Bytes payload = payload_of("checkpoint payload bytes");
  const Bytes framed = frame_checkpoint(payload);
  EXPECT_EQ(framed.size(), payload.size() + kCkptFrameOverhead);
  Bytes back;
  ASSERT_TRUE(unframe_checkpoint(framed, back).ok());
  EXPECT_EQ(back, payload);
}

TEST(CkptFrame, EmptyPayloadRoundTrips) {
  const Bytes framed = frame_checkpoint({});
  EXPECT_EQ(framed.size(), kCkptFrameOverhead);
  Bytes back{std::byte{0xFF}};
  ASSERT_TRUE(unframe_checkpoint(framed, back).ok());
  EXPECT_TRUE(back.empty());
}

TEST(CkptFrame, DetectsEverySingleBitFlip) {
  const Bytes framed = frame_checkpoint(payload_of("abc"));
  for (size_t i = 0; i < framed.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = framed;
      bad[i] ^= static_cast<std::byte>(1u << bit);
      Bytes out;
      EXPECT_EQ(unframe_checkpoint(bad, out).code(), ErrorCode::kCorrupt)
          << "flip at byte " << i << " bit " << bit << " went undetected";
    }
  }
}

TEST(CkptFrame, DetectsEveryTruncation) {
  // A torn write persists an arbitrary strict prefix; all of them must be
  // rejected, including prefixes shorter than the header.
  const Bytes framed = frame_checkpoint(payload_of("torn write victim"));
  for (size_t n = 0; n < framed.size(); ++n) {
    Bytes out;
    EXPECT_EQ(
        unframe_checkpoint(std::span(framed).first(n), out).code(),
        ErrorCode::kCorrupt)
        << "prefix of " << n << " bytes went undetected";
  }
}

TEST(CkptFrame, RejectsUnknownVersionAndTrailingGarbage) {
  Bytes framed = frame_checkpoint(payload_of("x"));
  Bytes versioned = framed;
  versioned[4] = std::byte{0x7F};  // version field
  Bytes out;
  EXPECT_EQ(unframe_checkpoint(versioned, out).code(), ErrorCode::kCorrupt);
  Bytes longer = framed;
  longer.push_back(std::byte{0});  // length no longer matches frame size
  EXPECT_EQ(unframe_checkpoint(longer, out).code(), ErrorCode::kCorrupt);
}

// ---------------------------------------------------------------------------
// Storage fault injector
// ---------------------------------------------------------------------------

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() : tmp_("ftmr-integrity-inj") {
    storage::StorageOptions opts;
    opts.root = tmp_.path();
    fs_ = std::make_unique<storage::StorageSystem>(opts);
  }
  storage::TempDir tmp_;
  std::unique_ptr<storage::StorageSystem> fs_;
};

TEST_F(InjectorTest, TornWriteReportsSuccessButPersistsPrefix) {
  storage::FaultInjectorConfig fc;
  fc.local.p_torn_write = 1.0;
  fs_->set_fault_injector(fc);
  const std::string data = "twelve bytes";
  // The write *claims* success — a process dying mid-write never sees an
  // error either. Only the CRC frame can catch this.
  ASSERT_TRUE(fs_->write_file(storage::Tier::kLocal, 0, "f",
                              as_bytes_view(data)).ok());
  fs_->clear_fault_injector();
  Bytes out;
  ASSERT_TRUE(fs_->read_file(storage::Tier::kLocal, 0, "f", out).ok());
  EXPECT_LT(out.size(), data.size());
  EXPECT_GE(fs_->fault_stats().torn_writes, 1);
}

TEST_F(InjectorTest, CorruptReadFlipsOneBitAndIsTransient) {
  ASSERT_TRUE(fs_->write_file(storage::Tier::kShared, 0, "f",
                              as_bytes_view("stable bytes")).ok());
  storage::FaultInjectorConfig fc;
  fc.shared.p_corrupt_read = 1.0;
  fs_->set_fault_injector(fc);
  Bytes corrupted;
  ASSERT_TRUE(fs_->read_file(storage::Tier::kShared, 0, "f", corrupted).ok());
  EXPECT_NE(to_string_copy(corrupted), "stable bytes");
  EXPECT_EQ(corrupted.size(), 12u);  // size intact: exactly one bit flipped
  fs_->clear_fault_injector();
  // The file itself is untouched — a re-read can succeed.
  Bytes clean;
  ASSERT_TRUE(fs_->read_file(storage::Tier::kShared, 0, "f", clean).ok());
  EXPECT_EQ(to_string_copy(clean), "stable bytes");
  EXPECT_GE(fs_->fault_stats().corrupt_reads, 1);
}

TEST_F(InjectorTest, PathFilterScopesFaults) {
  storage::FaultInjectorConfig fc;
  fc.local.p_write_fail = 1.0;
  fc.path_filter = "ck/r2";
  fs_->set_fault_injector(fc);
  EXPECT_TRUE(fs_->write_file(storage::Tier::kLocal, 0, "input/chunk0",
                              as_bytes_view("x")).ok());
  EXPECT_EQ(fs_->write_file(storage::Tier::kLocal, 0, "ck/r2/map_x",
                            as_bytes_view("x")).code(),
            ErrorCode::kIo);
}

TEST_F(InjectorTest, SameSeedSameFaultSequence) {
  auto run = [&](uint64_t seed) {
    std::vector<bool> outcomes;
    storage::FaultInjectorConfig fc;
    fc.seed = seed;
    fc.shared.p_write_fail = 0.5;
    fs_->set_fault_injector(fc);
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(
          fs_->write_file(storage::Tier::kShared, 0, tests::numbered("f", i),
                          as_bytes_view("x")).ok());
    }
    fs_->clear_fault_injector();
    return outcomes;
  };
  const auto a = run(tests::test_seed(0x42)), b = run(tests::test_seed(0x42)),
             c = run(tests::test_seed(7));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // (astronomically unlikely to collide over 64 draws)
}

// ---------------------------------------------------------------------------
// Copier retry / permanent failure reporting
// ---------------------------------------------------------------------------

TEST_F(InjectorTest, CopierRetriesTransientErrorThenSucceeds) {
  ASSERT_TRUE(fs_->write_file(storage::Tier::kLocal, 0, "ck/f",
                              as_bytes_view("payload")).ok());
  storage::CopierAgent copier(fs_.get(), 0, 1);
  fs_->inject_io_failures(1, {ErrorCode::kIo, "transient"});
  double done_at = 0.0;
  ASSERT_TRUE(copier.enqueue("ck/f", "ck/f", 0.0, &done_at).ok());
  EXPECT_EQ(copier.retries(), 1);
  EXPECT_TRUE(copier.failed_drains().empty());
  // The sat-out backoff stretches the copier's timeline beyond pure I/O.
  storage::RetryPolicy pol;
  EXPECT_GE(done_at, pol.backoff_before(1));
  EXPECT_TRUE(fs_->exists(storage::Tier::kShared, 0, "ck/f"));
}

TEST_F(InjectorTest, CopierReportsPermanentFailure) {
  ASSERT_TRUE(fs_->write_file(storage::Tier::kLocal, 0, "ck/f",
                              as_bytes_view("payload")).ok());
  storage::CopierAgent copier(fs_.get(), 0, 1);
  storage::RetryPolicy pol;
  fs_->inject_io_failures(pol.max_attempts, {ErrorCode::kIo, "disk on fire"});
  EXPECT_EQ(copier.enqueue("ck/f", "ck/f", 0.0).code(), ErrorCode::kIo);
  ASSERT_EQ(copier.failed_drains().size(), 1u);
  EXPECT_EQ(copier.failed_drains()[0].local_path, "ck/f");
  EXPECT_EQ(copier.retries(), pol.max_attempts - 1);
  EXPECT_EQ(copier.copies(), 0);
}

TEST_F(InjectorTest, CopierFailsFastOnMissingSource) {
  storage::CopierAgent copier(fs_.get(), 0, 1);
  EXPECT_EQ(copier.enqueue("ck/absent", "ck/absent", 0.0).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(copier.retries(), 0);  // waiting cannot make the file appear
  ASSERT_EQ(copier.failed_drains().size(), 1u);
}

TEST_F(InjectorTest, PrefetcherRetriesAndStagesThroughTransientError) {
  ASSERT_TRUE(fs_->write_file(storage::Tier::kShared, 0, "ck/f",
                              as_bytes_view("prefetched")).ok());
  storage::Prefetcher pf(fs_.get(), 0, 1);
  fs_->inject_io_failures(1, {ErrorCode::kIo, "transient"});
  std::vector<std::string> paths{"ck/f"};
  ASSERT_TRUE(pf.start(paths, "stage", 0.0).ok());
  EXPECT_EQ(pf.retries(), 1);
  ASSERT_TRUE(pf.staged_ok(0));
  Bytes out;
  double cost = 0.0;
  ASSERT_TRUE(pf.read(0, 0.0, out, &cost).ok());
  EXPECT_EQ(to_string_copy(out), "prefetched");
}

// ---------------------------------------------------------------------------
// CheckpointManager: verify, fall back across tiers, quarantine
// ---------------------------------------------------------------------------

struct IntegrityCkptFixture : ::testing::Test {
  IntegrityCkptFixture() : tmp("ftmr-integrity-ckpt") {
    storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(o);
  }
  mr::KvBuffer kv(std::initializer_list<std::pair<const char*, const char*>> ps) {
    mr::KvBuffer b;
    for (auto& [k, v] : ps) b.add(k, v);
    return b;
  }
  /// An in-memory partition store holding `ps`, the kind an in-core job
  /// checkpoints.
  mr::SpillableKvBuffer store(
      std::initializer_list<std::pair<const char*, const char*>> ps) {
    mr::SpillableKvBuffer s;
    (void)s.absorb_kv(kv(ps));
    return s;
  }
  // Overwrite one checkpoint file (selected by substring) with a torn
  // prefix of itself, simulating a write cut short by a crash.
  void tear_file(storage::Tier tier, const std::string& substr) {
    std::vector<std::string> names;
    ASSERT_TRUE(fs->list_dir(tier, 0, "ck/r0", names).ok());
    for (const auto& n : names) {
      if (n.find(substr) == std::string::npos) continue;
      Bytes data;
      ASSERT_TRUE(fs->read_file(tier, 0, "ck/r0/" + n, data).ok());
      ASSERT_GT(data.size(), 4u);
      ASSERT_TRUE(fs->write_file(tier, 0, "ck/r0/" + n,
                                 std::span(data).first(data.size() / 2)).ok());
      return;
    }
    FAIL() << "no file matching " << substr << " to tear";
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

TEST_F(IntegrityCkptFixture, TornSharedCopyServedFromLocalReplica) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;  // kLocalWithCopier: file exists on both tiers
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    auto part3 = store({{"k", "v"}});
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part3).ok());
    tear_file(storage::Tier::kShared, "part_");
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 0, 0, /*from_shared=*/true, 1e9, rec).ok());
    ASSERT_TRUE(rec.partitions.count(3));  // recovered via the local replica
    EXPECT_GE(rec.corrupt_frames, 1u);
    EXPECT_EQ(rec.tier_fallbacks, 1u);
    EXPECT_EQ(rec.quarantined, 0u);
    EXPECT_GE(cm.integrity().tier_fallbacks, 1);
  });
}

TEST_F(IntegrityCkptFixture, TornLocalFileServedFromDrainedSharedCopy) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    auto part3 = store({{"k", "v"}});
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part3).ok());
    tear_file(storage::Tier::kLocal, "part_");
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 0, 0, /*from_shared=*/false, -1.0, rec).ok());
    ASSERT_TRUE(rec.partitions.count(3));  // recovered via the stamped shared copy
    EXPECT_EQ(rec.tier_fallbacks, 1u);
    EXPECT_EQ(rec.quarantined, 0u);
  });
}

TEST_F(IntegrityCkptFixture, BothReplicasTornQuarantinesAndKeepsRest) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    auto part3 = store({{"k", "v"}});
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part3).ok());
    auto part4 = store({{"k2", "v2"}});
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 4, part4).ok());
    tear_file(storage::Tier::kShared, "p000000000003");
    tear_file(storage::Tier::kLocal, "p000000000003");
    RankRecovery rec;
    // Load still succeeds: partition 3 is lost (bounded), partition 4 intact.
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 0, 0, /*from_shared=*/true, 1e9, rec).ok());
    EXPECT_FALSE(rec.partitions.count(3));
    EXPECT_TRUE(rec.partitions.count(4));
    EXPECT_EQ(rec.quarantined, 1u);
    EXPECT_EQ(cm.integrity().files_quarantined, 1);
  });
}

TEST_F(IntegrityCkptFixture, DrainRenamesTheProbeToItsStampedName) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;  // kLocalWithCopier
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    auto part3 = store({{"k", "v"}});
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part3).ok());
    std::vector<std::string> local, shared;
    ASSERT_TRUE(fs->list_dir(storage::Tier::kLocal, 0, "ck/r0", local).ok());
    ASSERT_TRUE(fs->list_dir(storage::Tier::kShared, 0, "ck/r0", shared).ok());
    ASSERT_EQ(local.size(), 1u);
    ASSERT_EQ(shared.size(), 1u) << "the unstamped probe must not stay behind";
    // The one shared file is the local file's name plus its drain stamp...
    CkptFileName name;
    ASSERT_TRUE(parse_checkpoint_name(shared[0], name));
    EXPECT_GE(name.drained_usec, 0);
    EXPECT_EQ(shared[0].rfind(local[0] + "_d", 0), 0u);
    // ...with the local file's bytes.
    Bytes a, b;
    ASSERT_TRUE(fs->read_file(storage::Tier::kLocal, 0, "ck/r0/" + local[0], a).ok());
    ASSERT_TRUE(fs->read_file(storage::Tier::kShared, 0, "ck/r0/" + shared[0], b).ok());
    EXPECT_EQ(a, b);
    // The copier's copy is the only shared write; stamping moved no bytes.
    EXPECT_EQ(fs->stats(storage::Tier::kShared).write_ops, 1);
    EXPECT_EQ(fs->stats(storage::Tier::kShared).read_ops, 1);  // the read above
  });
}

TEST_F(IntegrityCkptFixture, PoisonedDeltaChainKeepsVerifiedPrefixOnly) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    o.location = CkptOptions::Location::kLocalOnly;  // single replica
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.map_ckpt(c, 0, 5, 0, 100, kv({{"a", "1"}})).ok());
    ASSERT_TRUE(cm.map_ckpt(c, 0, 5, 100, 200, kv({{"b", "2"}})).ok());
    ASSERT_TRUE(cm.map_ckpt(c, 0, 5, 200, 300, kv({{"c", "3"}})).ok());
    tear_file(storage::Tier::kLocal, "_q000001");  // middle delta of the chain
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 0, 0, /*from_shared=*/false, -1.0, rec).ok());
    // Merging delta q2 on top of {q0} would claim pos=300 while missing
    // q1's records — the chain must stop at the verified prefix instead.
    ASSERT_TRUE(rec.map_tasks.count(5));
    EXPECT_EQ(rec.map_tasks[5].pos, 100u);
    ASSERT_EQ(rec.map_tasks[5].kv.size(), 1u);
    EXPECT_EQ(rec.map_tasks[5].kv.view(0).key, "a");
    EXPECT_EQ(rec.quarantined, 1u);
  });
}

// ---------------------------------------------------------------------------
// The one write ladder, driven by both producers: a whole frame (an
// in-memory store) and a stream (a store whose pages spill).
// ---------------------------------------------------------------------------

/// A partition store holding the same 100 pairs: in memory (framed whole)
/// when `spill_fs` is null, else spilling 512-byte pages to it (streamed).
mr::SpillableKvBuffer ladder_store(storage::StorageSystem* spill_fs) {
  mr::SpillableKvBuffer s(spill_fs, 0, "spill/ckpt", /*page_bytes=*/512,
                          /*memory_budget=*/1024);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(s.add(tests::numbered("key-", i % 17),
                      std::string(static_cast<size_t>(1 + i % 29), 'v'))
                    .ok());
  }
  EXPECT_EQ(s.can_spill(), spill_fs != nullptr);
  return s;
}

CkptOptions local_only() {
  CkptOptions o;
  o.location = CkptOptions::Location::kLocalOnly;
  return o;
}

/// Whether the ladder's partition checkpoint on `fs`'s local tier verifies.
bool valid_ladder_file(storage::StorageSystem& fs) {
  Bytes raw, payload;
  return fs.read_file(storage::Tier::kLocal, 0,
                      "ck/r0/part_s000_p000000000003_q000000", raw)
             .ok() &&
         unframe_checkpoint(raw, payload).ok();
}

/// Parameter: true drives the streamed producer, false the whole frame.
struct WriteLadderFixture : ::testing::TestWithParam<bool> {
  WriteLadderFixture() : tmp("ftmr-integrity-ladder") {}
  mr::SpillableKvBuffer store(storage::StorageSystem& spill_fs) const {
    return ladder_store(GetParam() ? &spill_fs : nullptr);
  }
  std::unique_ptr<storage::StorageSystem> make_fs(const std::string& sub,
                                                  bool local_disk = true) const {
    storage::StorageOptions o;
    o.root = tmp.path() / sub;
    o.has_local_disk = local_disk;
    return std::make_unique<storage::StorageSystem>(o);
  }
  storage::TempDir tmp;
};

TEST_P(WriteLadderFixture, TransientFailuresRetryToAValidFile) {
  const int max_attempts = storage::RetryPolicy{}.max_attempts;
  for (int n = 1; n < max_attempts; ++n) {
    auto fs = make_fs(tests::numbered("n", n));
    Runtime::run(1, [&](Comm& c) {
      auto part = store(*fs);
      CheckpointManager cm(fs.get(), 0, 0, local_only(), 1);
      fs->inject_io_failures(n);
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part).ok());
      EXPECT_TRUE(valid_ladder_file(*fs)) << "n=" << n;
      EXPECT_EQ(cm.integrity().io_retries, n);
      EXPECT_EQ(cm.integrity().ckpt_write_failures, 0);
      EXPECT_EQ(fs->fault_stats().count_failures, n);
    });
  }
}

TEST_P(WriteLadderFixture, ExhaustedLadderDropsTheCheckpoint) {
  const int max_attempts = storage::RetryPolicy{}.max_attempts;
  auto fs = make_fs("drop");
  Runtime::run(1, [&](Comm& c) {
    auto part = store(*fs);
    CheckpointManager cm(fs.get(), 0, 0, local_only(), 1);
    fs->inject_io_failures(max_attempts);
    // Best-effort: the job goes on, the checkpoint is counted as lost.
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part).ok());
    EXPECT_EQ(cm.integrity().ckpt_write_failures, 1);
    EXPECT_EQ(cm.integrity().io_retries, max_attempts - 1);
    EXPECT_FALSE(valid_ladder_file(*fs));
  });
}

TEST_P(WriteLadderFixture, NoLocalDiskIsAPreconditionNotADrop) {
  // The stream's spilled pages live on their own disk; only the
  // checkpoint placement lacks one.
  auto spill_fs = make_fs("spill");
  auto fs = make_fs("nodisk", /*local_disk=*/false);
  Runtime::run(1, [&](Comm& c) {
    auto part = store(*spill_fs);
    CheckpointManager cm(fs.get(), 0, 0, local_only(), 1);
    EXPECT_EQ(cm.partition_ckpt(c, 0, 3, part).code(),
              ErrorCode::kFailedPrecondition);
    EXPECT_EQ(cm.integrity().io_retries, 0);
    EXPECT_EQ(cm.integrity().ckpt_write_failures, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(Producers, WriteLadderFixture, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Streamed" : "WholeFrame";
                         });

TEST(WriteLadder, StreamedTornWritesAreProbedRetriedThenDropped) {
  storage::TempDir tmp("ftmr-integrity-torn-stream");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  const int max_attempts = storage::RetryPolicy{}.max_attempts;
  Runtime::run(1, [&](Comm& c) {
    auto part = ladder_store(&fs);
    ASSERT_GT(part.spilled_page_count(), 0u);
    // Every write and append to the checkpoint claims success but persists
    // a strict prefix; the spill pages stay out of the filter's reach.
    storage::FaultInjectorConfig fc;
    fc.local.p_torn_write = 1.0;
    fc.path_filter = "part_";
    fs.set_fault_injector(fc);
    CheckpointManager cm(&fs, 0, 0, local_only(), 1);
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part).ok());
    fs.clear_fault_injector();
    // Only the size probe can see these tears: each attempt retried, then
    // the checkpoint dropped, and the torn remnant never verifies.
    EXPECT_EQ(cm.integrity().io_retries, max_attempts - 1);
    EXPECT_EQ(cm.integrity().ckpt_write_failures, 1);
    EXPECT_GE(fs.fault_stats().torn_writes, max_attempts);
    EXPECT_FALSE(valid_ladder_file(fs));
  });
}

TEST(WriteLadder, DroppedStreamLeavesNoTornFile) {
  storage::TempDir tmp("ftmr-integrity-torn-drop");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  Runtime::run(1, [&](Comm& c) {
    auto part = ladder_store(&fs);
    ASSERT_GT(part.spilled_page_count(), 0u);
    storage::FaultInjectorConfig fc;
    fc.local.p_torn_write = 1.0;
    fc.path_filter = "part_";
    fs.set_fault_injector(fc);
    CheckpointManager cm(&fs, 0, 0, local_only(), 1);
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part).ok());
    fs.clear_fault_injector();
    ASSERT_EQ(cm.integrity().ckpt_write_failures, 1);
    // The dropped checkpoint's last torn attempt is removed...
    std::vector<std::string> names;
    ASSERT_TRUE(fs.list_dir(storage::Tier::kLocal, 0, "ck/r0", names).ok());
    for (const std::string& n : names) {
      EXPECT_EQ(n.find("part_"), std::string::npos) << "torn remnant: " << n;
    }
    // ...so recovery sees a checkpoint that was never written, not one
    // lost to corruption.
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 0, 0, /*from_shared=*/false, -1.0, rec).ok());
    EXPECT_FALSE(rec.partitions.count(3));
    EXPECT_EQ(rec.corrupt_frames, 0u);
    EXPECT_EQ(cm.integrity().corrupt_frames, 0);
    EXPECT_EQ(cm.integrity().files_quarantined, 0);
    EXPECT_EQ(cm.integrity().io_retries, storage::RetryPolicy{}.max_attempts - 1);
  });
}

// ---------------------------------------------------------------------------
// End-to-end: FtJob recovery under storage faults
// ---------------------------------------------------------------------------

struct FaultyCluster {
  FaultyCluster() : tmp("ftmr-integrity-e2e") {
    storage::StorageOptions so;
    so.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(so);
    apps::TextGenOptions tg;
    tg.nchunks = 16;
    tg.lines_per_chunk = 32;
    EXPECT_TRUE(apps::generate_text(*fs, tg, &expected_words).ok());
    for (auto& [w, cnt] : expected_words) expected[w] = cnt;
  }
  std::map<std::string, int64_t> read_output() {
    std::vector<std::string> parts;
    EXPECT_TRUE(fs->list_dir(storage::Tier::kShared, 0, "output", parts).ok());
    std::map<std::string, int64_t> counts;
    for (const auto& name : parts) {
      Bytes data;
      EXPECT_TRUE(
          fs->read_file(storage::Tier::kShared, 0, "output/" + name, data).ok());
      ByteReader r(data);
      while (!r.exhausted()) {
        std::string k, v;
        if (!r.get_string(k).ok() || !r.get_string(v).ok()) break;
        counts[k] += std::strtoll(v.c_str(), nullptr, 10);
      }
    }
    return counts;
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
  std::map<std::string, int64_t> expected_words;
  std::map<std::string, int64_t> expected;
};

Status wc_driver(FtJob& job) {
  if (auto s = job.run_stage(apps::wordcount_stage(), false, nullptr); !s.ok()) {
    return s;
  }
  return job.write_output();
}

TEST(FaultyRecovery, TornCheckpointsPlusProcessKillStillExactOutput) {
  // The acceptance scenario: every checkpoint the victim rank writes is
  // torn (models crash-during-write), its drained shared copies inherit the
  // damage, and the rank is killed mid-map. Recovery must detect the
  // corruption via CRC, quarantine, degrade to reprocessing — and produce
  // byte-exact output without hanging or aborting.
  FaultyCluster cl;
  storage::FaultInjectorConfig fc;
  fc.seed = tests::test_seed(1234);
  fc.local.p_torn_write = 1.0;
  fc.path_filter = "ck/r2";  // only rank 2's checkpoint files
  cl.fs->set_fault_injector(fc);

  simmpi::JobOptions jo;
  jo.kills.push_back({2, 8e-3, -1});
  IntegrityStats total;
  std::mutex mu;
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run(wc_driver);
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
    const IntegrityStats st = job.ckpt().integrity();
    std::lock_guard<std::mutex> lock(mu);
    total.corrupt_frames += st.corrupt_frames;
    total.tier_fallbacks += st.tier_fallbacks;
    total.files_quarantined += st.files_quarantined;
    total.segments_reprocessed += st.segments_reprocessed;
  }, jo);
  cl.fs->clear_fault_injector();

  EXPECT_EQ(cl.read_output(), cl.expected);
  // The survivors must have *seen* the corruption, not sidestepped it...
  EXPECT_GE(total.corrupt_frames, 1);
  // ...and paid for it with fallbacks or reprocessed segments.
  EXPECT_GE(total.tier_fallbacks + total.segments_reprocessed, 1);
  EXPECT_GE(cl.fs->fault_stats().torn_writes, 1);
}

TEST(FaultyRecovery, ProbabilisticBitRotAndProcessKillStillExactOutput) {
  // Clean-probability variant of the acceptance scenario: torn writes and
  // corrupt-on-read at a few percent on *all* checkpoint traffic. Recovery
  // paths taken vary with the draw; the invariants may not.
  FaultyCluster cl;
  storage::FaultInjectorConfig fc;
  fc.seed = tests::test_seed(99);
  fc.local.p_torn_write = 0.05;
  fc.local.p_corrupt_read = 0.02;
  fc.shared.p_torn_write = 0.05;
  fc.shared.p_corrupt_read = 0.02;
  fc.path_filter = "ck/";  // all ranks' checkpoints, nothing else
  cl.fs->set_fault_injector(fc);

  simmpi::JobOptions jo;
  jo.kills.push_back({1, 8e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run(wc_driver);
    if (c.global_rank() != 1) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  cl.fs->clear_fault_injector();
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(FaultyRecovery, RestartFallsBackAcrossTiersForTornLocalFiles) {
  // Checkpoint/restart (Sec. 4.1): first submission killed mid-map, then
  // the job is resubmitted. Between submissions the node-local files of
  // rank 0 rot (torn). Restart reads local first and must transparently
  // serve those files from their drained shared copies.
  FaultyCluster cl;
  simmpi::JobOptions jo1;
  jo1.kills.push_back({0, 8e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kCheckpointRestart;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    (void)job.run(wc_driver);  // dies; checkpoints remain
  }, jo1);

  // Rot: tear every node-local checkpoint of rank 0 (the drained shared
  // copies are intact).
  {
    std::vector<std::string> names;
    ASSERT_TRUE(
        cl.fs->list_dir(storage::Tier::kLocal, 0, "ck/r0", names).ok());
    ASSERT_FALSE(names.empty());
    for (const auto& n : names) {
      Bytes data;
      ASSERT_TRUE(
          cl.fs->read_file(storage::Tier::kLocal, 0, "ck/r0/" + n, data).ok());
      ASSERT_TRUE(cl.fs->write_file(storage::Tier::kLocal, 0, "ck/r0/" + n,
                                    std::span(data).first(data.size() / 2))
                      .ok());
    }
  }

  int64_t fallbacks = 0, corrupt = 0;
  std::mutex mu;
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kCheckpointRestart;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    ASSERT_TRUE(job.run(wc_driver).ok());
    std::lock_guard<std::mutex> lock(mu);
    fallbacks += job.ckpt().integrity().tier_fallbacks;
    corrupt += job.ckpt().integrity().corrupt_frames;
  });
  EXPECT_EQ(cl.read_output(), cl.expected);
  EXPECT_GE(corrupt, 1);
  EXPECT_GE(fallbacks, 1);
}

}  // namespace
}  // namespace ftmr::core
