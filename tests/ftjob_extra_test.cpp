// Extended engine coverage: the combiner extension, alternative checkpoint
// placements end-to-end, clusters without local disks, prefetch-assisted
// restart, and a randomized kill-time sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <map>

#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "core/checkpoint.hpp"
#include "core/ftjob.hpp"
#include "mr/spill.hpp"
#include "simmpi/runtime.hpp"
#include "storage/replica.hpp"
#include "storage/storage.hpp"

namespace ftmr::core {
namespace {

using simmpi::Comm;
using simmpi::JobResult;
using simmpi::Runtime;

struct Cluster {
  explicit Cluster(bool local_disk = true) : tmp("ftmr-extra") {
    storage::StorageOptions so;
    so.root = tmp.path();
    so.has_local_disk = local_disk;
    fs = std::make_unique<storage::StorageSystem>(so);
    apps::TextGenOptions tg;
    tg.nchunks = 16;
    tg.lines_per_chunk = 32;
    EXPECT_TRUE(apps::generate_text(*fs, tg, &expected_words).ok());
    expected.clear();
    for (auto& [w, c] : expected_words) expected[w] = c;
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

StageFns wc_fns(bool with_combiner) {
  StageFns fns = apps::wordcount_stage();
  if (with_combiner) fns.combine = fns.reduce;  // sum is associative
  return fns;
}

Status driver_of(FtJob& job, const StageFns& fns) {
  if (auto s = job.run_stage(fns, false, nullptr); !s.ok()) return s;
  return job.write_output();
}

// ---------------------------------------------------------------------------
// Combiner
// ---------------------------------------------------------------------------

TEST(Combiner, OutputIdenticalAndShuffleSmaller) {
  Cluster cl;
  double saved = -1.0;
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(true);
    ASSERT_TRUE(job.run([&](FtJob& j) { return driver_of(j, fns); }).ok());
    if (c.rank() == 0) saved = job.times().get("combine_saved_bytes");
  });
  EXPECT_EQ(cl.read_output(), cl.expected);
  // Zipf text has heavy duplication: the combiner must shrink the blocks.
  EXPECT_GT(saved, 0.0);
}

TEST(Combiner, SurvivesFailureMidMap) {
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 4e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(true);
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 1) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(Combiner, SurvivesNwcRebuild) {
  // Failure in the reduce phase with NWC forces the orphan-partition
  // rebuild path, which must re-apply the combiner.
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 5e-2, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeNWC;
    o.ppn = 2;
    o.ckpt.enabled = false;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(true);
    fns.reduce_cost_per_value = 2e-4;  // stretch the reduce phase
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// ---------------------------------------------------------------------------
// Checkpoint placements end-to-end
// ---------------------------------------------------------------------------

TEST(Placement, SharedDirectRecoversAfterFailure) {
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({0, 8e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.location = CkptOptions::Location::kSharedDirect;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    if (c.global_rank() != 0) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(Placement, LocalOnlyStillCorrectUnderResume) {
  // Local-only checkpoints are invisible to survivors (the dead rank's
  // local disk is not shared), so WC degrades to re-execution via the
  // rebuild fallback — output must still be exact.
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({3, 8e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.location = CkptOptions::Location::kLocalOnly;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    if (c.global_rank() != 3) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(Placement, NoLocalDiskClusterUsesSharedDirect) {
  // Sec. 4.1.3 drawback: some clusters have no local disks. The library
  // must run with direct-to-shared checkpoints there.
  Cluster cl(/*local_disk=*/false);
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kCheckpointRestart;
    o.ppn = 2;
    o.ckpt.location = CkptOptions::Location::kSharedDirect;
    FtJob job(c, cl.fs.get(), o);
    ASSERT_TRUE(job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); }).ok());
  });
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(Placement, NoLocalDiskWithLocalPlacementFailsCleanly) {
  Cluster cl(/*local_disk=*/false);
  Runtime::run(2, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kCheckpointRestart;
    o.ppn = 2;
    o.ckpt.location = CkptOptions::Location::kLocalWithCopier;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    // Surfaced as a configuration error, not crashed and not silently
    // degraded to checkpoint-less execution.
    EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition);
  });
}

TEST(Placement, RestartFromSharedWithPrefetch) {
  // Fig. 15 path through the real engine: restart reads recovery state
  // from the shared tier via the prefetcher.
  Cluster cl;
  FtJobOptions o;
  o.mode = FtMode::kCheckpointRestart;
  o.ppn = 2;
  o.ckpt.location = CkptOptions::Location::kSharedDirect;
  o.ckpt.prefetch_recovery = true;
  o.restart_read_shared = true;
  o.ckpt.records_per_ckpt = 16;
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({1, 8e-3, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, cl.fs.get(), o);
      (void)job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// ---------------------------------------------------------------------------
// Randomized kill-time sweep: correctness must hold wherever the failure
// lands in the job's timeline.
// ---------------------------------------------------------------------------

// The padding after `mode` is an explicit zeroed field so the test names,
// which carry the param's bytes, are the same on every run.
struct SweepCase {
  SweepCase(FtMode m, double t) : mode(m), kill_vtime(t) {}
  FtMode mode;
  int32_t zero_pad = 0;
  double kill_vtime;
};
static_assert(sizeof(SweepCase) == 16);

class KillSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KillSweep, OutputAlwaysExact) {
  const SweepCase tc = GetParam();
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, tc.kill_vtime, -1});
  Runtime::run(6, [&](Comm& c) {
    FtJobOptions o;
    o.mode = tc.mode;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    if (tc.mode == FtMode::kDetectResumeNWC) o.ckpt.enabled = false;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(false);
    fns.reduce_cost_per_value = 1e-4;
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Times, KillSweep,
    ::testing::Values(SweepCase{FtMode::kDetectResumeWC, 2e-3},
                      SweepCase{FtMode::kDetectResumeWC, 9e-3},
                      SweepCase{FtMode::kDetectResumeWC, 2.2e-2},
                      SweepCase{FtMode::kDetectResumeWC, 4e-2},
                      SweepCase{FtMode::kDetectResumeNWC, 2e-3},
                      SweepCase{FtMode::kDetectResumeNWC, 9e-3},
                      SweepCase{FtMode::kDetectResumeNWC, 2.2e-2},
                      SweepCase{FtMode::kDetectResumeNWC, 4e-2}));

// Two simultaneous failures (same virtual instant).
TEST(MultiFailure, TwoRanksDieTogether) {
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 6e-3, -1});
  jo.kills.push_back({4, 6e-3, -1});
  JobResult r = Runtime::run(6, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    if (c.global_rank() != 1 && c.global_rank() != 4) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      EXPECT_EQ(job.work_comm().size(), 4);
    }
  }, jo);
  EXPECT_EQ(r.killed_count(), 2);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// A kill in the reduce phase orphans the dead rank's partition; the NWC
// rebuild re-exchanges it and must re-checkpoint the rebuilt content (a
// later failure adopts that file), byte for byte as large as the dead
// owner's shuffle-end checkpoint of the same records.
TEST(OrphanRebuild, RecheckpointsTheRebuiltPartition) {
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 5e-2, -1});
  std::atomic<int> new_owner{-1};
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeNWC;
    o.ppn = 2;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(false);
    fns.reduce_cost_per_value = 2e-4;  // stretch the reduce phase
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      new_owner = job.partition_owners()[2];
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
  ASSERT_NE(new_owner.load(), 2);
  // Size of the rank's newest checkpoint of partition 2 (shared tier).
  auto part2_bytes = [&](int rank) -> int64_t {
    const std::string dir = "ck/r" + std::to_string(rank);
    std::vector<std::string> names;
    EXPECT_TRUE(cl.fs->list_dir(storage::Tier::kShared, 0, dir, names).ok());
    std::string newest;
    for (const auto& n : names) {
      if (n.rfind("part_s000_p000000000002_", 0) == 0 && n > newest) newest = n;
    }
    if (newest.empty()) return -1;
    return cl.fs->file_size(storage::Tier::kShared, 0, dir + "/" + newest);
  };
  const int64_t original = part2_bytes(2);
  ASSERT_GT(original, 64);  // the dead owner's partition held records
  EXPECT_EQ(part2_bytes(new_owner.load()), original);
}

// ---------------------------------------------------------------------------
// Out-of-core FtJob: memory_budget routes map output, shuffle receive, and
// reduce conversion through the spill tier; results must be exact and the
// fault-tolerance modes must keep working.
// ---------------------------------------------------------------------------

FtJobOptions budget_opts(FtMode mode) {
  FtJobOptions o;
  o.mode = mode;
  o.ppn = 2;
  o.memory_budget = 16 << 10;      // far below the ~100KB dataset
  o.spill_page_bytes = 4 << 10;
  return o;
}

std::map<std::string, Bytes> read_raw_outputs(Cluster& cl) {
  std::vector<std::string> parts;
  EXPECT_TRUE(
      cl.fs->list_dir(storage::Tier::kShared, 0, "output", parts).ok());
  std::map<std::string, Bytes> raw;
  for (const auto& name : parts) {
    EXPECT_TRUE(cl.fs
                    ->read_file(storage::Tier::kShared, 0, "output/" + name,
                                raw[name])
                    .ok());
  }
  return raw;
}

TEST(OutOfCoreFtJob, OutputByteIdenticalToInCore) {
  // Deterministic textgen -> both clusters hold the same input; the spill
  // path must produce byte-for-byte the same output part files.
  Cluster in_core, budget;
  ASSERT_EQ(in_core.expected, budget.expected);
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kNone;
    o.ppn = 2;
    FtJob job(c, in_core.fs.get(), o);
    ASSERT_TRUE(job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); }).ok());
  });
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, budget.fs.get(), budget_opts(FtMode::kNone));
    ASSERT_TRUE(job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); }).ok());
  });
  EXPECT_EQ(budget.read_output(), budget.expected);
  EXPECT_EQ(read_raw_outputs(in_core), read_raw_outputs(budget));
  // The budget run must actually have paged through the local scratch tier,
  // or this test would vacuously compare two in-core runs.
  EXPECT_GT(budget.fs->stats(storage::Tier::kLocal).bytes_written,
            in_core.fs->stats(storage::Tier::kLocal).bytes_written);
}

TEST(OutOfCoreFtJob, DefaultPageSizeKeepsPeakWithinBudget) {
  // The paged shuffle sizes its rounds from the clamped page: with the
  // 1 MiB default spill_page_bytes and a small budget, one round must not
  // carry the whole dataset (ext07's bound: peak <= 1.5 x budget).
  Cluster cl;
  FtJobOptions o = budget_opts(FtMode::kNone);
  o.spill_page_bytes = FtJobOptions{}.spill_page_bytes;
  ASSERT_GE(o.spill_page_bytes, 8 * o.memory_budget);
  std::atomic<int> within{0};
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, cl.fs.get(), o);
    ASSERT_TRUE(job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); }).ok());
    const size_t peak = job.residency().peak;
    EXPECT_LE(peak, o.memory_budget * 3 / 2) << "rank " << c.global_rank();
    if (peak <= o.memory_budget * 3 / 2) within++;
  });
  EXPECT_EQ(within.load(), 4);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

TEST(OutOfCoreFtJob, RecoversFromKillMidMap) {
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 4e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o = budget_opts(FtMode::kDetectResumeWC);
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    if (c.global_rank() != 1) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// A late kill lands in the reduce phase. WC: survivors adopt the dead
// rank's partitions (absorbed into spill-backed stores) and the streamed
// reduce re-enters at the committed cursor. NWC (with the combiner): the dead
// rank's partitions are orphaned and rebuilt — combined on the way out — from
// the survivors' spilled map stores plus its re-executed map tasks.
class OutOfCoreKillMidReduce : public ::testing::TestWithParam<FtMode> {};

TEST_P(OutOfCoreKillMidReduce, Recovers) {
  const FtMode mode = GetParam();
  const bool nwc = mode == FtMode::kDetectResumeNWC;
  Cluster cl;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 5e-2, -1});
  std::atomic<int> rebuilt{0};
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJobOptions o = budget_opts(mode);
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    StageFns fns = wc_fns(nwc);
    fns.reduce_cost_per_value = 2e-4;  // stretch the reduce phase
    Status s = job.run([&](FtJob& j) { return driver_of(j, fns); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      EXPECT_EQ(job.recoveries(), 1);
      // The orphan rebuild charges its own recovery span, after the one
      // recover() charges.
      int recovery_spans = 0;
      for (const auto& e : job.trace().events()) {
        if (e.name == "recovery") recovery_spans++;
      }
      if (recovery_spans > 1) rebuilt++;
    }
  }, jo);
  EXPECT_EQ(r.killed_count(), 1);
  EXPECT_EQ(rebuilt.load(), nwc ? 3 : 0);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

INSTANTIATE_TEST_SUITE_P(DetectResume, OutOfCoreKillMidReduce,
                         ::testing::Values(FtMode::kDetectResumeWC,
                                           FtMode::kDetectResumeNWC));

TEST(OutOfCoreFtJob, CheckpointRestartResumesPaged) {
  // CR restart must be able to prime from the paged (streamed) partition
  // checkpoints written by the out-of-core shuffle.
  Cluster cl;
  FtJobOptions o = budget_opts(FtMode::kCheckpointRestart);
  o.ckpt.location = CkptOptions::Location::kSharedDirect;
  o.ckpt.prefetch_recovery = true;
  o.restart_read_shared = true;
  o.ckpt.records_per_ckpt = 16;
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({1, 8e-3, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, cl.fs.get(), o);
      (void)job.run([&](FtJob& j) { return driver_of(j, wc_fns(false)); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// ---------------------------------------------------------------------------
// Partition checkpoints: one entry point, two writers. A store that can spill
// is streamed page by page, an in-memory one is framed whole; the files must
// be byte-identical, so every loader reads both unchanged.
// ---------------------------------------------------------------------------

TEST(PagedCheckpoint, ByteIdenticalToInCoreWriter) {
  storage::TempDir tmp_a("ftmr-paged-a"), tmp_b("ftmr-paged-b");
  storage::StorageOptions so_a, so_b;
  so_a.root = tmp_a.path();
  so_b.root = tmp_b.path();
  storage::StorageSystem fs_a(so_a), fs_b(so_b);
  Bytes flat, paged;
  Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      // Same pairs, same page size; only the spilling store has storage.
      mr::SpillableKvBuffer in_memory(nullptr, 0, "", /*page_bytes=*/512);
      mr::SpillableKvBuffer spilling(&fs_b, 0, "spill/ckpt", /*page_bytes=*/512,
                                     /*memory_budget=*/1024);
      for (int i = 0; i < 200; ++i) {
        std::string k = "key-" + std::to_string(i % 37);
        std::string v(static_cast<size_t>(1 + i % 53),
                      static_cast<char>('a' + i % 26));
        ASSERT_TRUE(in_memory.add(k, v).ok());
        ASSERT_TRUE(spilling.add(k, v).ok());
      }
      ASSERT_FALSE(in_memory.can_spill());
      ASSERT_GT(in_memory.page_count(), 1u);       // framed across pages
      ASSERT_GT(spilling.spilled_page_count(), 0u);  // the stream really pages
      CkptOptions o;
      o.location = CkptOptions::Location::kLocalOnly;
      o.memory_replication_k = 1;
      CheckpointManager mgr_a(&fs_a, 0, 0, o, 1, /*ppn=*/1);
      CheckpointManager mgr_b(&fs_b, 0, 0, o, 1, /*ppn=*/1);
      ASSERT_TRUE(mgr_a.partition_ckpt(c, 1, 3, in_memory).ok());
      ASSERT_TRUE(mgr_b.partition_ckpt(c, 1, 3, spilling).ok());
      const std::string path = "ck/r0/part_s001_p000000000003_q000000";
      ASSERT_TRUE(fs_a.read_file(storage::Tier::kLocal, 0, path, flat).ok());
      ASSERT_TRUE(fs_b.read_file(storage::Tier::kLocal, 0, path, paged).ok());
      // Only the in-memory writer replicates: a RAM replica of a spilling
      // store would re-buy the residency its budget gave up.
      EXPECT_EQ(fs_a.memory().all_paths().size(), 1u);
      EXPECT_TRUE(fs_b.memory().all_paths().empty());
    }
    ASSERT_TRUE(c.barrier().ok());
  });
  ASSERT_FALSE(flat.empty());
  EXPECT_EQ(flat, paged);
}

}  // namespace
}  // namespace ftmr::core
