// In-memory replicated checkpoint tier: placement policy determinism and
// node-disjointness, ReplicaStore semantics (death marks, fault injection),
// StorageSystem plumbing, CheckpointManager recovery through peer memory
// with corrupted-replica fallback to the file tiers, and end-to-end fault
// schedules with memory replicas as the primary recovery source.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "simmpi/runtime.hpp"
#include "storage/replica.hpp"
#include "storage/storage.hpp"
#include "testing/explorer.hpp"

namespace ftmr {
namespace {

using core::CheckpointManager;
using core::CkptOptions;
using core::RankRecovery;
using simmpi::Comm;
using simmpi::Runtime;
using storage::ReplicaStore;
using storage::replica_placement;

Bytes blob(std::string_view s) {
  auto v = as_bytes_view(s);
  return Bytes(v.begin(), v.end());
}

std::vector<int> iota_live(int n) {
  std::vector<int> live(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) live[static_cast<size_t>(i)] = i;
  return live;
}

// ---------------------------------------------------------------------------
// Placement policy
// ---------------------------------------------------------------------------

TEST(ReplicaPlacement, NeverPicksOwnerOrOwnersNode) {
  const std::vector<int> live = iota_live(8);
  for (int ppn : {1, 2, 4}) {
    for (int owner = 0; owner < 8; ++owner) {
      for (int k : {1, 2, 3}) {
        const auto targets = replica_placement(owner, k, live, ppn);
        for (int t : targets) {
          EXPECT_NE(t, owner) << "self-replica at ppn=" << ppn;
          EXPECT_NE(t / ppn, owner / ppn)
              << "replica on owner's node: owner=" << owner << " target=" << t
              << " ppn=" << ppn;
        }
        // Sorted, duplicate-free, and sized min(k, eligible).
        EXPECT_TRUE(std::is_sorted(targets.begin(), targets.end()));
        EXPECT_EQ(std::set<int>(targets.begin(), targets.end()).size(),
                  targets.size());
        const size_t eligible = static_cast<size_t>(8 - ppn);
        EXPECT_EQ(targets.size(), std::min<size_t>(
                                      static_cast<size_t>(k), eligible));
      }
    }
  }
}

TEST(ReplicaPlacement, DeterministicUnderOwnerAndSeed) {
  const std::vector<int> live = iota_live(16);
  for (int owner = 0; owner < 16; ++owner) {
    const auto a = replica_placement(owner, 2, live, 4, 7);
    const auto b = replica_placement(owner, 2, live, 4, 7);
    EXPECT_EQ(a, b) << "placement must be reproducible without coordination";
  }
}

TEST(ReplicaPlacement, DegradesGracefullyWhenEligibleScarce) {
  // k exceeds the eligible set: take everyone off-node, no more.
  EXPECT_EQ(replica_placement(0, 3, {0, 1}, 1), (std::vector<int>{1}));
  // Everybody shares the owner's node: nothing eligible.
  EXPECT_TRUE(replica_placement(0, 2, {0, 1, 2, 3}, 4).empty());
  // Lone survivor, and disabled replication.
  EXPECT_TRUE(replica_placement(0, 2, {0}, 1).empty());
  EXPECT_TRUE(replica_placement(0, 0, iota_live(8), 1).empty());
}

TEST(ReplicaPlacement, RecomputesOverShrunkenLiveSet) {
  // After rank 3 dies, every survivor must agree on replacement targets
  // drawn only from the survivors — that is what makes re-replication
  // converge without communication.
  std::vector<int> live = iota_live(8);
  live.erase(live.begin() + 3);
  for (int owner : live) {
    for (int t : replica_placement(owner, 2, live, 1)) {
      EXPECT_NE(t, 3) << "placed a replica on a dead rank";
    }
  }
}

TEST(ReplicaPlacement, RotationSpreadsTargetsAcrossOwners) {
  const std::vector<int> live = iota_live(12);
  std::set<int> first_targets;
  for (int owner = 0; owner < 12; ++owner) {
    const auto t = replica_placement(owner, 1, live, 1);
    ASSERT_EQ(t.size(), 1u);
    first_targets.insert(t[0]);
  }
  // The mixed rotation start must not funnel every owner onto one holder.
  EXPECT_GE(first_targets.size(), 3u);
}

// ---------------------------------------------------------------------------
// ReplicaStore semantics
// ---------------------------------------------------------------------------

TEST(ReplicaStoreTest, PutGetRoundTripWithModeledCost) {
  ReplicaStore store(storage::TierModel{1e-6, 1e9, 0.0});
  double put_cost = -1.0, get_cost = -1.0;
  ASSERT_TRUE(store.put(2, "ck/r0/a", blob("payload"), &put_cost).ok());
  EXPECT_GT(put_cost, 0.0);
  Bytes out;
  ASSERT_TRUE(store.get(2, "ck/r0/a", out, &get_cost).ok());
  EXPECT_EQ(out, blob("payload"));
  EXPECT_GT(get_cost, 0.0);
  EXPECT_EQ(store.stats().write_ops, 1);
  EXPECT_EQ(store.stats().read_ops, 1);
  EXPECT_EQ(store.stats().bytes_written, 7u);
}

TEST(ReplicaStoreTest, PutsAreIdempotentOverwrites) {
  ReplicaStore store(storage::TierModel{});
  ASSERT_TRUE(store.put(1, "p", blob("old")).ok());
  ASSERT_TRUE(store.put(1, "p", blob("new")).ok());
  Bytes out;
  ASSERT_TRUE(store.get(1, "p", out).ok());
  EXPECT_EQ(out, blob("new"));
  EXPECT_EQ(store.holders_of("p"), (std::vector<int>{1}));
}

TEST(ReplicaStoreTest, EnumerationAndRemoval) {
  ReplicaStore store(storage::TierModel{});
  ASSERT_TRUE(store.put(3, "ck/r0/a", blob("x")).ok());
  ASSERT_TRUE(store.put(1, "ck/r0/a", blob("x")).ok());
  ASSERT_TRUE(store.put(1, "ck/r2/b", blob("y")).ok());
  EXPECT_EQ(store.holders_of("ck/r0/a"), (std::vector<int>{1, 3}));
  EXPECT_EQ(store.all_paths(),
            (std::vector<std::string>{"ck/r0/a", "ck/r2/b"}));
  EXPECT_EQ(store.paths_held_by(1),
            (std::vector<std::string>{"ck/r0/a", "ck/r2/b"}));
  store.remove(1, "ck/r0/a");
  EXPECT_FALSE(store.exists(1, "ck/r0/a"));
  EXPECT_TRUE(store.exists(3, "ck/r0/a"));
  Bytes out;
  EXPECT_EQ(store.get(1, "ck/r0/a", out).code(), ErrorCode::kNotFound);
}

TEST(ReplicaStoreTest, DeathWipesHoldingsAndRejectsLateDeposits) {
  ReplicaStore store(storage::TierModel{});
  ASSERT_TRUE(store.put(2, "a", blob("x")).ok());
  ASSERT_TRUE(store.put(4, "a", blob("x")).ok());
  store.wipe_rank(2);
  EXPECT_TRUE(store.is_dead(2));
  EXPECT_FALSE(store.exists(2, "a"));
  EXPECT_EQ(store.holders_of("a"), (std::vector<int>{4}));
  // The deposit/death race: a put whose handshake won just before the kill
  // must fail like the process failure it is, not ghost-write.
  EXPECT_EQ(store.put(2, "b", blob("late")).code(), ErrorCode::kProcFailed);
  // A fresh incarnation starts clean: dead marks and holdings both reset.
  store.wipe_all();
  EXPECT_FALSE(store.is_dead(2));
  EXPECT_TRUE(store.all_paths().empty());
  EXPECT_TRUE(store.put(2, "b", blob("ok")).ok());
}

TEST(ReplicaStoreTest, InjectedTornPutStoresStrictPrefix) {
  ReplicaStore store(storage::TierModel{});
  storage::TierFaults f;
  f.p_torn_write = 1.0;
  store.set_fault_injector(11, f, "");
  const Bytes data = blob("sixteen byte blob");
  ASSERT_TRUE(store.put(1, "p", data).ok());  // torn puts report success
  store.clear_fault_injector();
  Bytes out;
  ASSERT_TRUE(store.get(1, "p", out).ok());
  EXPECT_LT(out.size(), data.size());
  EXPECT_GE(store.fault_stats().torn_writes, 1);
}

TEST(ReplicaStoreTest, InjectedCorruptReadIsTransient) {
  ReplicaStore store(storage::TierModel{});
  const Bytes data = blob("pristine replica bytes");
  ASSERT_TRUE(store.put(1, "p", data).ok());
  storage::TierFaults f;
  f.p_corrupt_read = 1.0;
  store.set_fault_injector(12, f, "");
  Bytes corrupt;
  ASSERT_TRUE(store.get(1, "p", corrupt).ok());
  EXPECT_NE(corrupt, data);  // exactly one bit flipped in the copy
  store.clear_fault_injector();
  Bytes clean;
  ASSERT_TRUE(store.get(1, "p", clean).ok());
  EXPECT_EQ(clean, data);  // the stored blob was never touched
  EXPECT_GE(store.fault_stats().corrupt_reads, 1);
}

TEST(ReplicaStoreTest, InjectedCleanFailuresAndPathFilter) {
  ReplicaStore store(storage::TierModel{});
  ASSERT_TRUE(store.put(1, "ck/r0/a", blob("x")).ok());
  ASSERT_TRUE(store.put(1, "ck/r5/b", blob("y")).ok());
  storage::TierFaults f;
  f.p_read_fail = 1.0;
  store.set_fault_injector(13, f, "ck/r0");
  Bytes out;
  EXPECT_EQ(store.get(1, "ck/r0/a", out).code(), ErrorCode::kIo);
  EXPECT_TRUE(store.get(1, "ck/r5/b", out).ok());  // filtered out
  f = storage::TierFaults{};
  f.p_write_fail = 1.0;
  store.set_fault_injector(13, f, "");
  EXPECT_EQ(store.put(2, "c", blob("z")).code(), ErrorCode::kIo);
  EXPECT_FALSE(store.exists(2, "c"));  // clean failure persists nothing
  EXPECT_GE(store.fault_stats().read_failures, 1);
  EXPECT_GE(store.fault_stats().write_failures, 1);
}

// ---------------------------------------------------------------------------
// StorageSystem plumbing
// ---------------------------------------------------------------------------

struct MemoryTierFixture : ::testing::Test {
  MemoryTierFixture() : tmp("ftmr-replica-fs") {
    storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(o);
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

TEST_F(MemoryTierFixture, FileApiRejectsTheMemoryTier) {
  Bytes out;
  EXPECT_EQ(fs->write_file(storage::Tier::kMemory, 0, "f", blob("x")).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs->read_file(storage::Tier::kMemory, 0, "f", out).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(MemoryTierFixture, InjectorAndStatsPlumbThroughTheFacade) {
  storage::FaultInjectorConfig fc;
  fc.memory.p_read_fail = 1.0;
  fs->set_fault_injector(fc);
  ASSERT_TRUE(fs->memory().put(1, "p", blob("x")).ok());
  Bytes out;
  EXPECT_EQ(fs->memory().get(1, "p", out).code(), ErrorCode::kIo);
  EXPECT_GE(fs->fault_stats().read_failures, 1);  // summed into the facade
  fs->clear_fault_injector();
  EXPECT_TRUE(fs->memory().get(1, "p", out).ok());
  EXPECT_EQ(fs->stats(storage::Tier::kMemory).write_ops, 1);
  EXPECT_GE(fs->stats(storage::Tier::kMemory).read_ops, 1);
}

// ---------------------------------------------------------------------------
// CheckpointManager: recovery through peer memory
// ---------------------------------------------------------------------------

struct ReplicaCkptFixture : ::testing::Test {
  ReplicaCkptFixture() : tmp("ftmr-replica-ckpt") {
    storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(o);
  }
  static mr::KvBuffer kv(std::initializer_list<std::pair<const char*, const char*>> ps) {
    mr::KvBuffer b;
    for (auto& [k, v] : ps) b.add(k, v);
    return b;
  }
  /// An in-memory partition store holding `ps`, the kind an in-core job
  /// checkpoints.
  static mr::SpillableKvBuffer store(
      std::initializer_list<std::pair<const char*, const char*>> ps) {
    mr::SpillableKvBuffer s;
    (void)s.absorb_kv(kv(ps));
    return s;
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

TEST_F(ReplicaCkptFixture, CheckpointWriteReplicatesAndRecoveryHitsMemory) {
  Runtime::run(4, [&](Comm& c) {
    CkptOptions o;
    o.memory_replication_k = 2;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), o, 1, /*ppn=*/1);
    if (c.rank() == 0) {
      auto part3 = store({{"k", "v"}});
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part3).ok());
      // ppn=1 makes every other rank eligible; k=2 copies must exist, and
      // never in the owner's own memory.
      const auto paths = fs->memory().all_paths();
      ASSERT_EQ(paths.size(), 1u);
      const auto holders = fs->memory().holders_of(paths[0]);
      EXPECT_EQ(holders.size(), 2u);
      for (int h : holders) EXPECT_NE(h, 0);
    }
    ASSERT_TRUE(c.barrier().ok());
    if (c.rank() == 0) {
      RankRecovery rec;
      ASSERT_TRUE(
          cm.load_rank_stage(c, 0, 0, 0, /*from_shared=*/true, 1e9, rec).ok());
      ASSERT_TRUE(rec.partitions.count(3));
      EXPECT_GE(cm.integrity().replica_hits, 1);
      EXPECT_EQ(cm.integrity().replica_misses, 0);
    }
    ASSERT_TRUE(c.barrier().ok());
  });
}

TEST_F(ReplicaCkptFixture, CorruptedReplicasFallBackToFileTiers) {
  Runtime::run(4, [&](Comm& c) {
    CkptOptions o;
    o.memory_replication_k = 2;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), o, 1, /*ppn=*/1);
    if (c.rank() == 0) {
      auto part3 = store({{"k", "v"}});
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part3).ok());
      // Smash every in-memory copy; the CRC frame must reject them and the
      // ladder must fall through to the (intact) file tiers.
      const auto paths = fs->memory().all_paths();
      ASSERT_EQ(paths.size(), 1u);
      for (int h : fs->memory().holders_of(paths[0])) {
        ASSERT_TRUE(fs->memory().put(h, paths[0], blob("garbage")).ok());
      }
    }
    ASSERT_TRUE(c.barrier().ok());
    if (c.rank() == 0) {
      RankRecovery rec;
      ASSERT_TRUE(
          cm.load_rank_stage(c, 0, 0, 0, /*from_shared=*/true, 1e9, rec).ok());
      ASSERT_TRUE(rec.partitions.count(3));  // served from files after all
      EXPECT_GE(cm.integrity().replica_misses, 1);
      EXPECT_GE(cm.integrity().corrupt_frames, 2);  // both bad copies seen
      EXPECT_EQ(rec.quarantined, 0u);
    }
    ASSERT_TRUE(c.barrier().ok());
  });
}

TEST_F(ReplicaCkptFixture, RereplicationCountsEveryLostPushInBothCounters) {
  // ppn=1, k=2 over 5 ranks: after one holder dies, owner 0 still has three
  // eligible peers, so repair must push to a fresh target — and every such
  // push is lost to the armed memory-tier write fault.
  constexpr int kRanks = 5;
  const std::vector<int> placed = replica_placement(0, 2, iota_live(kRanks), 1);
  ASSERT_EQ(placed.size(), 2u);
  const int victim = placed.front();
  metrics::MetricsRegistry& reg = metrics::MetricsRegistry::global();
  reg.reset();
  std::vector<core::IntegrityStats> integ(kRanks);
  simmpi::JobOptions jo;
  jo.kills.push_back({victim, 1.0, -1});
  jo.on_rank_death = [&](int r) { fs->memory().wipe_rank(r); };
  Runtime::run(kRanks, [&](Comm& c) {
    CkptOptions o;
    o.memory_replication_k = 2;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), o, 1, /*ppn=*/1);
    if (c.rank() == 0) {
      auto part3 = store({{"k", "v"}});
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part3).ok());
      storage::FaultInjectorConfig fc;
      fc.memory.p_write_fail = 1.0;
      fs->set_fault_injector(fc);
    }
    ASSERT_TRUE(c.barrier().ok());
    if (c.rank() == victim) {
      c.compute(2.0);  // dies here, taking one replica with it
      return;
    }
    while (c.failed_ranks().empty()) {
    }
    Comm shrunk;
    ASSERT_TRUE(c.shrink(shrunk).ok());
    ASSERT_TRUE(cm.rereplicate(shrunk).ok());
    integ[static_cast<size_t>(c.rank())] = cm.integrity();
  }, jo);

  int64_t lost = 0, healed = 0;
  double lost_counted = 0.0, healed_counted = 0.0, pushes_counted = 0.0;
  for (int r = 0; r < kRanks; ++r) {
    lost += integ[static_cast<size_t>(r)].replica_push_failures;
    healed += integ[static_cast<size_t>(r)].rereplications;
    lost_counted += reg.counter("ckpt.replica_push_failures", r);
    healed_counted += reg.counter("ckpt.rereplications", r);
    pushes_counted += reg.counter("ckpt.replica_pushes", r);
  }
  EXPECT_GE(lost, 1);
  EXPECT_EQ(lost_counted, static_cast<double>(lost));
  EXPECT_EQ(healed, 0);
  EXPECT_EQ(healed_counted, 0.0);
  // Write-time pushes only: the two placed at checkpoint time.
  EXPECT_EQ(pushes_counted, 2.0);
}

// ---------------------------------------------------------------------------
// End to end: fault schedules with memory replicas as the primary source
// ---------------------------------------------------------------------------

testing::Explorer make_explorer(const std::string& mode) {
  testing::ExplorerOptions opts;
  opts.mode = mode;
  opts.workload.memory_replication_k = 2;
  return testing::Explorer(opts);
}

TEST(ReplicaEndToEnd, MidRunKillRecoversFromPeerMemory) {
  testing::Explorer e = make_explorer("wc");
  ASSERT_TRUE(e.harvest().ok());
  testing::FaultSchedule s;
  s.label = "replica-midrun-kill";
  s.mode = "wc";
  s.kills.push_back({2, e.golden_ops()[2] / 2, -1.0, 0});
  const testing::RunReport rep = e.run_schedule(s);
  EXPECT_TRUE(rep.completed);
  for (const auto& v : rep.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
}

TEST(ReplicaEndToEnd, KillingBothReplicaHoldersStillHoldsInvariants) {
  // Default workload: 4 ranks, ppn=2 — ranks 2 and 3 form node 1 and are
  // the only eligible holders for node 0's blobs. Killing both destroys
  // every replica of those blobs; recovery must degrade to files/reprocess
  // and the coverage invariant must account for the empty eligible set.
  testing::Explorer e = make_explorer("wc");
  ASSERT_TRUE(e.harvest().ok());
  testing::FaultSchedule s;
  s.label = "replica-holders-die";
  s.mode = "wc";
  s.kills.push_back({2, e.golden_ops()[2] / 2, -1.0, 0});
  s.kills.push_back({3, 2 * e.golden_ops()[3] / 3, -1.0, 0});
  const testing::RunReport rep = e.run_schedule(s);
  EXPECT_TRUE(rep.completed);
  for (const auto& v : rep.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
}

TEST(ReplicaEndToEnd, RestartIncarnationsStartWithEmptyMemory) {
  // Checkpoint/restart: the kill forces a resubmission, whose fresh
  // processes must recover from files (wipe_all between incarnations) and
  // then rebuild replicas for their own new writes.
  testing::Explorer e = make_explorer("cr");
  ASSERT_TRUE(e.harvest().ok());
  testing::FaultSchedule s;
  s.label = "replica-cr-restart";
  s.mode = "cr";
  s.kills.push_back({1, e.golden_ops()[1] / 2, -1.0, 0});
  const testing::RunReport rep = e.run_schedule(s);
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.submissions, 2);
  for (const auto& v : rep.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
}

}  // namespace
}  // namespace ftmr
