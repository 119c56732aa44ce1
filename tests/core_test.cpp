// Unit tests for FT-MRMPI components: task tables, distributed master,
// load balancer, checkpoint manager, and the Table-1 interfaces.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <mutex>
#include <set>

#include "common/hash.hpp"
#include "core/balancer.hpp"
#include "core/checkpoint.hpp"
#include "core/ftjob.hpp"
#include "core/ftjob_adapters.hpp"
#include "core/interfaces.hpp"
#include "core/master.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"
#include "tests/test_names.hpp"

namespace ftmr::core {
namespace {

using simmpi::Comm;
using simmpi::Runtime;

// ---------------------------------------------------------------------------
// TaskTable
// ---------------------------------------------------------------------------

TEST(TaskTable, UpsertAndMergePrefersProgress) {
  TaskTable a, b;
  a.upsert({1, 0, TaskState::kRunning, 50, 500});
  b.upsert({1, 0, TaskState::kRunning, 80, 800});
  b.upsert({2, 1, TaskState::kDone, 100, 1000});
  a.merge(b);
  EXPECT_EQ(a.find(1)->records_done, 80u);
  EXPECT_EQ(a.find(2)->state, TaskState::kDone);
  EXPECT_EQ(a.done_count(), 1u);
  // Merging an older view back must not regress.
  TaskTable stale;
  stale.upsert({1, 0, TaskState::kRunning, 10, 100});
  a.merge(stale);
  EXPECT_EQ(a.find(1)->records_done, 80u);
}

TEST(TaskTable, EncodeDecodeRoundTrip) {
  TaskTable t;
  t.upsert({7, 3, TaskState::kDone, 42, 420});
  t.upsert({9, 1, TaskState::kRunning, 5, 50});
  TaskTable back;
  ASSERT_TRUE(TaskTable::decode(t.encode(), back).ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.find(7)->owner, 3);
  EXPECT_EQ(back.find(9)->records_done, 5u);
}

TEST(TaskTable, TotalBytesIsStickyAndDrivesProgress) {
  // on_task_start is the only reporter that knows the input size; later
  // progress updates must not zero it out of the table.
  TaskTable t;
  t.upsert({1, 0, TaskState::kRunning, 0, 0, 1000});
  t.upsert({1, 0, TaskState::kRunning, 10, 250});  // progress without size
  ASSERT_NE(t.find(1), nullptr);
  EXPECT_EQ(t.find(1)->total_bytes, 1000u);
  EXPECT_DOUBLE_EQ(t.find(1)->progress_fraction(), 0.25);

  // merge() keeps the size even when the other side's entry wins.
  TaskTable other;
  other.upsert({1, 0, TaskState::kRunning, 20, 2000});  // done > total: clamp
  t.merge(other);
  EXPECT_EQ(t.find(1)->total_bytes, 1000u);
  EXPECT_DOUBLE_EQ(t.find(1)->progress_fraction(), 1.0);

  // Unknown size reports 0 progress; done tasks report 1 regardless.
  TaskStatus unknown{2, 1, TaskState::kRunning, 5, 50};
  EXPECT_DOUBLE_EQ(unknown.progress_fraction(), 0.0);
  TaskStatus done{3, 1, TaskState::kDone, 5, 50};
  EXPECT_DOUBLE_EQ(done.progress_fraction(), 1.0);

  // And the size survives the gossip wire format.
  TaskTable back;
  ASSERT_TRUE(TaskTable::decode(t.encode(), back).ok());
  EXPECT_EQ(back.find(1)->total_bytes, 1000u);
}

// ---------------------------------------------------------------------------
// DistributedMaster
// ---------------------------------------------------------------------------

TEST(Master, HashAssignmentPartitionsAllTasks) {
  constexpr int kRanks = 5;
  constexpr size_t kTasks = 500;
  size_t total = 0;
  for (int r = 0; r < kRanks; ++r) {
    auto mine = DistributedMaster::assign_tasks(kTasks, kRanks, r);
    total += mine.size();
    EXPECT_GT(mine.size(), kTasks / kRanks / 2);
  }
  EXPECT_EQ(total, kTasks);
}

TEST(Master, GossipConvergesGlobalTable) {
  Runtime::run(3, [](Comm& c) {
    Comm mc;
    ASSERT_TRUE(c.dup(mc, false).ok());
    DistributedMaster m(mc, /*status_interval=*/1);
    m.on_task_start(static_cast<uint64_t>(c.rank()), 100);
    m.on_task_done(static_cast<uint64_t>(c.rank()), 10, 100);
    m.observe(100.0 * (c.rank() + 1), 1.0 * (c.rank() + 1));
    // Two exchange rounds with barriers so everyone's sends land.
    ASSERT_TRUE(m.exchange_now().ok());
    ASSERT_TRUE(c.barrier().ok());
    ASSERT_TRUE(m.exchange_now().ok());
    ASSERT_TRUE(c.barrier().ok());
    EXPECT_EQ(m.global_table().size(), 3u);
    for (int r = 0; r < 3; ++r) {
      const TaskStatus* ts = m.global_table().find(static_cast<uint64_t>(r));
      ASSERT_NE(ts, nullptr);
      EXPECT_EQ(ts->state, TaskState::kDone);
      if (r != c.rank()) {
        auto obs = m.peer_observation(r);
        ASSERT_TRUE(obs.has_value());
        EXPECT_DOUBLE_EQ(obs->first, 100.0 * (r + 1));
      }
    }
  });
}

TEST(Master, OnTaskStartRecordsTotalBytes) {
  Runtime::run(1, [](Comm& c) {
    Comm mc;
    ASSERT_TRUE(c.dup(mc, false).ok());
    DistributedMaster m(mc, 1);
    m.on_task_start(42, 4096);
    const TaskStatus* ts = m.local_table().find(42);
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->total_bytes, 4096u);
    EXPECT_DOUBLE_EQ(ts->progress_fraction(), 0.0);
    m.on_task_progress(42, 8, 1024);
    ts = m.local_table().find(42);
    EXPECT_EQ(ts->total_bytes, 4096u);  // progress update keeps the size
    EXPECT_DOUBLE_EQ(ts->progress_fraction(), 0.25);
  });
}

TEST(Master, GossipSendDetectsDeadPeer) {
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 1e-6, -1});
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 1) {
      c.compute(1.0);
      return;
    }
    while (c.failed_ranks().empty()) {
    }
    Comm mc = c;  // gossip directly on world for this test
    DistributedMaster m(mc, 1);
    Status s = m.exchange_now();
    EXPECT_EQ(s.code(), ErrorCode::kProcFailed);
  }, jo);
}

int ceil_log2(int p) {
  int k = 0;
  while ((1 << k) < p) ++k;
  return k;
}

class Dissemination : public ::testing::TestWithParam<int> {};

TEST_P(Dissemination, ConvergesWithinCeilLog2Exchanges) {
  // Each rank finishes one task and observes once; ceil(log2 p) barrier-
  // separated exchanges plus a final drain must deliver every task's final
  // state and every peer's latest observation to every rank.
  const int p = GetParam();
  Runtime::run(p, [p](Comm& c) {
    Comm mc;
    ASSERT_TRUE(c.dup(mc, false).ok());
    DistributedMaster m(mc, /*status_interval=*/1);
    const auto me = static_cast<uint64_t>(c.rank());
    m.on_task_start(me, 100);
    m.on_task_progress(me, 5, 50);
    m.on_task_done(me, 10, 100);
    m.observe(1.0 * c.rank(), 0.5);  // superseded below: only the newest counts
    m.observe(100.0 * (c.rank() + 1), 1.0 * (c.rank() + 1));
    for (int round = 0; round < ceil_log2(p); ++round) {
      ASSERT_TRUE(m.exchange_now().ok());
      ASSERT_TRUE(c.barrier().ok());
    }
    ASSERT_TRUE(m.drain().ok());
    EXPECT_EQ(m.global_table().size(), static_cast<size_t>(p));
    EXPECT_EQ(m.global_table().done_count(), static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      const TaskStatus* ts = m.global_table().find(static_cast<uint64_t>(r));
      ASSERT_NE(ts, nullptr) << "rank " << c.rank() << " never heard of " << r;
      EXPECT_EQ(ts->state, TaskState::kDone);
      EXPECT_EQ(ts->records_done, 10u);
      EXPECT_EQ(ts->total_bytes, 100u);
      EXPECT_EQ(ts->owner, r);
      if (r == c.rank()) continue;
      auto obs = m.peer_observation(r);
      ASSERT_TRUE(obs.has_value()) << "rank " << c.rank() << " lacks obs of " << r;
      EXPECT_DOUBLE_EQ(obs->first, 100.0 * (r + 1));
      EXPECT_DOUBLE_EQ(obs->second, 1.0 * (r + 1));
    }
  });
}

TEST_P(Dissemination, ExchangeSendsOneMessagePerPowerOfTwoDistance) {
  const int p = GetParam();
  std::set<int> distances;
  for (int k = 0; k < ceil_log2(p); ++k) distances.insert((1 << k) % p);
  distances.erase(0);
  const double expected = static_cast<double>(distances.size());
  for (int r = 0; r < p; ++r) {
    const std::vector<int> peers = DistributedMaster::dissemination_peers(r, p);
    const std::set<int> unique(peers.begin(), peers.end());
    EXPECT_EQ(unique.size(), peers.size());
    EXPECT_EQ(static_cast<double>(peers.size()), expected);
    EXPECT_EQ(unique.count(r), 0u);
  }
  auto& reg = metrics::MetricsRegistry::global();
  reg.reset();
  Runtime::run(p, [&](Comm& c) {
    Comm mc;
    ASSERT_TRUE(c.dup(mc, false).ok());
    DistributedMaster m(mc, 1);
    m.on_task_done(static_cast<uint64_t>(c.rank()), 1, 1);
    ASSERT_TRUE(m.exchange_now().ok());
    ASSERT_TRUE(m.exchange_now().ok());  // an empty delta is still sent
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(reg.counter("master.status_sends", r), 2.0 * expected) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, Dissemination, ::testing::Values(2, 3, 5, 8, 13, 64));

TEST(Master, RebindSizesPeerTablesFromTheNewComm) {
  // A master built while a peer was already dead holds an invalid comm
  // (size 0). Rebinding to a live comm must size the peer tables, or every
  // gossiped observation would be dropped.
  Runtime::run(4, [](Comm& c) {
    Comm invalid;
    DistributedMaster m(invalid, 1);
    Comm mc;
    ASSERT_TRUE(c.dup(mc, false).ok());
    m.rebind(mc);
    m.observe(10.0 * (c.rank() + 1), 2.0);
    for (int round = 0; round < 2; ++round) {
      ASSERT_TRUE(m.exchange_now().ok());
      ASSERT_TRUE(c.barrier().ok());
    }
    ASSERT_TRUE(m.drain().ok());
    for (int r = 0; r < c.size(); ++r) {
      if (r == c.rank()) continue;
      auto obs = m.peer_observation(r);
      ASSERT_TRUE(obs.has_value()) << "rank " << c.rank() << " lacks obs of " << r;
      EXPECT_DOUBLE_EQ(obs->first, 10.0 * (r + 1));
    }
  });
}

// ---------------------------------------------------------------------------
// LoadBalancer
// ---------------------------------------------------------------------------

TEST(Balancer, ExchangeModelsGivesIdenticalVectors) {
  Runtime::run(4, [](Comm& c) {
    LinearModel mine;
    mine.a = 0.1 * c.rank();
    mine.b = 1.0 + c.rank();
    mine.n = 10;
    std::vector<LinearModel> all;
    ASSERT_TRUE(LoadBalancer::exchange_models(c, mine, all).ok());
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_DOUBLE_EQ(all[r].b, 1.0 + r);
      EXPECT_EQ(all[r].n, 10u);
    }
  });
}

TEST(Balancer, FasterRankGetsMoreWork) {
  // Rank 0 processes 1 unit/s, rank 1 processes 4 units/s (b = cost/unit).
  std::vector<LinearModel> models(2);
  models[0] = {0.0, 1.0, 1.0, 10};
  models[1] = {0.0, 0.25, 1.0, 10};
  std::vector<double> weights(100, 1.0);
  auto owner = LoadBalancer::assign(weights, models, {0.0, 0.0});
  int n1 = 0;
  for (int o : owner) n1 += (o == 1);
  // Proportional split: rank 1 should take ~4x the items.
  EXPECT_GT(n1, 70);
  EXPECT_LT(n1, 90);
}

TEST(Balancer, UnusableModelsFallBackToSizeBalancing) {
  std::vector<LinearModel> models(3);  // all unusable (n=0)
  std::vector<double> weights{5, 4, 3, 2, 1, 1};
  auto owner = LoadBalancer::assign(weights, models, {0.0, 0.0, 0.0});
  double load[3] = {};
  for (size_t i = 0; i < weights.size(); ++i) load[owner[i]] += weights[i];
  // LPT keeps the max/min spread small for this instance.
  EXPECT_LE(*std::max_element(load, load + 3), 6.0);
  EXPECT_GE(*std::min_element(load, load + 3), 4.0);
}

TEST(Balancer, InterceptChargedOnFirstAssignment) {
  // Paper model t = a + b·D: two ranks with identical marginal cost b but
  // rank 1 pays a large fixed startup cost a. Ignoring the intercept (the
  // pre-fix behavior) splits the 12 unit items 6/6; honoring it keeps the
  // work on rank 0 until its backlog exceeds rank 1's startup cost.
  std::vector<LinearModel> models(2);
  models[0] = {0.0, 1.0, 1.0, 10};
  models[1] = {10.0, 1.0, 1.0, 10};
  std::vector<double> weights(12, 1.0);
  auto owner = LoadBalancer::assign(weights, models, {0.0, 0.0});
  int n0 = 0, n1 = 0;
  for (int o : owner) (o == 0 ? n0 : n1)++;
  EXPECT_GE(n0, 10) << "slow-start rank over-assigned: intercept dropped?";
  EXPECT_GE(n1, 1);  // once the intercept is sunk, rank 1 does join in

  // A rank arriving with work in flight has already paid its intercept.
  auto owner2 = LoadBalancer::assign(weights, models, {0.0, 5.0});
  int m1 = 0;
  for (int o : owner2) m1 += (o == 1);
  EXPECT_GE(m1, 3);  // charged only b·D above its current finish time
}

TEST(Balancer, DecodeModelValidatesPayload) {
  // Well-formed blob round-trips.
  ByteWriter w;
  w.put<double>(0.5);
  w.put<double>(2.0);
  w.put<double>(0.9);
  w.put<uint64_t>(7);
  bool valid = false;
  LinearModel m = LoadBalancer::decode_model(w.bytes(), &valid);
  EXPECT_TRUE(valid);
  EXPECT_DOUBLE_EQ(m.a, 0.5);
  EXPECT_DOUBLE_EQ(m.b, 2.0);
  EXPECT_EQ(m.n, 7u);

  // Truncated blob: sanitized identity model, flagged invalid.
  ByteWriter shortw;
  shortw.put<double>(0.5);
  m = LoadBalancer::decode_model(shortw.bytes(), &valid);
  EXPECT_FALSE(valid);
  EXPECT_DOUBLE_EQ(m.a, 0.0);
  EXPECT_DOUBLE_EQ(m.b, 1.0);
  EXPECT_EQ(m.n, 0u);
  EXPECT_FALSE(m.usable());

  // Non-finite coefficients are garbage even when the length is right.
  ByteWriter nanw;
  nanw.put<double>(std::numeric_limits<double>::quiet_NaN());
  nanw.put<double>(2.0);
  nanw.put<double>(0.9);
  nanw.put<uint64_t>(7);
  m = LoadBalancer::decode_model(nanw.bytes(), &valid);
  EXPECT_FALSE(valid);
  EXPECT_DOUBLE_EQ(m.b, 1.0);

  // Empty blob.
  m = LoadBalancer::decode_model({}, &valid);
  EXPECT_FALSE(valid);
  EXPECT_DOUBLE_EQ(m.b, 1.0);
}

TEST(Balancer, DeterministicAcrossCalls) {
  std::vector<LinearModel> models(4);
  for (int i = 0; i < 4; ++i) models[i] = {0.0, 1.0 + i * 0.3, 1.0, 5};
  std::vector<double> weights;
  for (int i = 0; i < 50; ++i) weights.push_back((i * 37 % 11) + 1.0);
  auto a = LoadBalancer::assign(weights, models, std::vector<double>(4, 0.0));
  auto b = LoadBalancer::assign(weights, models, std::vector<double>(4, 0.0));
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Load-balancer redistribution invariants under failures
//
// After a recovery the survivors must have reassigned *exactly* the dead
// ranks' stage-0 file tasks — no more (work of live ranks stolen), no less
// (orphaned inputs silently dropped) — and the reassigned byte volume must
// equal the dead ranks' hash-default byte volume. Checked for both
// work-conserving and non-work-conserving detect/resume via the FtJob
// introspection probes (task_reassignments / known_dead / input_chunks).
// ---------------------------------------------------------------------------

namespace redistribution {

StageFns tiny_wordcount() {
  StageFns fns;
  fns.map = [](std::string_view, std::string_view line,
               mr::KvBuffer& out) -> int32_t {
    int32_t n = 0;
    size_t pos = 0;
    while (pos < line.size()) {
      size_t end = line.find(' ', pos);
      if (end == std::string_view::npos) end = line.size();
      if (end > pos) {
        out.add(line.substr(pos, end - pos), "1");
        ++n;
      }
      pos = end + 1;
    }
    return n;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    out.add(key, std::to_string(values.size()));
    return 1;
  };
  return fns;
}

struct RedistCase {
  FtMode mode;
  double kill_vtime;
  const char* label;
};

class Redistribution : public ::testing::TestWithParam<RedistCase> {};

TEST_P(Redistribution, ReassignedBytesMatchDeadRanksRemainingBytes) {
  const RedistCase tc = GetParam();
  constexpr int kP = 4;
  constexpr int kVictim = 2;
  storage::TempDir tmp("ftmr-redist");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  // Deliberately uneven chunk sizes so the byte-sum invariant cannot pass
  // by accident of symmetric task counts.
  constexpr int kChunks = 10;
  for (int i = 0; i < kChunks; ++i) {
    std::string text;
    for (int j = 0; j < 4 + 9 * i; ++j) {
      text += tests::numbered("w", (i * 7 + j) % 13) + " common\n";
    }
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%04d", i);
    ASSERT_TRUE(fs.write_file(storage::Tier::kShared, 0,
                              std::string("input/") + name,
                              as_bytes_view(text)).ok());
  }

  FtJobOptions opts;
  opts.mode = tc.mode;
  opts.ppn = 2;
  if (tc.mode == FtMode::kDetectResumeNWC) opts.ckpt.enabled = false;

  simmpi::JobOptions jo;
  jo.kills.push_back({kVictim, tc.kill_vtime, -1});
  // Survivor-side snapshots of the probes, taken after the job converges.
  std::map<uint64_t, int> reassign;
  std::set<int> dead;
  std::vector<std::string> chunks;
  std::mutex mu;
  simmpi::JobResult r = Runtime::run(kP, [&](Comm& c) {
    FtJob job(c, &fs, opts);
    Status s = job.run([&](FtJob& j) {
      if (auto st = j.run_stage(tiny_wordcount(), false, nullptr); !st.ok()) {
        return st;
      }
      return j.write_output();
    });
    if (c.global_rank() == kVictim) return;
    ASSERT_TRUE(s.ok()) << s.to_string();
    EXPECT_GE(job.recoveries(), 1);
    std::lock_guard<std::mutex> lock(mu);
    if (reassign.empty()) {
      reassign = job.task_reassignments();
      dead = job.known_dead();
      chunks = job.input_chunks();
    } else {
      // Every survivor must hold the identical redistribution view.
      EXPECT_EQ(reassign, job.task_reassignments()) << tc.label;
      EXPECT_EQ(dead, job.known_dead()) << tc.label;
      EXPECT_EQ(chunks, job.input_chunks()) << tc.label;
    }
  }, jo);
  ASSERT_FALSE(r.aborted);
  ASSERT_EQ(r.killed_count(), 1);
  ASSERT_EQ(dead, std::set<int>{kVictim}) << tc.label;
  ASSERT_EQ(chunks.size(), static_cast<size_t>(kChunks));

  int64_t reassigned_bytes = 0, orphaned_bytes = 0;
  for (uint64_t t = 0; t < chunks.size(); ++t) {
    const int64_t sz =
        fs.file_size(storage::Tier::kShared, 0, "input/" + chunks[t]);
    ASSERT_GT(sz, 0) << chunks[t];
    const bool default_owner_dead = dead.count(assign_task_to_rank(t, kP)) > 0;
    const auto it = reassign.find(t);
    if (default_owner_dead) {
      // ...no less: every orphaned task has a new, alive owner.
      ASSERT_TRUE(it != reassign.end())
          << tc.label << ": task " << t << " orphaned but never reassigned";
      orphaned_bytes += sz;
    } else {
      // ...no more: live ranks' tasks are never stolen.
      EXPECT_TRUE(it == reassign.end())
          << tc.label << ": task " << t << " reassigned but its owner is alive";
    }
    if (it != reassign.end()) {
      EXPECT_EQ(dead.count(it->second), 0u)
          << tc.label << ": task " << t << " reassigned to a dead rank";
      reassigned_bytes += sz;
    }
  }
  // The reassignment map covers every task the dead rank still *owned* —
  // completed work is skipped at execution time (WC, via checkpoints), not
  // by shrinking the assignment — so the reassigned byte volume must equal
  // the orphaned byte volume exactly, for early and mid-map kills alike.
  EXPECT_EQ(reassigned_bytes, orphaned_bytes) << tc.label;
  EXPECT_GT(reassigned_bytes, 0) << tc.label;
}

INSTANTIATE_TEST_SUITE_P(
    Modes, Redistribution,
    ::testing::Values(RedistCase{FtMode::kDetectResumeWC, 1e-4, "wc_early"},
                      RedistCase{FtMode::kDetectResumeNWC, 1e-4, "nwc_early"},
                      RedistCase{FtMode::kDetectResumeWC, 3e-3, "wc_midmap"},
                      RedistCase{FtMode::kDetectResumeNWC, 3e-3, "nwc_midmap"}),
    [](const ::testing::TestParamInfo<RedistCase>& info) {
      return std::string(info.param.label);
    });

}  // namespace redistribution

// ---------------------------------------------------------------------------
// CheckpointManager
// ---------------------------------------------------------------------------

struct CkptFixture : ::testing::Test {
  CkptFixture() : tmp("ftmr-ckpt-test") {
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
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

TEST_F(CkptFixture, MapCheckpointRoundTripLocal) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.map_ckpt(c, 0, 5, 0, 100, kv({{"a", "1"}, {"b", "2"}})).ok());
    ASSERT_TRUE(cm.map_ckpt(c, 0, 5, 100, 200, kv({{"c", "3"}})).ok());
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 0, 0, false, -1.0, rec).ok());
    ASSERT_TRUE(rec.map_tasks.count(5));
    EXPECT_EQ(rec.map_tasks[5].pos, 200u);
    ASSERT_EQ(rec.map_tasks[5].kv.size(), 3u);  // deltas concatenated in order
    EXPECT_EQ(rec.map_tasks[5].kv.view(2).key, "c");
    EXPECT_EQ(rec.files_read, 2u);
  });
}

TEST_F(CkptFixture, CopierDrainsToSharedWithStamp) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;  // default kLocalWithCopier
    CheckpointManager cm(fs.get(), 0, 7, o, 1);
    c.compute(1.0);
    auto part3 = store({{"k", "v"}});
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, part3).ok());
    // Shared copy exists (with a drain stamp past t=1.0)...
    RankRecovery late;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 7, 0, true, /*horizon=*/1e9, late).ok());
    ASSERT_TRUE(late.partitions.count(3));
    // ...but is invisible before its drain time.
    RankRecovery early;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 7, 0, true, /*horizon=*/0.5, early).ok());
    EXPECT_TRUE(early.partitions.empty());
  });
}

TEST_F(CkptFixture, SharedDirectSkipsLocal) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    o.location = CkptOptions::Location::kSharedDirect;
    CheckpointManager cm(fs.get(), 0, 2, o, 4);
    ASSERT_TRUE(cm.reduce_ckpt(c, 1, 9, 0, 50, kv({{"x", "y"}})).ok());
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, 1, 2, 0, true, -1.0, rec).ok());
    ASSERT_TRUE(rec.reduce.count(9));
    EXPECT_EQ(rec.reduce[9].entries_done, 50u);
    RankRecovery local;
    ASSERT_TRUE(cm.load_rank_stage(c, 1, 2, 0, false, -1.0, local).ok());
    EXPECT_TRUE(local.reduce.empty());
  });
}

TEST_F(CkptFixture, LocalOnlyNeverReachesShared) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    o.location = CkptOptions::Location::kLocalOnly;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.map_ckpt(c, 0, 1, 0, 10, kv({{"a", "b"}})).ok());
    RankRecovery shared;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 0, 0, true, -1.0, shared).ok());
    EXPECT_TRUE(shared.map_tasks.empty());
  });
}

TEST_F(CkptFixture, DisabledManagerWritesNothing) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    o.enabled = false;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.map_ckpt(c, 0, 1, 0, 10, kv({{"a", "b"}})).ok());
    EXPECT_EQ(cm.count(), 0);
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 0, 0, false, -1.0, rec).ok());
    EXPECT_TRUE(rec.map_tasks.empty());
  });
}

TEST_F(CkptFixture, LoadFilterSelectsSubset) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.map_ckpt(c, 0, 1, 0, 10, kv({{"a", "1"}})).ok());
    ASSERT_TRUE(cm.map_ckpt(c, 0, 2, 0, 20, kv({{"b", "2"}})).ok());
    auto part4 = store({{"c", "3"}});
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 4, part4).ok());
    auto part5 = store({{"d", "4"}});
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 5, part5).ok());
    std::set<uint64_t> tasks{2};
    std::set<int> parts{5};
    LoadFilter f{&tasks, &parts};
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 0, 0, false, -1.0, rec, f).ok());
    EXPECT_EQ(rec.map_tasks.size(), 1u);
    EXPECT_TRUE(rec.map_tasks.count(2));
    EXPECT_EQ(rec.partitions.size(), 1u);
    EXPECT_TRUE(rec.partitions.count(5));
  });
}

TEST_F(CkptFixture, StagesPresentLists) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.map_ckpt(c, 0, 1, 0, 1, kv({{"a", "1"}})).ok());
    ASSERT_TRUE(cm.stage_output_ckpt(c, 2, 0, kv({{"z", "9"}})).ok());
    auto stages = cm.stages_present(0, 0, false);
    EXPECT_EQ(stages, (std::set<int>{0, 2}));
  });
}

TEST_F(CkptFixture, PrefetchRecoveryReadsSameData) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    o.prefetch_recovery = true;
    CheckpointManager cm(fs.get(), 0, 3, o, 1);
    ASSERT_TRUE(cm.map_ckpt(c, 0, 8, 0, 40, kv({{"p", "q"}, {"r", "s"}})).ok());
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, 0, 3, 0, true, 1e9, rec).ok());
    ASSERT_TRUE(rec.map_tasks.count(8));
    EXPECT_EQ(rec.map_tasks[8].kv.size(), 2u);
  });
}

// ---------------------------------------------------------------------------
// Table-1 interfaces
// ---------------------------------------------------------------------------

TEST(Interfaces, TextLineReaderYieldsAndSkips) {
  TextLineReader r;
  r.open(0, "one\ntwo\nthree\nfour");
  int64_t k;
  std::string v;
  ASSERT_TRUE(r.next(k, v));
  EXPECT_EQ(k, 0);
  EXPECT_EQ(v, "one");
  r.skip(2);
  EXPECT_EQ(r.position(), 3u);
  ASSERT_TRUE(r.next(k, v));
  EXPECT_EQ(v, "four");
  EXPECT_FALSE(r.next(k, v));
}

TEST(Interfaces, KvWriterAndKmvReaderEncodeTyped) {
  mr::KvBuffer buf;
  KVWriter<std::string, int64_t> w(&buf);
  w.emit("answer", 42);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.view(0).value, "42");

  const std::vector<std::string_view> vals{"1", "2", "3"};
  KMVReader<std::string, int64_t> r("answer", vals);
  EXPECT_EQ(r.key(), "answer");
  EXPECT_EQ(r.count(), 3u);
  EXPECT_EQ(r.value(2), 3);
  EXPECT_EQ(r.values(), (std::vector<int64_t>{1, 2, 3}));
}

TEST(Interfaces, TsvWriterFormats) {
  TsvRecordWriter<std::string, int64_t> w;
  std::string sink;
  w.write("word", 7, sink);
  EXPECT_EQ(sink, "word\t7\n");
}

// A Mapper/Reducer pair through the adapter produces a working StageFns.
struct CountMapper final : Mapper<std::string, std::string, std::string, int64_t> {
  int32_t map(std::string&, std::string& value,
              KVWriter<std::string, int64_t>& out, void*) override {
    out.emit(value, 1);
    return 1;
  }
};
struct SumReducer final : Reducer<std::string, int64_t, std::string, int64_t> {
  int32_t reduce(std::string& key, KMVReader<std::string, int64_t>& values,
                 KVWriter<std::string, int64_t>& out, void*) override {
    int64_t sum = 0;
    for (size_t i = 0; i < values.count(); ++i) sum += values.value(i);
    out.emit(key, sum);
    return 1;
  }
};

TEST(Adapters, MapperReducerThroughStageFns) {
  StageFns fns = make_stage<std::string, std::string, std::string, int64_t,
                            std::string, int64_t>(
      std::make_shared<CountMapper>(), std::make_shared<SumReducer>());
  mr::KvBuffer mapped;
  EXPECT_EQ(fns.map("0", "apple", mapped), 1);
  EXPECT_EQ(fns.map("1", "apple", mapped), 1);
  EXPECT_EQ(mapped.size(), 2u);
  mr::KvBuffer reduced;
  const std::vector<std::string_view> ones{"1", "1"};
  fns.reduce("apple", ones, reduced);
  ASSERT_EQ(reduced.size(), 1u);
  EXPECT_EQ(reduced.view(0).value, "2");
}

TEST(Master, FailureFreeJobDrainsEveryStatusMessage) {
  // With no mid-phase exchange (huge status interval), all gossip is the
  // map-phase exchange; the post-barrier drain consumes every message, so
  // the drained count is exact rather than a real-time race.
  storage::TempDir tmp("ftmr-drain");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  for (int i = 0; i < 6; ++i) {
    std::string text;
    for (int j = 0; j < 20; ++j) text += tests::numbered("w", (i + j) % 7) + "\n";
    ASSERT_TRUE(fs.write_file(storage::Tier::kShared, 0,
                              "input/chunk_" + std::to_string(i),
                              as_bytes_view(text)).ok());
  }
  FtJobOptions opts;
  opts.mode = FtMode::kDetectResumeWC;
  opts.ppn = 2;
  opts.status_interval_commits = std::numeric_limits<int>::max();
  auto& reg = metrics::MetricsRegistry::global();
  reg.reset();
  constexpr int kP = 5;
  simmpi::JobResult r = Runtime::run(kP, [&](Comm& c) {
    FtJob job(c, &fs, opts);
    Status s = job.run([](FtJob& j) {
      if (auto st = j.run_stage(redistribution::tiny_wordcount(), false, nullptr); !st.ok()) {
        return st;
      }
      return j.write_output();
    });
    EXPECT_TRUE(s.ok()) << s.to_string();
  });
  ASSERT_EQ(r.finished_count(), kP);
  double sent = 0.0, drained = 0.0;
  for (int g = 0; g < kP; ++g) {
    sent += reg.counter("master.status_sends", g);
    drained += reg.counter("master.status_drained", g);
  }
  EXPECT_EQ(sent, static_cast<double>(kP * ceil_log2(kP)));
  EXPECT_EQ(drained, sent);
}

}  // namespace
}  // namespace ftmr::core
