// Integration tests for the FT-MRMPI engine: all fault-tolerance models
// must produce output identical to a failure-free run, under failures
// injected in every phase, including continuous failures and multi-stage
// (iterative) jobs. This is the paper's core correctness claim.
#include <gtest/gtest.h>

#include <atomic>
#include <charconv>
#include <map>
#include <mutex>

#include "common/hash.hpp"
#include "core/ftjob.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"

namespace ftmr::core {
namespace {

using simmpi::Comm;
using simmpi::JobResult;
using simmpi::Runtime;

// ---------------------------------------------------------------------------
// Shared wordcount world
// ---------------------------------------------------------------------------

struct World {
  explicit World(int nchunks = 12, int nlines = 40) : tmp("ftmr-ftjob") {
    storage::StorageOptions so;
    so.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(so);
    for (int i = 0; i < nchunks; ++i) {
      std::string text;
      for (int j = 0; j < nlines; ++j) {
        const std::string w1 = "w" + std::to_string((i * 13 + j) % 50);
        const std::string w2 = "x" + std::to_string(j % 40);
        text += w1 + " " + w2 + " common\n";
        expected[w1]++;
        expected[w2]++;
        expected["common"]++;
      }
      char name[32];
      std::snprintf(name, sizeof(name), "chunk_%04d", i);
      EXPECT_TRUE(fs->write_file(storage::Tier::kShared, 0,
                                 std::string("input/") + name,
                                 as_bytes_view(text)).ok());
    }
  }

  std::map<std::string, int64_t> read_output(const std::string& dir = "output") {
    std::vector<std::string> parts;
    EXPECT_TRUE(fs->list_dir(storage::Tier::kShared, 0, dir, parts).ok());
    std::map<std::string, int64_t> counts;
    for (const auto& name : parts) {
      Bytes data;
      EXPECT_TRUE(
          fs->read_file(storage::Tier::kShared, 0, dir + "/" + name, data).ok());
      ByteReader r(data);
      while (!r.exhausted()) {
        std::string k, v;
        if (!r.get_string(k).ok() || !r.get_string(v).ok()) {
          ADD_FAILURE() << "corrupt output in " << name;
          break;
        }
        counts[k] += std::strtoll(v.c_str(), nullptr, 10);
      }
    }
    return counts;
  }

  /// Every output key sits in exactly one part file, and that file is its
  /// key owner's: part-<partition_of_key(key, nparts)>. read_output() sums
  /// across parts, so a key split over two owners would pass it unnoticed.
  void expect_keys_at_owners(int nparts, const std::string& dir = "output") {
    std::vector<std::string> parts;
    ASSERT_TRUE(fs->list_dir(storage::Tier::kShared, 0, dir, parts).ok());
    std::map<std::string, std::string> file_of;
    for (const auto& name : parts) {
      Bytes data;
      ASSERT_TRUE(
          fs->read_file(storage::Tier::kShared, 0, dir + "/" + name, data).ok());
      ByteReader r(data);
      while (!r.exhausted()) {
        std::string k, v;
        ASSERT_TRUE(r.get_string(k).ok() && r.get_string(v).ok()) << name;
        EXPECT_TRUE(file_of.emplace(k, name).second)
            << "key " << k << " in both " << file_of[k] << " and " << name;
        char owner[32];
        std::snprintf(owner, sizeof(owner), "part-%05d",
                      partition_of_key(k, nparts));
        EXPECT_EQ(name, owner) << "key " << k;
      }
    }
    EXPECT_EQ(file_of.size(), expected.size());
  }

  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
  std::map<std::string, int64_t> expected;
};

StageFns wordcount_fns(double reduce_cost = -1.0) {
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
    int64_t sum = 0;
    for (std::string_view v : values) {
      int64_t n = 0;
      std::from_chars(v.data(), v.data() + v.size(), n);
      sum += n;
    }
    out.add(key, std::to_string(sum));
    return 1;
  };
  fns.reduce_cost_per_value = reduce_cost;
  return fns;
}

Status wordcount_driver(FtJob& job, const StageFns& fns) {
  if (auto s = job.run_stage(fns, /*kv_input=*/false, nullptr); !s.ok()) return s;
  return job.write_output();
}

FtJobOptions base_opts(FtMode mode) {
  FtJobOptions o;
  o.mode = mode;
  o.ckpt.records_per_ckpt = 25;
  o.ppn = 2;
  if (mode == FtMode::kDetectResumeNWC || mode == FtMode::kNone) {
    o.ckpt.enabled = false;  // NWC does not checkpoint (Sec. 4.2.2)
  }
  return o;
}

// ---------------------------------------------------------------------------
// Failure-free: all modes agree with expected output
// ---------------------------------------------------------------------------

class ModeSweep : public ::testing::TestWithParam<FtMode> {};

TEST_P(ModeSweep, FailureFreeOutputCorrect) {
  World w;
  const FtJobOptions opts = base_opts(GetParam());
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    EXPECT_TRUE(s.ok()) << s.to_string();
    EXPECT_EQ(job.recoveries(), 0);
  });
  EXPECT_EQ(r.finished_count(), 4);
  EXPECT_EQ(w.read_output(), w.expected);
  w.expect_keys_at_owners(4);
}

INSTANTIATE_TEST_SUITE_P(Modes, ModeSweep,
                         ::testing::Values(FtMode::kNone,
                                           FtMode::kCheckpointRestart,
                                           FtMode::kDetectResumeWC,
                                           FtMode::kDetectResumeNWC));

// ---------------------------------------------------------------------------
// Baseline (kNone): a failure kills the whole job
// ---------------------------------------------------------------------------

TEST(NoFt, FailureAbortsJob) {
  World w;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 4e-3, -1});
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(FtMode::kNone));
    (void)job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
  }, jo);
  EXPECT_TRUE(r.aborted);
}

// The paper's MR-MPI comparator keeps the original 4-pass KV->KMV convert
// (Sec. 6, Fig. 16). Both algorithms group into the same key order, so the
// output part files are byte-identical; only the modeled merge cost moves.
TEST(NoFt, FourPassConvertOutputIdenticalToTwoPass) {
  World w;
  std::map<bool, double> merge_s;
  for (bool two_pass : {false, true}) {
    FtJobOptions o = base_opts(FtMode::kNone);
    o.two_pass_convert = two_pass;
    o.output_dir = two_pass ? "out2" : "out4";
    std::mutex mu;
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), o);
      ASSERT_TRUE(job.run([&](FtJob& j) {
                       if (auto s = j.run_stage(wordcount_fns(), false, nullptr);
                           !s.ok()) {
                         return s;
                       }
                       return j.write_output();
                     }).ok());
      std::lock_guard<std::mutex> lock(mu);
      merge_s[two_pass] += job.times().get("merge");
    });
    ASSERT_EQ(r.finished_count(), 4);
  }
  EXPECT_EQ(w.read_output("out4"), w.expected);
  for (int p = 0; p < 4; ++p) {
    char name[32];
    std::snprintf(name, sizeof(name), "/part-%05d", p);
    Bytes four, two;
    ASSERT_TRUE(w.fs->read_file(storage::Tier::kShared, 0,
                                std::string("out4") + name, four).ok());
    ASSERT_TRUE(w.fs->read_file(storage::Tier::kShared, 0,
                                std::string("out2") + name, two).ok());
    EXPECT_EQ(four, two) << name;
  }
  // The 4-pass algorithm moves about twice the bytes (Fig. 16).
  EXPECT_GT(merge_s[false], merge_s[true]);
}

// ---------------------------------------------------------------------------
// Detect/resume: failures in every phase, WC and NWC
// ---------------------------------------------------------------------------

// gtest prints a struct param byte-wise and ctest's discovered test names
// carry that printout, so the padding after `mode` is an explicit zeroed
// field: left uninitialized, it changed the names from run to run.
struct DrCase {
  DrCase(FtMode m, double t, const char* l) : mode(m), kill_vtime(t), label(l) {}
  FtMode mode;
  int32_t zero_pad = 0;
  double kill_vtime;
  const char* label;
};
static_assert(sizeof(DrCase) == 24);

class DetectResume : public ::testing::TestWithParam<DrCase> {};

TEST_P(DetectResume, OutputSurvivesFailure) {
  const DrCase tc = GetParam();
  World w;
  FtJobOptions opts = base_opts(tc.mode);
  simmpi::JobOptions jo;
  jo.kills.push_back({2, tc.kill_vtime, -1});
  std::atomic<int> recoveries{0};
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    // Slow reduce so late kill times land inside the reduce phase.
    Status s = job.run(
        [&](FtJob& j) { return wordcount_driver(j, wordcount_fns(5e-4)); });
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      recoveries = job.recoveries();
    }
  }, jo);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.killed_count(), 1);
  EXPECT_EQ(r.finished_count(), 3);
  EXPECT_GE(recoveries.load(), 1);
  EXPECT_EQ(w.read_output(), w.expected) << tc.label;
}

INSTANTIATE_TEST_SUITE_P(
    Phases, DetectResume,
    ::testing::Values(DrCase{FtMode::kDetectResumeWC, 4e-3, "wc-mid-map"},
                      DrCase{FtMode::kDetectResumeWC, 1e-1, "wc-mid-reduce"},
                      DrCase{FtMode::kDetectResumeNWC, 4e-3, "nwc-mid-map"},
                      DrCase{FtMode::kDetectResumeNWC, 1e-1, "nwc-mid-reduce"},
                      DrCase{FtMode::kDetectResumeWC, 2e-2, "wc-around-shuffle"},
                      DrCase{FtMode::kDetectResumeNWC, 2e-2, "nwc-around-shuffle"}));

TEST(DetectResume, ContinuousFailuresShrinkRepeatedly) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kDetectResumeWC);
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 5e-3, -1});
  jo.kills.push_back({3, 6e-2, -1});
  jo.kills.push_back({5, 1.2e-1, -1});
  JobResult r = Runtime::run(6, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run(
        [&](FtJob& j) { return wordcount_driver(j, wordcount_fns(5e-4)); });
    if (c.global_rank() != 1 && c.global_rank() != 3 && c.global_rank() != 5) {
      EXPECT_TRUE(s.ok()) << s.to_string();
      EXPECT_EQ(job.work_comm().size(), 3);
    }
  }, jo);
  EXPECT_EQ(r.killed_count(), 3);
  EXPECT_EQ(r.finished_count(), 3);
  EXPECT_EQ(w.read_output(), w.expected);
}

TEST(DetectResume, ChunkGranularityAlsoRecovers) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kDetectResumeWC);
  opts.ckpt.granularity = CkptOptions::Granularity::kChunk;
  simmpi::JobOptions jo;
  jo.kills.push_back({0, 5e-3, -1});
  JobResult r = Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    if (c.global_rank() != 0) { EXPECT_TRUE(s.ok()) << s.to_string(); }
  }, jo);
  EXPECT_EQ(r.finished_count(), 3);
  EXPECT_EQ(w.read_output(), w.expected);
}

TEST(DetectResume, LoadBalancerOffStillCorrect) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kDetectResumeWC);
  opts.load_balance = false;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 5e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), opts);
    Status s = job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    if (c.global_rank() != 2) { EXPECT_TRUE(s.ok()) << s.to_string(); }
  }, jo);
  EXPECT_EQ(w.read_output(), w.expected);
}

// ---------------------------------------------------------------------------
// Checkpoint/restart: abort + resubmit loop
// ---------------------------------------------------------------------------

TEST(CheckpointRestart, RestartResumesAndFinishes) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  int submissions = 0;
  // Written concurrently by the rank threads of one submission.
  std::atomic<bool> resumed{false};
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({1, 8e-3, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      if (submissions > 1 && job.resumed_from_checkpoint()) resumed = true;
      (void)job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5) << "restart loop did not converge";
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_TRUE(resumed);
  EXPECT_EQ(w.read_output(), w.expected);
}

TEST(CheckpointRestart, FailureInReducePhaseRestartSkipsMap) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({3, 1e-1, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      (void)job.run(
          [&](FtJob& j) { return wordcount_driver(j, wordcount_fns(5e-4)); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(w.read_output(), w.expected);
}

TEST(CheckpointRestart, RanksWithoutShuffleDataStillPrimeFromPartitionCheckpoints) {
  // One distinct word: a single partition receives data, the other owners
  // receive nothing from the shuffle. Each must still checkpoint its (empty)
  // partition, or a restart could not claim shuffle-done job-wide.
  World w(0), golden(0);
  for (World* world : {&w, &golden}) {
    for (int i = 0; i < 4; ++i) {
      std::string text;
      for (int j = 0; j < 30; ++j) text += "only\n";
      ASSERT_TRUE(world->fs->write_file(storage::Tier::kShared, 0,
                                        "input/chunk_" + std::to_string(i),
                                        as_bytes_view(text)).ok());
    }
    world->expected["only"] = 120;
  }
  constexpr int kP = 4;
  constexpr int kVictim = 0;
  const FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  const auto driver = [](FtJob& j) { return wordcount_driver(j, wordcount_fns()); };

  // Golden run: the op index at which the victim finishes its shuffle (the
  // phase span is recorded after the shuffle's closing barrier).
  std::atomic<int64_t> shuffle_done_op{-1};
  Runtime::run(kP, [&](Comm& c) {
    FtJob job(c, golden.fs.get(), opts);
    ASSERT_TRUE(job.run(driver).ok());
    if (c.global_rank() != kVictim) return;
    for (const auto& ev : job.trace().events()) {
      if (ev.cat == "phase" && ev.name == "shuffle") shuffle_done_op = ev.op;
    }
  });
  ASSERT_GT(shuffle_done_op.load(), 0);

  // Kill at the first op after the shuffle: every partition checkpoint is
  // durable, no stage output is. The restart must resume past the shuffle
  // on every rank.
  std::atomic<int> primed_past_shuffle{0};
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({kVictim, -1.0, shuffle_done_op + 1});
    JobResult r = Runtime::run(kP, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      if (submissions > 1 && job.resumed_from_checkpoint() &&
          job.stage_phase(0) == FtJob::kPhaseShuffleDone) {
        primed_past_shuffle++;
      }
      (void)job.run(driver);
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 4);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(primed_past_shuffle.load(), kP);
  EXPECT_EQ(w.read_output(), w.expected);
}

TEST(CheckpointRestart, SurvivesTwoConsecutiveFailedSubmissions) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({0, 6e-3, -1});
    if (submissions == 2) jo.kills.push_back({2, 2e-2, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      (void)job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); });
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 6);
  }
  // The second kill usually aborts the second submission too (3 total),
  // but detection timing can let it slip past a fast restart; the invariant
  // is that at least one restart happened and the output stayed exact.
  EXPECT_GE(submissions, 2);
  EXPECT_LE(submissions, 3);
  EXPECT_EQ(w.read_output(), w.expected);
}

// ---------------------------------------------------------------------------
// Multi-stage (iterative) jobs
// ---------------------------------------------------------------------------

// Stage 2 regroups word counts by word-length bucket.
StageFns bucket_fns() {
  StageFns fns;
  fns.map = [](std::string_view key, std::string_view value,
               mr::KvBuffer& out) -> int32_t {
    out.add("len" + std::to_string(key.size() % 3), value);
    return 1;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    int64_t sum = 0;
    for (std::string_view v : values) {
      int64_t n = 0;
      std::from_chars(v.data(), v.data() + v.size(), n);
      sum += n;
    }
    out.add(key, std::to_string(sum));
    return 1;
  };
  return fns;
}

Status two_stage_driver(FtJob& job) {
  if (auto s = job.run_stage(wordcount_fns(), false, nullptr); !s.ok()) return s;
  if (auto s = job.run_stage(bucket_fns(), true, nullptr); !s.ok()) return s;
  return job.write_output();
}

std::map<std::string, int64_t> bucket_expected(
    const std::map<std::string, int64_t>& wc) {
  std::map<std::string, int64_t> out;
  for (const auto& [word, count] : wc) {
    out["len" + std::to_string(word.size() % 3)] += count;
  }
  return out;
}

TEST(MultiStage, FailureFreeTwoStages) {
  World w;
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(FtMode::kDetectResumeWC));
    ASSERT_TRUE(job.run(two_stage_driver).ok());
  });
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
}

TEST(MultiStage, WcFailureInSecondStageKeepsFirstStageWork) {
  World w;
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 4e-2, -1});  // stage 0 finishes around 3e-2
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(FtMode::kDetectResumeWC));
    Status s = job.run(two_stage_driver);
    if (c.global_rank() != 1) { EXPECT_TRUE(s.ok()) << s.to_string(); }
  }, jo);
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
}

TEST(MultiStage, NwcFailureInSecondStageRestartsFromScratchButFinishes) {
  World w;
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 4e-2, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, w.fs.get(), base_opts(FtMode::kDetectResumeNWC));
    Status s = job.run(two_stage_driver);
    if (c.global_rank() != 2) { EXPECT_TRUE(s.ok()) << s.to_string(); }
  }, jo);
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
}

TEST(MultiStage, CrRestartResumesAtSecondStage) {
  World w;
  FtJobOptions opts = base_opts(FtMode::kCheckpointRestart);
  int submissions = 0;
  for (;;) {
    submissions++;
    simmpi::JobOptions jo;
    if (submissions == 1) jo.kills.push_back({0, 4e-2, -1});
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, w.fs.get(), opts);
      (void)job.run(two_stage_driver);
    }, jo);
    if (!r.aborted) break;
    ASSERT_LT(submissions, 5);
  }
  EXPECT_EQ(submissions, 2);
  EXPECT_EQ(w.read_output(), bucket_expected(w.expected));
}

// ---------------------------------------------------------------------------
// Virtual-time sanity: FT overhead exists but is bounded
// ---------------------------------------------------------------------------

TEST(Overhead, CheckpointingCostsSomethingButNotTooMuch) {
  World base_w, ft_w;
  double t_base = 0, t_ft = 0;
  {
    FtJobOptions o = base_opts(FtMode::kNone);
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, base_w.fs.get(), o);
      ASSERT_TRUE(
          job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); }).ok());
    });
    t_base = r.makespan();
  }
  {
    FtJobOptions o = base_opts(FtMode::kCheckpointRestart);
    JobResult r = Runtime::run(4, [&](Comm& c) {
      FtJob job(c, ft_w.fs.get(), o);
      ASSERT_TRUE(
          job.run([&](FtJob& j) { return wordcount_driver(j, wordcount_fns()); }).ok());
    });
    t_ft = r.makespan();
  }
  EXPECT_GT(t_ft, t_base);            // checkpointing is not free...
  EXPECT_LT(t_ft, t_base * 3.0);      // ...but it is bounded
}

}  // namespace
}  // namespace ftmr::core
