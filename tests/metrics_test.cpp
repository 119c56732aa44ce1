// Tests for the observability layer: TraceRecorder/MetricsRegistry units,
// shuffle span instrumentation, and the flagship cross-check — a wordcount
// run with an injected failure whose cat-"phase" span sums must agree with
// the TimeBuckets decomposition (the trace IS the decomposition, exported).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>

#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "common/metrics.hpp"
#include "core/ftjob.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"

namespace ftmr::metrics {
namespace {

using simmpi::Comm;
using simmpi::Runtime;

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceRecorder, SpansAndInstants) {
  TraceRecorder rec;
  rec.set_tid(3);
  rec.span("map", "phase", 1.0, 2.5);
  rec.span("backwards", "phase", 5.0, 4.0);  // clamped to zero duration
  rec.instant("ckpt.retry", "ckpt", 7.0);
  const auto ev = rec.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].name, "map");
  EXPECT_EQ(ev[0].tid, 3);
  EXPECT_DOUBLE_EQ(ev[0].ts, 1.0);
  EXPECT_DOUBLE_EQ(ev[0].dur, 1.5);
  EXPECT_DOUBLE_EQ(ev[1].dur, 0.0);
  EXPECT_LT(ev[2].dur, 0.0);  // instant marker
  EXPECT_EQ(rec.size(), 3u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceRecorder, MergePreservesSourceTids) {
  TraceRecorder a(1), b(2), sink;
  a.span("map", "phase", 0.0, 1.0);
  b.span("map", "phase", 0.5, 2.0);
  sink.merge(a);
  sink.merge(b);
  auto ev = sink.events();
  ASSERT_EQ(ev.size(), 2u);
  sort_events(ev);
  EXPECT_EQ(ev[0].tid, 1);
  EXPECT_EQ(ev[1].tid, 2);
}

TEST(TraceRecorder, SortIsDeterministic) {
  std::vector<TraceEvent> ev{
      {"b", "c", 2, 1.0, 0.5},
      {"a", "c", 2, 1.0, 0.5},
      {"z", "c", 0, 0.5, 0.1},
      {"a", "c", 1, 1.0, 0.5},
  };
  sort_events(ev);
  EXPECT_EQ(ev[0].name, "z");              // earliest ts first
  EXPECT_EQ(ev[1].tid, 1);                 // then tid
  EXPECT_EQ(ev[2].name, "a");              // then name within tid
  EXPECT_EQ(ev[3].name, "b");
}

TEST(TraceRecorder, SpanSecondsByNameFiltersCatAndInstants) {
  TraceRecorder rec;
  rec.span("map", "phase", 0.0, 2.0);
  rec.span("map", "phase", 3.0, 4.0);
  rec.span("reduce", "phase", 0.0, 0.25);
  rec.span("ckpt.write", "ckpt", 0.0, 9.0);  // other category: excluded
  rec.instant("map", "phase", 5.0);          // instant: excluded
  const auto sums = rec.span_seconds_by_name("phase");
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_DOUBLE_EQ(sums.at("map"), 3.0);
  EXPECT_DOUBLE_EQ(sums.at("reduce"), 0.25);
}

TEST(TraceJson, FormatAndEscaping) {
  TraceRecorder rec;
  rec.set_tid(4);
  rec.span("weird\"name\n", "phase", 0.001, 0.002);
  rec.instant("mark", "ckpt", 0.003);
  const std::string j = trace_json(rec);
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"tid\":4"), std::string::npos);
  // Seconds are exported as microseconds.
  EXPECT_NE(j.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(j.find("\"dur\":1000"), std::string::npos);
  // The quote and newline must come out escaped, never raw.
  EXPECT_NE(j.find("weird\\\"name\\n"), std::string::npos);
  EXPECT_EQ(j.find('\n', 0), j.rfind('\n'));  // at most the trailing newline
}

TEST(TraceJson, WriteToFileAndFailurePath) {
  TraceRecorder rec;
  rec.span("map", "phase", 0.0, 1.0);
  storage::TempDir tmp("ftmr-trace-test");
  const std::string path = (tmp.path() / "trace.json").string();
  ASSERT_TRUE(write_trace_json(path, rec).ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), trace_json(rec));
  EXPECT_FALSE(write_trace_json((tmp.path() / "no/such/dir/t.json").string(), rec).ok());
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.add("ckpt.writes", 0);
  reg.add("ckpt.writes", 0, 2.0);
  reg.add("ckpt.writes", 1);
  reg.set("comm.size", 0, 8.0);
  reg.set("comm.size", 0, 7.0);  // last write wins
  reg.observe("task.map_seconds", 0, 1.0);
  reg.observe("task.map_seconds", 0, 3.0);
  EXPECT_DOUBLE_EQ(reg.counter("ckpt.writes", 0), 3.0);
  EXPECT_DOUBLE_EQ(reg.counter("ckpt.writes", 1), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("ckpt.writes", 2), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("comm.size", 0), 7.0);
  const Summary h = reg.histogram("task.map_seconds", 0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  const std::string j = reg.json();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"ckpt.writes\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.counter("ckpt.writes", 0), 0.0);
  EXPECT_EQ(reg.histogram("task.map_seconds", 0).count(), 0u);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  MetricsRegistry& a = MetricsRegistry::global();
  MetricsRegistry& b = MetricsRegistry::global();
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------------------
// Shuffle span instrumentation
// ---------------------------------------------------------------------------

TEST(ShuffleTrace, EmitsCensusAlltoallAdoptSpans) {
  // Both shuffle paths, the in-core exchange (budget 0) and the paged
  // rounds (a budget far below the dataset), must put their census,
  // alltoall and adopt spans on every rank's timeline.
  for (const size_t budget : {size_t{0}, size_t{8} << 10}) {
    storage::TempDir tmp("ftmr-metrics-shuffle");
    storage::StorageOptions so;
    so.root = tmp.path();
    storage::StorageSystem fs(so);
    apps::TextGenOptions tg;
    tg.nchunks = 8;
    tg.lines_per_chunk = 32;
    ASSERT_TRUE(apps::generate_text(fs, tg).ok());
    core::FtJobOptions opts;
    opts.mode = core::FtMode::kNone;
    opts.ckpt.enabled = false;
    opts.ppn = 2;
    opts.memory_budget = budget;
    opts.spill_page_bytes = 1 << 10;
    TraceRecorder trace;
    std::mutex mu;
    Runtime::run(4, [&](Comm& c) {
      core::FtJob job(c, &fs, opts);
      ASSERT_TRUE(job.run([](core::FtJob& j) -> Status {
                       if (auto s = j.run_stage(apps::wordcount_stage(), false,
                                                nullptr);
                           !s.ok()) {
                         return s;
                       }
                       return j.write_output();
                     }).ok());
      std::lock_guard<std::mutex> lock(mu);
      trace.merge(job.trace());
    });
    if (budget > 0) {
      // Checkpoints are off, so local-tier writes are spill pages: the
      // budget run really took the paged path.
      EXPECT_GT(fs.stats(storage::Tier::kLocal).bytes_written, 0u);
    }
    std::map<std::string, std::set<int>> ranks_of;
    for (const auto& e : trace.events()) {
      if (e.name.rfind("shuffle.", 0) != 0) continue;
      EXPECT_EQ(e.cat, "shuffle") << e.name;
      ranks_of[e.name].insert(e.tid);
    }
    const std::set<int> all = {0, 1, 2, 3};
    for (const char* name : {"shuffle.census", "shuffle.alltoall", "shuffle.adopt"}) {
      EXPECT_EQ(ranks_of[name], all) << name << " budget=" << budget;
    }
  }
}

// ---------------------------------------------------------------------------
// Flagship: failure-injected wordcount — trace vs TimeBuckets agreement
// ---------------------------------------------------------------------------

TEST(JobTrace, PhaseSpansMatchTimeBucketsUnderFailure) {
  storage::TempDir tmp("ftmr-metrics-job");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  apps::TextGenOptions tg;
  tg.nchunks = 16;
  tg.lines_per_chunk = 48;
  ASSERT_TRUE(apps::generate_text(fs, tg).ok());

  core::FtJobOptions opts;
  opts.mode = core::FtMode::kDetectResumeWC;
  opts.ppn = 2;
  opts.ckpt.records_per_ckpt = 25;

  simmpi::JobOptions sim;
  sim.kills.push_back({3, 0.01, -1});

  TimeBuckets times;
  TraceRecorder trace;
  std::mutex mu;
  bool ok = false;
  simmpi::JobResult r = Runtime::run(8, [&](Comm& c) {
    core::FtJob job(c, &fs, opts);
    Status s = job.run([](core::FtJob& job) -> Status {
      if (auto st = job.run_stage(apps::wordcount_stage(), false, nullptr);
          !st.ok()) {
        return st;
      }
      return job.write_output();
    });
    std::lock_guard<std::mutex> lock(mu);
    times.merge(job.times());
    trace.merge(job.trace());
    if (s.ok()) ok = true;
  }, sim);
  ASSERT_FALSE(r.aborted);
  ASSERT_TRUE(ok);
  EXPECT_EQ(r.killed_count(), 1);

  // Every seconds-valued bucket must be reproducible from the trace alone:
  // per-name sums of cat-"phase" spans agree with TimeBuckets within 1%.
  // (combine_saved_bytes is a byte counter, not a duration — no span.)
  const auto spans = trace.span_seconds_by_name("phase");
  for (const auto& [bucket, seconds] : times.all()) {
    if (bucket == "combine_saved_bytes") continue;
    const auto it = spans.find(bucket);
    if (seconds == 0.0) {
      if (it != spans.end()) {
        EXPECT_NEAR(it->second, 0.0, 1e-9) << bucket;
      }
      continue;
    }
    ASSERT_NE(it, spans.end()) << "no phase spans for bucket " << bucket;
    EXPECT_NEAR(it->second, seconds, 0.01 * seconds) << bucket;
  }
  // A failure-injected run must exercise the full phase vocabulary.
  for (const char* required :
       {"map", "shuffle", "merge", "reduce", "ckpt", "recovery"}) {
    EXPECT_TRUE(spans.count(required)) << "missing phase span: " << required;
    EXPECT_GT(times.get(required), 0.0) << required;
  }
  // And the component layers must have reported in on the same timeline.
  std::map<std::string, size_t> cats;
  for (const auto& e : trace.events()) cats[e.cat]++;
  EXPECT_GT(cats["ckpt"], 0u);
  EXPECT_GT(cats["shuffle"], 0u);
  EXPECT_GT(cats["master"], 0u);

  // The export must round-trip through the file API.
  const std::string path = (tmp.path() / "job_trace.json").string();
  ASSERT_TRUE(write_trace_json(path, trace).ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_GT(ss.str().size(), 1000u);
}

}  // namespace
}  // namespace ftmr::metrics
