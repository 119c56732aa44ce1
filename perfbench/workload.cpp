#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "common/bytes.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "layers.hpp"
#include "mr/accounting.hpp"
#include "simmpi/runtime.hpp"
#include "storage/replica.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ftmr;

const std::vector<Workload>& all_workloads() {
  // {name, why, nranks, nchunks, lines_per_chunk, kills, replication k,
  //  budget ratio, records_per_ckpt}; the whys match BENCHMARK.json.
  //
  // records_per_ckpt is the figure benches' 32 except on the two wc_deep
  // corpora. There, 32 means ~16k checkpoint files (plus shared-tier
  // copies) per job; creating a file costs 0.06-0.3 ms of kernel time on a
  // 4-core VM, and that cost swings 2-5x from minute to minute, so the job
  // wall time measured file-system noise. 1024 keeps every checkpoint path
  // at ~1/30 of the files.
  static const std::vector<Workload> kWorkloads = {
      {"wc_wide",
       "control plane: 1024 ranks, master gossip is p(p-1) sends and the "
       "shuffle census and collectives are p-wide, while the data plane is "
       "tiny",
       1024, 64, 48, 0, 0, 0, 32},
      {"wc_deep",
       "data plane: 8 ranks over 4.2M records, so map callbacks, KV "
       "partition/convert, checkpoint writes and copier drains dominate",
       8, 256, 2048, 0, 0, 0, 1024},
      {"wc_recover",
       "wc_deep's corpus with replication k=2 and two placed kills, so the "
       "difference to wc_deep is recovery and checkpoint reads",
       8, 256, 2048, 2, 2, 0, 1024},
      {"wc_ooc",
       "out-of-core: each rank's map output is 8x its memory budget, the "
       "only workload on the spill tier and the paged twins",
       8, 256, 128, 0, 0, 8, 32},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double counter_total(std::string_view name, int nranks) {
  const auto& reg = metrics::MetricsRegistry::global();
  double sum = 0.0;
  for (int r = 0; r < nranks; ++r) sum += reg.counter(name, r);
  return sum;
}

void make_corpus(JobPlan& plan) {
  const fs::path root = plan.sandbox / "corpus";
  fs::remove_all(root);
  storage::StorageOptions so;
  so.root = root;
  storage::StorageSystem store(so);
  apps::TextGenOptions tg;
  tg.nchunks = plan.w->nchunks;
  tg.lines_per_chunk = plan.w->lines_per_chunk;
  tg.seed = mix64(plan.seed ^ 0x74657874ULL);  // "text"
  tg.dir = "input";
  plan.expected.clear();
  if (auto s = apps::generate_text(store, tg, &plan.expected); !s.ok()) {
    throw std::runtime_error("corpus generation failed: " + s.to_string());
  }
  plan.corpus = store.real_path(storage::Tier::kShared, 0, "input");
  plan.map_output_bytes = 0;
  for (const auto& [word, n] : plan.expected) {
    // One (word, "1") pair per occurrence: two u32 length prefixes + bodies.
    plan.map_output_bytes += static_cast<size_t>(n) * (8 + word.size() + 1);
  }
}

namespace {

struct Rusage {
  double user = 0.0, sys = 0.0, minflt = 0.0;
  static Rusage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return {static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6,
            static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6,
            static_cast<double>(ru.ru_minflt)};
  }
};

/// Decode the job's length-prefixed output partitions into word -> count.
std::map<std::string, int64_t> read_counts(storage::StorageSystem& store) {
  std::vector<std::string> parts;
  (void)store.list_dir(storage::Tier::kShared, 0, "output", parts);
  std::map<std::string, int64_t> counts;
  for (const auto& name : parts) {
    Bytes data;
    (void)store.read_file(storage::Tier::kShared, 0, "output/" + name, data);
    ByteReader r(data);
    while (!r.exhausted()) {
      std::string k, v;
      if (!r.get_string(k).ok() || !r.get_string(v).ok()) break;
      counts[k] += std::strtoll(v.c_str(), nullptr, 10);
    }
  }
  return counts;
}

using RankEvents = std::vector<std::vector<metrics::TraceEvent>>;

JobSample run_job_impl(JobPlan& plan,
                       const std::vector<simmpi::KillEvent>& kills,
                       Tracer* tr, RankEvents* harvest) {
  const int n = plan.w->nranks;
  const fs::path root =
      plan.sandbox / ("job" + std::to_string(plan.jobs_started++));
  fs::remove_all(root);
  storage::StorageOptions so;
  so.root = root;
  {
    // The corpus is shared read-only by every job: hard-link it into the
    // fresh sandbox instead of copying.
    const fs::path input = root / "shared" / "input";
    fs::create_directories(input);
    for (const auto& e : fs::directory_iterator(plan.corpus)) {
      fs::create_hard_link(e.path(), input / e.path().filename());
    }
  }
  JobSample out;
  {
    storage::StorageSystem store(so);
    metrics::MetricsRegistry::global().reset();  // counters are per job
    simmpi::JobOptions sim;
    sim.worker_threads = kWorkerThreads;
    sim.kills = kills;
    sim.on_rank_death = [&store](int r) { store.memory().wipe_rank(r); };
    std::vector<char> rank_ok(static_cast<size_t>(n), 0);
    if (harvest) harvest->assign(static_cast<size_t>(n), {});
    std::mutex harvest_mu;

    if (tr) tr->begin_run();
    const Rusage ru0 = Rusage::now();
    const double t0 = wall_now();
    const simmpi::JobResult r = simmpi::Runtime::run(
        n,
        [&](simmpi::Comm& c) {
          const int rank = c.rank();
          std::unique_ptr<core::FtJob> ft;
          {
            Tracer::Scope span(tr, "core.ctor", rank);
            ft = std::make_unique<core::FtJob>(c, &store, plan.opts);
          }
          core::StageFns fns = apps::wordcount_stage();
          if (tr) fns = tr->wrap(std::move(fns), rank);
          const Status s = ft->run([&](core::FtJob& job) -> Status {
            {
              Tracer::Scope span(tr, "core.run_stage", rank);
              if (auto st = job.run_stage(fns, false, nullptr); !st.ok()) {
                return st;
              }
            }
            Tracer::Scope span(tr, "core.write_output", rank);
            return job.write_output();
          });
          if (tr) tr->collect_rank(rank, *ft);
          if (harvest) {
            std::vector<metrics::TraceEvent> ev = ft->trace().events();
            std::lock_guard<std::mutex> lock(harvest_mu);
            (*harvest)[static_cast<size_t>(rank)] = std::move(ev);
          }
          rank_ok[static_cast<size_t>(rank)] = s.ok() ? 1 : 0;
        },
        sim);
    out.wall_s = wall_now() - t0;
    const Rusage ru1 = Rusage::now();
    if (tr) tr->end_run(r);
    out.cpu_user_s = ru1.user - ru0.user;
    out.cpu_sys_s = ru1.sys - ru0.sys;
    out.minor_faults = ru1.minflt - ru0.minflt;
    out.makespan_vs = r.makespan();

    // -- counters (per job: the registry was reset above) --
    for (const auto& rr : r.ranks) out.counts.ops += rr.ops;
    out.counts.status_sends =
        static_cast<int64_t>(counter_total("master.status_sends", n));
    out.counts.ckpt_writes = static_cast<int64_t>(counter_total("ckpt.writes", n));
    const std::string_view taps[5] = {mr::kTapMapEmitted, mr::kTapShuffleSent,
                                      mr::kTapShuffleReceived,
                                      mr::kTapReduceEmitted,
                                      mr::kTapOutputWritten};
    for (int i = 0; i < 5; ++i) {
      out.counts.records[i] = static_cast<int64_t>(counter_total(taps[i], n));
    }
    out.status_drained = counter_total("master.status_drained", n);

    // -- checks --
    auto fail = [&out](std::string why) {
      if (out.error.empty()) out.error = std::move(why);
    };
    if (r.aborted) fail("job aborted with code " + std::to_string(r.abort_code));
    if (r.killed_count() != static_cast<int>(kills.size())) {
      fail("expected " + std::to_string(kills.size()) + " killed ranks, saw " +
           std::to_string(r.killed_count()));
    }
    for (int i = 0; i < n; ++i) {
      const auto& rr = r.ranks[static_cast<size_t>(i)];
      if (!rr.killed && (!rr.finished || !rank_ok[static_cast<size_t>(i)])) {
        fail("rank " + std::to_string(i) + " did not finish cleanly");
        break;
      }
    }
    if (read_counts(store) != plan.expected) {
      fail("output word counts differ from ground truth");
    }
    if (kills.empty()) {
      const int64_t* rec = out.counts.records;
      if (!(rec[0] == rec[1] && rec[1] == rec[2])) {
        fail("record conservation broken: map_emitted " + std::to_string(rec[0]) +
             ", shuffle_sent " + std::to_string(rec[1]) +
             ", shuffle_received " + std::to_string(rec[2]));
      }
    }
    if (tr) tr->end_job(out, store, root);
  }
  fs::remove_all(root);
  return out;
}

/// The first event of `rank` named `name`, searching from the back when
/// `last` is set; nullptr when absent.
const metrics::TraceEvent* find_event(const std::vector<metrics::TraceEvent>& ev,
                                      std::string_view name, bool last) {
  const metrics::TraceEvent* hit = nullptr;
  for (const auto& e : ev) {
    if (e.name != name || e.op < 1) continue;
    hit = &e;
    if (!last) break;
  }
  return hit;
}

/// Place the two kills from golden runs' op-stamped traces.
///   A dies mid-map, at a map checkpoint write the seed picks from the
///     middle fifth of A's map checkpoints, addressed by op index: the
///     failure-free prefix of a run is op-deterministic.
///   B dies after its shuffle.adopt, placed from a second golden run that
///     already has A's kill. A's recovery makes the survivors' op counts
///     vary from job to job, so B's kill is addressed by virtual time:
///     halfway through B's wait at the shuffle-phase barrier. It fires at
///     B's first MPI call after the barrier releases, at the start of
///     merge, robust to the few-ms jitter of the recovered timeline.
/// The ranks are fixed, on different nodes: Zipf-skewed keys make the
/// partitions unequal, and with seed-picked ranks the makespan ranged
/// 1.48-2.21 s by which rank's partitions were rebuilt.
void place_kills(JobPlan& plan) {
  const int a = 1, b = plan.w->nranks - 2;
  Rng rng(mix64(plan.seed ^ 0x6b696c6cULL));  // "kill"
  const double frac = 0.4 + 0.2 * rng.next_double();

  RankEvents golden;
  const JobSample g1 = run_job_impl(plan, {}, nullptr, &golden);
  if (!g1.error.empty()) throw std::runtime_error("golden run failed: " + g1.error);
  const auto& ev_a = golden[static_cast<size_t>(a)];
  const metrics::TraceEvent* census = find_event(ev_a, "shuffle.census", false);
  std::vector<int64_t> map_writes;
  for (const auto& e : ev_a) {
    if (e.name == "ckpt.write" && e.op >= 1 && (!census || e.ts < census->ts)) {
      map_writes.push_back(e.op);
    }
  }
  if (map_writes.empty()) throw std::runtime_error("golden run: no map checkpoints");
  const auto pick = static_cast<size_t>(frac * static_cast<double>(map_writes.size()));
  const simmpi::KillEvent kill_a{a, -1.0, map_writes[std::min(pick, map_writes.size() - 1)]};

  const JobSample g2 = run_job_impl(plan, {kill_a}, nullptr, &golden);
  if (!g2.error.empty()) throw std::runtime_error("golden run with one kill failed: " + g2.error);
  const auto& ev_b = golden[static_cast<size_t>(b)];
  const metrics::TraceEvent* adopt = find_event(ev_b, "shuffle.adopt", true);
  if (!adopt) throw std::runtime_error("golden run: rank B never adopted a shuffle");
  // An event's op stamp is taken when it is recorded, at its end, so the
  // earliest end among events stamped past adopt bounds B's next MPI op:
  // the replica push of its first partition checkpoint, after that
  // checkpoint's file write. The kill time is halfway to it.
  const double adopted = adopt->ts + adopt->dur;
  double next_op = std::numeric_limits<double>::infinity();
  for (const auto& e : ev_b) {
    if (e.op > adopt->op) next_op = std::min(next_op, e.ts + std::max(e.dur, 0.0));
  }
  if (!std::isfinite(next_op)) throw std::runtime_error("golden run: rank B idle after adopt");
  plan.kills = {kill_a, simmpi::KillEvent{b, 0.5 * (adopted + next_op), -1}};
}

}  // namespace

void make_plan(JobPlan& plan) {
  const Workload& w = *plan.w;
  core::FtJobOptions& o = plan.opts;
  o = core::FtJobOptions{};
  o.mode = core::FtMode::kDetectResumeWC;
  o.ppn = 2;
  o.ckpt.enabled = true;
  o.ckpt.records_per_ckpt = w.records_per_ckpt;
  o.ckpt.memory_replication_k = w.memory_replication_k;
  if (w.budget_ratio > 0) {
    const size_t per_rank = plan.map_output_bytes / static_cast<size_t>(w.nranks);
    o.memory_budget = per_rank / static_cast<size_t>(w.budget_ratio);
    // ext07's page:budget ratio (2 KiB pages, 16 KiB budget). The default
    // 1 MiB page would also size the paged shuffle's rounds: that round
    // budget is max(spill_page_bytes, budget / 2), so one round would carry
    // the whole dataset and peak residency measured 2.4x the budget.
    o.spill_page_bytes = o.memory_budget / 8;
  }
  plan.kills.clear();
  if (w.kills > 0) place_kills(plan);
}

JobSample run_job(JobPlan& plan, Tracer* tracer) {
  return run_job_impl(plan, plan.kills, tracer, nullptr);
}

}  // namespace perfbench
