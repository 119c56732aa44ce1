// Extension — out-of-core pipeline: virtual makespan / residency / spill-IO
// versus the dataset-to-budget ratio. MR-MPI's defining capability is
// processing intermediate data larger than memory (the keyvalue.h paging
// design); FtJob's budget mode (FtJobOptions::memory_budget) streams spilled
// pages through map output, shuffle and convert so peak residency stays
// O(budget), not O(dataset), while the job output remains byte-identical to
// the in-core pipeline's. This bench runs wordcount on FtJob with fault
// tolerance and checkpoints off (FtMode::kNone; both runs use the 2-pass
// convert) over datasets of 1/2/4/8x the per-rank memory budget on the
// functional simulator, validates output parity at every ratio, bounds the
// measured residency high-water mark at 1.5x budget, breaks the spill
// writes down by kind of store (map output, received partitions, KMV
// runs), and emits BENCH_outofcore.json for the CI artifact.
#include <string>

#include "apps/wordcount.hpp"
#include "bench/common.hpp"
#include "common/rng.hpp"
#include "core/ftjob.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"

using namespace ftmr;
using namespace ftmr::bench;

namespace {

constexpr int kRanks = 4;
constexpr int kPpn = 2;
constexpr size_t kBudget = 16 << 10;  // per-rank resident-byte budget
constexpr size_t kPage = 2 << 10;
// Aggregate bytes at ratio 1x: the whole dataset just fits the ranks' budgets.
constexpr size_t kUnitBytes = kRanks * kBudget;

/// Zipf-ish word chunks totalling ~`bytes`; deterministic per (seed, scale).
size_t make_input(storage::StorageSystem& fs, const std::string& dir,
                  size_t bytes, uint64_t seed) {
  Rng rng(seed);
  size_t written = 0;
  int chunk_id = 0;
  while (written < bytes) {
    std::string text;
    while (text.size() < 4096 && written + text.size() < bytes) {
      text += "word" + std::to_string(rng.next_below(300));
      text += ' ';
    }
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%04d", chunk_id++);
    if (!fs.write_file(storage::Tier::kShared, 0, dir + "/" + name,
                       as_bytes_view(text))
             .ok()) {
      return 0;
    }
    written += text.size();
  }
  return written;
}

struct RunResult {
  bool ok = false;
  double makespan = 0.0;
  size_t peak_resident = 0;  // max over ranks of the residency high-water
  int spill_files = 0;       // spill segment files created, summed over ranks
  int spill_pages = 0;       // pages spilled, summed over ranks
  // Spill bytes written by kind of store, summed over ranks.
  size_t spill_map = 0, spill_part = 0, spill_kmv = 0;
};

RunResult run_job(storage::StorageSystem& fs, const std::string& in_dir,
                  const std::string& out_dir, size_t budget) {
  RunResult res;
  res.ok = true;
  std::mutex mu;
  simmpi::JobResult r = simmpi::Runtime::run(kRanks, [&](simmpi::Comm& c) {
    core::FtJobOptions o;
    o.mode = core::FtMode::kNone;
    o.ckpt.enabled = false;
    o.input_dir = in_dir;
    o.output_dir = out_dir;
    o.ppn = kPpn;
    o.memory_budget = budget;
    o.spill_dir = "spill_" + out_dir;
    o.spill_page_bytes = kPage;
    core::FtJob job(c, &fs, o);
    const core::StageFns fns = apps::wordcount_stage();
    const bool ok = job.run([&](core::FtJob& j) {
                         if (auto s = j.run_stage(fns, false, nullptr); !s.ok()) {
                           return s;
                         }
                         return j.write_output();
                       }).ok();
    std::lock_guard<std::mutex> lock(mu);
    res.ok = res.ok && ok;
    res.peak_resident = std::max(res.peak_resident, job.residency().peak);
    const core::FtJob::SpillBreakdown& by_store = job.spill_breakdown();
    for (const mr::SpillStats* s : {&by_store.map, &by_store.part, &by_store.kmv}) {
      res.spill_files += s->files_created;
      res.spill_pages += s->pages_spilled;
    }
    res.spill_map += by_store.map.bytes_spilled;
    res.spill_part += by_store.part.bytes_spilled;
    res.spill_kmv += by_store.kmv.bytes_spilled;
  });
  res.ok = res.ok && r.finished_count() == kRanks;
  res.makespan = r.makespan();
  return res;
}

bool parts_identical(storage::StorageSystem& fs, const std::string& dir_a,
                     const std::string& dir_b) {
  for (int rank = 0; rank < kRanks; ++rank) {
    char name[64];
    std::snprintf(name, sizeof(name), "part-%05d", rank);
    Bytes a, b;
    if (!fs.read_file(storage::Tier::kShared, 0, dir_a + "/" + name, a).ok() ||
        !fs.read_file(storage::Tier::kShared, 0, dir_b + "/" + name, b).ok()) {
      return false;
    }
    if (a != b) return false;
  }
  return true;
}

}  // namespace

int main() {
  Report rep("Extension: out-of-core pipeline (makespan/RSS/spill-IO vs ratio)",
             "paging intermediate data through fixed-size spill pages bounds "
             "peak residency at the memory budget while the job output stays "
             "byte-identical to the in-core pipeline, at the price of local "
             "spill I/O proportional to the dataset overhang",
             "outofcore");

  // -- model @ paper scale: spill traffic per rank ------------------------
  rep.section("model @ paper scale: spill traffic per rank (budget 2 GiB)");
  const storage::StorageOptions so;
  const double model_budget = 2.0 * (1ull << 30);
  rep.row("%6s %14s %16s", "ratio", "spilled(GiB)", "extra local-IO(s)");
  double traffic1 = -1.0, traffic4 = 0.0, traffic8 = 0.0;
  for (int ratio : {1, 2, 4, 8}) {
    const double dataset = ratio * model_budget;
    const double spilled = dataset > model_budget ? dataset - model_budget : 0;
    // Each spilled byte round-trips the local disk in the map-output,
    // shuffle-receive, and convert-run stages: 3 passes x (write + read).
    const double traffic = 3.0 * 2.0 * spilled;
    const auto ops = static_cast<int64_t>(traffic / (1 << 20)) + 1;
    const double t =
        so.local.cost(static_cast<size_t>(traffic), ops, kPpn);
    rep.row("%5dx %14.1f %16.1f", ratio, spilled / (1ull << 30), t);
    rep.metric("model_spill_gib_" + std::to_string(ratio) + "x",
               spilled / (1ull << 30));
    if (ratio == 1) traffic1 = traffic;
    if (ratio == 4) traffic4 = traffic;
    if (ratio == 8) traffic8 = traffic;
  }
  rep.check("no spill traffic when the dataset fits the budget",
            traffic1 == 0.0);
  rep.check("spill traffic scales with the overhang (8x ~ 2.3x of 4x)",
            traffic8 > 2.0 * traffic4 && traffic8 < 2.7 * traffic4);

  // -- functional sweep ---------------------------------------------------
  rep.section("functional mini-cluster (4 ranks, wordcount, budget 16 KiB)");
  storage::TempDir tmp("ftmr-ext07");
  storage::StorageOptions sto;
  sto.root = tmp.path();
  storage::StorageSystem fs(sto);
  rep.metric("budget_bytes", static_cast<double>(kBudget));

  // Makespans are virtual seconds (vs): JobResult::makespan, the paper's
  // cost model, not the simulator's wall clock.
  rep.row("%6s %10s %14s %14s %12s %12s %12s", "ratio", "data(KiB)",
          "makespan-ic", "makespan-ooc", "peakRSS(KiB)", "spillW(KiB)",
          "spillR(KiB)");
  rep.row("%6s %10s %14s %14s", "", "", "(vs)", "(vs)");
  bool all_parity = true, all_bounded = true, done4 = false, done8 = false;
  bool breakdown_sums = true;
  double peak2 = 0.0, peak8 = 0.0;
  size_t spill_w2 = 0, spill_w4 = 0, spill_w8 = 0;
  for (int ratio : {1, 2, 4, 8}) {
    const std::string tag = std::to_string(ratio) + "x";
    const std::string in_dir = "input_" + tag;
    const size_t dataset = make_input(fs, in_dir, ratio * kUnitBytes, 0xE07);
    const RunResult ic = run_job(fs, in_dir, "out_ic_" + tag, 0);
    const storage::TierStats before = fs.stats(storage::Tier::kLocal);
    const RunResult ooc = run_job(fs, in_dir, "out_ooc_" + tag, kBudget);
    const storage::TierStats after = fs.stats(storage::Tier::kLocal);
    const size_t sw = after.bytes_written - before.bytes_written;
    const size_t sr = after.bytes_read - before.bytes_read;
    const bool parity =
        ic.ok && ooc.ok &&
        parts_identical(fs, "out_ic_" + tag, "out_ooc_" + tag);
    rep.row("%5dx %10zu %14.4f %14.4f %12.1f %12.1f %12.1f%s", ratio,
            dataset / 1024, ic.makespan, ooc.makespan,
            ooc.peak_resident / 1024.0, sw / 1024.0, sr / 1024.0,
            parity ? "" : "  [OUTPUT MISMATCH]");
    rep.metric("dataset_bytes_" + tag, static_cast<double>(dataset));
    rep.metric("makespan_incore_s_" + tag, ic.makespan);
    rep.metric("makespan_ooc_s_" + tag, ooc.makespan);
    rep.metric("peak_resident_bytes_" + tag,
               static_cast<double>(ooc.peak_resident));
    rep.metric("spill_write_bytes_" + tag, static_cast<double>(sw));
    rep.metric("spill_read_bytes_" + tag, static_cast<double>(sr));
    // One append-only segment per store: files created stay far below
    // pages spilled once the budget binds.
    rep.metric("spill_files_" + tag, ooc.spill_files);
    rep.metric("spill_pages_" + tag, ooc.spill_pages);
    // Where the spill writes come from, by kind of store.
    rep.metric("spill_write_bytes_map_" + tag, static_cast<double>(ooc.spill_map));
    rep.metric("spill_write_bytes_part_" + tag,
               static_cast<double>(ooc.spill_part));
    rep.metric("spill_write_bytes_kmv_" + tag, static_cast<double>(ooc.spill_kmv));
    all_parity = all_parity && parity;
    // Checkpoints are off, so every local byte the job writes is a spill page.
    breakdown_sums =
        breakdown_sums && ooc.spill_map + ooc.spill_part + ooc.spill_kmv == sw;
    all_bounded = all_bounded && ooc.peak_resident <= kBudget * 3 / 2;
    if (ratio == 2) {
      peak2 = static_cast<double>(ooc.peak_resident);
      spill_w2 = sw;
    }
    if (ratio == 4) { done4 = ooc.ok; spill_w4 = sw; }
    if (ratio == 8) {
      done8 = ooc.ok;
      spill_w8 = sw;
      peak8 = static_cast<double>(ooc.peak_resident);
    }
  }

  rep.check("output byte-identical to in-core at every ratio (incl. 1x)",
            all_parity);
  rep.check("completes the 4x- and 8x-budget datasets", done4 && done8);
  rep.check("peak residency <= 1.5x budget at every ratio", all_bounded);
  rep.check("spill writes by store (map + part + kmv) sum to the local writes",
            breakdown_sums);
  rep.check("spill volume grows with the dataset overhang (2x < 4x < 8x)",
            spill_w2 < spill_w4 && spill_w4 < spill_w8);
  // Flatness is anchored at 2x — the first ratio where the budget binds
  // (at 1x the dataset fits and residency never reaches steady state).
  rep.check("residency curve is flat: peak(8x) <= 1.25x peak(2x)",
            peak2 > 0.0 && peak8 <= 1.25 * peak2);
  return rep.finish();
}
