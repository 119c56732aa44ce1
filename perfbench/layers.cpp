#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "common/bytes.hpp"
#include "core/checkpoint.hpp"
#include "mr/convert.hpp"
#include "mr/shuffle.hpp"
#include "storage/replica.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace ftmr;

namespace {

const std::chrono::steady_clock::time_point kEpoch = std::chrono::steady_clock::now();

/// Upper bound on the files one storage replay re-issues.
constexpr size_t kStorageReplayFiles = 1024;

/// Virtual-time span categories whose per-name sums are per-layer metrics.
bool wanted_category(const std::string& cat) {
  return cat == "master" || cat == "shuffle" || cat == "ckpt" || cat == "copier";
}

Bytes read_whole(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  const std::string s((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  return to_bytes(s);
}

/// One file a job left in its sandbox, addressed the way StorageSystem
/// addresses it.
struct SandboxFile {
  fs::path real;
  storage::Tier tier = storage::Tier::kShared;
  int node = 0;
  std::string path;
  bool checkpoint = false;
};

std::vector<SandboxFile> list_sandbox(const fs::path& root) {
  std::vector<SandboxFile> out;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    if (!e.is_regular_file()) continue;
    const fs::path rel = e.path().lexically_relative(root);
    auto it = rel.begin();
    SandboxFile f;
    f.real = e.path();
    if (*it == "local") {
      ++it;
      f.tier = storage::Tier::kLocal;
      f.node = std::stoi(it->string().substr(4));  // "node<N>"
    }
    ++it;
    fs::path logical;
    for (; it != rel.end(); ++it) logical /= *it;
    f.path = logical.generic_string();
    f.checkpoint = f.tier == storage::Tier::kLocal && f.path.rfind("ck/", 0) == 0;
    out.push_back(std::move(f));
  }
  std::sort(out.begin(), out.end(),
            [](const SandboxFile& a, const SandboxFile& b) { return a.real < b.real; });
  return out;
}

}  // namespace

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kEpoch)
      .count();
}

Tracer::Tracer(int nranks) : nranks_(nranks), ranks_(static_cast<size_t>(nranks)) {}

int Tracer::add_span(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::begin_run() {
  ++job_;
  for (RankData& d : ranks_) d = RankData{};
  const double now = wall_now();
  job_span_ = add_span({"job", now, now, -1, job_, 0.0});
  run_span_ = add_span({"simmpi.run", now, now, job_span_, job_, 0.0});
}

void Tracer::end_run(const simmpi::JobResult& r) {
  const double now = wall_now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<size_t>(run_span_)];
  s.end = now;
  run_wall_ = s.end - s.start;
  ops_ = 0;
  for (const auto& rr : r.ranks) ops_ += rr.ops;
}

Tracer::Scope::Scope(Tracer* t, const char* name, int rank)
    : t_(t), name_(name), rank_(rank), start_(0.0), busy0_(0.0) {
  if (!t_) return;
  const RankData& d = t_->ranks_[static_cast<size_t>(rank_)];
  busy0_ = d.map_busy + d.reduce_busy;
  start_ = wall_now();
}

Tracer::Scope::~Scope() {
  if (!t_) return;
  const double end = wall_now();
  const RankData& d = t_->ranks_[static_cast<size_t>(rank_)];
  t_->add_span({name_, start_, end, t_->run_span_, t_->job_,
                d.map_busy + d.reduce_busy - busy0_});
}

core::StageFns Tracer::wrap(core::StageFns fns, int rank) {
  RankData* d = &ranks_[static_cast<size_t>(rank)];
  fns.map = [d, map = std::move(fns.map)](std::string_view key,
                                          std::string_view value,
                                          mr::KvBuffer& out) -> int32_t {
    const size_t n0 = out.size();
    const double t0 = wall_now();
    const int32_t n = map(key, value, out);
    d->map_busy += wall_now() - t0;
    d->map_calls++;
    for (size_t i = n0; i < out.size(); ++i) d->map_out.append_record_from(out, i);
    return n;
  };
  fns.reduce = [d, reduce = std::move(fns.reduce)](
                   std::string_view key, std::span<const std::string_view> values,
                   mr::KvBuffer& out) -> int32_t {
    const double t0 = wall_now();
    const int32_t n = reduce(key, values, out);
    d->reduce_busy += wall_now() - t0;
    return n;
  };
  return fns;
}

void Tracer::collect_rank(int rank, core::FtJob& ft) {
  RankData& d = ranks_[static_cast<size_t>(rank)];
  for (const metrics::TraceEvent& e : ft.trace().events()) {
    if (e.dur >= 0.0 && wanted_category(e.cat)) d.vspans[e.name] += e.dur;
  }
  d.times = ft.times();
  d.recoveries = ft.recoveries();
  d.tasks_reassigned = ft.task_reassignments().size();
  d.peak_resident = ft.residency().peak;
}

void Tracer::end_job(const JobSample& s, storage::StorageSystem& store,
                     const fs::path& job_root) {
  const int n = nranks_;
  // Survivor state summed in rank order, so failure-free virtual-time sums
  // repeat bit for bit.
  TimeBuckets times;
  std::map<std::string, double> vspans;
  int recoveries = 0;
  size_t tasks_reassigned = 0, peak_resident = 0;
  for (const RankData& d : ranks_) {
    times.merge(d.times);
    for (const auto& [name, secs] : d.vspans) vspans[name] += secs;
    recoveries = std::max(recoveries, d.recoveries);
    tasks_reassigned = std::max(tasks_reassigned, d.tasks_reassigned);
    peak_resident = std::max(peak_resident, d.peak_resident);
  }
  auto vspan = [&vspans](const char* name) {
    const auto it = vspans.find(name);
    return it == vspans.end() ? 0.0 : it->second;
  };
  // Wall interval from the first rank entering a call to the last leaving.
  std::map<std::string, std::pair<double, double>> window;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& sp : spans_) {
      if (sp.job != job_ || sp.parent != run_span_) continue;
      auto [it, fresh] = window.try_emplace(sp.name, sp.start, sp.end);
      if (!fresh) {
        it->second.first = std::min(it->second.first, sp.start);
        it->second.second = std::max(it->second.second, sp.end);
      }
    }
  }
  auto win = [&window](const char* name) {
    const auto it = window.find(name);
    return it == window.end() ? 0.0 : it->second.second - it->second.first;
  };

  // simmpi (and the process it runs in)
  put("simmpi.ops", static_cast<double>(ops_));
  put("simmpi.run_wall_s", run_wall_);
  put("proc.cpu_user_s", s.cpu_user_s);
  put("proc.cpu_sys_s", s.cpu_sys_s);
  put("proc.minor_faults", s.minor_faults);
  // core.master
  const double sends = static_cast<double>(s.counts.status_sends);
  put("master.status_sends", sends);
  put("master.status_drained", s.status_drained);
  put("master.drain_ratio", sends > 0 ? s.status_drained / sends : 0.0);
  put("master.broadcast_vs", vspan("master.broadcast"));
  put("master.drain_vs", vspan("master.drain"));
  // core (ftjob)
  put("core.ctor_wall_s", win("core.ctor"));
  put("core.run_stage_wall_s", win("core.run_stage"));
  put("core.write_output_wall_s", win("core.write_output"));
  for (const char* b : {"map", "shuffle", "merge", "reduce", "io_wait", "recovery",
                        "recovery_io", "init_recover"}) {
    put(std::string("core.") + b + "_vs", times.get(b));
  }
  put("core.recoveries", recoveries);
  put("core.tasks_reassigned", static_cast<double>(tasks_reassigned));
  // mr
  static const char* kTaps[5] = {"map_emitted", "shuffle_sent", "shuffle_received",
                                 "reduce_emitted", "output_written"};
  for (int i = 0; i < 5; ++i) {
    put(std::string("mr.records.") + kTaps[i], static_cast<double>(s.counts.records[i]));
  }
  put("mr.shuffle.census_vs", vspan("shuffle.census"));
  put("mr.shuffle.alltoall_vs", vspan("shuffle.alltoall"));
  put("mr.shuffle.adopt_vs", vspan("shuffle.adopt"));
  put("mr.peak_resident_bytes", static_cast<double>(peak_resident));
  // core.ckpt
  const double hits = counter_total("ckpt.replica_hits", n);
  const double misses = counter_total("ckpt.replica_misses", n);
  put("ckpt.writes", static_cast<double>(s.counts.ckpt_writes));
  put("ckpt.bytes_written", counter_total("ckpt.bytes_written", n));
  put("ckpt.frame_vs", vspan("ckpt.frame"));
  put("ckpt.crc_vs", vspan("ckpt.crc"));
  put("ckpt.write_vs", vspan("ckpt.write"));
  put("ckpt.read_vs", vspan("ckpt.read"));
  put("ckpt.replica_pushes", counter_total("ckpt.replica_pushes", n));
  put("ckpt.replica_hits", hits);
  put("ckpt.replica_misses", misses);
  put("ckpt.rereplications", counter_total("ckpt.rereplications", n));
  put("ckpt.replica_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  // storage
  for (auto [tier, label] : {std::pair{storage::Tier::kLocal, "local"},
                             std::pair{storage::Tier::kShared, "shared"}}) {
    const storage::TierStats ts = store.stats(tier);
    const std::string p = std::string("storage.") + label + ".";
    put(p + "write_ops", static_cast<double>(ts.write_ops));
    put(p + "bytes_written", static_cast<double>(ts.bytes_written));
    put(p + "read_ops", static_cast<double>(ts.read_ops));
    put(p + "bytes_read", static_cast<double>(ts.bytes_read));
  }
  const storage::TierStats mem = store.memory().stats();
  put("storage.memory.bytes_written", static_cast<double>(mem.bytes_written));
  put("storage.memory.bytes_read", static_cast<double>(mem.bytes_read));
  put("copier.copy_vs", vspan("copier.copy"));
  put("copier.drain_wait_vs", vspan("copier.drain_wait"));
  // apps
  double map_busy = 0.0, reduce_busy = 0.0, map_calls = 0.0;
  for (const RankData& d : ranks_) {
    map_busy += d.map_busy;
    reduce_busy += d.reduce_busy;
    map_calls += static_cast<double>(d.map_calls);
  }
  put("apps.map_wall_s", map_busy);
  put("apps.reduce_wall_s", reduce_busy);
  put("apps.map_calls", map_calls);
  const double cpu = s.cpu_user_s + s.cpu_sys_s;
  put("apps.callback_cpu_share", cpu > 0 ? (map_busy + reduce_busy) / cpu : 0.0);

  // -- replays: re-issue this job's traffic against the pure layers --
  // mr: every rank's recorded map output through partition + 2-pass convert.
  const double m0 = wall_now();
  size_t in_records = 0, out_values = 0;
  for (RankData& d : ranks_) {
    if (d.map_out.empty()) continue;
    in_records += d.map_out.size();
    for (const mr::KvBuffer& part : mr::partition_by_key(d.map_out, n)) {
      if (part.empty()) continue;
      const mr::KmvBuffer kmv = mr::convert_2pass(part);
      for (size_t i = 0; i < kmv.size(); ++i) out_values += kmv.entry(i).size();
    }
    d.map_out = mr::KvBuffer{};
  }
  const double m1 = wall_now();
  add_span({"replay.mr", m0, m1, job_span_, job_, 0.0});
  put("mr.replay_wall_s", m1 - m0);
  if (in_records != out_values && replay_error_.empty()) {
    replay_error_ = "mr replay lost records";
  }

  // ckpt + storage: one pass over the files the job left in its sandbox.
  // Loading a file and unframing it to recover the payload are not timed.
  // Timed: frame+unframe of every checkpoint payload, and one write, append
  // and read of a deterministic stride sample of the files against a fresh
  // StorageSystem, scaled to the job's file count: a wc_wide job leaves
  // ~10k files, and creating one costs 0.06-0.3 ms of kernel time on a
  // 4-core VM, so a full replay would outlast the job.
  storage::StorageOptions so;
  so.root = job_root.parent_path() / (job_root.filename().string() + "-replay");
  fs::remove_all(so.root);
  double ckpt_wall = 0.0, storage_wall = 0.0;
  const std::vector<SandboxFile> files = list_sandbox(job_root);
  const size_t stride = (files.size() + kStorageReplayFiles - 1) / kStorageReplayFiles;
  size_t sampled = 0;
  const double f0 = wall_now();
  {
    storage::StorageSystem replay(so);
    for (size_t i = 0; i < files.size(); ++i) {
      const SandboxFile& f = files[i];
      const bool sample = i % stride == 0;
      if (!f.checkpoint && !sample) continue;
      const Bytes data = read_whole(f.real);
      if (f.checkpoint) {
        Bytes payload, check;
        if (core::unframe_checkpoint(data, payload).ok()) {
          const double t0 = wall_now();
          const Bytes framed = core::frame_checkpoint(payload);
          const Status st = core::unframe_checkpoint(framed, check);
          ckpt_wall += wall_now() - t0;
          if ((!st.ok() || check != payload) && replay_error_.empty()) {
            replay_error_ = "checkpoint replay failed to round-trip " + f.path;
          }
        }
      }
      if (!sample) continue;
      ++sampled;
      const size_t half = data.size() / 2;
      const std::span<const std::byte> all(data);
      Bytes back;
      const double t0 = wall_now();
      Status st = replay.write_file(f.tier, f.node, f.path, all.subspan(0, half));
      if (st.ok()) st = replay.append_file(f.tier, f.node, f.path, all.subspan(half));
      if (st.ok()) st = replay.read_file(f.tier, f.node, f.path, back);
      storage_wall += wall_now() - t0;
      if ((!st.ok() || back != data) && replay_error_.empty()) {
        replay_error_ = "storage replay failed on " + f.path + ": " + st.to_string();
      }
    }
  }
  fs::remove_all(so.root);
  if (sampled > 0) {
    storage_wall *= static_cast<double>(files.size()) / static_cast<double>(sampled);
  }
  const double f1 = wall_now();
  add_span({"replay.files", f0, f1, job_span_, job_, 0.0});
  put("ckpt.replay_wall_s", ckpt_wall);
  put("storage.replay_wall_s", storage_wall);

  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(job_span_)].end = wall_now();
}

std::vector<double> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0, cur_a = 0.0, cur_b = -1.0;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    self[i] = std::max(0.0, s.end - s.start - covered - s.busy);
  }
  return self;
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<double> self = self_times();
  std::map<std::string, double> by_name;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  return by_name;
}

bool Tracer::write_spans(const fs::path& path) const {
  const std::vector<double> self = self_times();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"clock\": \"wall\", \"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"job\": %d, \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"busy_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.job, s.parent, s.start, s.end, s.busy, self[i],
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
