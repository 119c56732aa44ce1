#include <unistd.h>
#include "storage/storage.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <system_error>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "storage/replica.hpp"

namespace ftmr::storage {

namespace fs = std::filesystem;

StorageSystem::StorageSystem(StorageOptions opts)
    : opts_(std::move(opts)),
      memory_(std::make_unique<ReplicaStore>(opts_.memory)) {
  std::error_code ec;
  fs::create_directories(opts_.root / "shared", ec);
  if (opts_.has_local_disk) fs::create_directories(opts_.root / "local", ec);
}

StorageSystem::~StorageSystem() = default;

fs::path StorageSystem::real_path(Tier tier, int node, std::string_view path) const {
  if (tier == Tier::kShared) return opts_.root / "shared" / fs::path(path);
  return opts_.root / "local" / ("node" + std::to_string(node)) / fs::path(path);
}

void StorageSystem::inject_io_failures(int count, Status error, int pass_first) {
  MutexLock lock(stats_mu_);
  injected_failures_ = count;
  injected_passes_ = pass_first;
  injected_error_ = std::move(error);
}

Status StorageSystem::take_injected_failure() {
  MutexLock lock(stats_mu_);
  if (injected_failures_ <= 0) return Status::Ok();
  if (injected_passes_ > 0) {
    --injected_passes_;
    return Status::Ok();
  }
  --injected_failures_;
  fault_stats_.count_failures++;
  return injected_error_;
}

void StorageSystem::set_fault_injector(FaultInjectorConfig cfg) {
  // The memory tier draws from its own derived-seed stream so arming it
  // does not perturb the file tiers' (seed-reproducible) fault sequences.
  memory_->set_fault_injector(mix64(cfg.seed ^ 0x6d656d6f7279ULL), cfg.memory,
                              cfg.path_filter);
  MutexLock lock(stats_mu_);
  injector_rng_ = Rng(cfg.seed);
  injector_ = std::move(cfg);
  injector_faults_ = 0;
  injector_armed_ = true;
}

void StorageSystem::clear_fault_injector() {
  memory_->clear_fault_injector();
  MutexLock lock(stats_mu_);
  injector_armed_ = false;
}

FaultStats StorageSystem::fault_stats() const {
  FaultStats total = memory_->fault_stats();
  MutexLock lock(stats_mu_);
  total.write_failures += fault_stats_.write_failures;
  total.torn_writes += fault_stats_.torn_writes;
  total.read_failures += fault_stats_.read_failures;
  total.corrupt_reads += fault_stats_.corrupt_reads;
  total.count_failures += fault_stats_.count_failures;
  return total;
}

bool StorageSystem::injector_eligible(std::string_view path) const {
  if (!injector_armed_) return false;
  if (injector_.max_faults > 0 && injector_faults_ >= injector_.max_faults) {
    return false;
  }
  return injector_.path_filter.empty() ||
         path.find(injector_.path_filter) != std::string_view::npos;
}

StorageSystem::WriteFault StorageSystem::draw_write_fault(Tier tier,
                                                          std::string_view path,
                                                          size_t size,
                                                          size_t* torn_prefix) {
  MutexLock lock(stats_mu_);
  if (!injector_eligible(path)) return WriteFault::kNone;
  const TierFaults& f =
      (tier == Tier::kLocal) ? injector_.local : injector_.shared;
  if (f.p_write_fail > 0.0 && injector_rng_.next_double() < f.p_write_fail) {
    fault_stats_.write_failures++;
    injector_faults_++;
    return WriteFault::kFail;
  }
  if (f.p_torn_write > 0.0 && injector_rng_.next_double() < f.p_torn_write) {
    fault_stats_.torn_writes++;
    injector_faults_++;
    *torn_prefix = size > 0 ? injector_rng_.next_below(size) : 0;
    return WriteFault::kTorn;
  }
  return WriteFault::kNone;
}

StorageSystem::ReadFault StorageSystem::draw_read_fault(Tier tier,
                                                        std::string_view path) {
  MutexLock lock(stats_mu_);
  if (!injector_eligible(path)) return ReadFault::kNone;
  const TierFaults& f =
      (tier == Tier::kLocal) ? injector_.local : injector_.shared;
  if (f.p_read_fail > 0.0 && injector_rng_.next_double() < f.p_read_fail) {
    fault_stats_.read_failures++;
    injector_faults_++;
    return ReadFault::kFail;
  }
  if (f.p_corrupt_read > 0.0 && injector_rng_.next_double() < f.p_corrupt_read) {
    fault_stats_.corrupt_reads++;
    injector_faults_++;
    return ReadFault::kCorrupt;
  }
  return ReadFault::kNone;
}

void StorageSystem::corrupt_buffer(Bytes& buf) {
  if (buf.empty()) return;
  MutexLock lock(stats_mu_);
  const size_t byte_idx = injector_rng_.next_below(buf.size());
  const int bit = static_cast<int>(injector_rng_.next_below(8));
  buf[byte_idx] ^= static_cast<std::byte>(1u << bit);
}

Status StorageSystem::check_tier(Tier tier) const {
  if (tier == Tier::kMemory) {
    // Not a file-backed tier: replicas live in ReplicaStore (memory()).
    return {ErrorCode::kInvalidArgument,
            "memory tier is not file-backed; use StorageSystem::memory()"};
  }
  if (tier == Tier::kLocal && !opts_.has_local_disk) {
    // A configuration error, not a transient fault: retry layers must not
    // spin on it and best-effort checkpointing must surface it.
    return {ErrorCode::kFailedPrecondition, "no node-local disk on this cluster"};
  }
  return Status::Ok();
}

double StorageSystem::cost_of(Tier tier, size_t bytes, int ops,
                              int concurrency) const noexcept {
  const TierModel& m = (tier == Tier::kLocal)    ? opts_.local
                       : (tier == Tier::kShared) ? opts_.shared
                                                 : opts_.memory;
  return m.cost(bytes, ops, concurrency);
}

Status StorageSystem::write_file(Tier tier, int node, std::string_view path,
                                 std::span<const std::byte> data, double* sim_cost,
                                 int concurrency) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  if (auto s = take_injected_failure(); !s.ok()) return s;
  size_t torn_prefix = 0;
  const WriteFault wf = draw_write_fault(tier, path, data.size(), &torn_prefix);
  if (wf == WriteFault::kFail) {
    return {ErrorCode::kIo, "injected write failure: " + std::string(path)};
  }
  if (wf == WriteFault::kTorn) data = data.subspan(0, torn_prefix);
  const fs::path p = real_path(tier, node, path);
  std::error_code ec;
  fs::create_directories(p.parent_path(), ec);
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  if (!f) return {ErrorCode::kIo, "write_file: cannot open " + p.string()};
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) return {ErrorCode::kIo, "write_file: short write to " + p.string()};
  if (sim_cost) *sim_cost = cost_of(tier, data.size(), 1, concurrency);
  {
    MutexLock lock(stats_mu_);
    TierStats& st = (tier == Tier::kLocal) ? local_stats_ : shared_stats_;
    st.bytes_written += data.size();
    st.write_ops++;
  }
  return Status::Ok();
}

Status StorageSystem::append_file(Tier tier, int node, std::string_view path,
                                  std::span<const std::byte> data, double* sim_cost,
                                  int concurrency) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  if (auto s = take_injected_failure(); !s.ok()) return s;
  size_t torn_prefix = 0;
  const WriteFault wf = draw_write_fault(tier, path, data.size(), &torn_prefix);
  if (wf == WriteFault::kFail) {
    return {ErrorCode::kIo, "injected append failure: " + std::string(path)};
  }
  if (wf == WriteFault::kTorn) data = data.subspan(0, torn_prefix);
  const fs::path p = real_path(tier, node, path);
  std::error_code ec;
  fs::create_directories(p.parent_path(), ec);
  std::ofstream f(p, std::ios::binary | std::ios::app);
  if (!f) return {ErrorCode::kIo, "append_file: cannot open " + p.string()};
  f.write(reinterpret_cast<const char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  if (!f) return {ErrorCode::kIo, "append_file: short write to " + p.string()};
  if (sim_cost) *sim_cost = cost_of(tier, data.size(), 1, concurrency);
  {
    MutexLock lock(stats_mu_);
    TierStats& st = (tier == Tier::kLocal) ? local_stats_ : shared_stats_;
    st.bytes_written += data.size();
    st.write_ops++;
  }
  return Status::Ok();
}

Status StorageSystem::read_file(Tier tier, int node, std::string_view path,
                                Bytes& out, double* sim_cost, int concurrency) {
  return read_impl(tier, node, path, 0, std::nullopt, out, sim_cost, concurrency);
}

Status StorageSystem::read_range(Tier tier, int node, std::string_view path,
                                 uint64_t offset, uint64_t len, Bytes& out,
                                 double* sim_cost, int concurrency) {
  return read_impl(tier, node, path, offset, len, out, sim_cost, concurrency);
}

Status StorageSystem::read_impl(Tier tier, int node, std::string_view path,
                                uint64_t offset, std::optional<uint64_t> len,
                                Bytes& out, double* sim_cost, int concurrency) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  if (auto s = take_injected_failure(); !s.ok()) return s;
  const ReadFault rf = draw_read_fault(tier, path);
  if (rf == ReadFault::kFail) {
    return {ErrorCode::kIo, "injected read failure: " + std::string(path)};
  }
  const fs::path p = real_path(tier, node, path);
  std::ifstream f(p, std::ios::binary | std::ios::ate);
  if (!f) return {ErrorCode::kNotFound, "read_file: no such file " + p.string()};
  const auto size = static_cast<uint64_t>(f.tellg());
  const uint64_t n = len.value_or(size);  // read_file: offset 0, whole file
  if (offset > size || n > size - offset) {
    return {ErrorCode::kIo, "read_file: short read from " + p.string()};
  }
  f.seekg(static_cast<std::streamoff>(offset));
  out.resize(static_cast<size_t>(n));
  f.read(reinterpret_cast<char*>(out.data()), static_cast<std::streamsize>(n));
  if (!f) return {ErrorCode::kIo, "read_file: short read from " + p.string()};
  if (rf == ReadFault::kCorrupt) corrupt_buffer(out);
  if (sim_cost) *sim_cost = cost_of(tier, out.size(), 1, concurrency);
  {
    MutexLock lock(stats_mu_);
    TierStats& st = (tier == Tier::kLocal) ? local_stats_ : shared_stats_;
    st.bytes_read += out.size();
    st.read_ops++;
  }
  return Status::Ok();
}

bool StorageSystem::exists(Tier tier, int node, std::string_view path) const {
  if (!check_tier(tier).ok()) return false;
  std::error_code ec;
  return fs::exists(real_path(tier, node, path), ec);
}

int64_t StorageSystem::file_size(Tier tier, int node, std::string_view path) const {
  if (!check_tier(tier).ok()) return -1;
  std::error_code ec;
  const auto sz = fs::file_size(real_path(tier, node, path), ec);
  return ec ? -1 : static_cast<int64_t>(sz);
}

Status StorageSystem::remove(Tier tier, int node, std::string_view path) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  std::error_code ec;
  fs::remove_all(real_path(tier, node, path), ec);
  return ec ? Status{ErrorCode::kIo, "remove failed: " + ec.message()} : Status::Ok();
}

Status StorageSystem::rename(Tier tier, int node, std::string_view from,
                             std::string_view to) {
  if (auto s = check_tier(tier); !s.ok()) return s;
  std::error_code ec;
  fs::rename(real_path(tier, node, from), real_path(tier, node, to), ec);
  return ec ? Status{ErrorCode::kIo, "rename failed: " + ec.message()}
            : Status::Ok();
}

Status StorageSystem::list_dir(Tier tier, int node, std::string_view dir,
                               std::vector<std::string>& names) const {
  names.clear();
  if (auto s = check_tier(tier); !s.ok()) return s;
  const fs::path base = real_path(tier, node, dir);
  std::error_code ec;
  if (!fs::exists(base, ec)) return Status::Ok();  // empty dir == no entries
  for (auto it = fs::recursive_directory_iterator(base, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      names.push_back(fs::relative(it->path(), base, ec).generic_string());
    }
  }
  std::sort(names.begin(), names.end());
  return Status::Ok();
}

Status StorageSystem::copy(Tier src_tier, int src_node, std::string_view src_path,
                           Tier dst_tier, int dst_node, std::string_view dst_path,
                           double* sim_cost, int concurrency) {
  Bytes data;
  double read_cost = 0.0, write_cost = 0.0;
  if (auto s = read_file(src_tier, src_node, src_path, data, &read_cost, concurrency);
      !s.ok()) {
    return s;
  }
  if (auto s = write_file(dst_tier, dst_node, dst_path, data, &write_cost, concurrency);
      !s.ok()) {
    return s;
  }
  if (sim_cost) *sim_cost = read_cost + write_cost;
  return Status::Ok();
}

void StorageSystem::wipe_node_local(int node) {
  if (!opts_.has_local_disk) return;
  std::error_code ec;
  fs::remove_all(opts_.root / "local" / ("node" + std::to_string(node)), ec);
}

TierStats StorageSystem::stats(Tier tier) const {
  if (tier == Tier::kMemory) return memory_->stats();
  MutexLock lock(stats_mu_);
  return tier == Tier::kLocal ? local_stats_ : shared_stats_;
}

namespace {
std::atomic<uint64_t> g_tempdir_seq{0};
}

TempDir::TempDir(std::string_view prefix) {
  const uint64_t n =
      g_tempdir_seq.fetch_add(1) ^ static_cast<uint64_t>(::getpid()) << 32;
  path_ = fs::temp_directory_path() /
          (std::string(prefix) + "-" + std::to_string(n));
  fs::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

}  // namespace ftmr::storage
