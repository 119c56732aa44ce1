#include "common/log.hpp"

#include <atomic>
#include <cstdio>

#include "common/sync.hpp"

namespace ftmr {
namespace {
std::atomic<int> g_level{static_cast<int>(LogLevel::kWarn)};
thread_local int t_rank = -1;

// Sink state: mutated by set_log_sink (tests swap in capture sinks while
// rank and copier threads keep emitting), read by every log_line. One
// mutex serializes both, so a swap never races an emit and the previous
// sink is fully quiesced once set_log_sink returns.
struct SinkState {
  Mutex mu{"log.sink"};
  LogSink sink FTMR_GUARDED_BY(mu);  // empty = default stderr sink
};
SinkState& sink_state() {
  static SinkState s;
  return s;
}

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(static_cast<int>(level)); }
LogLevel log_level() noexcept { return static_cast<LogLevel>(g_level.load()); }
void set_thread_rank(int rank) noexcept { t_rank = rank; }
int thread_rank() noexcept { return t_rank; }

void set_log_sink(LogSink sink) {
  SinkState& st = sink_state();
  MutexLock lock(st.mu);
  st.sink = std::move(sink);
}

void log_line(LogLevel level, const std::string& line) {
  // Built by append: GCC 12's -Wrestrict misfires on "..." + std::string.
  std::string formatted;
  formatted.reserve(line.size() + 24);
  formatted.append("[").append(level_name(level));
  if (t_rank >= 0) formatted.append(" r").append(std::to_string(t_rank));
  formatted.append("] ").append(line);
  SinkState& st = sink_state();
  MutexLock lock(st.mu);
  if (st.sink) {
    st.sink(level, formatted);
  } else {
    std::fprintf(stderr, "%s\n", formatted.c_str());
  }
}

namespace detail {
LogMessage::LogMessage(LogLevel level, const char* /*file*/, int /*line*/)
    : level_(level) {}
LogMessage::~LogMessage() { log_line(level_, stream_.str()); }
}  // namespace detail

}  // namespace ftmr
