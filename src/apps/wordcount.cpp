#include "apps/wordcount.hpp"

#include <charconv>

namespace ftmr::apps {

namespace {

template <typename Emit>
int32_t split_words(std::string_view line, const Emit& emit) {
  int32_t n = 0;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    if (end > pos) {
      emit(line.substr(pos, end - pos));
      ++n;
    }
    pos = end + 1;
  }
  return n;
}

int64_t parse_count(std::string_view v) {
  // Arena views are not null-terminated, so parse with from_chars.
  int64_t n = 0;
  std::from_chars(v.data(), v.data() + v.size(), n);
  return n;
}

int64_t sum_values(std::span<const std::string_view> values) {
  int64_t sum = 0;
  for (std::string_view v : values) sum += parse_count(v);
  return sum;
}

}  // namespace

core::StageFns wordcount_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view, std::string_view line,
               mr::KvBuffer& out) -> int32_t {
    return split_words(line, [&](std::string_view w) { out.add(w, "1"); });
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    out.add(key, std::to_string(sum_values(values)));
    return 1;
  };
  return fns;
}

}  // namespace ftmr::apps
