// test_names.hpp — numbered names for test data ("k17", "r3", ...).
//
// Built by append: at -O3, GCC 12 reports a false -Wrestrict overlap for
// `"k" + std::to_string(n)`, which breaks Release -Werror builds.
#pragma once

#include <string>
#include <string_view>

namespace ftmr::tests {

template <typename Int>
std::string numbered(std::string_view prefix, Int n) {
  return std::string(prefix).append(std::to_string(n));
}

}  // namespace ftmr::tests
