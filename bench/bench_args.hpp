#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>

/// \file bench_args.hpp
/// The one parser for the benches' positional counts (items, repeats).

namespace ahbp::bench {

/// argv[index] as a count in [1, kMaxCount], or `fallback` when absent.
/// The cap is far above every measurement length the benches run at, far
/// below a stimulus allocation that cannot succeed.  Anything else —
/// non-numeric, trailing characters, zero, negative, over range — prints
/// `usage` and exits with code 2 before the bench simulates or writes.
inline unsigned count_arg(int argc, char** argv, int index, unsigned fallback,
                          const char* usage) {
  constexpr unsigned long long kMaxCount = 1'000'000;
  if (argc <= index) {
    return fallback;
  }
  const char* const text = argv[index];
  const char* const last = text + std::strlen(text);
  unsigned long long v = 0;
  const auto [end, ec] = std::from_chars(text, last, v);
  if (ec != std::errc() || end != last || v == 0 || v > kMaxCount) {
    std::cerr << "invalid count '" << text << "': expected 1.." << kMaxCount
              << "\nusage: " << usage << "\n";
    std::exit(2);
  }
  return static_cast<unsigned>(v);
}

}  // namespace ahbp::bench
