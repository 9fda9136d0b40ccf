#pragma once

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>

/// \file bench_args.hpp
/// The one parser for the benches' positional arguments: counts (items,
/// repeats) and seeds.

namespace ahbp::bench {

/// argv[index] as a decimal integer in [lo, hi], or `fallback` when absent.
/// Anything else — non-numeric, a sign, trailing characters, out of range —
/// prints `usage` and exits with code 2 before the bench simulates or
/// writes.
inline std::uint64_t ranged_arg(int argc, char** argv, int index,
                                std::uint64_t fallback, std::uint64_t lo,
                                std::uint64_t hi, const char* what,
                                const char* usage) {
  if (argc <= index) {
    return fallback;
  }
  const char* const text = argv[index];
  const char* const last = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text, last, v);
  if (ec != std::errc() || end != last || v < lo || v > hi) {
    std::cerr << "invalid " << what << " '" << text << "': expected " << lo
              << ".." << hi << "\nusage: " << usage << "\n";
    std::exit(2);
  }
  return v;
}

/// argv[index] as a count in [1, 1'000'000], or `fallback` when absent.
/// The cap is far above every measurement length the benches run at, far
/// below a stimulus allocation that cannot succeed.
inline unsigned count_arg(int argc, char** argv, int index, unsigned fallback,
                          const char* usage) {
  return static_cast<unsigned>(ranged_arg(argc, argv, index, fallback, 1,
                                          1'000'000, "count", usage));
}

/// argv[index] as a 64-bit seed (0 included), or `fallback` when absent.
inline std::uint64_t seed_arg(int argc, char** argv, int index,
                              std::uint64_t fallback, const char* usage) {
  return ranged_arg(argc, argv, index, fallback, 0,
                    std::numeric_limits<std::uint64_t>::max(), "seed", usage);
}

}  // namespace ahbp::bench
