#include "traffic/trace.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace ahbp::traffic {

std::string burst_token(ahb::Burst b) {
  return std::string(ahb::to_string(b));
}

ahb::Burst parse_burst(std::string_view token) {
  static constexpr ahb::Burst kAll[] = {
      ahb::Burst::kSingle, ahb::Burst::kIncr,   ahb::Burst::kWrap4,
      ahb::Burst::kIncr4,  ahb::Burst::kWrap8,  ahb::Burst::kIncr8,
      ahb::Burst::kWrap16, ahb::Burst::kIncr16,
  };
  for (const ahb::Burst b : kAll) {
    if (token == ahb::to_string(b)) {
      return b;
    }
  }
  throw std::runtime_error("unknown burst kind '" + std::string(token) +
                           "'");
}

namespace {

ahb::Size size_from_bytes(unsigned bytes) {
  if (!ahb::valid_beat_bytes(bytes)) {
    throw std::runtime_error("size must be 1/2/4/8 bytes");
  }
  return ahb::size_for_bytes(bytes);
}

/// The token separators: exactly what `std::istream >>` skips in the
/// classic locale, so a '\r' from a CRLF file is whitespace.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Split `line` at whitespace into views of it.  `out` is cleared first
/// and reused line after line, so steady-state parsing never allocates.
void tokenize(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  for (;;) {
    while (i < line.size() && is_space(line[i])) {
      ++i;
    }
    if (i == line.size()) {
      return;
    }
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) {
      ++i;
    }
    out.push_back(line.substr(start, i - start));
  }
}

std::uint64_t parse_dec(std::string_view tok, const char* what,
                        std::uint64_t max = ~std::uint64_t{0}) {
  if (tok.empty() || !std::all_of(tok.begin(), tok.end(), [](char c) {
        return c >= '0' && c <= '9';
      })) {
    throw std::runtime_error(std::string(what) + " must be a non-negative"
                             " decimal number, got '" + std::string(tok) +
                             "'");
  }
  std::uint64_t out = 0;
  const auto [end, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), out);
  if (ec != std::errc{} || out > max) {
    throw std::runtime_error(std::string(what) + " out of range: '" +
                             std::string(tok) + "'");
  }
  return out;
}

/// Hex field (addresses, write data): bare hex or 0x/0X-prefixed.
std::uint64_t parse_hex(std::string_view tok, const char* what) {
  std::string_view digits = tok;
  if (digits.size() >= 2 && digits[0] == '0' &&
      (digits[1] == 'x' || digits[1] == 'X')) {
    digits.remove_prefix(2);
  }
  // from_chars takes no sign and no prefix, and reports overflow, so a
  // signed or 2^64+ token can never wrap into a legal-looking value.
  std::uint64_t out = 0;
  const char* const last = digits.data() + digits.size();
  const auto [end, ec] = std::from_chars(digits.data(), last, out, 16);
  if (digits.empty() || ec != std::errc{} || end != last) {
    throw std::runtime_error(std::string(what) + " must be hex, got '" +
                             std::string(tok) + "'");
  }
  return out;
}

}  // namespace

namespace {

/// Pin the caller's stream to default formatting for the duration of
/// save_trace and restore it afterwards — including on exception paths.
/// A caller stream carrying uppercase/showbase/fill/width state would
/// otherwise corrupt the emitted hex fields ("0XDE" parses back as
/// garbage, a nonzero width pads the first field with fill characters),
/// and the hex/dec toggling inside the writer must never leak back out.
class StreamStateGuard {
 public:
  explicit StreamStateGuard(std::ostream& os)
      : os_(os), flags_(os.flags()), fill_(os.fill()), width_(os.width()) {
    os_.flags(std::ios_base::dec | std::ios_base::skipws);
    os_.fill(' ');
    os_.width(0);
  }
  ~StreamStateGuard() {
    os_.flags(flags_);
    os_.fill(fill_);
    os_.width(width_);
  }
  StreamStateGuard(const StreamStateGuard&) = delete;
  StreamStateGuard& operator=(const StreamStateGuard&) = delete;

 private:
  std::ostream& os_;
  std::ios_base::fmtflags flags_;
  char fill_;
  std::streamsize width_;
};

}  // namespace

std::size_t save_trace(std::ostream& os, const Script& script) {
  const StreamStateGuard guard(os);
  os << "# ahbp trace v1: gap dir addr size burst beats [data...]\n";
  for (const TrafficItem& item : script) {
    const ahb::Transaction& t = item.txn;
    os << item.gap << ' ' << (t.dir == ahb::Dir::kRead ? 'R' : 'W') << ' '
       << std::hex << t.addr << std::dec << ' ' << ahb::size_bytes(t.size)
       << ' ' << burst_token(t.burst) << ' ' << t.beats;
    if (t.dir == ahb::Dir::kWrite) {
      os << std::hex;
      for (unsigned b = 0; b < t.beats; ++b) {
        os << ' ' << t.data[b];
      }
      os << std::dec;
    }
    os << '\n';
  }
  return script.size();
}

Script load_trace(std::string_view text, ahb::MasterId master) {
  // One item per line, but never more than the shortest possible entry
  // ("0 R 0 1 SINGLE 1\n", 17 bytes) allows: a hostile file of bare
  // newlines must not reserve a hundred times its own size.
  Script script;
  script.reserve(std::min<std::size_t>(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
      text.size() / 17));
  std::vector<std::string_view> tok;
  std::size_t lineno = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    tokenize(line.substr(0, line.find('#')), tok);
    if (tok.empty()) {
      continue;  // blank / comment-only line
    }
    try {
      if (tok.size() < 6) {
        throw std::runtime_error(
            "malformed entry (need: gap dir addr size burst beats"
            " [data...])");
      }
      TrafficItem item;
      ahb::Transaction& t = item.txn;
      item.gap = parse_dec(tok[0], "gap");
      if (tok[1] == "R") {
        t.dir = ahb::Dir::kRead;
      } else if (tok[1] == "W") {
        t.dir = ahb::Dir::kWrite;
      } else {
        throw std::runtime_error("dir must be R or W, got '" +
                                 std::string(tok[1]) + "'");
      }
      t.addr = parse_hex(tok[2], "address");
      // Explicit ceilings before narrowing: a 2^32+n value must error, not
      // wrap into a legal-looking field.
      t.size = size_from_bytes(
          static_cast<unsigned>(parse_dec(tok[3], "size", 8)));
      t.burst = parse_burst(tok[4]);
      // 1024 = the AHB 1KB boundary over 1-byte beats; structurally_valid
      // enforces the exact burst-dependent bound below.
      t.beats = static_cast<unsigned>(parse_dec(tok[5], "beats", 1024));
      // Exactly the declared fields and nothing more: silent extra tokens
      // would mask shifted columns or hand-edit typos.
      const std::size_t expect =
          6 + (t.dir == ahb::Dir::kWrite ? t.beats : 0);
      if (tok.size() < expect) {
        throw std::runtime_error(
            "missing write data (" + std::to_string(t.beats) +
            " beat(s) declared, " + std::to_string(tok.size() - 6) +
            " data word(s) given)");
      }
      if (tok.size() > expect) {
        throw std::runtime_error("trailing garbage '" +
                                 std::string(tok[expect]) + "'");
      }
      if (t.dir == ahb::Dir::kWrite) {
        t.data.resize(t.beats);
        for (unsigned b = 0; b < t.beats; ++b) {
          t.data[b] = parse_hex(tok[6 + b], "write data");
        }
      }
      t.id = script.size() + 1;
      t.master = master;
      if (!ahb::structurally_valid(t)) {
        throw std::runtime_error("transaction violates AHB structure rules");
      }
      script.push_back(std::move(item));
    } catch (const std::runtime_error& e) {
      throw std::runtime_error("trace line " + std::to_string(lineno) + ": " +
                               e.what());
    }
  }
  return script;
}

Script load_trace(std::istream& is, ahb::MasterId master) {
  const std::string text{std::istreambuf_iterator<char>(is),
                         std::istreambuf_iterator<char>()};
  return load_trace(text, master);
}

}  // namespace ahbp::traffic
