#include "ddr/storage.hpp"

#include <algorithm>
#include <stdexcept>

namespace ahbp::ddr {

const std::vector<std::uint8_t>* SparseMemory::find_page(
    ahb::Addr page_base) const {
  const auto it = pages_.find(page_base);
  return it == pages_.end() ? nullptr : &it->second;
}

std::vector<std::uint8_t>& SparseMemory::touch_page(ahb::Addr page_base) {
  auto& page = pages_[page_base];
  if (page.empty()) {
    page.assign(kPageBytes, 0);
  }
  return page;
}

ahb::Word SparseMemory::read(ahb::Addr addr, unsigned bytes) const {
  if (bytes == 0 || bytes > 8) {
    throw std::invalid_argument("SparseMemory::read: bytes must be 1..8");
  }
  const ahb::Addr off = addr % kPageBytes;
  if (off + bytes <= kPageBytes) {
    // The common case: the access lies in one page, found once.
    const auto* page = find_page(addr - off);
    if (page == nullptr) {
      return 0;
    }
    ahb::Word v = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      v |= static_cast<ahb::Word>((*page)[off + i]) << (8 * i);
    }
    return v;
  }
  ahb::Word v = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    const ahb::Addr a = addr + i;
    const ahb::Addr base = a / kPageBytes * kPageBytes;
    if (const auto* page = find_page(base)) {
      v |= static_cast<ahb::Word>((*page)[a - base]) << (8 * i);
    }
  }
  return v;
}

void SparseMemory::write(ahb::Addr addr, ahb::Word value, unsigned bytes) {
  if (bytes == 0 || bytes > 8) {
    throw std::invalid_argument("SparseMemory::write: bytes must be 1..8");
  }
  const ahb::Addr off = addr % kPageBytes;
  if (off + bytes <= kPageBytes) {
    std::vector<std::uint8_t>& page = touch_page(addr - off);
    for (unsigned i = 0; i < bytes; ++i) {
      page[off + i] = static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF);
    }
    return;
  }
  for (unsigned i = 0; i < bytes; ++i) {
    const ahb::Addr a = addr + i;
    const ahb::Addr base = a / kPageBytes * kPageBytes;
    touch_page(base)[a - base] =
        static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF);
  }
}

void SparseMemory::save_state(state::StateWriter& w) const {
  w.begin("memory");
  std::vector<ahb::Addr> bases;
  bases.reserve(pages_.size());
  for (const auto& [base, page] : pages_) {
    bases.push_back(base);
  }
  std::sort(bases.begin(), bases.end());
  w.put_u64(bases.size());
  for (const ahb::Addr base : bases) {
    const std::vector<std::uint8_t>& page = pages_.at(base);
    w.put_u64(base);
    w.put_blob(page.data(), page.size());
  }
  w.end();
}

void SparseMemory::restore_state(state::StateReader& r) {
  r.enter("memory");
  pages_.clear();
  // Each page record owes a u64 base + a blob header (9 + 9 bytes).
  const std::uint64_t n = r.get_count(18);
  for (std::uint64_t i = 0; i < n; ++i) {
    const ahb::Addr base = r.get_u64();
    std::vector<std::uint8_t> page = r.get_blob();
    if (page.size() != kPageBytes) {
      throw state::StateError("SparseMemory: page size mismatch");
    }
    pages_.emplace(base, std::move(page));
  }
  r.leave();
}

}  // namespace ahbp::ddr
