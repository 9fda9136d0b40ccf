#pragma once

#include <cstddef>
#include <new>
#include <utility>

/// \file fixed_array.hpp
/// Contiguous storage for a run-time count of non-movable objects.
///
/// Signals and processes are identity objects pinned to the kernel, so
/// `std::vector` cannot hold them (it needs a move constructor to grow).
/// `FixedArray` allocates its length once and builds each element in
/// place, in index order, from a factory's prvalue — the order the
/// elements' signals register with the kernel.  Elements are destroyed in
/// reverse order.

namespace ahbp::sim {

template <typename T>
class FixedArray {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "over-aligned elements are not supported");

 public:
  /// Build `n` elements, element i from `make(i)` (which returns a T by
  /// value; guaranteed copy elision constructs it in its final place).
  template <typename Make>
  FixedArray(std::size_t n, Make&& make)
      : data_(static_cast<T*>(::operator new(n * sizeof(T)))) {
    try {
      for (; size_ < n; ++size_) {
        ::new (static_cast<void*>(data_ + size_)) T(make(size_));
      }
    } catch (...) {
      release();
      throw;
    }
  }

  FixedArray(const FixedArray&) = delete;
  FixedArray& operator=(const FixedArray&) = delete;

  ~FixedArray() { release(); }

  std::size_t size() const noexcept { return size_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  void release() noexcept {
    while (size_ > 0) {
      data_[--size_].~T();
    }
    ::operator delete(data_);
  }

  T* data_;
  std::size_t size_ = 0;
};

}  // namespace ahbp::sim
