#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

/// \file inline_function.hpp
/// Small-buffer callable for the event kernel's hot path.
///
/// `std::function` heap-allocates large captures, and its copyability
/// forces every capture to be copyable.  The kernel needs neither: process
/// bodies are created once, moved into place, invoked many times.
/// `InlineFunction` is the minimal replacement — move-only, fixed inline
/// storage, no heap fallback.  A capture larger than the inline buffer is
/// a compile-time error, which is exactly the regression guard we want:
/// a fat capture on the per-cycle path is a bug, not something to silently
/// box on the heap.
///
/// The repo linter bans `std::function` members in `src/sim/` outright;
/// this is what hot-path code uses instead.

namespace ahbp::sim {

/// Default inline capacity: enough for a `this` pointer plus a few words
/// of context — every process body fits (the fabric's capture a single
/// object pointer).
inline constexpr std::size_t kInlineFnCapacity = 48;

template <typename Signature, std::size_t Capacity = kInlineFnCapacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "capture too large for InlineFunction — hot-path callables"
                  " must stay small (capture a pointer, not the world)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    ::new (static_cast<void*>(&storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s, Args... args) -> R {
      return (*std::launder(reinterpret_cast<Fn*>(s)))(
          std::forward<Args>(args)...);
    };
    relocate_ = [](void* dst, void* src) {
      Fn* from = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    };
    if constexpr (!std::is_trivially_destructible_v<Fn>) {
      destroy_ = [](void* s) {
        std::launder(reinterpret_cast<Fn*>(s))->~Fn();
      };
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(&storage_, std::forward<Args>(args)...);
  }

  void reset() noexcept {
    if (destroy_ != nullptr) {
      destroy_(&storage_);
    }
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    relocate_ = other.relocate_;
    if (other.relocate_ != nullptr) {
      other.relocate_(&storage_, &other.storage_);
    }
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  R (*invoke_)(void*, Args...) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

}  // namespace ahbp::sim
