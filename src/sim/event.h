#ifndef DIMSUM_SIM_EVENT_H_
#define DIMSUM_SIM_EVENT_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/frame_pool.h"

namespace dimsum::sim {

/// One scheduled kernel event: a coroutine resumption or a callback. The
/// (time, seq) pair is a strict total order -- seq is unique per
/// simulator -- so the event queue pops in one deterministic order.
///
/// An event is 56 bytes and trivially copyable: heap sifts move it with
/// plain copies, and callbacks live in a small inline buffer. Trivially
/// copyable callables up to kInlineBytes (the kernel's own completion
/// lambdas capture just `this` or a handle) are stored in the event
/// itself; larger or non-trivial callables go to one FramePool freelist
/// block -- still never a global allocation on the hot path.
///
/// Because events are trivially copyable they carry no destructor; the
/// owning queue calls DestroyPending() on events discarded unexecuted
/// (simulator teardown with events still scheduled). Dispatch() releases
/// any out-of-line state itself.
struct Event {
  /// Inline callback capacity. Sized so every kernel-internal callback
  /// ([this] or [this, handle] captures) stays inline.
  static constexpr std::size_t kInlineBytes = 32;

  double time = 0.0;
  uint64_t seq = 0;
  /// Null for coroutine events (Dispatch resumes `target`); otherwise the
  /// trampoline invoking the inline or out-of-line callable.
  void (*invoke)(Event&) = nullptr;
  union {
    /// Coroutine address, or the out-of-line callable blob.
    void* target = nullptr;
    alignas(8) unsigned char inline_buf[kInlineBytes];
  };

  /// Binds a coroutine resumption.
  void BindCoroutine(std::coroutine_handle<> handle) {
    invoke = nullptr;
    target = handle.address();
  }

  /// Binds a callback. Returns false (leaving the event invalid) for an
  /// empty callable such as a default-constructed std::function, so the
  /// scheduler can fail at the Call site instead of at dispatch time.
  template <typename F>
  bool BindCallback(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_constructible_v<bool, const Fn&>) {
      if (!static_cast<bool>(fn)) return false;
    }
    if constexpr (std::is_trivially_copyable_v<Fn> &&
                  sizeof(Fn) <= kInlineBytes && alignof(Fn) <= 8) {
      ::new (static_cast<void*>(inline_buf)) Fn(std::forward<F>(fn));
      invoke = &InvokeInline<Fn>;
    } else {
      const std::size_t bytes = sizeof(BlobHeader) + sizeof(Fn);
      auto* header =
          static_cast<BlobHeader*>(FramePool::ThisThread().Allocate(bytes));
      header->call_and_destroy = &CallAndDestroy<Fn>;
      header->destroy_only = &DestroyOnly<Fn>;
      header->bytes = bytes;
      ::new (static_cast<void*>(header + 1)) Fn(std::forward<F>(fn));
      target = header;
      invoke = &InvokeBlob;
    }
    return true;
  }

  bool is_coroutine() const { return invoke == nullptr; }

  /// Runs the event: resumes the coroutine or invokes the callback
  /// (releasing its out-of-line state, if any).
  void Dispatch() {
    if (invoke == nullptr) {
      std::coroutine_handle<>::from_address(target).resume();
    } else {
      invoke(*this);
    }
  }

  /// Releases an unexecuted event's out-of-line state (teardown path).
  void DestroyPending() {
    if (invoke != &InvokeBlob) return;
    auto* header = static_cast<BlobHeader*>(target);
    header->destroy_only(header + 1);
    FramePool::ThisThread().Deallocate(header, header->bytes);
  }

 private:
  /// Out-of-line callables are stored as [BlobHeader][callable] in one
  /// FramePool block.
  struct BlobHeader {
    void (*call_and_destroy)(void*);
    void (*destroy_only)(void*);
    std::size_t bytes;
  };

  template <typename Fn>
  static void InvokeInline(Event& event) {
    // Trivially copyable implies trivially destructible: invoking the
    // buffered copy is all the cleanup there is.
    (*std::launder(reinterpret_cast<Fn*>(event.inline_buf)))();
  }

  static void InvokeBlob(Event& event) {
    auto* header = static_cast<BlobHeader*>(event.target);
    const std::size_t bytes = header->bytes;
    header->call_and_destroy(header + 1);
    FramePool::ThisThread().Deallocate(header, bytes);
  }

  template <typename Fn>
  static void CallAndDestroy(void* callable) {
    Fn* fn = static_cast<Fn*>(callable);
    (*fn)();
    fn->~Fn();
  }

  template <typename Fn>
  static void DestroyOnly(void* callable) {
    static_cast<Fn*>(callable)->~Fn();
  }
};

static_assert(std::is_trivially_copyable_v<Event>);
static_assert(sizeof(Event) == 56, "time, seq, invoke and the inline buffer");

inline bool EarlierThan(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

}  // namespace dimsum::sim

#endif  // DIMSUM_SIM_EVENT_H_
