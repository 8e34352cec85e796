// Chunked bump allocator for IR nodes (LLVM BumpPtrAllocator-style). A
// rollout clone churns through thousands of instructions whose lifetimes all
// end together with the module, so per-node heap traffic — and the
// allocator-lock contention it causes across eval threads — is pure waste.
// An Arena hands out pointers from large chunks and releases everything
// wholesale in its destructor; instrumented counters back the
// allocation-count regression tests.
//
// Integration is by *ambient scope*, not by threading an allocator through
// every factory: IR node classes (Value, BasicBlock, Function) define
// class-level operator new/delete that consult the thread-local current
// arena. Each allocation is tagged so operator delete knows whether the
// memory is heap-backed (free it) or arena-backed (no-op; the chunk dies
// with the arena). All existing unique_ptr ownership code works unchanged,
// and heap- and arena-backed nodes can be mixed freely in one module.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace autophase::support {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes) : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` (rounded up to max_align_t alignment). Not
  /// thread-safe: an arena belongs to one module, and modules are
  /// thread-confined on the rollout path.
  void* allocate(std::size_t bytes) {
    constexpr std::size_t kAlign = alignof(std::max_align_t);
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    if (bytes > remaining_) grow(bytes);
    std::byte* out = cursor_;
    cursor_ += bytes;
    remaining_ -= bytes;
    ++allocations_;
    return out;
  }

  // ---- Instrumentation (regression-tested: a CoW rollout clone of an
  // unmutated module must allocate O(functions), not O(instructions)) ----
  [[nodiscard]] std::size_t allocation_count() const noexcept { return allocations_; }
  [[nodiscard]] std::size_t chunk_count() const noexcept { return chunks_.size(); }

 private:
  void grow(std::size_t min_bytes);

  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* cursor_ = nullptr;
  std::size_t remaining_ = 0;
  std::size_t chunk_bytes_;
  std::size_t allocations_ = 0;
};

/// The ambient arena new IR nodes allocate from (null = plain heap).
[[nodiscard]] Arena* current_arena() noexcept;

/// RAII switch of the thread-local current arena. Nests: the previous arena
/// is restored on destruction, so cloning a module while materialising
/// another stays correct.
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena) noexcept;
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* previous_;
};

/// Backing for class-level operator new on IR nodes: allocates from the
/// current arena when one is active (else the heap), prefixing a one-word
/// tag so arena_aware_deallocate can tell the two apart.
[[nodiscard]] void* arena_aware_allocate(std::size_t size);

/// Backing for class-level operator delete: frees heap-tagged memory,
/// no-ops for arena-tagged memory (released wholesale with the arena).
void arena_aware_deallocate(void* ptr) noexcept;

}  // namespace autophase::support
