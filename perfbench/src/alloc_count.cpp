// Replacement global operator new/delete that counts heap allocations per
// thread. Counting is switched on only for the traced run; the untraced
// run pays one relaxed load per allocation.
#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

std::atomic<bool> g_counting{false};
thread_local std::uint64_t t_allocs = 0;

void* allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench::alloc {
void enable(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t thread_count() { return t_allocs; }
}  // namespace perfbench::alloc

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
