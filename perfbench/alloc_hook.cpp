#include "alloc_hook.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

thread_local bool t_armed = false;
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n, std::size_t align) {
  if (t_armed) ++t_allocs;
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align > alignof(std::max_align_t)) {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (n + align - 1) / align * align);
  } else {
    p = std::malloc(n);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

AllocCount::AllocCount() {
  t_allocs = 0;
  t_armed = true;
}

AllocCount::~AllocCount() { t_armed = false; }

std::uint64_t AllocCount::count() {
  t_armed = false;
  return t_allocs;
}

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
