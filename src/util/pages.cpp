#include "util/pages.h"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif
#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace cav {

void prefault_writable(void* data, std::size_t bytes) {
#if defined(__linux__)
#if defined(MADV_POPULATE_WRITE)
  constexpr int kPopulateWrite = MADV_POPULATE_WRITE;
#else
  constexpr int kPopulateWrite = 23;  // the Linux 5.14 uapi value
#endif
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto first = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t begin = (first + page - 1) & ~(page - 1);
  const std::uintptr_t end = (first + bytes) & ~(page - 1);
  if (end <= begin) return;
  // A kernel before Linux 5.14 refuses the advice (EINVAL), and the first
  // writes then fault the pages in.
  static_cast<void>(madvise(reinterpret_cast<void*>(begin), end - begin, kPopulateWrite));
#else
  static_cast<void>(data);
  static_cast<void>(bytes);
#endif
}

void release_freed_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace cav
