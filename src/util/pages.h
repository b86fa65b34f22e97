// Page-level handling of the offline solvers' large arrays: the Q store
// and the stencil sets are tens of MB, written once, and freed (the
// stencils) before a one-shot solve returns.
#pragma once

#include <cstddef>
#include <vector>

namespace cav {

/// Fault in the whole pages of [data, data + bytes) writable with one
/// madvise(MADV_POPULATE_WRITE) call, instead of one page fault per page
/// as they are first written.  The contents do not change.  A kernel
/// without the advice (before Linux 5.14) refuses it, and then the first
/// writes fault the pages in as before.
void prefault_writable(void* data, std::size_t bytes);

/// v.resize(count) on prefaulted storage: reserve the elements, prefault
/// them, then value-initialize (zero) them as resize() does.
template <typename T>
void resize_prefaulted(std::vector<T>& v, std::size_t count) {
  v.reserve(count);
  prefault_writable(v.data(), count * sizeof(T));
  v.resize(count);
}

/// Hand the heap's free pages back to the OS.  A one-shot solve calls it
/// after its stencils are freed: they are tens of MB, and glibc keeps
/// freed blocks below its trim threshold resident, which would otherwise
/// stay in the process's peak footprint for the rest of its life.
void release_freed_heap();

}  // namespace cav
