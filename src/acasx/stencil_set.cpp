#include "acasx/stencil_set.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace cav::acasx {

void release_freed_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace cav::acasx
