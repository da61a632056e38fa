// Negative fixture for cbtree-obs-compile-out.
#include "obs/registry.h"

// Value test with the default established by the include above: fine.
#if CBTREE_OBS_ENABLED
static int obs_on = 1;
#else
static int obs_on = 0;
#endif

// The default-define idiom itself (ifndef immediately followed by define)
// is the one legal shape for #ifndef.
#ifndef CBTREE_OBS_ENABLED
#define CBTREE_OBS_ENABLED 0
#endif

namespace cbtree {

// Public obs handles are the compile-out-safe surface.
void CountSomething(obs::Counter* counter) {
  counter->Add();
}

// Some other library's internal namespace is not obs::internal.
namespace codec {
namespace internal {
int Crc();
}  // namespace internal
int Checksum() { return internal::Crc(); }
}  // namespace codec

}  // namespace cbtree
