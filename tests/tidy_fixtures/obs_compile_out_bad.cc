// Positive fixture for cbtree-obs-compile-out. Deliberately includes no
// project headers, so CBTREE_OBS_ENABLED has no establishing default here.

// #ifdef on a macro that is always defined (0 or 1) is always-true.
#ifdef CBTREE_OBS_ENABLED  // expect-diag: cbtree-obs-compile-out
static int always_compiled = 1;
#endif

// #ifndef outside the default-define idiom is always-false dead code.
#ifndef CBTREE_OBS_ENABLED  // expect-diag: cbtree-obs-compile-out
static int never_compiled = 1;
#endif

// defined() has the same always-true problem.
#if defined(CBTREE_OBS_ENABLED)  // expect-diag: cbtree-obs-compile-out
static int also_always = 1;
#endif

// defined without parentheses is the same always-true test.
#if defined CBTREE_OBS_ENABLED  // expect-diag: cbtree-obs-compile-out
static int bare_defined = 1;
#endif

// Testing the value without any header that establishes the default:
// an out-of-order include silently compiles the obs layer out.
#if CBTREE_OBS_ENABLED  // expect-diag: cbtree-obs-compile-out
static int maybe = 1;
#endif

namespace cbtree {

// obs::internal is private to src/obs/.
void PokeRegistryInternals() {
  obs::internal::FlushAll();  // expect-diag: cbtree-obs-compile-out
}

// A using-directive or a namespace alias opens obs::internal to unqualified
// use; the directive is where the private reach starts.
void PokeThroughUsingDirective() {
  using namespace obs::internal;  // expect-diag: cbtree-obs-compile-out
  FlushAll();
}

namespace obs_guts = obs::internal;  // expect-diag: cbtree-obs-compile-out

// Code that reopens the obs namespace outside src/obs/ is still outside.
namespace obs {
void PokeFromReopenedNamespace() {
  internal::FlushAll();  // expect-diag: cbtree-obs-compile-out
}
namespace internal {  // expect-diag: cbtree-obs-compile-out
void AddPrivateHelper();
}  // namespace internal
}  // namespace obs

}  // namespace cbtree
