// Clang Thread Safety Analysis annotation macros (CBTREE_-prefixed, after
// the scheme in the Clang docs and Abseil). On Clang the macros expand to
// the `capability` attribute family so `-Wthread-safety` can prove, at
// compile time, that guarded data is only touched with the right lock held;
// on every other compiler they expand to nothing, so annotated headers are
// zero-cost no-ops under GCC/MSVC (tests/thread_annotations_compile_test.cc
// proves the empty expansion).
//
// Configure with -DCBTREE_THREAD_SAFETY=ON (Clang only) to build the whole
// tree under -Wthread-safety -Werror; see docs/STATIC_ANALYSIS.md for the
// capability model and how it divides enforcement with the runtime latch
// validator in ctree/latch_check.h.

#ifndef CBTREE_BASE_THREAD_ANNOTATIONS_H_
#define CBTREE_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// Marks a class as a lock-like capability ("mutex", "latch", ...).
#define CBTREE_CAPABILITY(x) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Marks an RAII class whose lifetime equals a critical section.
#define CBTREE_SCOPED_CAPABILITY \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// Data member readable/writable only with the capability held.
#define CBTREE_GUARDED_BY(x) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// Pointer member whose pointee is guarded by the capability.
#define CBTREE_PT_GUARDED_BY(x) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Function requires the capability held exclusively / shared on entry.
#define CBTREE_REQUIRES(...) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define CBTREE_REQUIRES_SHARED(...)                                 \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability( \
      __VA_ARGS__))

/// Function acquires the capability (exclusively / shared) before returning.
#define CBTREE_ACQUIRE(...) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define CBTREE_ACQUIRE_SHARED(...)                                 \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability( \
      __VA_ARGS__))

/// Function releases the capability (held exclusively / shared) on return.
#define CBTREE_RELEASE(...) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define CBTREE_RELEASE_SHARED(...)                                 \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability( \
      __VA_ARGS__))

/// Function acquires the capability iff it returns `b`.
#define CBTREE_TRY_ACQUIRE(...) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))
#define CBTREE_TRY_ACQUIRE_SHARED(...)                                 \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_shared_capability( \
      __VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrancy documentation).
#define CBTREE_EXCLUDES(...) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Declares lock-ordering edges between capabilities: this one must be
/// acquired before/after the named ones whenever both are held. Checked by
/// Clang under -Wthread-safety-beta; a pure declaration otherwise. Only
/// capability expressions nameable from the annotation site are
/// expressible — cross-object orderings that TSA cannot spell live in the
/// lock-DAG comment in src/net/server.h instead.
#define CBTREE_ACQUIRED_BEFORE(...) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define CBTREE_ACQUIRED_AFTER(...) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// Returns a reference to the named capability.
#define CBTREE_RETURN_CAPABILITY(x) \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: the function manages locks in a way the static analysis
/// cannot follow (here: hand-over-hand latch crabbing re-binds the node
/// pointer every iteration, which defeats Clang's lexical lock-expression
/// tracking). Such functions are exactly the ones the runtime validator in
/// ctree/latch_check.h covers instead.
#define CBTREE_NO_THREAD_SAFETY_ANALYSIS \
  CBTREE_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

// --- Epoch-discipline markers (read by tools/cbtree_tidy, not by TSA) ----
//
// The epoch rules ("no retire-able node dereference outside a live
// EpochGuard") are not lock acquisitions, so -Wthread-safety cannot state
// them; the cbtree-epoch-guard and cbtree-node-alloc checks in
// tools/cbtree_tidy/cbtree_tidy.py do. That engine reads these markers by
// name from the source text, so they expand to nothing on every compiler.

/// The caller must hold a live EpochGuard across this call. Used on free
/// helpers that cannot name an `epoch_` member; OlcTree member functions
/// carry the checkable CBTREE_REQUIRES_SHARED(epoch_) instead.
#define CBTREE_REQUIRES_EPOCH

/// The function runs only when no concurrent operation exists (destructor,
/// invariant checker, test hook), so node access without a guard is safe.
#define CBTREE_EPOCH_QUIESCENT

#endif  // CBTREE_BASE_THREAD_ANNOTATIONS_H_
