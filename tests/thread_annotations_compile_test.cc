// Proves the thread-safety annotation macros (base/thread_annotations.h)
// are zero-cost: off Clang every macro expands to nothing (checked by
// stringifying the expansion; the epoch markers expand to nothing under
// every compiler), and on every compiler an annotated type is
// layout-identical to its unannotated twin — the attributes exist only in
// the analyzer's world.

#include "base/thread_annotations.h"

#include <shared_mutex>
#include <type_traits>

#include "base/mutex.h"
#include "ctree/cnode.h"
#include "gtest/gtest.h"

namespace cbtree {
namespace {

#define CBTREE_TEST_STRINGIFY_IMPL(x) #x
#define CBTREE_TEST_STRINGIFY(x) CBTREE_TEST_STRINGIFY_IMPL(x)

#ifndef __clang__
// Off Clang the macros must vanish entirely: stringifying the expansion
// yields the empty string (sizeof "" == 1). A non-empty expansion would at
// best warn about an unknown attribute and at worst change semantics.
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_CAPABILITY("latch"))) == 1,
              "CBTREE_CAPABILITY must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_SCOPED_CAPABILITY)) == 1,
              "CBTREE_SCOPED_CAPABILITY must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_GUARDED_BY(m))) == 1,
              "CBTREE_GUARDED_BY must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_PT_GUARDED_BY(m))) == 1,
              "CBTREE_PT_GUARDED_BY must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_REQUIRES(m))) == 1,
              "CBTREE_REQUIRES must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_REQUIRES_SHARED(m))) == 1,
              "CBTREE_REQUIRES_SHARED must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_ACQUIRE(m))) == 1,
              "CBTREE_ACQUIRE must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_ACQUIRE_SHARED(m))) == 1,
              "CBTREE_ACQUIRE_SHARED must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_RELEASE(m))) == 1,
              "CBTREE_RELEASE must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_RELEASE_SHARED(m))) == 1,
              "CBTREE_RELEASE_SHARED must expand to nothing off Clang");
static_assert(
    sizeof(CBTREE_TEST_STRINGIFY(CBTREE_TRY_ACQUIRE(true, m))) == 1,
    "CBTREE_TRY_ACQUIRE must expand to nothing off Clang");
static_assert(
    sizeof(CBTREE_TEST_STRINGIFY(CBTREE_TRY_ACQUIRE_SHARED(true, m))) == 1,
    "CBTREE_TRY_ACQUIRE_SHARED must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_EXCLUDES(m))) == 1,
              "CBTREE_EXCLUDES must expand to nothing off Clang");
static_assert(
    sizeof(CBTREE_TEST_STRINGIFY(CBTREE_NO_THREAD_SAFETY_ANALYSIS)) == 1,
    "CBTREE_NO_THREAD_SAFETY_ANALYSIS must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_ACQUIRED_BEFORE(m))) == 1,
              "CBTREE_ACQUIRED_BEFORE must expand to nothing off Clang");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_ACQUIRED_AFTER(m))) == 1,
              "CBTREE_ACQUIRED_AFTER must expand to nothing off Clang");
#endif  // !__clang__

// The epoch markers are read by name from the source text
// (tools/cbtree_tidy/cbtree_tidy.py), never by a compiler: they expand to
// nothing under every compiler, Clang included.
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_REQUIRES_EPOCH)) == 1,
              "CBTREE_REQUIRES_EPOCH must expand to nothing");
static_assert(sizeof(CBTREE_TEST_STRINGIFY(CBTREE_EPOCH_QUIESCENT)) == 1,
              "CBTREE_EPOCH_QUIESCENT must expand to nothing");

// Layout parity, checked under every compiler: the annotated NodeLatch
// wraps exactly one std::shared_mutex, and the annotated Mutex exactly one
// std::mutex. Attributes must never add storage.
static_assert(sizeof(NodeLatch) == sizeof(std::shared_mutex),
              "NodeLatch must add no storage over std::shared_mutex");
static_assert(alignof(NodeLatch) == alignof(std::shared_mutex),
              "NodeLatch must not change alignment");
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "Mutex must add no storage over std::mutex");
static_assert(alignof(Mutex) == alignof(std::mutex),
              "Mutex must not change alignment");

struct Unannotated {
  int guarded = 0;
  int* pointed = nullptr;
};

struct Annotated {
  int guarded CBTREE_GUARDED_BY(mutex) = 0;
  int* pointed CBTREE_PT_GUARDED_BY(mutex) = nullptr;
  static Mutex mutex;
};

static_assert(sizeof(Annotated) == sizeof(Unannotated),
              "member annotations must not change layout");

TEST(ThreadAnnotationsCompileTest, AnnotatedFunctionsAreCallable) {
  // An annotated function body behaves identically; this is a smoke check
  // that the macros compile in every position the codebase uses them.
  Mutex mutex;
  {
    MutexLock lock(&mutex);
  }
  NodeLatch latch;
  latch.lock();
  latch.unlock();
  latch.lock_shared();
  ASSERT_FALSE(latch.try_lock());  // shared held: exclusive must fail
  latch.unlock_shared();
  ASSERT_TRUE(latch.try_lock_shared());
  latch.unlock_shared();
}

}  // namespace
}  // namespace cbtree
