// Positive fixture for cbtree-latch-wrapper.
#include <mutex>
#include <shared_mutex>

namespace cbtree {

struct CNode {
  std::shared_mutex latch;
  int count = 0;
};

// Raw latch member calls outside the instrumented wrappers: each bypasses
// the latch_check validator and the obs latch counters.
void RawExclusive(CNode* node) {
  node->latch.lock();  // expect-diag: cbtree-latch-wrapper
  ++node->count;
  node->latch.unlock();  // expect-diag: cbtree-latch-wrapper
}

bool RawTryShared(CNode& node) {
  if (!node.latch.try_lock_shared()) {  // expect-diag: cbtree-latch-wrapper
    return false;
  }
  node.latch.unlock_shared();  // expect-diag: cbtree-latch-wrapper
  return true;
}

// std lock adapters over a node latch are the same bypass in disguise.
void AdapterOverLatch(CNode* node) {
  std::unique_lock<std::shared_mutex> guard(node->latch);  // expect-diag: cbtree-latch-wrapper
  ++node->count;
}

// Template arguments deduced, braces instead of parentheses, and a node
// computed inline: the same adapter each time.
void DeducedAdapter(CNode* node) {
  std::unique_lock guard(node->latch);  // expect-diag: cbtree-latch-wrapper
}

void BracedAdapter(CNode* node) {
  std::lock_guard<std::shared_mutex> guard{node->latch};  // expect-diag: cbtree-latch-wrapper
}

CNode* ChildOf(CNode* node);
void AdapterOverComputedNode(CNode* node) {
  std::shared_lock<std::shared_mutex> guard(ChildOf(node)->latch);  // expect-diag: cbtree-latch-wrapper
}

// A node method reaching its own latch (implicit this).
struct SelfLockingNode {
  std::shared_mutex latch;
  void LockSelf() {
    latch.lock();  // expect-diag: cbtree-latch-wrapper
  }
};

}  // namespace cbtree
