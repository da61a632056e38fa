// Negative fixture for cbtree-latch-wrapper.
#include <mutex>
#include <shared_mutex>

namespace cbtree {

struct CNode {
  std::shared_mutex latch;
  int count = 0;
};

// The four instrumented wrappers are the only place raw latch calls live.
void LatchShared(const CNode* node) {
  const_cast<CNode*>(node)->latch.lock_shared();
}

void LatchExclusive(CNode* node) {
  node->latch.lock();
}

void UnlatchShared(const CNode* node) {
  const_cast<CNode*>(node)->latch.unlock_shared();
}

void UnlatchExclusive(CNode* node) {
  node->latch.unlock();
}

// NodeLatch's own methods may touch the underlying primitive.
class NodeLatch {
 public:
  void Acquire() { impl_.latch.lock(); }
  void Release() { impl_.latch.unlock(); }

 private:
  CNode impl_;
};

// Callers go through the wrappers; no raw member calls here.
int ReadCount(const CNode* node) {
  LatchShared(node);
  int count = node->count;
  UnlatchShared(node);
  return count;
}

// Adapters over some other mutex are not a latch bypass.
std::mutex latch_stats_mu;
void LockStats() {
  std::lock_guard<std::mutex> guard(latch_stats_mu);
  std::unique_lock deduced(latch_stats_mu);
}

// A local mutex that happens to be called `latch` is no node's latch.
void LocalLatch() {
  std::mutex latch;
  latch.lock();
  latch.unlock();
}

// A TSA annotation naming the latch is not a member call and must not match.
void AnnotatedOnly(const CNode& node);
// (in the real tree: CBTREE_REQUIRES_SHARED(node.latch) on declarations)

}  // namespace cbtree
