// Positive fixture for cbtree-epoch-guard: every `expect-diag` line below
// must be reported, with the exact check name. Fixtures are analyzer input
// only — never compiled — so declarations are minimal stand-ins.
#include "base/epoch.h"

namespace cbtree {

struct OlcNode {
  int keys[8];
  OlcNode* children[8];
  int count;
  int Size() const;
};

class EpochManager;
OlcNode* Root();
template <typename F>
void Defer(F fn);

class LeakyCache {
 public:
  EpochManager* mgr;
  EpochGuard guard_;  // expect-diag: cbtree-epoch-guard
};

int ReadFirstKeyUnguarded(OlcNode* node) {
  return node->keys[0];  // expect-diag: cbtree-epoch-guard
}

int GuardTakenTooLate(EpochManager* mgr, OlcNode* node) {
  int k = node->keys[0];  // expect-diag: cbtree-epoch-guard
  EpochGuard guard(mgr);
  return k + node->keys[1];
}

void RetireUnguarded(EpochManager* mgr, OlcNode* node) {
  RetireObject(mgr, node);  // expect-diag: cbtree-epoch-guard
}

void HeapGuard(EpochManager* mgr) {
  EpochGuard* g = new EpochGuard(mgr);  // expect-diag: cbtree-epoch-guard
  delete g;
}

void StaticGuard(EpochManager* mgr) {
  static EpochGuard guard(mgr);  // expect-diag: cbtree-epoch-guard
  (void)guard;
}

// A namespace-scope guard has static storage without saying `static`.
EpochGuard process_pin(nullptr);  // expect-diag: cbtree-epoch-guard

// The pointer's type is never spelled in this function: it comes from a
// function declared to return an OlcNode pointer.
int ReadThroughUnspelledType() {
  auto* n = Root();
  return n->keys[0];  // expect-diag: cbtree-epoch-guard
}

// An atomic field read by implicit conversion: no `.load()`, no index.
int ReadCountImplicitly(OlcNode* node) {
  return node->count;  // expect-diag: cbtree-epoch-guard
}

// A member declared as an OlcNode pointer names a node in every method.
class RootHolder {
 public:
  int RootCount() const {
    return root_->count;  // expect-diag: cbtree-epoch-guard
  }

 private:
  OlcNode* root_;
};

// A node method reading its own field (implicit this).
int OlcNode::Size() const {
  return count;  // expect-diag: cbtree-epoch-guard
}

// The guard pins only its own scope; a lambda may run after it is gone.
void ReadInDeferredLambda(EpochManager* mgr, OlcNode* node) {
  EpochGuard guard(mgr);
  Defer([node] {
    return node->keys[0];  // expect-diag: cbtree-epoch-guard
  });
}

}  // namespace cbtree
