// Negative fixture for cbtree-epoch-guard: no line here may be diagnosed.
#include "base/epoch.h"
#include "base/thread_annotations.h"

namespace cbtree {

struct OlcNode {
  int keys[8];
  OlcNode* children[8];
  int count;
};

class EpochManager;
struct Stats {
  int count;
};
Stats* GetStats();
template <typename F>
void Defer(F fn);
// A function returning a guard is not a namespace-scope guard.
EpochGuard PinFor(EpochManager* mgr);

// A live guard before the first node access: fine.
int ReadFirstKey(EpochManager* mgr, OlcNode* node) {
  EpochGuard guard(mgr);
  return node->keys[0];
}

// Contract markers push the obligation to the caller: fine.
int ReadUnderCallerGuard(OlcNode* node) CBTREE_REQUIRES_EPOCH {
  return node->keys[node->count - 1];
}

OlcNode* BuildUnpublished(OlcNode* proto) CBTREE_EPOCH_QUIESCENT {
  proto->keys[0] = 1;
  return proto;
}

// Retire under a guard: fine.
void RetireGuarded(EpochManager* mgr, OlcNode* node) {
  EpochGuard guard(mgr);
  RetireObject(mgr, node);
}

// Functions that never touch a node may use EpochGuard freely.
void PinBriefly(EpochManager* mgr) {
  EpochGuard guard(mgr);
}

// A pointer from a function that does not return a node is not a node.
int StatsCount() {
  auto* s = GetStats();
  return s->count;
}

// A container's count() is a method call, not the node field.
bool Seen(const std::set<OlcNode*>& seen, OlcNode* node) {
  return seen.count(node) > 0;
}

// A lambda that takes its own guard.
void ReadInGuardedLambda(EpochManager* mgr, OlcNode* node) {
  Defer([mgr, node] {
    EpochGuard guard(mgr);
    return node->keys[0];
  });
}

// A NOLINT escape must be honored.
int SuppressedAccess(OlcNode* node) {
  return node->keys[0];  // NOLINT(cbtree-epoch-guard)
}

}  // namespace cbtree
