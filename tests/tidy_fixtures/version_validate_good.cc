// Negative fixture for cbtree-version-validate.
#include <cstdint>

namespace cbtree {

struct OlcNode;
bool ReadLockOrRestart(const OlcNode* node, uint64_t* version);
bool Validate(const OlcNode* node, uint64_t version);
bool UpgradeLockOrRestart(OlcNode* node, uint64_t version);
int KeyAt(const OlcNode* node, int index);
const OlcNode* ChildAt(const OlcNode* node, int index);
struct Tree {
  bool Validate(const OlcNode* node, uint64_t version);
};

// Stamp taken, data read, stamp validated, result consumed: the canonical
// optimistic read.
bool ReadValidated(const OlcNode* node, int* out) {
  uint64_t v = 0;
  if (!ReadLockOrRestart(node, &v)) return false;
  int k = KeyAt(node, 0);
  if (!Validate(node, v)) return false;
  *out = k;
  return true;
}

// Stamp consumed by the lock upgrade instead of a plain validate.
bool UpgradeConsumes(OlcNode* node) {
  uint64_t v = 0;
  if (!ReadLockOrRestart(const_cast<const OlcNode*>(node), &v)) return false;
  return UpgradeLockOrRestart(node, v);
}

// Hand-off: the child stamp becomes the loop stamp, which the next
// iteration validates. Mirrors SearchAttempt's descent loop.
bool DescendHandsOff(const OlcNode* node, int* out) {
  uint64_t v = 0;
  if (!ReadLockOrRestart(node, &v)) return false;
  for (int level = 3; level > 1; --level) {
    uint64_t cv = 0;
    const OlcNode* child = ChildAt(node, 0);
    if (!ReadLockOrRestart(child, &cv)) return false;
    if (!Validate(node, v)) return false;
    node = child;
    v = cv;
  }
  *out = KeyAt(node, 0);
  return Validate(node, v);
}

// A stamp on a computed node, consumed through a member Validate.
bool ReadChildValidated(Tree* tree, const OlcNode* node, int* out) {
  uint64_t cv = 0;
  if (!ReadLockOrRestart(ChildAt(node, 0), &cv)) return false;
  *out = KeyAt(node, 0);
  if (!tree->Validate(ChildAt(node, 0), cv)) return false;
  return true;
}

// A local atomic that happens to be called `version` is no node's word.
void BumpLocalCounter() {
  std::atomic<uint64_t> version{0};
  version.fetch_add(1);
}

}  // namespace cbtree
