// Positive fixture for cbtree-version-validate.
#include <cstdint>

namespace cbtree {

struct OlcNode;
bool ReadLockOrRestart(const OlcNode* node, uint64_t* version);
bool Validate(const OlcNode* node, uint64_t version);
bool UpgradeLockOrRestart(OlcNode* node, uint64_t version);
int KeyAt(const OlcNode* node, int index);
const OlcNode* ChildAt(const OlcNode* node, int index);
struct Tree {
  static bool Validate(const OlcNode* node, uint64_t version);
};

// The stamp is taken but never validated: stale data escapes.
int ReadWithoutValidate(const OlcNode* node) {
  uint64_t v = 0;
  ReadLockOrRestart(node, &v);  // expect-diag: cbtree-version-validate
  return KeyAt(node, 0);
}

// Validate called, result thrown away: proves nothing.
int DiscardedValidate(const OlcNode* node) {
  uint64_t v = 0;
  if (!ReadLockOrRestart(node, &v)) return -1;
  int k = KeyAt(node, 0);
  Validate(node, v);  // expect-diag: cbtree-version-validate
  return k;
}

struct RawNode {
  struct Word {
    void store(uint64_t value);
    uint64_t fetch_add(uint64_t delta);
  } version;
};

// Raw version-word mutation outside the named primitives.
void SmashVersion(RawNode* node) {
  node->version.store(0);  // expect-diag: cbtree-version-validate
}

void BumpVersionSideways(RawNode* node) {
  node->version.fetch_add(4);  // expect-diag: cbtree-version-validate
}

// The stamped node is computed inline; the stamp is still never validated.
int ReadChildWithoutValidate(const OlcNode* node) {
  uint64_t cv = 0;
  ReadLockOrRestart(ChildAt(node, 0), &cv);  // expect-diag: cbtree-version-validate
  return KeyAt(node, 0);
}

// Copying the stamp into a new variable is not a hand-off to a validate.
uint64_t CopyStampOnly(const OlcNode* node) {
  uint64_t v = 0;
  if (!ReadLockOrRestart(node, &v)) return 0;  // expect-diag: cbtree-version-validate
  uint64_t saved = v;
  return saved;
}

// A qualified Validate whose result is thrown away proves nothing either.
int DiscardedQualifiedValidate(const OlcNode* node) {
  uint64_t v = 0;
  if (!ReadLockOrRestart(node, &v)) return -1;
  int k = KeyAt(node, 0);
  Tree::Validate(node, v);  // expect-diag: cbtree-version-validate
  return k;
}

// A node method mutating its own version word (implicit this).
struct SelfBumpingNode {
  RawNode::Word version;
  void Bump() {
    version.fetch_add(4);  // expect-diag: cbtree-version-validate
  }
};

}  // namespace cbtree
