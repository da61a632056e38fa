// Positive fixture for cbtree-node-alloc.

namespace cbtree {

struct OlcNode {
  OlcNode(int level, int capacity);
  int level;
};

struct CNode {
  explicit CNode(int level);
  int level;
};

void Publish(OlcNode* node);

// Naked new of a node type outside the arena/AllocateNode paths.
OlcNode* MakeDetachedLeaf() {
  return new OlcNode(1, 8);  // expect-diag: cbtree-node-alloc
}

void GrowSideways(CNode** out) {
  *out = new CNode(2);  // expect-diag: cbtree-node-alloc
}

// Naked delete of a node pointer outside destructor/reclamation paths:
// a reader may still hold this node.
void FreeEagerly(OlcNode* victim) {
  delete victim;  // expect-diag: cbtree-node-alloc
}

// Qualified and placement new are still naked node allocations.
OlcNode* MakeQualified() {
  return new cbtree::OlcNode(1, 8);  // expect-diag: cbtree-node-alloc
}

CNode* MakeInPlace(void* storage) {
  return new (storage) CNode(1);  // expect-diag: cbtree-node-alloc
}

// Deleting a node pointer that is cast, computed, or held under an
// unspelled type.
void FreeCast(void* raw) {
  delete static_cast<OlcNode*>(raw);  // expect-diag: cbtree-node-alloc
}

OlcNode* TakeRight(OlcNode* node);
void FreeComputed(OlcNode* node) {
  delete TakeRight(node);  // expect-diag: cbtree-node-alloc
}

void FreeUnspelled(OlcNode* node) {
  auto* right = TakeRight(node);
  delete right;  // expect-diag: cbtree-node-alloc
}

}  // namespace cbtree
