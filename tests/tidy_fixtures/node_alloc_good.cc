// Negative fixture for cbtree-node-alloc.
#include "base/thread_annotations.h"

namespace cbtree {

struct OlcNode {
  OlcNode(int level, int capacity);
  int level;
};

class Tree {
 public:
  ~Tree();

 private:
  // The allocator path owns naked new.
  OlcNode* AllocateNode(int level) const;
  // Epoch-quiescent reclamation owns naked delete.
  void FreeRetired(OlcNode* node) CBTREE_EPOCH_QUIESCENT;

  OlcNode* root_;
};

OlcNode* Tree::AllocateNode(int level) const {
  return new OlcNode(level, 8);
}

void Tree::FreeRetired(OlcNode* node) CBTREE_EPOCH_QUIESCENT {
  delete node;
}

// Deleting something that is not a node is none of this check's business.
struct Scratch {};
Scratch* TakeScratch();
void FreeScratch(OlcNode* node) {
  auto* scratch = TakeScratch();
  delete scratch;
  delete static_cast<Scratch*>(nullptr);
}

// Destructors tear down quiescent trees.
Tree::~Tree() {
  OlcNode* node = root_;
  delete node;
}

}  // namespace cbtree
