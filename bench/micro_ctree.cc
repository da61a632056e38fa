// Microbenchmarks of the threaded concurrent B-trees: per-protocol
// throughput single-threaded and under thread contention (google-benchmark
// ->Threads()). On a many-core machine the ranking mirrors the paper's:
// the B-link tree degrades least as writer concurrency grows.

#include <benchmark/benchmark.h>

#include <memory>

#include "ctree/ctree.h"
#include "stats/rng.h"

namespace cbtree {
namespace {

Algorithm AlgorithmFromArg(int64_t arg) { return static_cast<Algorithm>(arg); }

void BM_CTreeInsert(benchmark::State& state) {
  static std::unique_ptr<ConcurrentBTree> tree;
  if (state.thread_index() == 0) {
    tree = MakeConcurrentBTree(AlgorithmFromArg(state.range(0)), 64);
  }
  Rng rng(1000 + state.thread_index());
  for (auto _ : state) {
    tree->Insert(static_cast<Key>(rng.Next() >> 2), 1);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel(tree->name());
    tree.reset();
  }
}
BENCHMARK(BM_CTreeInsert)->DenseRange(0, 4)->Threads(1)->Threads(4);

void BM_CTreeSearch(benchmark::State& state) {
  static std::unique_ptr<ConcurrentBTree> tree;
  if (state.thread_index() == 0) {
    tree = MakeConcurrentBTree(AlgorithmFromArg(state.range(0)), 64);
    Rng rng(1);
    for (int i = 0; i < 100000; ++i) {
      tree->Insert(static_cast<Key>(rng.NextBounded(1 << 20)), i);
    }
  }
  Rng rng(55 + state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree->Search(static_cast<Key>(rng.NextBounded(1 << 20))));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel(tree->name());
    tree.reset();
  }
}
BENCHMARK(BM_CTreeSearch)->DenseRange(0, 4)->Threads(1)->Threads(4);

void BM_CTreeMixed(benchmark::State& state) {
  static std::unique_ptr<ConcurrentBTree> tree;
  if (state.thread_index() == 0) {
    tree = MakeConcurrentBTree(AlgorithmFromArg(state.range(0)), 64);
    for (Key k = 0; k < 50000; ++k) tree->Insert(k * 2, k);
  }
  Rng rng(99 + state.thread_index());
  for (auto _ : state) {
    Key key = static_cast<Key>(rng.NextBounded(200000));
    uint64_t dice = rng.NextBounded(10);
    if (dice < 3) {
      tree->Insert(key, key);
    } else if (dice < 5) {
      tree->Delete(key);
    } else {
      benchmark::DoNotOptimize(tree->Search(key));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel(tree->name());
    tree.reset();
  }
}
BENCHMARK(BM_CTreeMixed)->DenseRange(0, 4)->Threads(1)->Threads(4);

}  // namespace
}  // namespace cbtree

BENCHMARK_MAIN();
