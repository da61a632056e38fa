// The OLC tree's dedicated battery: deterministic restart injection through
// the descent hook (a reader whose snapshot is invalidated mid-descent must
// restart and never return stale data), empty-leaf unlink + epoch
// reclamation accounting, an 8-thread mixed-op stress with an exact
// post-hoc oracle, and a sharded-server end-to-end over --protocol=olc.
//
// The concurrent cases are the sanitizer payload: the TSAN suite proves the
// latch-free readers race-free, the ASan suite proves epoch reclamation
// never frees a node a guard can still reach.

#include "ctree/olc_tree.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ctree/ctree.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "stats/rng.h"

namespace cbtree {
namespace {

// ---------------------------------------------------------------------------
// Deterministic restart injection.
// ---------------------------------------------------------------------------

// Hook state: bump the version of the first `budget` nodes a reader visits.
struct BumpState {
  std::atomic<int> budget{0};
  std::atomic<int> fired{0};
};

void BumpHook(void* arg, OlcNode* node) {
  auto* state = static_cast<BumpState*>(arg);
  int remaining = state->budget.load(std::memory_order_relaxed);
  while (remaining > 0) {
    if (state->budget.compare_exchange_weak(remaining, remaining - 1,
                                            std::memory_order_relaxed)) {
      OlcTree::BumpVersionForTest(node);
      state->fired.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
}

TEST(OlcRestartInjectionTest, BumpedVersionForcesReaderRestart) {
  OlcTree tree(4);
  for (Key k = 0; k < 400; ++k) ASSERT_TRUE(tree.Insert(k, k * 7));
  ASSERT_GT(tree.stats().splits, 0u) << "need a multi-level tree";

  BumpState state;
  tree.SetDescendHookForTest(&BumpHook, &state);

  // Every descent's version stamp is invalidated `budget` times before the
  // search is allowed through; each invalidation must cost exactly one
  // restart, and the final answer must still be exact.
  for (int budget = 1; budget <= 4; ++budget) {
    state.budget.store(budget, std::memory_order_relaxed);
    state.fired.store(0, std::memory_order_relaxed);
    uint64_t restarts_before = tree.stats().restarts;
    auto found = tree.Search(123);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, 123 * 7);
    EXPECT_EQ(state.fired.load(), budget) << "hook must fire budget times";
    EXPECT_GE(tree.stats().restarts - restarts_before,
              static_cast<uint64_t>(budget))
        << "every bumped stamp must force a restart";
  }

  tree.SetDescendHookForTest(nullptr, nullptr);
  uint64_t quiet = tree.stats().restarts;
  EXPECT_TRUE(tree.Search(123).has_value());
  EXPECT_EQ(tree.stats().restarts, quiet)
      << "no hook, no contention: the descent must validate first try";
}

// Hook that overwrites the value stored beside `key` in whatever leaf holds
// it, then bumps the version — simulating a writer that slipped in during
// the reader's residence in the node. The reader must restart and report
// the post-write value, never a torn or superseded one.
struct MutateState {
  Key key = 0;
  Value fresh = 0;
  std::atomic<int> budget{0};
};

void MutateHook(void* arg, OlcNode* node) {
  auto* state = static_cast<MutateState*>(arg);
  if (node->level.load(std::memory_order_relaxed) != 1) return;
  if (state->budget.fetch_sub(1, std::memory_order_relaxed) <= 0) {
    state->budget.store(0, std::memory_order_relaxed);
    return;
  }
  int count = node->count.load(std::memory_order_relaxed);
  for (int i = 0; i < count; ++i) {
    if (node->keys[i].load(std::memory_order_relaxed) == state->key) {
      node->values[i].store(state->fresh, std::memory_order_relaxed);
      OlcTree::BumpVersionForTest(node);
      return;
    }
  }
}

TEST(OlcRestartInjectionTest, ReaderNeverReturnsSupersededValue) {
  OlcTree tree(4);
  for (Key k = 0; k < 400; ++k) ASSERT_TRUE(tree.Insert(k, 1));

  MutateState state;
  state.key = 250;
  state.fresh = 2;
  state.budget.store(1, std::memory_order_relaxed);
  tree.SetDescendHookForTest(&MutateHook, &state);

  uint64_t restarts_before = tree.stats().restarts;
  auto found = tree.Search(250);
  tree.SetDescendHookForTest(nullptr, nullptr);

  ASSERT_TRUE(found.has_value());
  // The write landed during the reader's leaf residence and bumped the
  // version: the reader restarted and must report the new value.
  EXPECT_EQ(*found, 2) << "validation let a superseded snapshot through";
  EXPECT_GT(tree.stats().restarts, restarts_before);
}

// ---------------------------------------------------------------------------
// Empty-leaf unlink and epoch reclamation accounting.
// ---------------------------------------------------------------------------

TEST(OlcUnlinkTest, EmptiedLeavesAreUnlinkedAndRetired) {
  OlcTree tree(4);
  constexpr Key kKeys = 2000;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k));
  // Delete everything: most leaves empty and must be spliced out (the
  // leftmost leaf per parent is kept — the unlink needs a left sibling).
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Delete(k));

  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.CountKeys(), 0u);
  tree.CheckInvariants();
  EXPECT_GT(tree.unlinks(), 100u)
      << "a full drain of 2000 keys at node_size 4 must unlink many leaves";

  EpochStats epoch = tree.epoch_stats();
  EXPECT_EQ(epoch.retired, tree.unlinks())
      << "every unlinked leaf is retired, nothing else is";
  EXPECT_LE(epoch.freed, epoch.retired);
  EXPECT_EQ(epoch.pending, epoch.retired - epoch.freed);
  // Each unlink's Retire pass reclaims everything the previous operations
  // retired (their pins have moved on); only the final unlink's own leaf
  // can still be pending, held back by its own operation's guard.
  EXPECT_LE(epoch.pending, 1u) << "quiescent epochs must have drained";

  // The structure must remain fully usable after mass reclamation.
  for (Key k = 0; k < kKeys; k += 7) {
    EXPECT_FALSE(tree.Search(k).has_value()) << k;
    ASSERT_TRUE(tree.Insert(k, k * 2));
    EXPECT_EQ(tree.Search(k).value(), k * 2);
  }
  tree.CheckInvariants();
}

TEST(OlcUnlinkTest, ConcurrentDrainStaysConsistent) {
  // 8 threads delete a fully-populated tree while others search it: the
  // unlink try-lock chains race each other and the readers race the
  // splices. Post-hoc the tree must be empty and invariant-clean.
  OlcTree tree(4);
  constexpr int kThreads = 8;
  constexpr Key kKeys = 8000;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      if (t % 2 == 0) {
        // Deleters partition the key space.
        for (Key k = t / 2; k < kKeys; k += kThreads / 2) {
          ASSERT_TRUE(tree.Delete(k)) << k;
        }
      } else {
        // Readers sweep; hits shrink toward zero but must never misread.
        Rng rng(500 + t);
        for (int i = 0; i < 40000; ++i) {
          Key key = static_cast<Key>(rng.NextBounded(kKeys));
          auto found = tree.Search(key);
          if (found.has_value()) {
            ASSERT_EQ(*found, key);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.CountKeys(), 0u);
  tree.CheckInvariants();
  EXPECT_GT(tree.unlinks(), 0u);
  EpochStats epoch = tree.epoch_stats();
  EXPECT_EQ(epoch.retired, tree.unlinks());
  EXPECT_EQ(epoch.pending, epoch.retired - epoch.freed);
}

// ---------------------------------------------------------------------------
// Mixed-op stress with an exact post-hoc oracle (the ctree_test pattern,
// tightened: smaller nodes and a delete-heavy mix so splits, restarts AND
// unlinks all fire while the oracle watches).
// ---------------------------------------------------------------------------

TEST(OlcStressTest, MixedOpsMatchExactOracle) {
  OlcTree tree(4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 15000;
  constexpr Key kKeySpan = 12000;

  for (Key k = 0; k < kKeySpan; k += 2) tree.Insert(k, k * 13);
  std::vector<std::map<Key, Value>> oracles(kThreads);
  for (Key k = 0; k < kKeySpan; k += 2) oracles[k % kThreads][k] = k * 13;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, &oracles, t] {
      std::map<Key, Value>& oracle = oracles[t];
      Rng rng(6200 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Thread t owns keys ≡ t (mod kThreads): adjacent keys share leaves
        // but never writers, so the local oracle stays exact mid-stress.
        Key key = static_cast<Key>(rng.NextBounded(kKeySpan / kThreads)) *
                      kThreads +
                  t;
        uint64_t dice = rng.NextBounded(100);
        if (dice < 35) {
          Value value = static_cast<Value>(rng.Next() & 0xffffff);
          ASSERT_EQ(tree.Insert(key, value),
                    oracle.insert_or_assign(key, value).second);
        } else if (dice < 70) {
          ASSERT_EQ(tree.Delete(key), oracle.erase(key) > 0);
        } else if (dice < 95) {
          auto found = tree.Search(key);
          auto it = oracle.find(key);
          ASSERT_EQ(found.has_value(), it != oracle.end()) << key;
          if (found.has_value()) {
            ASSERT_EQ(*found, it->second);
          }
        } else {
          Key lo = static_cast<Key>(rng.NextBounded(kKeySpan));
          std::vector<std::pair<Key, Value>> out;
          tree.Scan(lo, lo + 300, 1000, &out);
          Key last = std::numeric_limits<Key>::min();
          for (const auto& [k, v] : out) {
            ASSERT_GE(k, lo);
            ASSERT_LE(k, lo + 300);
            ASSERT_GT(k, last);
            last = k;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  tree.CheckInvariants();
  size_t expected_size = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_size += oracles[t].size();
    for (const auto& [key, value] : oracles[t]) {
      auto found = tree.Search(key);
      ASSERT_TRUE(found.has_value()) << "thread " << t << " key " << key;
      ASSERT_EQ(*found, value) << "thread " << t << " key " << key;
    }
  }
  EXPECT_EQ(tree.size(), expected_size);
  EXPECT_EQ(tree.CountKeys(), expected_size);

  // Absent keys stay absent (sampled).
  Rng rng(93);
  for (int i = 0; i < 2000; ++i) {
    Key key = static_cast<Key>(rng.NextBounded(kKeySpan));
    bool in_oracle = oracles[key % kThreads].count(key) > 0;
    ASSERT_EQ(tree.Search(key).has_value(), in_oracle) << key;
  }

  // Epoch accounting must balance whatever the unlink races produced.
  EpochStats epoch = tree.epoch_stats();
  EXPECT_EQ(epoch.retired, tree.unlinks());
  EXPECT_EQ(epoch.pending, epoch.retired - epoch.freed);
}

// ---------------------------------------------------------------------------
// Sharded-server end-to-end over --protocol=olc: delete-heavy traffic so
// epoch reclamation runs inside the serving path, with an exact per-client
// oracle against the quiescent shard trees (the net_shard_test pattern).
// ---------------------------------------------------------------------------

TEST(OlcServerTest, ShardedServingWithDeleteHeavyTrafficMatchesOracle) {
  constexpr int kShards = 4;
  net::ServerOptions options;
  options.host = "127.0.0.1";
  options.port = 0;
  options.algorithm = Algorithm::kOlc;
  options.shards = kShards;
  options.loops = 2;
  options.node_size = 4;  // small nodes: unlinks fire during serving
  options.drain_timeout_ms = 10000;
  net::Server server(options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kClients = 4;
  constexpr int kOpsPerClient = 400;
  constexpr Key kRangeStride = 100000;
  std::atomic<int> failures{0};
  std::vector<std::map<Key, std::optional<Value>>> expected(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client;
      std::string err;
      if (!client.Connect("127.0.0.1", server.port(), &err)) {
        failures.fetch_add(1);
        return;
      }
      const Key base = static_cast<Key>(c + 1) * kRangeStride;
      for (int i = 0; i < kOpsPerClient; ++i) {
        Key key = base + static_cast<Key>(i % 64);
        Value value = static_cast<Value>(10000 * c + i);
        // Insert-then-mostly-delete churn: leaves fill, empty and unlink
        // while other clients' traffic shares the shard trees.
        if (i % 3 != 2) {
          if (!client.Insert(key, value).has_value()) {
            failures.fetch_add(1);
            return;
          }
          expected[c][key] = value;
        } else {
          if (!client.Delete(key).has_value()) {
            failures.fetch_add(1);
            return;
          }
          expected[c][key] = std::nullopt;
        }
      }
      client.Close();
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  server.Shutdown();
  server.CheckAllInvariants();

  for (int c = 0; c < kClients; ++c) {
    for (const auto& [key, value] : expected[c]) {
      const int home = net::ShardOfKey(key, kShards);
      std::optional<Value> found = server.tree(home)->Search(key);
      if (value.has_value()) {
        ASSERT_TRUE(found.has_value()) << "key " << key;
        EXPECT_EQ(*found, *value) << "key " << key;
      } else {
        EXPECT_FALSE(found.has_value()) << "key " << key;
      }
      for (int other = 0; other < kShards; ++other) {
        if (other != home) {
          EXPECT_FALSE(server.tree(other)->Search(key).has_value())
              << "key " << key << " leaked into shard " << other;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cbtree
