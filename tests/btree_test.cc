#include "storage/btree.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/sim_clock.h"

namespace disco {
namespace storage {
namespace {

struct Env {
  SimClock clock;
  BufferPool pool{&clock, 4096, 1.0};
};

TEST(BTreeTest, EmptySearches) {
  Env env;
  BTree tree(&env.pool, 0);
  auto eq = tree.SearchEq(Value(int64_t{5}));
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(eq->empty());
  auto all = tree.SearchRange(std::nullopt, std::nullopt);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->empty());
}

TEST(BTreeTest, InsertAndPointLookup) {
  Env env;
  BTree tree(&env.pool, 0, /*fanout=*/8);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(Value(i * 2), RID{static_cast<PageId>(i), 0})
                    .ok());
  }
  EXPECT_EQ(tree.num_entries(), 1000);
  EXPECT_GT(tree.height(), 1);

  auto hit = tree.SearchEq(Value(int64_t{500}));
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].page, 250u);

  auto miss = tree.SearchEq(Value(int64_t{501}));  // odd: absent
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->empty());
}

TEST(BTreeTest, DuplicateKeys) {
  Env env;
  BTree tree(&env.pool, 0, /*fanout=*/4);
  for (uint16_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree.Insert(Value(int64_t{7}), RID{0, i}).ok());
  }
  ASSERT_TRUE(tree.Insert(Value(int64_t{8}), RID{1, 0}).ok());
  auto dups = tree.SearchEq(Value(int64_t{7}));
  ASSERT_TRUE(dups.ok());
  EXPECT_EQ(dups->size(), 50u);
}

TEST(BTreeTest, RangeBoundsInclusiveExclusive) {
  Env env;
  BTree tree(&env.pool, 0, /*fanout=*/6);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(Value(i), RID{static_cast<PageId>(i), 0}).ok());
  }
  auto closed = tree.SearchRange(BTree::Bound{Value(int64_t{10}), true},
                                 BTree::Bound{Value(int64_t{20}), true});
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(closed->size(), 11u);

  auto open = tree.SearchRange(BTree::Bound{Value(int64_t{10}), false},
                               BTree::Bound{Value(int64_t{20}), false});
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open->size(), 9u);

  auto below = tree.SearchRange(std::nullopt,
                                BTree::Bound{Value(int64_t{5}), true});
  ASSERT_TRUE(below.ok());
  EXPECT_EQ(below->size(), 6u);

  auto above = tree.SearchRange(BTree::Bound{Value(int64_t{95}), true},
                                std::nullopt);
  ASSERT_TRUE(above.ok());
  EXPECT_EQ(above->size(), 5u);
}

TEST(BTreeTest, StringKeys) {
  Env env;
  BTree tree(&env.pool, 0, /*fanout=*/4);
  ASSERT_TRUE(tree.Insert(Value("Adiba"), RID{1, 0}).ok());
  ASSERT_TRUE(tree.Insert(Value("Valduriez"), RID{2, 0}).ok());
  ASSERT_TRUE(tree.Insert(Value("Naacke"), RID{3, 0}).ok());
  auto r = tree.SearchRange(BTree::Bound{Value("B"), true},
                            BTree::Bound{Value("Z"), true});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(BTreeTest, MixedKeyTypesRejected) {
  Env env;
  BTree tree(&env.pool, 0);
  ASSERT_TRUE(tree.Insert(Value(int64_t{1}), RID{0, 0}).ok());
  EXPECT_TRUE(tree.Insert(Value("x"), RID{0, 1}).IsInvalidArgument());
}

TEST(BTreeTest, SearchChargesBufferPool) {
  Env env;
  BTree tree(&env.pool, 0, /*fanout=*/8);
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(Value(i), RID{0, 0}).ok());
  }
  env.pool.Clear();
  env.pool.ResetStats();
  ASSERT_TRUE(tree.SearchEq(Value(int64_t{1500})).ok());
  // A point probe touches one node per level, plus at most one extra
  // leaf when duplicates could straddle a split boundary.
  EXPECT_GE(env.pool.misses(), tree.height());
  EXPECT_LE(env.pool.misses(), tree.height() + 1);
}

// Property: against a brute-force mirror, under several fanouts and
// insertion orders.
struct BTreeCase {
  int fanout;
  bool shuffled;
  int n;
};

// Prints a case as `fanout <f>, shuffled|sorted, <n> keys`. The default
// byte dump would include the uninitialised padding after `shuffled`, so
// the case's test name would change from run to run.
void PrintTo(const BTreeCase& c, std::ostream* os) {
  *os << "fanout " << c.fanout << ", " << (c.shuffled ? "shuffled" : "sorted")
      << ", " << c.n << " keys";
}

class BTreePropertyTest : public ::testing::TestWithParam<BTreeCase> {};

TEST_P(BTreePropertyTest, MatchesBruteForce) {
  const BTreeCase& c = GetParam();
  Env env;
  BTree tree(&env.pool, 0, c.fanout);
  std::vector<int64_t> keys;
  Rng rng(42);
  for (int i = 0; i < c.n; ++i) {
    keys.push_back(rng.NextInt64(0, c.n / 2));  // duplicates likely
  }
  if (!c.shuffled) std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree.Insert(Value(keys[i]),
                            RID{static_cast<PageId>(i), 0})
                    .ok());
  }

  // Point lookups.
  for (int64_t probe : {int64_t{0}, int64_t{c.n / 4}, int64_t{c.n}}) {
    auto got = tree.SearchEq(Value(probe));
    ASSERT_TRUE(got.ok());
    size_t expected = static_cast<size_t>(
        std::count(keys.begin(), keys.end(), probe));
    EXPECT_EQ(got->size(), expected) << "probe " << probe;
  }

  // Range scan returns keys in order and the right count.
  int64_t lo = c.n / 8, hi = c.n / 3;
  auto got = tree.SearchRange(BTree::Bound{Value(lo), true},
                              BTree::Bound{Value(hi), true});
  ASSERT_TRUE(got.ok());
  size_t expected = 0;
  for (int64_t k : keys) {
    if (k >= lo && k <= hi) ++expected;
  }
  EXPECT_EQ(got->size(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreePropertyTest,
    ::testing::Values(BTreeCase{4, true, 500}, BTreeCase{4, false, 500},
                      BTreeCase{16, true, 2000}, BTreeCase{16, false, 2000},
                      BTreeCase{128, true, 5000},
                      BTreeCase{340, true, 10000}));

}  // namespace
}  // namespace storage
}  // namespace disco
