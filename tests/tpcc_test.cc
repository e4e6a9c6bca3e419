// End-to-end validation of the TPC-C implementation used by the paper's
// Figures 13-16: population invariants, the five transactions, the spec's
// consistency conditions under concurrency, and table-placement variants.

#include "bench/common/tpcc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace skeena::bench {
namespace {

TpccConfig SmallConfig() {
  TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_wh = 4;
  cfg.customers_per_district = 30;
  cfg.items = 200;
  cfg.pool_fraction = 2.0;
  return cfg;
}

TEST(TpccTest, PopulationSatisfiesConsistency) {
  Tpcc tpcc(SmallConfig());
  EXPECT_TRUE(tpcc.CheckConsistency().ok());
}

TEST(TpccTest, NewOrderAdvancesDistrictCounter) {
  Tpcc tpcc(SmallConfig());
  Rng rng(1);
  uint64_t q = 0;
  int committed = 0;
  for (int i = 0; i < 20; ++i) {
    if (tpcc.NewOrder(rng, 1, &q).ok()) committed++;
  }
  EXPECT_GT(committed, 0);
  EXPECT_TRUE(tpcc.CheckConsistency().ok())
      << "order ids must stay dense per district";
}

TEST(TpccTest, PaymentUpdatesYtdConsistently) {
  Tpcc tpcc(SmallConfig());
  Rng rng(2);
  uint64_t q = 0;
  for (int i = 0; i < 30; ++i) {
    tpcc.Payment(rng, 1, &q);
  }
  EXPECT_TRUE(tpcc.CheckConsistency().ok())
      << "W_YTD must equal sum of D_YTD after payments";
}

TEST(TpccTest, DeliveryDrainsNewOrders) {
  TpccConfig cfg = SmallConfig();
  cfg.warehouses = 1;
  Tpcc tpcc(cfg);
  Rng rng(3);
  uint64_t q = 0;
  // The load leaves 1/3 of orders undelivered; repeated Delivery must
  // drain them and keep consistency.
  for (int i = 0; i < cfg.customers_per_district; ++i) {
    Status s = tpcc.Delivery(rng, 1, &q);
    ASSERT_TRUE(s.ok() || s.IsAnyAbort()) << s.ToString();
  }
  EXPECT_TRUE(tpcc.CheckConsistency().ok());
}

TEST(TpccTest, OrderStatusAndStockLevelAreReadOnly) {
  Tpcc tpcc(SmallConfig());
  Rng rng(4);
  uint64_t q0 = 0;
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(tpcc.OrderStatus(rng, 1, &q0).ok());
    EXPECT_TRUE(tpcc.StockLevel(rng, 1, &q0).ok());
  }
  EXPECT_GT(q0, 40u) << "queries must be counted";
  // Read-only transactions still post-commit every engine they read.
  EXPECT_GE(tpcc.db()->mem()->stats().commits +
                tpcc.db()->stor()->stats().commits,
            40u);
  EXPECT_TRUE(tpcc.CheckConsistency().ok());
}

TEST(TpccTest, MixRunsAllTransactionTypes) {
  Tpcc tpcc(SmallConfig());
  Rng rng(5);
  uint64_t q = 0;
  int committed = 0;
  for (int i = 0; i < 200; ++i) {
    Status s = tpcc.RunMix(0, rng, &q);
    if (s.ok()) committed++;
    ASSERT_TRUE(s.ok() || s.IsAnyAbort()) << s.ToString();
  }
  EXPECT_GT(committed, 150);
  EXPECT_TRUE(tpcc.CheckConsistency().ok());
}

// The paper's placement experiments: the same workload must stay correct
// for every home-engine assignment.
class TpccPlacementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TpccPlacementTest, ConsistencyHoldsUnderConcurrencyPerPlacement) {
  size_t n_mem = GetParam();
  TpccConfig cfg = SmallConfig();
  const auto& order = Tpcc::PlacementOrder();
  for (size_t i = 0; i < n_mem && i < order.size(); ++i) {
    cfg.mem_tables.insert(order[i]);
  }
  Tpcc tpcc(cfg);

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::atomic<uint64_t> commits{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(100 + t);
      uint64_t q = 0;
      for (int i = 0; i < 100; ++i) {
        if (tpcc.RunMix(t, rng, &q).ok()) commits.fetch_add(1);
      }
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_GT(commits.load(), 100u);
  EXPECT_TRUE(tpcc.CheckConsistency().ok())
      << "placement with " << n_mem << " memory tables broke consistency";
}

INSTANTIATE_TEST_SUITE_P(Placements, TpccPlacementTest,
                         ::testing::Values(0, 1, 3, 7, 9));

TEST(TpccTest, CrossEnginePlacementProducesCsrTraffic) {
  TpccConfig cfg = SmallConfig();
  cfg.mem_tables = {"customer", "item"};  // New-Order-Opt
  Tpcc tpcc(cfg);
  Rng rng(6);
  uint64_t q = 0;
  for (int i = 0; i < 50; ++i) tpcc.RunMix(0, rng, &q);
  EXPECT_GT(tpcc.db()->csr().stats().accesses, 0u);
}

TEST(TpccTest, SkeenaOffStillRunsButUncoordinated) {
  TpccConfig cfg = SmallConfig();
  cfg.skeena_on = false;
  cfg.mem_tables = {"customer"};
  Tpcc tpcc(cfg);
  Rng rng(7);
  uint64_t q = 0;
  int committed = 0;
  for (int i = 0; i < 100; ++i) {
    if (tpcc.RunMix(0, rng, &q).ok()) committed++;
  }
  EXPECT_GT(committed, 50);
  EXPECT_EQ(tpcc.db()->csr().stats().accesses, 0u);
}

TEST(TpccTest, FixedHomeWarehouseBindsThreads) {
  TpccConfig cfg = SmallConfig();
  cfg.fixed_home_warehouse = true;
  Tpcc tpcc(cfg);
  Rng rng(8);
  EXPECT_EQ(tpcc.HomeWarehouse(0, rng), 1);
  EXPECT_EQ(tpcc.HomeWarehouse(1, rng), 2);
  EXPECT_EQ(tpcc.HomeWarehouse(2, rng), 1);  // wraps around 2 warehouses
}

}  // namespace
}  // namespace skeena::bench
