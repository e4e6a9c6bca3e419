#ifndef SKEENA_BENCH_COMMON_TPCC_H_
#define SKEENA_BENCH_COMMON_TPCC_H_

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/common/workload.h"
#include "core/skeena.h"

namespace skeena::bench {

/// TPC-C (paper Section 6.2, after Percona's sysbench-tpcc): all nine
/// tables, the five transaction types with the standard mix, remote
/// warehouse/customer percentages, and per-table engine placement — the
/// instrument behind Figures 13-16 and the Section 6.9 abort-rate study.
struct TpccConfig {
  int warehouses = 4;
  int districts_per_wh = 10;
  // Scaled down from the spec's 3000/100000 for laptop-scale runs
  // (SKEENA_BENCH_FULL restores spec-like sizes); shapes are preserved
  // because the transaction logic and access skew are per the spec.
  int customers_per_district = 120;
  uint32_t items = 2000;

  /// Tables homed in the memory engine; everything else goes to stordb.
  /// Names: warehouse district customer history new_orders orders
  /// order_line item stock.
  std::set<std::string> mem_tables;

  /// true = each connection works a fixed home warehouse (the paper's
  /// memory-resident setup); false = random warehouse per transaction
  /// (storage-resident setup).
  bool fixed_home_warehouse = false;

  int remote_payment_pct = 15;
  int remote_neworder_pct = 1;
  IsolationLevel isolation = IsolationLevel::kSnapshot;
  bool skeena_on = true;

  /// stordb buffer pool as a fraction of its data pages.
  double pool_fraction = 0.25;
  DeviceLatency data_latency = DeviceLatency::Tmpfs();
};

/// Applies env/BenchScale overrides (SKEENA_TPCC_WAREHOUSES, ...).
TpccConfig ScaledTpccConfig(TpccConfig base, const BenchScale& scale);

class Tpcc {
 public:
  /// Table names in the paper's Figure 13 bottom-up placement order.
  static const std::vector<std::string>& PlacementOrder();

  explicit Tpcc(const TpccConfig& config);

  Database* db() { return db_.get(); }
  const TpccConfig& config() const { return config_; }

  /// Standard mix (45/43/4/4/4). `thread_id` selects the home warehouse
  /// when fixed_home_warehouse is set.
  Status RunMix(int thread_id, Rng& rng, uint64_t* queries);

  // Individual transactions (Figures 14-15 run these standalone).
  Status NewOrder(Rng& rng, uint16_t w, uint64_t* queries);
  Status Payment(Rng& rng, uint16_t w, uint64_t* queries);
  Status OrderStatus(Rng& rng, uint16_t w, uint64_t* queries);
  Status Delivery(Rng& rng, uint16_t w, uint64_t* queries);
  Status StockLevel(Rng& rng, uint16_t w, uint64_t* queries);

  uint16_t HomeWarehouse(int thread_id, Rng& rng) const;

  /// TPC-C consistency conditions (subset): W_YTD == sum of D_YTD;
  /// D_NEXT_O_ID - 1 == max(O_ID) == max(NO_O_ID); order-line counts match
  /// O_OL_CNT. Used by the integration tests.
  Status CheckConsistency();

 private:
  void Populate();
  void PopulateWarehouse(uint16_t w);

  std::atomic<uint32_t>& NextDelivery(uint16_t w, uint8_t d) {
    return next_delivery_[w * (config_.districts_per_wh + 1) + d];
  }

  TpccConfig config_;
  std::unique_ptr<Database> db_;

  TableHandle warehouse_, district_, customer_, customer_by_name_, history_,
      new_orders_, orders_, orders_by_customer_, order_line_, item_, stock_;
  std::atomic<uint64_t> history_seq_{1};
  // Per-district Delivery scan start: one past the newest order a committed
  // Delivery removed from new_orders (the Silo/ERMIA TPC-C hint). stordb
  // keeps delete-marked rows in its index, so scanning from the district's
  // first order would step over every order delivered so far and Delivery
  // would slow down for the whole run. Indexed by NextDelivery(w, d).
  std::vector<std::atomic<uint32_t>> next_delivery_;
};

}  // namespace skeena::bench

#endif  // SKEENA_BENCH_COMMON_TPCC_H_
