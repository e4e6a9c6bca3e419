#include "bench/common/tpcc.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/env.h"
#include "stordb/page.h"

namespace skeena::bench {

namespace {

// ------------------------------------------------------------- row formats
// Fixed-size packed rows, padded toward the spec's row sizes so buffer-pool
// pressure is comparable (warehouse ~89B, district ~95B, customer ~655B,
// item ~82B, stock ~306B, orders ~24B, order_line ~54B, new_order 8B,
// history ~46B).

struct WarehouseRow {
  double tax;
  double ytd;
  char filler[73];
};

struct DistrictRow {
  double tax;
  double ytd;
  uint32_t next_o_id;
  char filler[75];
};

struct CustomerRow {
  double balance;
  double ytd_payment;
  double discount;
  uint32_t payment_cnt;
  uint32_t delivery_cnt;
  char last[16];
  char credit[2];
  char filler[600];
};

struct HistoryRow {
  double amount;
  char filler[38];
};

struct NewOrderRow {
  uint32_t o_id;
  char filler[4];
};

struct OrderRow {
  uint32_t c_id;
  uint32_t carrier_id;
  uint32_t ol_cnt;
  uint64_t entry_d;
  char filler[4];
};

struct OrderLineRow {
  uint32_t i_id;
  uint16_t supply_w_id;
  uint16_t quantity;
  double amount;
  uint64_t delivery_d;
  char filler[30];
};

struct ItemRow {
  double price;
  uint32_t im_id;
  char name[24];
  char filler[46];
};

struct StockRow {
  uint32_t quantity;
  uint32_t ytd;
  uint32_t order_cnt;
  uint32_t remote_cnt;
  char filler[290];
};

template <typename T>
std::string_view RowBytes(const T& row) {
  return {reinterpret_cast<const char*>(&row), sizeof(T)};
}

template <typename T>
bool DecodeRow(const std::string& bytes, T* row) {
  if (bytes.size() != sizeof(T)) return false;
  std::memcpy(row, bytes.data(), sizeof(T));
  return true;
}

// Populate batches must survive transient aborts (concurrent loaders can
// trip Skeena's commit-ordering check); a silently dropped batch would
// corrupt the initial database.
template <typename Fn>
void CommitWithRetry(Database* db, Fn&& fill) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    auto txn = db->Begin(IsolationLevel::kSnapshot);
    if (!fill(txn.get())) continue;
    if (txn->Commit().ok()) return;
  }
  std::fprintf(stderr, "populate batch failed 1000 times\n");
  std::abort();
}

// TPC-C last-name syllables (spec 4.3.2.3).
const char* kSyllables[10] = {"BAR", "OUGHT", "ABLE",  "PRI",   "PRES",
                              "ESE", "ANTI",  "CALLY", "ATION", "EING"};

void LastName(uint64_t num, char out[16]) {
  std::string s = std::string(kSyllables[(num / 100) % 10]) +
                  kSyllables[(num / 10) % 10] + kSyllables[num % 10];
  std::memset(out, 0, 16);
  std::memcpy(out, s.data(), std::min<size_t>(s.size(), 15));
}

// ------------------------------------------------------------------- keys

Key WarehouseKey(uint16_t w) {
  KeyBuilder b;
  b.AppendU16(w);
  return b.Build();
}
Key DistrictKey(uint16_t w, uint8_t d) {
  KeyBuilder b;
  b.AppendU16(w).AppendU8(d);
  return b.Build();
}
Key CustomerKey(uint16_t w, uint8_t d, uint32_t c) {
  KeyBuilder b;
  b.AppendU16(w).AppendU8(d).AppendU32(c);
  return b.Build();
}
Key CustomerNameKey(uint16_t w, uint8_t d, const char last[16], uint32_t c) {
  KeyBuilder b;
  b.AppendU16(w).AppendU8(d).AppendHash64(last).AppendU32(c);
  return b.Build();
}
Key HistoryKey(uint16_t w, uint8_t d, uint64_t seq) {
  KeyBuilder b;
  b.AppendU16(w).AppendU8(d).AppendU64(seq);
  return b.Build();
}
Key NewOrderKey(uint16_t w, uint8_t d, uint32_t o) {
  KeyBuilder b;
  b.AppendU16(w).AppendU8(d).AppendU32(o);
  return b.Build();
}
Key OrderKey(uint16_t w, uint8_t d, uint32_t o) {
  KeyBuilder b;
  b.AppendU16(w).AppendU8(d).AppendU32(o);
  return b.Build();
}
// Complement-encoded o_id: ascending scans deliver the newest order first.
Key OrderByCustomerKey(uint16_t w, uint8_t d, uint32_t c, uint32_t o) {
  KeyBuilder b;
  b.AppendU16(w).AppendU8(d).AppendU32(c).AppendU32(~o);
  return b.Build();
}
Key OrderLineKey(uint16_t w, uint8_t d, uint32_t o, uint8_t ol) {
  KeyBuilder b;
  b.AppendU16(w).AppendU8(d).AppendU32(o).AppendU8(ol);
  return b.Build();
}
Key ItemKey(uint32_t i) {
  KeyBuilder b;
  b.AppendU32(i);
  return b.Build();
}
Key StockKey(uint16_t w, uint32_t i) {
  KeyBuilder b;
  b.AppendU16(w).AppendU32(i);
  return b.Build();
}

}  // namespace

const std::vector<std::string>& Tpcc::PlacementOrder() {
  // Figure 13 bottom-up order.
  static const std::vector<std::string> kOrder = {
      "customer", "item",       "warehouse",  "district", "history",
      "orders",   "new_orders", "order_line", "stock"};
  return kOrder;
}

TpccConfig ScaledTpccConfig(TpccConfig base, const BenchScale& scale) {
  if (scale.full) {
    base.customers_per_district = 3000;
    base.items = 100000;
  }
  // Keep the warehouses:connections ratio in the paper's regime (200
  // warehouses for 80 connections storage-resident): scaled-down warehouse
  // counts would concentrate contention on the warehouse/district rows and
  // drown the placement effects in abort storms.
  int max_conns = scale.connections.empty() ? 8 : scale.connections.back();
  base.warehouses = std::max(base.warehouses, std::min(max_conns, 24));
  base.warehouses = static_cast<int>(
      GetEnvInt("SKEENA_TPCC_WAREHOUSES", base.warehouses));
  base.customers_per_district = static_cast<int>(GetEnvInt(
      "SKEENA_TPCC_CUSTOMERS", base.customers_per_district));
  base.items =
      static_cast<uint32_t>(GetEnvInt("SKEENA_TPCC_ITEMS", base.items));
  return base;
}

Tpcc::Tpcc(const TpccConfig& config)
    : config_(config),
      next_delivery_(static_cast<size_t>(config.warehouses + 1) *
                     static_cast<size_t>(config.districts_per_wh + 1)) {
  DatabaseOptions opts;
  opts.enable_skeena = config.skeena_on;
  opts.default_isolation = config.isolation;
  opts.stor.data_latency = config.data_latency;
  // Benchmark-friendly lock waits: a 1s stall on a small machine would
  // dominate any cell; conflicts surface as retries instead.
  opts.stor.lock.wait_timeout_ms = 200;

  // Pool sized as a fraction of the estimated stordb data pages.
  auto in_mem = [&](const std::string& name) {
    return config_.mem_tables.count(name) != 0;
  };
  double stor_bytes = 0;
  double per_wh =
      config.districts_per_wh *
          (config.customers_per_district *
               (sizeof(CustomerRow) + 2.0 * sizeof(OrderRow) +
                10.0 * sizeof(OrderLineRow) + sizeof(HistoryRow))) +
      static_cast<double>(config.items) * sizeof(StockRow);
  if (!in_mem("customer") || !in_mem("orders") || !in_mem("order_line") ||
      !in_mem("stock")) {
    stor_bytes = per_wh * config.warehouses;
  }
  stor_bytes += static_cast<double>(config.items) * sizeof(ItemRow);
  size_t pages = static_cast<size_t>(
      stor_bytes / static_cast<double>(stordb::kPageSize) *
      config.pool_fraction);
  opts.stor.buffer_pool_pages = std::max<size_t>(pages, 256);

  db_ = std::make_unique<Database>(opts);

  auto create = [&](const std::string& name, size_t max_value) {
    EngineKind home = in_mem(name) ? EngineKind::kMem : EngineKind::kStor;
    return *db_->CreateTable(name, home, max_value);
  };
  warehouse_ = create("warehouse", sizeof(WarehouseRow));
  district_ = create("district", sizeof(DistrictRow));
  customer_ = create("customer", sizeof(CustomerRow));
  history_ = create("history", sizeof(HistoryRow));
  new_orders_ = create("new_orders", sizeof(NewOrderRow));
  orders_ = create("orders", sizeof(OrderRow));
  order_line_ = create("order_line", sizeof(OrderLineRow));
  item_ = create("item", sizeof(ItemRow));
  stock_ = create("stock", sizeof(StockRow));
  // Secondary indexes live with their base table's engine.
  customer_by_name_ = *db_->CreateTable(
      "customer_by_name", in_mem("customer") ? EngineKind::kMem
                                             : EngineKind::kStor,
      8);
  orders_by_customer_ = *db_->CreateTable(
      "orders_by_customer",
      in_mem("orders") ? EngineKind::kMem : EngineKind::kStor, 8);

  Populate();
}

void Tpcc::Populate() {
  // Items (shared).
  {
    Rng rng(1234);
    for (uint32_t start = 1; start <= config_.items; start += 1024) {
      uint32_t end = std::min(start + 1024, config_.items + 1);
      CommitWithRetry(db_.get(), [&](Transaction* txn) {
        for (uint32_t i = start; i < end; ++i) {
          ItemRow row{};
          row.price = 1.0 + static_cast<double>(rng.Uniform(9900)) / 100.0;
          row.im_id = static_cast<uint32_t>(rng.UniformRange(1, 10000));
          std::snprintf(row.name, sizeof(row.name), "item-%u", i);
          if (!txn->Put(item_, ItemKey(i), RowBytes(row)).ok()) return false;
        }
        return true;
      });
    }
  }
  int loaders = std::min(config_.warehouses, 8);
  std::vector<std::thread> threads;
  for (int l = 0; l < loaders; ++l) {
    threads.emplace_back([this, l, loaders] {
      for (int w = l + 1; w <= config_.warehouses; w += loaders) {
        PopulateWarehouse(static_cast<uint16_t>(w));
      }
    });
  }
  for (auto& th : threads) th.join();
}

void Tpcc::PopulateWarehouse(uint16_t w) {
  Rng rng(w * 31 + 7);
  CommitWithRetry(db_.get(), [&](Transaction* txn) {
    WarehouseRow wr{};
    wr.tax = static_cast<double>(rng.Uniform(2000)) / 10000.0;
    wr.ytd = 300000.0;
    return txn->Put(warehouse_, WarehouseKey(w), RowBytes(wr)).ok();
  });
  for (uint32_t start = 1; start <= config_.items; start += 1024) {
    uint32_t end = std::min(start + 1024, config_.items + 1);
    CommitWithRetry(db_.get(), [&](Transaction* txn) {
      for (uint32_t i = start; i < end; ++i) {
        StockRow sr{};
        sr.quantity = static_cast<uint32_t>(rng.UniformRange(10, 100));
        if (!txn->Put(stock_, StockKey(w, i), RowBytes(sr)).ok()) {
          return false;
        }
      }
      return true;
    });
  }
  for (uint8_t d = 1; d <= config_.districts_per_wh; ++d) {
    uint32_t customers = static_cast<uint32_t>(config_.customers_per_district);
    CommitWithRetry(db_.get(), [&](Transaction* txn) {
      DistrictRow dr{};
      dr.tax = static_cast<double>(rng.Uniform(2000)) / 10000.0;
      dr.ytd = 30000.0;
      dr.next_o_id = customers + 1;
      return txn->Put(district_, DistrictKey(w, d), RowBytes(dr)).ok();
    });
    // Customers (names are deterministic per (w, d, c) so retried batches
    // regenerate identical rows).
    for (uint32_t start = 1; start <= customers; start += 256) {
      uint32_t end = std::min(start + 256, customers + 1);
      CommitWithRetry(db_.get(), [&](Transaction* txn) {
        Rng crng(w * 131071 + d * 8191 + start);
        for (uint32_t c = start; c < end; ++c) {
          CustomerRow cr{};
          cr.balance = -10.0;
          cr.ytd_payment = 10.0;
          cr.discount = static_cast<double>(crng.Uniform(5000)) / 10000.0;
          // Spec 4.3.2.3: the first 1000 customers get sequential names.
          LastName(c <= 1000 ? c - 1 : crng.NURand(255, 0, 999, 33),
                   cr.last);
          cr.credit[0] = crng.Uniform(10) == 0 ? 'B' : 'G';
          cr.credit[1] = 'C';
          if (!txn->Put(customer_, CustomerKey(w, d, c), RowBytes(cr)).ok()) {
            return false;
          }
          std::string cid;
          PutU64(&cid, c);
          if (!txn->Put(customer_by_name_,
                        CustomerNameKey(w, d, cr.last, c), cid)
                   .ok()) {
            return false;
          }
        }
        return true;
      });
    }
    // Initial orders: one per customer in a random permutation; the last
    // third are still undelivered (rows in new_orders), mirroring the
    // spec's 2100/3000 delivered split.
    std::vector<uint32_t> perm(customers);
    for (uint32_t i = 0; i < customers; ++i) perm[i] = i + 1;
    for (uint32_t i = customers; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Uniform(i)]);
    }
    for (uint32_t start = 1; start <= customers; start += 128) {
      uint32_t end = std::min(start + 128, customers + 1);
      CommitWithRetry(db_.get(), [&](Transaction* txn) {
        Rng orng(w * 524287 + d * 4093 + start);
        for (uint32_t o = start; o < end; ++o) {
          bool delivered = o <= customers - customers / 3;
          OrderRow orow{};
          orow.c_id = perm[o - 1];
          orow.carrier_id =
              delivered ? static_cast<uint32_t>(orng.UniformRange(1, 10))
                        : 0;
          orow.ol_cnt = static_cast<uint32_t>(orng.UniformRange(5, 15));
          if (!txn->Put(orders_, OrderKey(w, d, o), RowBytes(orow)).ok()) {
            return false;
          }
          std::string oid;
          PutU64(&oid, o);
          if (!txn->Put(orders_by_customer_,
                        OrderByCustomerKey(w, d, orow.c_id, o), oid)
                   .ok()) {
            return false;
          }
          if (!delivered) {
            NewOrderRow nr{};
            nr.o_id = o;
            if (!txn->Put(new_orders_, NewOrderKey(w, d, o), RowBytes(nr))
                     .ok()) {
              return false;
            }
          }
          for (uint8_t ol = 1; ol <= orow.ol_cnt; ++ol) {
            OrderLineRow lr{};
            lr.i_id =
                static_cast<uint32_t>(orng.UniformRange(1, config_.items));
            lr.supply_w_id = w;
            lr.quantity = 5;
            lr.amount =
                delivered ? 0.0
                          : static_cast<double>(orng.Uniform(999999)) / 100.0;
            lr.delivery_d = delivered ? 1 : 0;
            if (!txn->Put(order_line_, OrderLineKey(w, d, o, ol),
                          RowBytes(lr))
                     .ok()) {
              return false;
            }
          }
          HistoryRow hr{};
          hr.amount = 10.0;
          if (!txn->Put(history_,
                        HistoryKey(w, d, history_seq_.fetch_add(1)),
                        RowBytes(hr))
                   .ok()) {
            return false;
          }
        }
        return true;
      });
    }
  }
}

uint16_t Tpcc::HomeWarehouse(int thread_id, Rng& rng) const {
  if (config_.fixed_home_warehouse) {
    return static_cast<uint16_t>(thread_id % config_.warehouses + 1);
  }
  return static_cast<uint16_t>(
      rng.UniformRange(1, static_cast<uint64_t>(config_.warehouses)));
}

Status Tpcc::RunMix(int thread_id, Rng& rng, uint64_t* queries) {
  uint16_t w = HomeWarehouse(thread_id, rng);
  uint64_t roll = rng.Uniform(100);
  if (roll < 45) return NewOrder(rng, w, queries);
  if (roll < 88) return Payment(rng, w, queries);
  if (roll < 92) return OrderStatus(rng, w, queries);
  if (roll < 96) return Delivery(rng, w, queries);
  return StockLevel(rng, w, queries);
}

Status Tpcc::NewOrder(Rng& rng, uint16_t w, uint64_t* queries) {
  uint8_t d =
      static_cast<uint8_t>(rng.UniformRange(1, config_.districts_per_wh));
  uint32_t c = static_cast<uint32_t>(rng.NURand(
      1023, 1, static_cast<uint64_t>(config_.customers_per_district), 259));
  int ol_cnt = static_cast<int>(rng.UniformRange(5, 15));
  bool rollback = rng.Uniform(100) == 0;  // spec: 1% invalid item

  auto txn = db_->Begin(config_.isolation);
  std::string buf;

  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Get(warehouse_, WarehouseKey(w), &buf));
  WarehouseRow wr{};
  DecodeRow(buf, &wr);

  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Get(district_, DistrictKey(w, d), &buf));
  DistrictRow dr{};
  DecodeRow(buf, &dr);
  uint32_t o_id = dr.next_o_id;
  dr.next_o_id++;
  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Put(district_, DistrictKey(w, d), RowBytes(dr)));

  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Get(customer_, CustomerKey(w, d, c), &buf));

  OrderRow orow{};
  orow.c_id = c;
  orow.ol_cnt = static_cast<uint32_t>(ol_cnt);
  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Put(orders_, OrderKey(w, d, o_id), RowBytes(orow)));
  NewOrderRow nr{};
  nr.o_id = o_id;
  (*queries)++;
  SKEENA_RETURN_NOT_OK(
      txn->Put(new_orders_, NewOrderKey(w, d, o_id), RowBytes(nr)));
  std::string oid;
  PutU64(&oid, o_id);
  (*queries)++;
  SKEENA_RETURN_NOT_OK(
      txn->Put(orders_by_customer_, OrderByCustomerKey(w, d, c, o_id), oid));

  for (int line = 1; line <= ol_cnt; ++line) {
    bool invalid = rollback && line == ol_cnt;
    uint32_t i_id =
        invalid ? config_.items + 1
                : static_cast<uint32_t>(rng.NURand(8191, 1, config_.items, 7));
    (*queries)++;
    Status item_status = txn->Get(item_, ItemKey(i_id), &buf);
    if (item_status.IsNotFound()) {
      // Spec 2.4.2.3: unused item number -> user-initiated rollback.
      txn->Abort();
      return Status::OK();
    }
    SKEENA_RETURN_NOT_OK(item_status);
    ItemRow ir{};
    DecodeRow(buf, &ir);

    uint16_t supply_w = w;
    if (config_.warehouses > 1 &&
        rng.Uniform(100) <
            static_cast<uint64_t>(config_.remote_neworder_pct)) {
      do {
        supply_w = static_cast<uint16_t>(
            rng.UniformRange(1, static_cast<uint64_t>(config_.warehouses)));
      } while (supply_w == w);
    }
    (*queries)++;
    SKEENA_RETURN_NOT_OK(txn->Get(stock_, StockKey(supply_w, i_id), &buf));
    StockRow sr{};
    DecodeRow(buf, &sr);
    uint32_t qty = static_cast<uint32_t>(rng.UniformRange(1, 10));
    sr.quantity = sr.quantity >= qty + 10 ? sr.quantity - qty
                                          : sr.quantity + 91 - qty;
    sr.ytd += qty;
    sr.order_cnt++;
    if (supply_w != w) sr.remote_cnt++;
    (*queries)++;
    SKEENA_RETURN_NOT_OK(
        txn->Put(stock_, StockKey(supply_w, i_id), RowBytes(sr)));

    OrderLineRow lr{};
    lr.i_id = i_id;
    lr.supply_w_id = supply_w;
    lr.quantity = qty;
    lr.amount = qty * ir.price;
    (*queries)++;
    SKEENA_RETURN_NOT_OK(
        txn->Put(order_line_,
                 OrderLineKey(w, d, o_id, static_cast<uint8_t>(line)),
                 RowBytes(lr)));
  }
  return txn->Commit();
}

Status Tpcc::Payment(Rng& rng, uint16_t w, uint64_t* queries) {
  uint8_t d =
      static_cast<uint8_t>(rng.UniformRange(1, config_.districts_per_wh));
  double amount = 1.0 + static_cast<double>(rng.Uniform(499900)) / 100.0;

  // 85% local customer; 15% a customer of a remote warehouse (spec 2.5.1.2).
  uint16_t c_w = w;
  uint8_t c_d = d;
  if (config_.warehouses > 1 &&
      rng.Uniform(100) < static_cast<uint64_t>(config_.remote_payment_pct)) {
    do {
      c_w = static_cast<uint16_t>(
          rng.UniformRange(1, static_cast<uint64_t>(config_.warehouses)));
    } while (c_w == w);
    c_d = static_cast<uint8_t>(rng.UniformRange(1, config_.districts_per_wh));
  }

  auto txn = db_->Begin(config_.isolation);
  std::string buf;

  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Get(warehouse_, WarehouseKey(w), &buf));
  WarehouseRow wr{};
  DecodeRow(buf, &wr);
  wr.ytd += amount;
  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Put(warehouse_, WarehouseKey(w), RowBytes(wr)));

  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Get(district_, DistrictKey(w, d), &buf));
  DistrictRow dr{};
  DecodeRow(buf, &dr);
  dr.ytd += amount;
  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Put(district_, DistrictKey(w, d), RowBytes(dr)));

  // Customer: 60% by last name, 40% by id (spec 2.5.1.2).
  uint32_t c_id;
  if (rng.Uniform(100) < 60) {
    char last[16];
    LastName(rng.NURand(255, 0, 999, 33), last);
    KeyBuilder prefix;
    prefix.AppendU16(c_w).AppendU8(c_d).AppendHash64(
        std::string_view(last, std::strlen(last)));
    std::vector<uint32_t> matches;
    (*queries)++;
    Status s = txn->Scan(customer_by_name_, prefix.Build(), 0,
                         [&](const Key& key, const std::string& value) {
                           if (!KeyHasPrefix(key, prefix.Build(), 11)) {
                             return false;
                           }
                           matches.push_back(
                               static_cast<uint32_t>(GetU64(value.data())));
                           return true;
                         });
    SKEENA_RETURN_NOT_OK(s);
    if (matches.empty()) {
      c_id = static_cast<uint32_t>(rng.NURand(
          1023, 1, static_cast<uint64_t>(config_.customers_per_district),
          259));
    } else {
      std::sort(matches.begin(), matches.end());
      c_id = matches[matches.size() / 2];  // spec: ceil(n/2)
    }
  } else {
    c_id = static_cast<uint32_t>(rng.NURand(
        1023, 1, static_cast<uint64_t>(config_.customers_per_district), 259));
  }

  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Get(customer_, CustomerKey(c_w, c_d, c_id), &buf));
  CustomerRow cr{};
  DecodeRow(buf, &cr);
  cr.balance -= amount;
  cr.ytd_payment += amount;
  cr.payment_cnt++;
  (*queries)++;
  SKEENA_RETURN_NOT_OK(
      txn->Put(customer_, CustomerKey(c_w, c_d, c_id), RowBytes(cr)));

  HistoryRow hr{};
  hr.amount = amount;
  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Put(
      history_, HistoryKey(w, d, history_seq_.fetch_add(1)), RowBytes(hr)));
  return txn->Commit();
}

Status Tpcc::OrderStatus(Rng& rng, uint16_t w, uint64_t* queries) {
  uint8_t d =
      static_cast<uint8_t>(rng.UniformRange(1, config_.districts_per_wh));
  auto txn = db_->Begin(config_.isolation);
  std::string buf;

  uint32_t c_id;
  if (rng.Uniform(100) < 60) {
    char last[16];
    LastName(rng.NURand(255, 0, 999, 33), last);
    KeyBuilder prefix;
    prefix.AppendU16(w).AppendU8(d).AppendHash64(
        std::string_view(last, std::strlen(last)));
    std::vector<uint32_t> matches;
    (*queries)++;
    SKEENA_RETURN_NOT_OK(
        txn->Scan(customer_by_name_, prefix.Build(), 0,
                  [&](const Key& key, const std::string& value) {
                    if (!KeyHasPrefix(key, prefix.Build(), 11)) return false;
                    matches.push_back(
                        static_cast<uint32_t>(GetU64(value.data())));
                    return true;
                  }));
    if (matches.empty()) {
      c_id = static_cast<uint32_t>(rng.NURand(
          1023, 1, static_cast<uint64_t>(config_.customers_per_district),
          259));
    } else {
      std::sort(matches.begin(), matches.end());
      c_id = matches[matches.size() / 2];
    }
  } else {
    c_id = static_cast<uint32_t>(rng.NURand(
        1023, 1, static_cast<uint64_t>(config_.customers_per_district), 259));
  }

  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Get(customer_, CustomerKey(w, d, c_id), &buf));

  // Latest order of the customer (complement-encoded index: first hit).
  KeyBuilder prefix;
  prefix.AppendU16(w).AppendU8(d).AppendU32(c_id);
  uint32_t o_id = 0;
  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Scan(
      orders_by_customer_, prefix.Build(), 1,
      [&](const Key& key, const std::string& value) {
        if (KeyHasPrefix(key, prefix.Build(), 7)) {
          o_id = static_cast<uint32_t>(GetU64(value.data()));
        }
        return false;
      }));
  if (o_id != 0) {
    (*queries)++;
    SKEENA_RETURN_NOT_OK(txn->Get(orders_, OrderKey(w, d, o_id), &buf));
    OrderRow orow{};
    DecodeRow(buf, &orow);
    KeyBuilder ol_prefix;
    ol_prefix.AppendU16(w).AppendU8(d).AppendU32(o_id);
    (*queries)++;
    SKEENA_RETURN_NOT_OK(
        txn->Scan(order_line_, ol_prefix.Build(), 0,
                  [&](const Key& key, const std::string&) {
                    return KeyHasPrefix(key, ol_prefix.Build(), 7);
                  }));
  }
  return txn->Commit();
}

Status Tpcc::Delivery(Rng& rng, uint16_t w, uint64_t* queries) {
  uint32_t carrier = static_cast<uint32_t>(rng.UniformRange(1, 10));
  auto txn = db_->Begin(config_.isolation);
  std::string buf;
  std::vector<uint32_t> delivered(config_.districts_per_wh + 1, 0);

  for (uint8_t d = 1; d <= config_.districts_per_wh; ++d) {
    // Oldest undelivered order for the district (spec 2.7.4.1).
    KeyBuilder prefix;
    prefix.AppendU16(w).AppendU8(d);
    const Key from = NewOrderKey(w, d, NextDelivery(w, d).load());
    uint32_t o_id = 0;
    (*queries)++;
    SKEENA_RETURN_NOT_OK(
        txn->Scan(new_orders_, from, 1,
                  [&](const Key& key, const std::string&) {
                    if (KeyHasPrefix(key, prefix.Build(), 3)) {
                      uint32_t o = 0;
                      for (int b = 3; b < 7; ++b) o = (o << 8) | key[b];
                      o_id = o;
                    }
                    return false;
                  }));
    if (o_id == 0) continue;  // district fully delivered
    delivered[d] = o_id;

    (*queries)++;
    SKEENA_RETURN_NOT_OK(txn->Delete(new_orders_, NewOrderKey(w, d, o_id)));

    (*queries)++;
    SKEENA_RETURN_NOT_OK(txn->Get(orders_, OrderKey(w, d, o_id), &buf));
    OrderRow orow{};
    DecodeRow(buf, &orow);
    orow.carrier_id = carrier;
    (*queries)++;
    SKEENA_RETURN_NOT_OK(
        txn->Put(orders_, OrderKey(w, d, o_id), RowBytes(orow)));

    double total = 0;
    for (uint8_t ol = 1; ol <= orow.ol_cnt; ++ol) {
      (*queries)++;
      Status s = txn->Get(order_line_, OrderLineKey(w, d, o_id, ol), &buf);
      if (s.IsNotFound()) continue;
      SKEENA_RETURN_NOT_OK(s);
      OrderLineRow lr{};
      DecodeRow(buf, &lr);
      total += lr.amount;
      lr.delivery_d = 1;
      (*queries)++;
      SKEENA_RETURN_NOT_OK(
          txn->Put(order_line_, OrderLineKey(w, d, o_id, ol), RowBytes(lr)));
    }

    (*queries)++;
    SKEENA_RETURN_NOT_OK(
        txn->Get(customer_, CustomerKey(w, d, orow.c_id), &buf));
    CustomerRow cr{};
    DecodeRow(buf, &cr);
    cr.balance += total;
    cr.delivery_cnt++;
    (*queries)++;
    SKEENA_RETURN_NOT_OK(
        txn->Put(customer_, CustomerKey(w, d, orow.c_id), RowBytes(cr)));
  }
  SKEENA_RETURN_NOT_OK(txn->Commit());
  for (uint8_t d = 1; d <= config_.districts_per_wh; ++d) {
    std::atomic<uint32_t>& next = NextDelivery(w, d);
    uint32_t cur = next.load();
    while (delivered[d] >= cur &&
           !next.compare_exchange_weak(cur, delivered[d] + 1)) {
    }
  }
  return Status::OK();
}

Status Tpcc::StockLevel(Rng& rng, uint16_t w, uint64_t* queries) {
  uint8_t d =
      static_cast<uint8_t>(rng.UniformRange(1, config_.districts_per_wh));
  uint32_t threshold = static_cast<uint32_t>(rng.UniformRange(10, 20));
  auto txn = db_->Begin(config_.isolation);
  std::string buf;

  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Get(district_, DistrictKey(w, d), &buf));
  DistrictRow dr{};
  DecodeRow(buf, &dr);
  uint32_t next_o = dr.next_o_id;
  uint32_t from_o = next_o > 20 ? next_o - 20 : 1;

  // Items of the district's last 20 orders (spec 2.8.2.2).
  std::set<uint32_t> items;
  KeyBuilder lower;
  lower.AppendU16(w).AppendU8(d).AppendU32(from_o);
  KeyBuilder district_prefix;
  district_prefix.AppendU16(w).AppendU8(d);
  (*queries)++;
  SKEENA_RETURN_NOT_OK(txn->Scan(
      order_line_, lower.Build(), 0,
      [&](const Key& key, const std::string& value) {
        if (!KeyHasPrefix(key, district_prefix.Build(), 3)) return false;
        OrderLineRow lr{};
        if (value.size() == sizeof(lr)) {
          std::memcpy(&lr, value.data(), sizeof(lr));
          items.insert(lr.i_id);
        }
        return true;
      }));

  uint64_t low_stock = 0;
  for (uint32_t i_id : items) {
    (*queries)++;
    Status s = txn->Get(stock_, StockKey(w, i_id), &buf);
    if (s.IsNotFound()) continue;
    SKEENA_RETURN_NOT_OK(s);
    StockRow sr{};
    DecodeRow(buf, &sr);
    if (sr.quantity < threshold) low_stock++;
  }
  (void)low_stock;
  return txn->Commit();
}

Status Tpcc::CheckConsistency() {
  auto txn = db_->Begin(IsolationLevel::kSnapshot);
  std::string buf;
  for (uint16_t w = 1; w <= config_.warehouses; ++w) {
    SKEENA_RETURN_NOT_OK(txn->Get(warehouse_, WarehouseKey(w), &buf));
    WarehouseRow wr{};
    DecodeRow(buf, &wr);
    double district_ytd = 0;
    for (uint8_t d = 1; d <= config_.districts_per_wh; ++d) {
      SKEENA_RETURN_NOT_OK(txn->Get(district_, DistrictKey(w, d), &buf));
      DistrictRow dr{};
      DecodeRow(buf, &dr);
      district_ytd += dr.ytd;

      // Consistency 3: max order id vs next_o_id.
      KeyBuilder prefix;
      prefix.AppendU16(w).AppendU8(d);
      uint32_t max_o = 0;
      SKEENA_RETURN_NOT_OK(
          txn->Scan(orders_, prefix.Build(), 0,
                    [&](const Key& key, const std::string&) {
                      if (!KeyHasPrefix(key, prefix.Build(), 3)) return false;
                      uint32_t o = 0;
                      for (int b = 3; b < 7; ++b) o = (o << 8) | key[b];
                      max_o = std::max(max_o, o);
                      return true;
                    }));
      if (max_o + 1 != dr.next_o_id) {
        return Status::Corruption("D_NEXT_O_ID mismatch");
      }
    }
    // Consistency 1 (spec 3.3.2.1): both sides advance by the same Payment
    // amounts, so the deltas from their initial loads must match.
    double w_delta = wr.ytd - 300000.0;
    double d_delta =
        district_ytd - 30000.0 * static_cast<double>(config_.districts_per_wh);
    if (std::abs(w_delta - d_delta) > 0.01) {
      return Status::Corruption("W_YTD != sum(D_YTD)");
    }
  }
  txn->Abort();
  return Status::OK();
}

}  // namespace skeena::bench
