#include "tpcc.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

namespace skeena::benchsuite {
namespace {

constexpr int kWarehouses = 4;
constexpr int kDistricts = 10;
constexpr uint32_t kCustomers = 120;  // per district
constexpr uint32_t kItems = 2000;
constexpr size_t kPoolPages = 256;
constexpr int kRemotePaymentPct = 15;
constexpr int kRemoteNewOrderPct = 1;
constexpr double kInitialWarehouseYtd = 300000.0;
constexpr double kInitialDistrictYtd = 30000.0;

// Fixed-size rows padded toward the spec's sizes so buffer-pool pressure
// is comparable.
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
Status Decode(const std::string& bytes, T* row) {
  if (bytes.size() != sizeof(T)) return Status::Corruption("bad row size");
  std::memcpy(row, bytes.data(), sizeof(T));
  return Status::OK();
}

const char* kSyllables[10] = {"BAR", "OUGHT", "ABLE",  "PRI",   "PRES",
                              "ESE", "ANTI",  "CALLY", "ATION", "EING"};

void LastName(uint64_t num, char out[16]) {
  std::string s = std::string(kSyllables[(num / 100) % 10]) +
                  kSyllables[(num / 10) % 10] + kSyllables[num % 10];
  std::memset(out, 0, 16);
  std::memcpy(out, s.data(), std::min<size_t>(s.size(), 15));
}

Key WarehouseKey(uint16_t w) { return KeyBuilder().AppendU16(w).Build(); }
Key DistrictKey(uint16_t w, uint8_t d) {
  return KeyBuilder().AppendU16(w).AppendU8(d).Build();
}
Key CustomerKey(uint16_t w, uint8_t d, uint32_t c) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(c).Build();
}
Key CustomerNameKey(uint16_t w, uint8_t d, const char last[16], uint32_t c) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendHash64(last)
      .AppendU32(c).Build();
}
Key HistoryKey(uint16_t w, uint8_t d, uint64_t seq) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU64(seq).Build();
}
// new_orders, orders and order_line share the (w, d, o) prefix layout.
Key OrderKey(uint16_t w, uint8_t d, uint32_t o) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(o).Build();
}
// Complement-encoded o_id: ascending scans deliver the newest order first.
Key OrderByCustomerKey(uint16_t w, uint8_t d, uint32_t c, uint32_t o) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(c).AppendU32(~o)
      .Build();
}
Key OrderLineKey(uint16_t w, uint8_t d, uint32_t o, uint8_t ol) {
  return KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(o).AppendU8(ol)
      .Build();
}
Key ItemKey(uint32_t i) { return KeyBuilder().AppendU32(i).Build(); }
Key StockKey(uint16_t w, uint32_t i) {
  return KeyBuilder().AppendU16(w).AppendU32(i).Build();
}
uint32_t OrderIdOf(const Key& key) {  // bytes 3..6 of a (w, d, o) key
  uint32_t o = 0;
  for (int b = 3; b < 7; ++b) o = (o << 8) | key[static_cast<size_t>(b)];
  return o;
}

class Tpcc : public ClosedWorkload {
 public:
  explicit Tpcc(uint64_t seed);

  Database* db() override { return db_.get(); }
  Status RunTxn(ClientCtx& ctx) override {
    const uint16_t w = static_cast<uint16_t>(ctx.client % kWarehouses + 1);
    const uint64_t roll = ctx.rng.Uniform(100);
    if (roll < 45) return NewOrder(ctx, w);
    if (roll < 88) return Payment(ctx, w);
    if (roll < 92) return OrderStatus(ctx, w);
    if (roll < 96) return Delivery(ctx, w);
    return StockLevel(ctx, w);
  }
  void Check(Report* r) override;

 private:
  TableHandle Create(const std::string& name, EngineKind home,
                     size_t max_value) {
    return *db_->CreateTable(name, home, max_value);
  }
  void PopulateWarehouse(uint16_t w, uint64_t seed);
  // Commits one load batch, retrying transient aborts; a dropped batch
  // would corrupt the initial database.
  template <typename Fill>
  void Load(Fill&& fill) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      auto txn = db_->Begin();
      if (fill(txn.get()) && txn->Commit().ok()) return;
    }
    load_failed_ = true;
  }
  uint32_t RandomCustomer(Rand& rng) {
    return static_cast<uint32_t>(rng.NURand(1023, 1, kCustomers, 259));
  }
  // Spec 2.5.2.2 / 2.6.2.2: 60 % of lookups by last name (middle match).
  Status PickCustomer(TracedTxn& txn, Rand& rng, uint16_t w, uint8_t d,
                      uint32_t* c_id);

  Status NewOrder(ClientCtx& ctx, uint16_t w);
  Status Payment(ClientCtx& ctx, uint16_t w);
  Status OrderStatus(ClientCtx& ctx, uint16_t w);
  Status Delivery(ClientCtx& ctx, uint16_t w);
  Status StockLevel(ClientCtx& ctx, uint16_t w);

  std::unique_ptr<Database> db_;
  TableHandle warehouse_, district_, customer_, customer_by_name_, history_,
      new_orders_, orders_, orders_by_customer_, order_line_, item_, stock_;
  std::atomic<uint64_t> history_seq_{1};
  bool load_failed_ = false;
  // Per-district Delivery scan start: one past the newest order a committed
  // Delivery removed from new_orders (the Silo/ERMIA TPC-C hint). stordb
  // keeps delete-marked rows in its index, so scanning from the district's
  // first order would step over every order delivered so far and Delivery
  // would slow down for the whole run.
  std::atomic<uint32_t> next_delivery_[kWarehouses + 1][kDistricts + 1] = {};
};

Tpcc::Tpcc(uint64_t seed) {
  DatabaseOptions opts;
  opts.stor.data_latency = DeviceLatency::TmpfsStack();
  opts.stor.buffer_pool_pages = kPoolPages;
  // A 1 s lock wait would dominate a run on a small machine; conflicts
  // surface as timed-out (retryable) aborts instead.
  opts.stor.lock.wait_timeout_ms = 200;
  db_ = std::make_unique<Database>(opts);

  const EngineKind mem = EngineKind::kMem, stor = EngineKind::kStor;
  warehouse_ = Create("warehouse", stor, sizeof(WarehouseRow));
  district_ = Create("district", stor, sizeof(DistrictRow));
  customer_ = Create("customer", mem, sizeof(CustomerRow));
  customer_by_name_ = Create("customer_by_name", mem, 8);
  history_ = Create("history", stor, sizeof(HistoryRow));
  new_orders_ = Create("new_orders", stor, sizeof(NewOrderRow));
  orders_ = Create("orders", stor, sizeof(OrderRow));
  orders_by_customer_ = Create("orders_by_customer", stor, 8);
  order_line_ = Create("order_line", stor, sizeof(OrderLineRow));
  item_ = Create("item", mem, sizeof(ItemRow));
  stock_ = Create("stock", stor, sizeof(StockRow));

  for (uint32_t lo = 1; lo <= kItems; lo += 1024) {
    const uint32_t hi = std::min(lo + 1024, kItems + 1);
    Load([&](Transaction* txn) {
      Rand batch = Rand::Stream(seed, 2000 + lo);
      for (uint32_t i = lo; i < hi; ++i) {
        ItemRow row{};
        row.price = 1.0 + static_cast<double>(batch.Uniform(9900)) / 100.0;
        row.im_id = static_cast<uint32_t>(batch.Range(1, 10000));
        std::snprintf(row.name, sizeof(row.name), "item-%u", i);
        if (!txn->Put(item_, ItemKey(i), RowBytes(row)).ok()) return false;
      }
      return true;
    });
  }
  // One loader thread, as in the micro: a parallel load made
  // the set-up's memory differ by 20 % between runs.
  for (int w = 1; w <= kWarehouses; ++w) {
    PopulateWarehouse(static_cast<uint16_t>(w), seed);
  }
}

void Tpcc::PopulateWarehouse(uint16_t w, uint64_t seed) {
  // Every batch draws from its own stream so a retried batch regenerates
  // identical rows.
  auto stream = [&](uint64_t tag) {
    return Rand::Stream(seed, (uint64_t{w} << 40) | tag);
  };
  Load([&](Transaction* txn) {
    Rand rng = stream(1);
    WarehouseRow wr{};
    wr.tax = static_cast<double>(rng.Uniform(2000)) / 10000.0;
    wr.ytd = kInitialWarehouseYtd;
    return txn->Put(warehouse_, WarehouseKey(w), RowBytes(wr)).ok();
  });
  for (uint32_t lo = 1; lo <= kItems; lo += 1024) {
    const uint32_t hi = std::min(lo + 1024, kItems + 1);
    Load([&](Transaction* txn) {
      Rand rng = stream((uint64_t{2} << 32) | lo);
      for (uint32_t i = lo; i < hi; ++i) {
        StockRow sr{};
        sr.quantity = static_cast<uint32_t>(rng.Range(10, 100));
        if (!txn->Put(stock_, StockKey(w, i), RowBytes(sr)).ok()) return false;
      }
      return true;
    });
  }
  for (uint8_t d = 1; d <= kDistricts; ++d) {
    const uint64_t dtag = uint64_t{d} << 24;
    Load([&](Transaction* txn) {
      Rand rng = stream((uint64_t{3} << 32) | dtag);
      DistrictRow dr{};
      dr.tax = static_cast<double>(rng.Uniform(2000)) / 10000.0;
      dr.ytd = kInitialDistrictYtd;
      dr.next_o_id = kCustomers + 1;
      return txn->Put(district_, DistrictKey(w, d), RowBytes(dr)).ok();
    });
    for (uint32_t lo = 1; lo <= kCustomers; lo += 256) {
      const uint32_t hi = std::min(lo + 256, kCustomers + 1);
      Load([&](Transaction* txn) {
        Rand rng = stream((uint64_t{4} << 32) | dtag | lo);
        for (uint32_t c = lo; c < hi; ++c) {
          CustomerRow cr{};
          cr.balance = -10.0;
          cr.ytd_payment = 10.0;
          cr.discount = static_cast<double>(rng.Uniform(5000)) / 10000.0;
          // Spec 4.3.2.3: the first 1000 customers get sequential names.
          LastName(c <= 1000 ? c - 1 : rng.NURand(255, 0, 999, 33), cr.last);
          cr.credit[0] = rng.Uniform(10) == 0 ? 'B' : 'G';
          cr.credit[1] = 'C';
          std::string cid;
          PutU64(&cid, c);
          if (!txn->Put(customer_, CustomerKey(w, d, c), RowBytes(cr)).ok() ||
              !txn->Put(customer_by_name_, CustomerNameKey(w, d, cr.last, c),
                        cid)
                   .ok()) {
            return false;
          }
        }
        return true;
      });
    }
    // One initial order per customer in a random permutation; the last
    // third are undelivered (rows in new_orders), as in the spec.
    Rand perm_rng = stream((uint64_t{5} << 32) | dtag);
    std::vector<uint32_t> perm(kCustomers);
    for (uint32_t i = 0; i < kCustomers; ++i) perm[i] = i + 1;
    for (uint32_t i = kCustomers; i > 1; --i) {
      std::swap(perm[i - 1], perm[perm_rng.Uniform(i)]);
    }
    for (uint32_t lo = 1; lo <= kCustomers; lo += 128) {
      const uint32_t hi = std::min(lo + 128, kCustomers + 1);
      Load([&](Transaction* txn) {
        Rand rng = stream((uint64_t{6} << 32) | dtag | lo);
        for (uint32_t o = lo; o < hi; ++o) {
          const bool delivered = o <= kCustomers - kCustomers / 3;
          OrderRow orow{};
          orow.c_id = perm[o - 1];
          orow.carrier_id =
              delivered ? static_cast<uint32_t>(rng.Range(1, 10)) : 0;
          orow.ol_cnt = static_cast<uint32_t>(rng.Range(5, 15));
          std::string oid;
          PutU64(&oid, o);
          if (!txn->Put(orders_, OrderKey(w, d, o), RowBytes(orow)).ok() ||
              !txn->Put(orders_by_customer_,
                        OrderByCustomerKey(w, d, orow.c_id, o), oid)
                   .ok()) {
            return false;
          }
          if (!delivered) {
            NewOrderRow nr{};
            nr.o_id = o;
            if (!txn->Put(new_orders_, OrderKey(w, d, o), RowBytes(nr)).ok()) {
              return false;
            }
          }
          for (uint8_t ol = 1; ol <= orow.ol_cnt; ++ol) {
            OrderLineRow lr{};
            lr.i_id = static_cast<uint32_t>(rng.Range(1, kItems));
            lr.supply_w_id = w;
            lr.quantity = 5;
            lr.amount =
                delivered ? 0.0 : static_cast<double>(rng.Uniform(999999)) / 100.0;
            lr.delivery_d = delivered ? 1 : 0;
            if (!txn->Put(order_line_, OrderLineKey(w, d, o, ol),
                          RowBytes(lr))
                     .ok()) {
              return false;
            }
          }
          HistoryRow hr{};
          hr.amount = 10.0;
          if (!txn->Put(history_, HistoryKey(w, d, history_seq_.fetch_add(1)),
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

Status Tpcc::PickCustomer(TracedTxn& txn, Rand& rng, uint16_t w, uint8_t d,
                          uint32_t* c_id) {
  if (rng.Uniform(100) >= 60) {
    *c_id = RandomCustomer(rng);
    return Status::OK();
  }
  char last[16];
  LastName(rng.NURand(255, 0, 999, 33), last);
  const Key prefix = KeyBuilder().AppendU16(w).AppendU8(d).AppendHash64(
      std::string_view(last, std::strlen(last))).Build();
  std::vector<uint32_t> matches;
  SKEENA_RETURN_NOT_OK(txn.Scan(
      customer_by_name_, prefix, 0,
      [&](const Key& key, const std::string& value) {
        if (!KeyHasPrefix(key, prefix, 11)) return false;
        matches.push_back(static_cast<uint32_t>(GetU64(value.data())));
        return true;
      }));
  if (matches.empty()) {
    *c_id = RandomCustomer(rng);
  } else {
    std::sort(matches.begin(), matches.end());
    *c_id = matches[matches.size() / 2];
  }
  return Status::OK();
}

Status Tpcc::NewOrder(ClientCtx& ctx, uint16_t w) {
  Rand& rng = ctx.rng;
  const uint8_t d = static_cast<uint8_t>(rng.Range(1, kDistricts));
  const uint32_t c = RandomCustomer(rng);
  const int ol_cnt = static_cast<int>(rng.Range(5, 15));
  const bool rollback = rng.Uniform(100) == 0;  // spec: 1 % invalid item

  TracedTxn txn(db_.get(), ctx);
  std::string buf;
  SKEENA_RETURN_NOT_OK(txn.Get(warehouse_, WarehouseKey(w), &buf));
  SKEENA_RETURN_NOT_OK(txn.Get(district_, DistrictKey(w, d), &buf));
  DistrictRow dr{};
  SKEENA_RETURN_NOT_OK(Decode(buf, &dr));
  const uint32_t o_id = dr.next_o_id++;
  SKEENA_RETURN_NOT_OK(txn.Put(district_, DistrictKey(w, d), RowBytes(dr)));
  SKEENA_RETURN_NOT_OK(txn.Get(customer_, CustomerKey(w, d, c), &buf));

  OrderRow orow{};
  orow.c_id = c;
  orow.ol_cnt = static_cast<uint32_t>(ol_cnt);
  SKEENA_RETURN_NOT_OK(txn.Put(orders_, OrderKey(w, d, o_id), RowBytes(orow)));
  NewOrderRow nr{};
  nr.o_id = o_id;
  SKEENA_RETURN_NOT_OK(
      txn.Put(new_orders_, OrderKey(w, d, o_id), RowBytes(nr)));
  std::string oid;
  PutU64(&oid, o_id);
  SKEENA_RETURN_NOT_OK(
      txn.Put(orders_by_customer_, OrderByCustomerKey(w, d, c, o_id), oid));

  for (int line = 1; line <= ol_cnt; ++line) {
    const bool invalid = rollback && line == ol_cnt;
    const uint32_t i_id =
        invalid ? kItems + 1
                : static_cast<uint32_t>(rng.NURand(8191, 1, kItems, 7));
    Status item = txn.Get(item_, ItemKey(i_id), &buf);
    if (item.IsNotFound() && invalid) {
      // Spec 2.4.2.3: an unused item number is a user-initiated rollback,
      // a completed business transaction.
      txn.Abort();
      return Status::OK();
    }
    SKEENA_RETURN_NOT_OK(item);
    ItemRow ir{};
    SKEENA_RETURN_NOT_OK(Decode(buf, &ir));

    uint16_t supply_w = w;
    if (rng.Uniform(100) < kRemoteNewOrderPct) {
      do {
        supply_w = static_cast<uint16_t>(rng.Range(1, kWarehouses));
      } while (supply_w == w);
    }
    SKEENA_RETURN_NOT_OK(txn.Get(stock_, StockKey(supply_w, i_id), &buf));
    StockRow sr{};
    SKEENA_RETURN_NOT_OK(Decode(buf, &sr));
    const uint32_t qty = static_cast<uint32_t>(rng.Range(1, 10));
    sr.quantity = sr.quantity >= qty + 10 ? sr.quantity - qty
                                          : sr.quantity + 91 - qty;
    sr.ytd += qty;
    sr.order_cnt++;
    if (supply_w != w) sr.remote_cnt++;
    SKEENA_RETURN_NOT_OK(
        txn.Put(stock_, StockKey(supply_w, i_id), RowBytes(sr)));

    OrderLineRow lr{};
    lr.i_id = i_id;
    lr.supply_w_id = supply_w;
    lr.quantity = static_cast<uint16_t>(qty);
    lr.amount = qty * ir.price;
    SKEENA_RETURN_NOT_OK(txn.Put(
        order_line_, OrderLineKey(w, d, o_id, static_cast<uint8_t>(line)),
        RowBytes(lr)));
  }
  return txn.Commit();
}

Status Tpcc::Payment(ClientCtx& ctx, uint16_t w) {
  Rand& rng = ctx.rng;
  const uint8_t d = static_cast<uint8_t>(rng.Range(1, kDistricts));
  const double amount = 1.0 + static_cast<double>(rng.Uniform(499900)) / 100.0;
  // 85 % local customer, 15 % a customer of a remote warehouse.
  uint16_t c_w = w;
  uint8_t c_d = d;
  if (rng.Uniform(100) < kRemotePaymentPct) {
    do {
      c_w = static_cast<uint16_t>(rng.Range(1, kWarehouses));
    } while (c_w == w);
    c_d = static_cast<uint8_t>(rng.Range(1, kDistricts));
  }

  TracedTxn txn(db_.get(), ctx);
  std::string buf;
  SKEENA_RETURN_NOT_OK(txn.Get(warehouse_, WarehouseKey(w), &buf));
  WarehouseRow wr{};
  SKEENA_RETURN_NOT_OK(Decode(buf, &wr));
  wr.ytd += amount;
  SKEENA_RETURN_NOT_OK(txn.Put(warehouse_, WarehouseKey(w), RowBytes(wr)));
  SKEENA_RETURN_NOT_OK(txn.Get(district_, DistrictKey(w, d), &buf));
  DistrictRow dr{};
  SKEENA_RETURN_NOT_OK(Decode(buf, &dr));
  dr.ytd += amount;
  SKEENA_RETURN_NOT_OK(txn.Put(district_, DistrictKey(w, d), RowBytes(dr)));

  uint32_t c_id = 0;
  SKEENA_RETURN_NOT_OK(PickCustomer(txn, rng, c_w, c_d, &c_id));
  SKEENA_RETURN_NOT_OK(txn.Get(customer_, CustomerKey(c_w, c_d, c_id), &buf));
  CustomerRow cr{};
  SKEENA_RETURN_NOT_OK(Decode(buf, &cr));
  cr.balance -= amount;
  cr.ytd_payment += amount;
  cr.payment_cnt++;
  SKEENA_RETURN_NOT_OK(
      txn.Put(customer_, CustomerKey(c_w, c_d, c_id), RowBytes(cr)));
  HistoryRow hr{};
  hr.amount = amount;
  SKEENA_RETURN_NOT_OK(txn.Put(
      history_, HistoryKey(w, d, history_seq_.fetch_add(1)), RowBytes(hr)));
  return txn.Commit();
}

Status Tpcc::OrderStatus(ClientCtx& ctx, uint16_t w) {
  Rand& rng = ctx.rng;
  const uint8_t d = static_cast<uint8_t>(rng.Range(1, kDistricts));
  TracedTxn txn(db_.get(), ctx);
  std::string buf;
  uint32_t c_id = 0;
  SKEENA_RETURN_NOT_OK(PickCustomer(txn, rng, w, d, &c_id));
  SKEENA_RETURN_NOT_OK(txn.Get(customer_, CustomerKey(w, d, c_id), &buf));

  const Key prefix = KeyBuilder().AppendU16(w).AppendU8(d).AppendU32(c_id)
                         .Build();
  uint32_t o_id = 0;
  SKEENA_RETURN_NOT_OK(txn.Scan(
      orders_by_customer_, prefix, 1,
      [&](const Key& key, const std::string& value) {
        if (KeyHasPrefix(key, prefix, 7)) {
          o_id = static_cast<uint32_t>(GetU64(value.data()));
        }
        return false;
      }));
  if (o_id != 0) {
    SKEENA_RETURN_NOT_OK(txn.Get(orders_, OrderKey(w, d, o_id), &buf));
    const Key lines = OrderKey(w, d, o_id);
    SKEENA_RETURN_NOT_OK(txn.Scan(order_line_, lines, 0,
                                  [&](const Key& key, const std::string&) {
                                    return KeyHasPrefix(key, lines, 7);
                                  }));
  }
  return txn.Commit();
}

Status Tpcc::Delivery(ClientCtx& ctx, uint16_t w) {
  const uint32_t carrier = static_cast<uint32_t>(ctx.rng.Range(1, 10));
  TracedTxn txn(db_.get(), ctx);
  std::string buf;
  uint32_t delivered[kDistricts + 1] = {};
  for (uint8_t d = 1; d <= kDistricts; ++d) {
    // Oldest undelivered order of the district (spec 2.7.4.1).
    const Key prefix = DistrictKey(w, d);
    const Key from = OrderKey(w, d, next_delivery_[w][d].load());
    uint32_t o_id = 0;
    SKEENA_RETURN_NOT_OK(
        txn.Scan(new_orders_, from, 1,
                 [&](const Key& key, const std::string&) {
                   if (KeyHasPrefix(key, prefix, 3)) o_id = OrderIdOf(key);
                   return false;
                 }));
    if (o_id == 0) continue;  // district fully delivered
    delivered[d] = o_id;
    SKEENA_RETURN_NOT_OK(txn.Delete(new_orders_, OrderKey(w, d, o_id)));
    SKEENA_RETURN_NOT_OK(txn.Get(orders_, OrderKey(w, d, o_id), &buf));
    OrderRow orow{};
    SKEENA_RETURN_NOT_OK(Decode(buf, &orow));
    orow.carrier_id = carrier;
    SKEENA_RETURN_NOT_OK(txn.Put(orders_, OrderKey(w, d, o_id), RowBytes(orow)));

    double total = 0;
    for (uint8_t ol = 1; ol <= orow.ol_cnt; ++ol) {
      Status s = txn.Get(order_line_, OrderLineKey(w, d, o_id, ol), &buf);
      if (s.IsNotFound()) continue;  // the order's NewOrder rolled back
      SKEENA_RETURN_NOT_OK(s);
      OrderLineRow lr{};
      SKEENA_RETURN_NOT_OK(Decode(buf, &lr));
      total += lr.amount;
      lr.delivery_d = 1;
      SKEENA_RETURN_NOT_OK(
          txn.Put(order_line_, OrderLineKey(w, d, o_id, ol), RowBytes(lr)));
    }
    SKEENA_RETURN_NOT_OK(txn.Get(customer_, CustomerKey(w, d, orow.c_id), &buf));
    CustomerRow cr{};
    SKEENA_RETURN_NOT_OK(Decode(buf, &cr));
    cr.balance += total;
    cr.delivery_cnt++;
    SKEENA_RETURN_NOT_OK(
        txn.Put(customer_, CustomerKey(w, d, orow.c_id), RowBytes(cr)));
  }
  SKEENA_RETURN_NOT_OK(txn.Commit());
  for (uint8_t d = 1; d <= kDistricts; ++d) {
    std::atomic<uint32_t>& next = next_delivery_[w][d];
    uint32_t cur = next.load();
    while (delivered[d] >= cur &&
           !next.compare_exchange_weak(cur, delivered[d] + 1)) {
    }
  }
  return Status::OK();
}

Status Tpcc::StockLevel(ClientCtx& ctx, uint16_t w) {
  Rand& rng = ctx.rng;
  const uint8_t d = static_cast<uint8_t>(rng.Range(1, kDistricts));
  const uint32_t threshold = static_cast<uint32_t>(rng.Range(10, 20));
  TracedTxn txn(db_.get(), ctx);
  std::string buf;
  SKEENA_RETURN_NOT_OK(txn.Get(district_, DistrictKey(w, d), &buf));
  DistrictRow dr{};
  SKEENA_RETURN_NOT_OK(Decode(buf, &dr));
  const uint32_t from_o = dr.next_o_id > 20 ? dr.next_o_id - 20 : 1;

  // Items of the district's last 20 orders (spec 2.8.2.2).
  std::set<uint32_t> items;
  const Key district = DistrictKey(w, d);
  SKEENA_RETURN_NOT_OK(txn.Scan(
      order_line_, OrderKey(w, d, from_o), 0,
      [&](const Key& key, const std::string& value) {
        if (!KeyHasPrefix(key, district, 3)) return false;
        OrderLineRow lr{};
        if (value.size() == sizeof(lr)) {
          std::memcpy(&lr, value.data(), sizeof(lr));
          items.insert(lr.i_id);
        }
        return true;
      }));
  uint64_t low_stock = 0;
  for (uint32_t i_id : items) {
    Status s = txn.Get(stock_, StockKey(w, i_id), &buf);
    if (s.IsNotFound()) continue;
    SKEENA_RETURN_NOT_OK(s);
    StockRow sr{};
    SKEENA_RETURN_NOT_OK(Decode(buf, &sr));
    if (sr.quantity < threshold) ++low_stock;
  }
  (void)low_stock;
  return txn.Commit();
}

void Tpcc::Check(Report* r) {
  r->Check("tpcc_populated", !load_failed_);
  // TPC-C consistency conditions 1 (W_YTD = sum(D_YTD), as deltas from the
  // initial load) and 2 (D_NEXT_O_ID - 1 = max(O_ID)).
  auto txn = db_->Begin();
  std::string buf;
  std::string problem;
  for (uint16_t w = 1; w <= kWarehouses && problem.empty(); ++w) {
    WarehouseRow wr{};
    Status s = txn->Get(warehouse_, WarehouseKey(w), &buf);
    if (s.ok()) s = Decode(buf, &wr);
    if (!s.ok()) {
      problem = "warehouse " + s.ToString();
      break;
    }
    double district_ytd = 0;
    for (uint8_t d = 1; d <= kDistricts; ++d) {
      DistrictRow dr{};
      s = txn->Get(district_, DistrictKey(w, d), &buf);
      if (s.ok()) s = Decode(buf, &dr);
      uint32_t max_o = 0;
      const Key prefix = DistrictKey(w, d);
      if (s.ok()) {
        s = txn->Scan(orders_, prefix, 0,
                      [&](const Key& key, const std::string&) {
                        if (!KeyHasPrefix(key, prefix, 3)) return false;
                        max_o = std::max(max_o, OrderIdOf(key));
                        return true;
                      });
      }
      if (!s.ok()) {
        problem = "district " + s.ToString();
        break;
      }
      if (max_o + 1 != dr.next_o_id) {
        problem = "D_NEXT_O_ID mismatch at w=" + std::to_string(w) +
                  " d=" + std::to_string(d);
        break;
      }
      district_ytd += dr.ytd;
    }
    const double w_delta = wr.ytd - kInitialWarehouseYtd;
    const double d_delta = district_ytd - kInitialDistrictYtd * kDistricts;
    if (problem.empty() && std::abs(w_delta - d_delta) > 0.01) {
      problem = "W_YTD != sum(D_YTD) at w=" + std::to_string(w);
    }
  }
  txn->Abort();
  r->Check("tpcc_consistency", problem.empty(), problem);
}

}  // namespace

std::unique_ptr<ClosedWorkload> BuildTpcc(uint64_t seed) {
  return std::make_unique<Tpcc>(seed);
}

}  // namespace skeena::benchsuite
