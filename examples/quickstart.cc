// Quickstart: create a two-engine database, declare each table's home
// engine, and run single- and cross-engine transactions through the same
// API — no up-front declaration of which transactions are cross-engine
// (paper Section 3, "Transparent Adoption").
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "core/skeena.h"

int main() {
  using namespace skeena;

  // A database holds one memory-optimized engine (ERMIA-like) and one
  // storage-centric engine (InnoDB-like); Skeena coordinates transactions
  // that span both.
  DatabaseOptions options;
  Database db(options);

  // The application only declares each table's home engine in the schema.
  TableHandle orders = *db.CreateTable("orders", EngineKind::kMem);
  TableHandle products = *db.CreateTable("products", EngineKind::kStor);

  // --- A single-engine transaction (never touches the coordinator).
  {
    auto txn = db.Begin();
    txn->Put(orders, MakeKey(1001), "order: 3x widget");
    Status s = txn->Commit();
    std::printf("single-engine commit: %s\n", s.ToString().c_str());
  }

  // --- A cross-engine transaction: same API, routed by table homes.
  {
    auto txn = db.Begin(IsolationLevel::kSnapshot);
    txn->Put(products, MakeKey(77), "widget, stock=42");
    txn->Put(orders, MakeKey(1002), "order: 1x widget");
    std::printf("transaction is cross-engine: %s\n",
                txn->is_cross_engine() ? "yes" : "no");
    Status s = txn->Commit();  // Skeena: pre-commit both, commit check,
                               // post-commit both, pipelined durability
    std::printf("cross-engine commit:  %s\n", s.ToString().c_str());
  }

  // --- Reads see one consistent snapshot across both engines.
  {
    auto txn = db.Begin();
    std::string order, product;
    txn->Get(orders, MakeKey(1002), &order);
    txn->Get(products, MakeKey(77), &product);
    std::printf("read back: '%s' / '%s'\n", order.c_str(), product.c_str());
  }

  // --- Range scans work per table.
  {
    auto txn = db.Begin();
    std::printf("orders on file:\n");
    txn->Scan(orders, kMinKey, 0,
              [](const Key& key, const std::string& value) {
                std::printf("  #%llu: %s\n",
                            static_cast<unsigned long long>(KeyPrefixU64(key)),
                            value.c_str());
                return true;
              });
  }

  SnapshotRegistry::Stats csr = db.csr().stats();
  std::printf("CSR: %llu accesses, %llu mappings\n",
              static_cast<unsigned long long>(csr.accesses),
              static_cast<unsigned long long>(csr.mappings));
  return 0;
}
