#include "micro.h"

#include <algorithm>
#include <string>
#include <vector>

#include "stordb/page.h"

namespace skeena::benchsuite {
namespace {

constexpr int kTables = 16;  // per engine
constexpr uint64_t kRows = 1000;
constexpr size_t kValueSize = 232;
constexpr int kOps = 10;
constexpr int kReadPct = 80;
constexpr uint64_t kLoadBatch = 250;

class Micro : public ClosedWorkload {
 public:
  Micro(bool cross, uint64_t seed) : cross_(cross) {
    Rand rng = Rand::Stream(seed, 0);
    for (size_t i = 0; i < kValueSize; ++i) {
      value_.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }

    // Buffer pool holds every stordb page twice over: no misses, so the
    // micro measures coordination cost, not the storage stack.
    const size_t pages_per_table =
        (kRows + stordb::SlotsPerPage(kValueSize) - 1) /
        stordb::SlotsPerPage(kValueSize);
    DatabaseOptions opts;
    opts.stor.buffer_pool_pages =
        std::max<size_t>(2 * pages_per_table * kTables, 64);
    db_ = std::make_unique<Database>(opts);
    for (int t = 0; t < kTables; ++t) {
      for (EngineKind e : {EngineKind::kMem, EngineKind::kStor}) {
        std::string name = std::string(e == EngineKind::kMem ? "mem_" : "stor_") +
                           std::to_string(t);
        tables_[static_cast<int>(e)].push_back(
            *db_->CreateTable(name, e, kValueSize));
      }
    }

    // One loader thread keeps the memory layout, and so setup_heap_mb, the
    // same from run to run.
    for (const auto& engine_tables : tables_) {
      for (const TableHandle& t : engine_tables) {
        for (uint64_t lo = 0; lo < kRows && !load_failed_; lo += kLoadBatch) {
          load_failed_ = !LoadBatch(t, lo, std::min(lo + kLoadBatch, kRows));
        }
      }
    }
  }

  Database* db() override { return db_.get(); }

  Status RunTxn(ClientCtx& ctx) override {
    const int mem_ops = cross_ ? kOps / 2 : kOps;
    const int reads[kNumEngines] = {mem_ops * kReadPct / 100,
                                    (kOps - mem_ops) * kReadPct / 100};
    int done[kNumEngines] = {0, 0};
    std::string v;
    TracedTxn txn(db_.get(), ctx);
    for (int i = 0; i < kOps; ++i) {
      const int e = static_cast<int>(!cross_ || i % 2 == 0 ? EngineKind::kMem
                                                           : EngineKind::kStor);
      const bool read = done[e]++ < reads[e];
      const TableHandle& t = tables_[e][ctx.rng.Uniform(kTables)];
      const Key key = MakeKey(ctx.rng.Uniform(kRows));
      Status s;
      if (read) {
        s = txn.Get(t, key, &v);
        if (s.IsNotFound() || (s.ok() && v.size() != kValueSize)) {
          return Status::Corruption("row missing or resized in " + t.name);
        }
      } else {
        s = txn.Put(t, key, value_);
      }
      if (!s.ok()) return s;
    }
    return txn.Commit();
  }

  void Check(Report* r) override {
    r->Check("micro_populated", !load_failed_);
    for (const auto& engine_tables : tables_) {
      for (const TableHandle& t : engine_tables) {
        uint64_t rows = 0;
        bool sizes_ok = true;
        auto txn = db_->Begin();
        Status s = txn->Scan(t, kMinKey, 0,
                             [&](const Key&, const std::string& value) {
                               ++rows;
                               sizes_ok = sizes_ok && value.size() == kValueSize;
                               return true;
                             });
        if (s.ok()) s = txn->Commit();
        if (!s.ok() || rows != kRows || !sizes_ok) {
          r->Check("micro_row_counts", false,
                   t.name + " rows=" + std::to_string(rows) + " " +
                       s.ToString());
          return;
        }
      }
    }
    r->Check("micro_row_counts", true);
  }

 private:
  bool LoadBatch(const TableHandle& t, uint64_t lo, uint64_t hi) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      auto txn = db_->Begin();
      bool ok = true;
      for (uint64_t row = lo; row < hi && ok; ++row) {
        ok = txn->Put(t, MakeKey(row), value_).ok();
      }
      if (ok && txn->Commit().ok()) return true;
    }
    return false;
  }

  const bool cross_;
  std::string value_;
  std::unique_ptr<Database> db_;
  std::vector<TableHandle> tables_[kNumEngines];  // indexed by EngineKind
  bool load_failed_ = false;
};

}  // namespace

std::unique_ptr<ClosedWorkload> BuildMicro(bool cross, uint64_t seed) {
  return std::make_unique<Micro>(cross, seed);
}

}  // namespace skeena::benchsuite
