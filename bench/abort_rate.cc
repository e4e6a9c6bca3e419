// Reproduces the Section 6.9 abort-rate study: memory-resident TPC-C with
// per-connection home warehouses (low contention, so Skeena's snapshot
// selection and commit check dominate the abort budget), comparing the
// single-engine baselines against the recommended cross-engine schemes —
// plus the read-write microbenchmark where the paper reports up to ~5%
// additional Skeena aborts.
//
// Expected shape: baselines ~sub-1%; cross-engine schemes add only a small
// delta (paper: +0.3% TPC-C); the micro cross-engine mix shows a larger
// but bounded Skeena-attributed share.

#include "bench/common/bench_harness.h"

namespace skeena::bench {
namespace {

void Run() {
  BenchScale scale = BenchScale::FromEnv();
  int conns = scale.connections.back();
  const auto& order = Tpcc::PlacementOrder();

  auto matrix = std::make_shared<ResultMatrix>(
      "Section 6.9: TPC-C abort rates (%), memory-resident, " +
          std::to_string(conns) + " connections",
      "Scheme");

  struct Scheme {
    std::string label;
    bool skeena_on;
    std::set<std::string> mem_tables;
  };
  std::vector<Scheme> schemes;
  schemes.push_back({"InnoDB (baseline)", false, {}});
  {
    Scheme ermia{"ERMIA (baseline)", false, {}};
    for (const auto& t : order) ermia.mem_tables.insert(t);
    schemes.push_back(ermia);
  }
  schemes.push_back({"New-Order-Opt", true, {"customer", "item"}});
  schemes.push_back({"Payment-Opt", true, {"customer"}});
  {
    Scheme archive{"Archive", true, {}};
    for (const auto& t : order) {
      if (t != "history") archive.mem_tables.insert(t);
    }
    schemes.push_back(archive);
  }

  // Which Algorithm 2 bound refused each Skeena commit-check abort (the
  // split sums to the CSR's commit_aborts), as % of attempts.
  auto split = std::make_shared<ResultMatrix>(
      "Section 6.9: TPC-C commit-check aborts by failed bound (% of "
      "attempts), " +
          std::to_string(conns) + " connections",
      "Scheme");

  for (const auto& scheme : schemes) {
    RegisterCell("AbortRate/TPCC/" + scheme.label, [=] {
      TpccConfig cfg = ScaledTpccConfig(TpccConfig{}, scale);
      cfg.skeena_on = scheme.skeena_on;
      cfg.mem_tables = scheme.mem_tables;
      cfg.fixed_home_warehouse = true;  // memory-resident low-contention
      cfg.pool_fraction = 2.0;
      cfg.warehouses = std::max(cfg.warehouses, std::min(conns, 16));
      Tpcc tpcc(cfg);
      const SnapshotRegistry::Stats before = tpcc.db()->csr().stats();
      RunResult r = RunWorkload(conns, scale.duration_ms,
                                [&tpcc](int tid, Rng& rng, uint64_t* q) {
                                  return tpcc.RunMix(tid, rng, q);
                                });
      const SnapshotRegistry::Stats after = tpcc.db()->csr().stats();
      matrix->Set(scheme.label, "total abort %", r.AbortRate() * 100.0);
      matrix->Set(scheme.label, "skeena abort %",
                  r.SkeenaAbortRate() * 100.0);
      matrix->Set(scheme.label, "TPS", r.Tps());
      const double attempts = std::max<double>(
          1.0, static_cast<double>(r.commits + r.engine_aborts +
                                   r.skeena_aborts));
      auto pct = [&](uint64_t a, uint64_t b) {
        return static_cast<double>(a - b) * 100.0 / attempts;
      };
      split->Set(scheme.label, "high",
                 pct(after.commit_aborts_high, before.commit_aborts_high));
      split->Set(scheme.label, "low",
                 pct(after.commit_aborts_low, before.commit_aborts_low));
      split->Set(scheme.label, "reader tie",
                 pct(after.commit_aborts_reader_tie,
                     before.commit_aborts_reader_tie));
      split->Set(scheme.label, "sealed",
                 pct(after.commit_aborts_sealed, before.commit_aborts_sealed));
      return r;
    });
  }

  // Read-write microbenchmark companion (the "up to ~5%" remark).
  auto micro_matrix = std::make_shared<ResultMatrix>(
      "Section 6.9 companion: read-write micro abort rates (%)", "Scheme");
  MicroCache cache;
  struct MicroRow {
    std::string label;
    bool skeena_on;
    int stor_pct;
  };
  std::vector<MicroRow> micro_rows = {{"ERMIA", false, 0},
                                      {"50% InnoDB", true, 50},
                                      {"InnoDB", false, 100}};
  for (const auto& row : micro_rows) {
    RegisterCell("AbortRate/Micro/" + row.label, [=, &cache] {
      MicroConfig cfg = ScaledMicroConfig(MicroConfig{}, scale);
      cfg.read_pct = 80;
      cfg.stor_pct = row.stor_pct;
      cfg.pool_fraction = 2.0;
      MicroWorkload* wl = cache.Get(cfg, row.skeena_on);
      RunResult r = RunWorkload(conns, scale.duration_ms,
                                [wl](int t, Rng& rng, uint64_t* q) {
                                  return wl->RunOneTxn(t, rng, q);
                                });
      micro_matrix->Set(row.label, "total abort %", r.AbortRate() * 100.0);
      micro_matrix->Set(row.label, "skeena abort %",
                        r.SkeenaAbortRate() * 100.0);
      return r;
    });
  }

  ::benchmark::RunSpecifiedBenchmarks();
  matrix->Print(2);
  split->Print(2);
  micro_matrix->Print(2);
}

}  // namespace
}  // namespace skeena::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  skeena::bench::Run();
  return 0;
}
