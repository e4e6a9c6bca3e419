#ifndef SKEENA_TESTS_SUPPORT_DB_FIXTURES_H_
#define SKEENA_TESTS_SUPPORT_DB_FIXTURES_H_

// Shared test scaffolding. Every suite that stands up a Database should use
// these helpers instead of re-declaring its own options/fixture so that
// test-wide tuning (sweep gating) lives in one place.

#include <gtest/gtest.h>

#include "common/env.h"
#include "core/skeena.h"

namespace skeena::test {

/// Database options for tests: the defaults (self-clocked log flushers
/// already drain group commit in microseconds), with Skeena on or off.
inline DatabaseOptions FastOptions(bool skeena_on = true) {
  DatabaseOptions opts;
  opts.enable_skeena = skeena_on;
  return opts;
}

/// True when SKEENA_FULL_SWEEP=1: property sweeps run at paper-validation
/// length instead of the CI-friendly default.
inline bool FullSweep() { return GetEnvBool("SKEENA_FULL_SWEEP", false); }

/// Fixture owning a fast-options Database with one table in each engine.
class CrossEngineTest : public ::testing::Test {
 protected:
  explicit CrossEngineTest(DatabaseOptions opts = FastOptions())
      : db_(opts),
        mem_table_(*db_.CreateTable("mem_t", EngineKind::kMem)),
        stor_table_(*db_.CreateTable("stor_t", EngineKind::kStor)) {}

  Database db_;
  TableHandle mem_table_;
  TableHandle stor_table_;
};

}  // namespace skeena::test

#endif  // SKEENA_TESTS_SUPPORT_DB_FIXTURES_H_
