#ifndef SKEENA_BENCHSUITE_TPCC_H_
#define SKEENA_BENCHSUITE_TPCC_H_

#include <cstdint>
#include <memory>

#include "harness.h"

namespace skeena::benchsuite {

/// TPC-C (paper Section 6.2) with the New-Order-Opt placement: customer
/// (with its name index) and item in memdb, the other tables in stordb.
/// 4 warehouses x 10 districts x 120 customers, 2000 items; each client
/// works a fixed home warehouse (client % 4 + 1) with the standard
/// 45/43/4/4/4 mix. The stordb buffer pool is 256 pages (4 MiB, about a
/// quarter of the initial stordb data) with TmpfsStack page latency, so
/// the data outgrows the program's own cache.
std::unique_ptr<ClosedWorkload> BuildTpcc(uint64_t seed);

}  // namespace skeena::benchsuite

#endif  // SKEENA_BENCHSUITE_TPCC_H_
