#ifndef SKEENA_BENCHSUITE_MICRO_H_
#define SKEENA_BENCHSUITE_MICRO_H_

#include <cstdint>
#include <memory>

#include "harness.h"

namespace skeena::benchsuite {

/// Memory-resident YCSB-like micro (paper Section 6.2): 16 tables per
/// engine x 1000 rows x 232 B, buffer pool 2x the stordb pages. Each
/// transaction does 10 uniform-key ops, 80 % reads, under SI. `cross`
/// splits the ops 5 memdb / 5 stordb (alternating, memdb first); otherwise
/// all 10 go to memdb with Skeena still on (the paper's ERMIA-S).
std::unique_ptr<ClosedWorkload> BuildMicro(bool cross, uint64_t seed);

}  // namespace skeena::benchsuite

#endif  // SKEENA_BENCHSUITE_MICRO_H_
