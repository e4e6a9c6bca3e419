#ifndef SKEENA_COMMON_TYPES_H_
#define SKEENA_COMMON_TYPES_H_

#include <cstdint>
#include <string_view>

namespace skeena {

/// Engine-local logical timestamp. Both engines follow the database model of
/// paper Section 2.2: a monotonically increasing counter per engine; each
/// version carries the commit timestamp of its creating transaction.
using Timestamp = uint64_t;

/// Log sequence number: a byte offset into an engine's log.
using Lsn = uint64_t;

/// Engine-local table identifier.
using TableId = uint32_t;

/// Global (cross-engine) transaction identifier, assigned by the database
/// layer. Used to pair commit-end records across both engines'
/// logs during recovery (paper Section 4.6).
using GlobalTxnId = uint64_t;

inline constexpr Timestamp kInvalidTimestamp = 0;
inline constexpr Timestamp kMaxTimestamp = ~0ull;

/// Which engine a table lives in ("home" engine, paper Section 3).
enum class EngineKind : uint8_t {
  kMem = 0,   // memory-optimized engine (ERMIA-like)
  kStor = 1,  // storage-centric engine (InnoDB-like)
};

inline constexpr int kNumEngines = 2;

inline std::string_view EngineKindToString(EngineKind kind) {
  return kind == EngineKind::kMem ? "mem" : "stor";
}

/// Isolation levels supported for both single- and cross-engine transactions
/// (paper Table 2).
enum class IsolationLevel : uint8_t {
  kReadCommitted = 0,
  kSnapshot = 1,
  kSerializable = 2,
};

inline std::string_view IsolationLevelToString(IsolationLevel iso) {
  switch (iso) {
    case IsolationLevel::kReadCommitted:
      return "read-committed";
    case IsolationLevel::kSnapshot:
      return "snapshot";
    case IsolationLevel::kSerializable:
      return "serializable";
  }
  return "unknown";
}

}  // namespace skeena

#endif  // SKEENA_COMMON_TYPES_H_
