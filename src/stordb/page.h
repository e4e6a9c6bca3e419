#ifndef SKEENA_STORDB_PAGE_H_
#define SKEENA_STORDB_PAGE_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/encoding.h"
#include "common/types.h"

namespace skeena::stordb {

/// Page size. InnoDB's default is 16KB; we use the same so slot-per-page
/// arithmetic (and therefore buffer-pool miss behaviour for a given row
/// size) is comparable.
inline constexpr size_t kPageSize = 16 * 1024;
inline constexpr size_t kPageHeaderSize = 16;

/// Record identifier: table (16 bits) | page number (32 bits) | slot (16
/// bits). Also used as the lock id by the lock manager.
using Rid = uint64_t;

inline Rid MakeRid(TableId table, uint32_t page_no, uint16_t slot) {
  return (static_cast<uint64_t>(table) << 48) |
         (static_cast<uint64_t>(page_no) << 16) | slot;
}
inline TableId RidTable(Rid rid) { return static_cast<TableId>(rid >> 48); }
inline uint32_t RidPage(Rid rid) {
  return static_cast<uint32_t>((rid >> 16) & 0xffffffffull);
}
inline uint16_t RidSlot(Rid rid) { return static_cast<uint16_t>(rid); }

/// Fixed-size row slot layout inside a page. stordb tables declare a
/// maximum value size so updates happen in place, like InnoDB's
/// non-reorganizing update path; old images go to the undo chain.
///
///   [flags u8][tid u64][roll_ptr u64][vlen u32][key 16B][value max_value]
///
/// `roll_ptr` is an in-memory pointer to the newest UndoRecord for the row
/// (InnoDB keeps undo in rollback segments; we keep it in the writing
/// transaction's in-memory UndoArena, see DESIGN.md). It is only
/// meaningful within the current process: recovery rebuilds pages from the
/// redo log, never from old page images.
struct RowHeader {
  static constexpr uint8_t kFlagInUse = 1;
  static constexpr uint8_t kFlagDeleted = 2;

  uint8_t flags = 0;
  uint64_t tid = 0;
  uint64_t roll_ptr = 0;
  uint32_t vlen = 0;

  static constexpr size_t kEncodedSize = 1 + 8 + 8 + 4;

  bool in_use() const { return (flags & kFlagInUse) != 0; }
  bool deleted() const { return (flags & kFlagDeleted) != 0; }
};

inline constexpr size_t RowSlotSize(size_t max_value_size) {
  return RowHeader::kEncodedSize + 16 /*key*/ + max_value_size;
}

inline constexpr size_t SlotsPerPage(size_t max_value_size) {
  return (kPageSize - kPageHeaderSize) / RowSlotSize(max_value_size);
}

inline size_t SlotOffset(uint16_t slot, size_t max_value_size) {
  return kPageHeaderSize + static_cast<size_t>(slot) * RowSlotSize(max_value_size);
}

/// Reads the row header + key at `p` (start of a slot).
inline void DecodeRowHeader(const uint8_t* p, RowHeader* hdr, Key* key) {
  hdr->flags = p[0];
  std::memcpy(&hdr->tid, p + 1, 8);
  std::memcpy(&hdr->roll_ptr, p + 9, 8);
  std::memcpy(&hdr->vlen, p + 17, 4);
  if (key != nullptr) std::memcpy(key->data(), p + 21, 16);
}

inline void EncodeRowHeader(uint8_t* p, const RowHeader& hdr, const Key& key) {
  p[0] = hdr.flags;
  std::memcpy(p + 1, &hdr.tid, 8);
  std::memcpy(p + 9, &hdr.roll_ptr, 8);
  std::memcpy(p + 17, &hdr.vlen, 4);
  std::memcpy(p + 21, key.data(), 16);
}

/// Rewrites only the header fields, leaving the key bytes in the slot
/// untouched (rollback restores old images without re-encoding the key).
inline void EncodeRowHeaderFields(uint8_t* p, const RowHeader& hdr) {
  p[0] = hdr.flags;
  std::memcpy(p + 1, &hdr.tid, 8);
  std::memcpy(p + 9, &hdr.roll_ptr, 8);
  std::memcpy(p + 17, &hdr.vlen, 4);
}

inline const uint8_t* RowValuePtr(const uint8_t* slot_start) {
  return slot_start + RowHeader::kEncodedSize + 16;
}
inline uint8_t* RowValuePtr(uint8_t* slot_start) {
  return slot_start + RowHeader::kEncodedSize + 16;
}

}  // namespace skeena::stordb

#endif  // SKEENA_STORDB_PAGE_H_
