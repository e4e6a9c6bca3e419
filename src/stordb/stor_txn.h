#ifndef SKEENA_STORDB_STOR_TXN_H_
#define SKEENA_STORDB_STOR_TXN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/encoding.h"
#include "common/types.h"
#include "log/engine_iface.h"
#include "stordb/page.h"
#include "stordb/trx_sys.h"

namespace skeena::stordb {

/// Before-image of a row, linked into the row's roll-pointer chain.
/// Readers whose view cannot see the row's current version walk this chain
/// applying old images until a visible version is found — InnoDB-style
/// version reconstruction from undo (paper Section 5).
///
/// Records and their images live in the writing transaction's UndoArena,
/// never in a heap object of their own, so the type is trivially
/// destructible: freeing the arena's chunks frees the records.
struct UndoRecord {
  Rid rid = 0;
  uint64_t old_tid = 0;
  UndoRecord* old_roll = nullptr;
  /// The transaction's undo list, newest first (the rollback order).
  UndoRecord* next_in_txn = nullptr;
  std::string_view old_value;  // before-image, in the same arena
  bool old_deleted = false;  // true for an insert: no row existed before

  /// Undo records handed to the engine by finished transactions and not
  /// yet freed (pending FIFO, epoch limbo). A transaction's records join
  /// the count when its arena is released at finish, and leave it when
  /// their chunks are freed. Reclaim tests assert this returns to zero
  /// once every transaction has finished and purge + epoch drain have run.
  static size_t LiveCount() {
    // relaxed-ok: leak-check gauge, read only at quiescent points.
    return live_count_.load(std::memory_order_relaxed);
  }

 private:
  friend class UndoArena;
  inline static std::atomic<size_t> live_count_{0};
};

/// After-image buffered for the redo log (written at post-commit). Lives in
/// the transaction's redo arena; `value` views arena bytes. Entries chain in
/// write order, which is the order redo replays them.
struct RedoEntry {
  RedoEntry* next = nullptr;
  TableId table = 0;
  Key key{};
  std::string_view value;
  bool tombstone = false;
};

/// A transaction's bump allocator. Chunks are chained newest first;
/// allocation is a pointer bump, and a chunk is malloc'ed only when the
/// current one is full. Each StorTxn owns two:
///  * the undo arena holds its undo records and before-images — the role
///    of InnoDB's undo pages in a rollback segment. When the transaction
///    finishes, Release() hands the whole chunk list over as its undo
///    batch, so purge frees a few chunks per transaction instead of one
///    heap object per record and image;
///  * the redo arena holds its redo entries and after-images. Only
///    PostCommit reads them, so Clear() frees them when the transaction
///    finishes instead of letting them wait for purge with the undo batch.
class UndoArena {
 public:
  /// Allocation size of a chunk, header included. A request larger than a
  /// chunk's payload gets a chunk sized to fit it.
  static constexpr size_t kChunkBytes = 4096;

  struct Chunk {
    // The next older chunk; past a batch's tail, the next batch's head.
    Chunk* next = nullptr;
    size_t undo_records = 0;
  };

  /// A finished transaction's undo batch: its chunk list, newest first.
  /// Batches concatenate by linking one's tail to the next one's head.
  struct Batch {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    size_t undo_records = 0;
  };

  UndoArena() = default;
  ~UndoArena() { Clear(); }

  UndoArena(const UndoArena&) = delete;
  UndoArena& operator=(const UndoArena&) = delete;

  /// Makes the next `bytes` bytes of allocations (counting alignment
  /// padding) come from the current chunk, so a caller can allocate under
  /// a page latch without calling malloc there.
  void Reserve(size_t bytes) {
    if (static_cast<size_t>(end_ - cur_) < bytes) NewChunk(bytes);
  }

  /// A zeroed undo record, counted in its chunk.
  UndoRecord* NewUndo() {
    UndoRecord* u = new (Allocate(sizeof(UndoRecord), alignof(UndoRecord)))
        UndoRecord();
    head_->undo_records++;
    undo_records_++;
    return u;
  }
  RedoEntry* NewRedo() {
    return new (Allocate(sizeof(RedoEntry), alignof(RedoEntry))) RedoEntry();
  }
  /// Copies `bytes` into the arena and returns the copy.
  std::string_view Copy(std::string_view bytes) {
    if (bytes.empty()) return {};
    char* p = static_cast<char*>(Allocate(bytes.size(), 1));
    std::memcpy(p, bytes.data(), bytes.size());
    return {p, bytes.size()};
  }

  /// Hands the chunk list over as an undo batch (its records join
  /// UndoRecord::LiveCount()) and leaves the arena empty.
  Batch Release() {
    Batch b{head_, tail_, undo_records_};
    // relaxed-ok: leak-check gauge, read only at quiescent points.
    if (undo_records_ != 0) {
      UndoRecord::live_count_.fetch_add(undo_records_,
                                        std::memory_order_relaxed);
    }
    head_ = tail_ = nullptr;
    cur_ = end_ = nullptr;
    undo_records_ = 0;
    return b;
  }

  /// Frees the chunks at once and leaves the arena empty.
  void Clear() { Free(Release().head); }

  /// Frees a released chunk list — one batch, or several concatenated —
  /// and takes its records out of the live count.
  static void Free(Chunk* head) {
    size_t records = 0;
    while (head != nullptr) {
      Chunk* next = head->next;
      records += head->undo_records;
      ::operator delete(head);
      head = next;
    }
    // relaxed-ok: leak-check gauge, read only at quiescent points.
    if (records != 0) {
      UndoRecord::live_count_.fetch_sub(records, std::memory_order_relaxed);
    }
  }

 private:
  void* Allocate(size_t bytes, size_t align) {
    size_t pad = -reinterpret_cast<uintptr_t>(cur_) & (align - 1);
    if (static_cast<size_t>(end_ - cur_) < pad + bytes) {
      NewChunk(bytes);  // a chunk's payload starts max-aligned
      pad = 0;
    }
    char* p = cur_ + pad;
    cur_ = p + bytes;
    return p;
  }

  void NewChunk(size_t min_payload) {
    size_t size = std::max(kChunkBytes, sizeof(Chunk) + min_payload);
    Chunk* c = new (::operator new(size)) Chunk();
    c->next = head_;
    head_ = c;
    if (tail_ == nullptr) tail_ = c;
    cur_ = reinterpret_cast<char*>(c + 1);
    end_ = reinterpret_cast<char*>(c) + size;
  }

  Chunk* head_ = nullptr;  // current chunk
  Chunk* tail_ = nullptr;  // first chunk allocated
  char* cur_ = nullptr;
  char* end_ = nullptr;
  size_t undo_records_ = 0;
};

static_assert(std::is_trivially_destructible_v<UndoRecord> &&
                  std::is_trivially_destructible_v<RedoEntry>,
              "arena objects are freed with their chunks, never destroyed");

/// A stordb (sub-)transaction.
///
/// Writes are performed in place under record X locks with before-images
/// pushed to the undo chain, so other transactions read through their views
/// while this one is active, and rollback restores the old images. The
/// pre-/post-commit split (serialisation_no assignment vs. making the
/// commit visible and releasing locks) is the interface Skeena's commit
/// protocol drives (paper Sections 4.5 and 5).
class StorTxn final : public SubTxn {
 public:
  enum class State : uint8_t {
    kActive,
    kPreCommitted,
    kCommitted,
    kAborted,
  };

  explicit StorTxn(IsolationLevel iso) : iso_(iso) {}

  StorTxn(const StorTxn&) = delete;
  StorTxn& operator=(const StorTxn&) = delete;

  IsolationLevel isolation() const { return iso_; }
  State state() const { return state_; }
  uint64_t tid() const { return tid_; }
  uint64_t ser_no() const { return ser_no_; }
  bool read_only() const { return redo_count_ == 0; }
  const ReadView& view() const { return view_; }
  bool has_view() const { return has_view_; }

 private:
  friend class StorEngine;

  IsolationLevel iso_;
  State state_ = State::kActive;
  uint64_t tid_ = 0;     // assigned at first write (InnoDB-style)
  uint64_t ser_no_ = 0;  // assigned at pre-commit
  uint64_t lock_owner_ = 0;  // distinct id for the lock manager

  static constexpr size_t kNoSlot = ~size_t{0};

  ReadView view_;
  bool has_view_ = false;
  size_t view_slot_ = kNoSlot;
  // Slot in the engine's committing-window registry, held from the
  // serialisation-number draw until the last log append (replication
  // horizon).
  size_t committing_slot_ = kNoSlot;
  // Desired cross-engine snapshot for lazily created views
  // (kMaxTimestamp = native view).
  uint64_t pending_ser_limit_ = kMaxTimestamp;

  // Undo records and before-images, released to the engine as this
  // transaction's undo batch when it finishes; redo entries and
  // after-images, freed when it finishes (the pointers below are cleared
  // then).
  UndoArena undo_arena_;
  UndoArena redo_arena_;
  UndoRecord* undo_head_ = nullptr;  // newest first (rollback order)
  RedoEntry* redo_head_ = nullptr;   // write order (replay order)
  RedoEntry* redo_last_ = nullptr;
  size_t redo_count_ = 0;  // kept after finish: read_only() stays valid
  std::vector<Rid> locks_;
};

}  // namespace skeena::stordb

#endif  // SKEENA_STORDB_STOR_TXN_H_
