// Seeded violation for scripts/check_invariants.py rule include-layering:
// run_checks.py places this file in src/memdb/, and memdb sits below core
// in the library DAG, so including a core header is an upward include the
// link step would not catch for a header-only use. Lexical analysis only —
// never compiled.
#include "common/status.h"  // allowed: common is below memdb
#include "core/database.h"  // BUG (intentional): core is above memdb

// #include "repl/applier.h" is commented out and must not be flagged.

namespace skeena::memdb {

int Unused() { return 0; }

}  // namespace skeena::memdb
