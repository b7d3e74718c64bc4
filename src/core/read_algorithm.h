// Algorithm 1 (AtomicRead version selection) and Algorithm 2 (transaction
// supersedence) from the paper.

#ifndef SRC_CORE_READ_ALGORITHM_H_
#define SRC_CORE_READ_ALGORITHM_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/core/commit_set_cache.h"
#include "src/core/key_version_index.h"
#include "src/core/transaction.h"

namespace aft {

// Outcome of Algorithm 1 for a requested key.
struct AtomicReadChoice {
  enum class Kind {
    // A concrete committed version was selected.
    kVersion,
    // No version of the key is compatible *and* nothing in R requires one:
    // the read observes the NULL version (key absent as of the snapshot).
    kNullVersion,
    // R requires a version at least as new as `lower`, but no valid version
    // exists (e.g. conflicting cowrites, or the data was garbage collected).
    // The transaction must abort and retry (§3.6, §5.2.1).
    kNoValidVersion,
  };

  Kind kind = Kind::kNullVersion;
  TxnId version;           // Set when kind == kVersion.
  CommitRecordPtr record;  // The chosen version's commit record (pinned).
  // How many candidate versions the newest-first walk examined before
  // settling (0 for read-set-pinned and NULL outcomes) — the Algorithm-1
  // resolution depth exposed as aft_node_read_walk_depth.
  uint32_t candidates_examined = 0;
};

// Runs Algorithm 1: picks the newest committed version of `key` such that
// read_set ∪ {k_version} is still an Atomic Readset (Definition 1).
//
//  * Lines 3-5: `lower` = max id over entries l_i in R with k ∈ l_i.cowritten
//    — we must return k_j with j >= lower (case 1 of Theorem 1).
//  * Lines 13-23: walk candidates newest-first; a candidate k_t is invalid if
//    some cowritten key l of T_t was read in R at a version older than t
//    (case 2 — we should have been given l_t earlier).
//
// Candidates whose commit record has been concurrently GC'd from `commits`
// are skipped (they cannot be validated); this can only make reads staler,
// never incorrect.
AtomicReadChoice SelectAtomicReadVersion(
    const std::string& key, const std::unordered_map<std::string, ReadSetEntry>& read_set,
    const KeyVersionIndex& index, const CommitSetCache& commits);

// Whether `version` of `key` (the NULL version when null; else written by
// `record`) still extends `read_set` to an Atomic Readset: it is at least
// the lower bound of lines 3-5 and passes the case-2 check of lines 14-19.
// Newer versions committed since it was chosen do not make it invalid, so
// a read whose fetch overlapped a commit may keep what it fetched.
bool IsValidAtomicRead(const std::string& key, const TxnId& version,
                       const CommitRecord* record,
                       const std::unordered_map<std::string, ReadSetEntry>& read_set);

// The read set a multi-key read selects and revalidates each key against:
// the transaction's read set plus the versions chosen for the batch's
// earlier keys, so key i+1 sees key i's choice exactly as if the reads had
// been issued sequentially and the whole batch is one valid Atomic Readset
// extension (the multi-key read of Table 1). The transaction's map is never
// modified; it is copied when the first choice is folded in, so a read that
// folds nothing (one key) copies nothing.
class ReadSetFold {
 public:
  using Map = std::unordered_map<std::string, ReadSetEntry>;

  explicit ReadSetFold(const Map& read_set) : read_set_(read_set) {}

  const Map& get() const { return working_.has_value() ? *working_ : read_set_; }

  void Add(const std::string& key, ReadSetEntry entry) {
    if (!working_.has_value()) {
      working_.emplace(read_set_);
    }
    (*working_)[key] = std::move(entry);
  }

 private:
  const Map& read_set_;
  std::optional<Map> working_;
};

// Algorithm 2, generalized: T is superseded iff every key in its write set
// has a committed version strictly newer than T. (The paper's formulation
// `latest == i -> not superseded` assumes T is already merged into the local
// index; this form is equivalent there and also correct for records received
// via multicast that were never merged.)
bool IsTransactionSuperseded(const CommitRecord& record, const KeyVersionIndex& index);

}  // namespace aft

#endif  // SRC_CORE_READ_ALGORITHM_H_
