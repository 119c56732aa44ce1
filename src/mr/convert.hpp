// convert.hpp — KV→KMV conversion algorithms.
//
// The conversion groups a rank's post-shuffle key-value pairs by key. It is
// the dominant disk-bound step of the shuffle stage because the
// intermediate data generally exceeds memory and lives on local disk.
//
// Two algorithms are provided:
//   * convert_4pass — the original MR-MPI algorithm, which "reads and
//     writes the intermediate data four times" (paper Sec. 5.2): a key-
//     census pass, a hash-partitioning pass, a within-partition grouping
//     pass, and a final KMV emission pass.
//   * convert_2pass — FT-MRMPI's refinement (also in src/mr so the two can
//     be compared head-to-head): a log-structured first pass appends values
//     into fixed-size per-key segment chains, and a second pass merges each
//     key's segment chain into one contiguous KMV entry. Besides halving
//     the I/O it makes progress tracking trivial (one committed segment
//     list per pass), which is what the FT layer needs.
//
// Both return identical KMV content (keys in first-appearance order of the
// grouping structure; values in arrival order) — a property test asserts
// equivalence. The ConvertStats expose modeled data movement: Fig. 16 comes
// from charging these volumes to the local-disk tier.
#pragma once

#include <cstdint>

#include "mr/kv.hpp"
#include "mr/spill.hpp"

namespace ftmr::mr {

/// Data-movement accounting of one conversion. `bytes_moved` counts every
/// byte read from or written to the intermediate store across all passes —
/// the quantity that turns into disk time.
struct ConvertStats {
  size_t bytes_moved = 0;
  int passes = 0;
  size_t segments = 0;       // 2-pass only: log segments allocated
  size_t distinct_keys = 0;  // spill variant: summed over its runs
  size_t runs = 0;           // spill variant: sorted runs formed
};

/// Original MR-MPI 4-pass conversion.
KmvBuffer convert_4pass(const KvBuffer& in, ConvertStats* stats = nullptr);

/// FT-MRMPI two-pass log-structured conversion (paper Sec. 5.2).
/// `segment_bytes` is the fixed size of a log segment (values of one key
/// spill across a chain of segments; pass 2 merges each chain).
KmvBuffer convert_2pass(const KvBuffer& in, ConvertStats* stats = nullptr,
                        size_t segment_bytes = 4096);

/// Spill-aware conversion by run formation (external merge sort). `in`
/// is consumed page by page into one accumulator, booked on `in`'s
/// residency meter while it fills; whenever it reaches memory_budget / 2 it
/// converts in-core and its key-sorted run lands in `out`. Runs follow
/// arrival order and out.for_each_entry's k-way merge joins a key's values
/// across runs in run order, so it streams exactly the entries, in the
/// same key and value order, that one in-core convert of the whole input
/// produces. Runs are paged at memory_budget / runs, keeping the merge's
/// one page per run at about one budget. With no budget, or an input that
/// fits one run, the whole input converts as a single run. `two_pass =
/// false` converts every run with convert_4pass instead (the MR-MPI
/// comparator of Fig. 16: same entries, twice the data movement). The
/// stats model the in-core algorithm's passes over the whole input; page
/// I/O is what `in` and `out` charge through take_io_seconds().
Status convert_2pass_spill(SpillableKvBuffer& in, SpillableKmvBuffer& out,
                           size_t memory_budget,
                           ConvertStats* stats = nullptr,
                           size_t segment_bytes = 4096, bool two_pass = true);

}  // namespace ftmr::mr
