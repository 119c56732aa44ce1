// shuffle.hpp — key-hash partitioning for the all-to-all key exchange.
//
// MapReduce jobs on MPI exchange intermediate data with MPI_Alltoallv
// (paper Sec. 3.3): each rank partitions its KV pairs by key hash, sends
// partition j to its owner, and receives its own partitions from everyone.
// The exchange itself is FtJob's shuffle phase (core/ftjob.hpp).
#pragma once

#include <vector>

#include "mr/kv.hpp"

namespace ftmr::mr {

/// Partition `in` by partition_of_key(key, nparts), preserving pair order
/// within each partition.
std::vector<KvBuffer> partition_by_key(const KvBuffer& in, int nparts);

}  // namespace ftmr::mr
