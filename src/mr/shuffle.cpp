#include "mr/shuffle.hpp"

#include "common/hash.hpp"

namespace ftmr::mr {

std::vector<KvBuffer> partition_by_key(const KvBuffer& in, int nparts) {
  std::vector<KvBuffer> parts(static_cast<size_t>(nparts));
  // Census sweep: hash every key once, remember the destination, and size
  // each partition exactly so the copy sweep below allocates once per
  // destination arena.
  const size_t n = in.size();
  std::vector<int> dest(n);
  std::vector<size_t> counts(static_cast<size_t>(nparts), 0);
  std::vector<size_t> bytes(static_cast<size_t>(nparts), 0);
  for (size_t i = 0; i < n; ++i) {
    const KvView p = in.view(i);
    const int d = partition_of_key(p.key, nparts);
    dest[i] = d;
    counts[static_cast<size_t>(d)]++;
    bytes[static_cast<size_t>(d)] +=
        p.key.size() + p.value.size() + KvBuffer::kPairOverhead;
  }
  for (int j = 0; j < nparts; ++j) {
    parts[static_cast<size_t>(j)].reserve_records(counts[static_cast<size_t>(j)],
                                                  bytes[static_cast<size_t>(j)]);
  }
  // Copy sweep: records are already wire-encoded in the arena; routing is
  // one memcpy of the record into the (pre-sized) destination arena.
  for (size_t i = 0; i < n; ++i) {
    parts[static_cast<size_t>(dest[i])].append_record_from(in, i);
  }
  return parts;
}

}  // namespace ftmr::mr
