// Failure-free semantics of the simulated MPI runtime: point-to-point,
// collectives, communicator management, and the virtual clock.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>

#include "simmpi/runtime.hpp"
#include "tests/test_names.hpp"
#include "tests/test_seed.hpp"

namespace ftmr::simmpi {
namespace {

TEST(Runtime, AllRanksRunAndFinish) {
  std::atomic<int> count{0};
  JobResult r = Runtime::run(8, [&](Comm&) { count++; });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(r.finished_count(), 8);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.killed_count(), 0);
}

TEST(Runtime, RankAndSizeAreCorrect) {
  std::atomic<int> rank_sum{0};
  Runtime::run(5, [&](Comm& c) {
    EXPECT_EQ(c.size(), 5);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 5);
    rank_sum += c.rank();
  });
  EXPECT_EQ(rank_sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(PointToPoint, SendRecvDeliversPayload) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      ASSERT_TRUE(c.send_string(1, 7, "payload").ok());
    } else {
      Bytes out;
      MessageInfo info;
      ASSERT_TRUE(c.recv(0, 7, out, &info).ok());
      EXPECT_EQ(to_string_copy(out), "payload");
      EXPECT_EQ(info.source, 0);
      EXPECT_EQ(info.tag, 7);
      EXPECT_EQ(info.size, 7u);
    }
  });
}

TEST(PointToPoint, TagMatchingIsSelective) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      ASSERT_TRUE(c.send_string(1, 1, "first").ok());
      ASSERT_TRUE(c.send_string(1, 2, "second").ok());
    } else {
      Bytes out;
      // Receive tag 2 first even though tag 1 arrived first.
      ASSERT_TRUE(c.recv(0, 2, out).ok());
      EXPECT_EQ(to_string_copy(out), "second");
      ASSERT_TRUE(c.recv(0, 1, out).ok());
      EXPECT_EQ(to_string_copy(out), "first");
    }
  });
}

TEST(PointToPoint, FifoPerSenderAndTag) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        ByteWriter w;
        w.put<int32_t>(i);
        ASSERT_TRUE(c.send(1, 5, w.bytes()).ok());
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        Bytes out;
        ASSERT_TRUE(c.recv(0, 5, out).ok());
        ByteReader r(out);
        int32_t v = -1;
        ASSERT_TRUE(r.get(v).ok());
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(PointToPoint, AnySourceReceivesFromAll) {
  Runtime::run(4, [](Comm& c) {
    if (c.rank() == 0) {
      int seen[4] = {};
      for (int i = 0; i < 3; ++i) {
        Bytes out;
        MessageInfo info;
        ASSERT_TRUE(c.recv(kAnySource, kAnyTag, out, &info).ok());
        seen[info.source]++;
      }
      EXPECT_EQ(seen[1] + seen[2] + seen[3], 3);
    } else {
      ASSERT_TRUE(c.send_string(0, c.rank(), "hi").ok());
    }
  });
}

TEST(PointToPoint, IprobeSeesPendingMessage) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      ASSERT_TRUE(c.send_string(1, 3, "x").ok());
      ASSERT_TRUE(c.send_string(1, 9, "done").ok());
    } else {
      Bytes out;
      ASSERT_TRUE(c.recv(0, 9, out).ok());  // ensures both messages arrived
      MessageInfo info;
      EXPECT_TRUE(c.iprobe(0, 3, &info));
      EXPECT_EQ(info.size, 1u);
      EXPECT_FALSE(c.iprobe(0, 42));
      ASSERT_TRUE(c.recv(0, 3, out).ok());
      EXPECT_FALSE(c.iprobe(0, 3));
    }
  });
}

TEST(PointToPoint, SelfSendWorks) {
  Runtime::run(1, [](Comm& c) {
    ASSERT_TRUE(c.send_string(0, 1, "me").ok());
    Bytes out;
    ASSERT_TRUE(c.recv(0, 1, out).ok());
    EXPECT_EQ(to_string_copy(out), "me");
  });
}

TEST(Collectives, BarrierCompletes) {
  JobResult r = Runtime::run(8, [](Comm& c) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(c.barrier().ok());
  });
  EXPECT_EQ(r.finished_count(), 8);
}

TEST(Collectives, BcastFromEachRoot) {
  Runtime::run(4, [](Comm& c) {
    for (int root = 0; root < 4; ++root) {
      Bytes data;
      if (c.rank() == root) data = to_bytes("from" + std::to_string(root));
      ASSERT_TRUE(c.bcast(root, data).ok());
      EXPECT_EQ(to_string_copy(data), "from" + std::to_string(root));
    }
  });
}

TEST(Collectives, ReduceSumToRoot) {
  Runtime::run(6, [](Comm& c) {
    std::vector<double> in{static_cast<double>(c.rank()), 1.0};
    std::vector<double> out;
    ASSERT_TRUE(c.reduce(2, ReduceOp::kSum, in, out).ok());
    if (c.rank() == 2) {
      ASSERT_EQ(out.size(), 2u);
      EXPECT_DOUBLE_EQ(out[0], 0 + 1 + 2 + 3 + 4 + 5);
      EXPECT_DOUBLE_EQ(out[1], 6.0);
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

TEST(Collectives, AllreduceMinMax) {
  Runtime::run(5, [](Comm& c) {
    int64_t mn = 0, mx = 0;
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kMin, int64_t{c.rank() + 10}, mn).ok());
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kMax, int64_t{c.rank() + 10}, mx).ok());
    EXPECT_EQ(mn, 10);
    EXPECT_EQ(mx, 14);
  });
}

TEST(Collectives, AllreduceLogicalOps) {
  Runtime::run(4, [](Comm& c) {
    int64_t land = -1, lor = -1;
    const int64_t mine = (c.rank() == 2) ? 0 : 1;
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kLand, mine, land).ok());
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kLor, mine, lor).ok());
    EXPECT_EQ(land, 0);
    EXPECT_EQ(lor, 1);
  });
}

TEST(Collectives, GatherVariableSizes) {
  Runtime::run(4, [](Comm& c) {
    const std::string mine(static_cast<size_t>(c.rank() + 1), 'a' + c.rank());
    std::vector<Bytes> out;
    ASSERT_TRUE(c.gather(0, as_bytes_view(mine), out).ok());
    if (c.rank() == 0) {
      ASSERT_EQ(out.size(), 4u);
      EXPECT_EQ(to_string_copy(out[0]), "a");
      EXPECT_EQ(to_string_copy(out[3]), "dddd");
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

TEST(Collectives, AllgatherEveryoneSeesAll) {
  Runtime::run(3, [](Comm& c) {
    const std::string mine = tests::numbered("r", c.rank());
    std::vector<Bytes> out;
    ASSERT_TRUE(c.allgather(as_bytes_view(mine), out).ok());
    ASSERT_EQ(out.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(to_string_copy(out[i]), tests::numbered("r", i));
    }
  });
}

TEST(Collectives, AlltoallExchangesBlocks) {
  constexpr int kP = 5;
  Runtime::run(kP, [](Comm& c) {
    std::vector<Bytes> send(kP);
    for (int j = 0; j < kP; ++j) {
      send[j] = to_bytes(std::to_string(c.rank()) + "->" + std::to_string(j));
    }
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(send, recv).ok());
    ASSERT_EQ(recv.size(), static_cast<size_t>(kP));
    for (int i = 0; i < kP; ++i) {
      EXPECT_EQ(to_string_copy(recv[i]),
                std::to_string(i) + "->" + std::to_string(c.rank()));
    }
  });
}

TEST(Collectives, AlltoallEmptyBlocksAllowed) {
  constexpr int kP = 3;
  Runtime::run(kP, [](Comm& c) {
    std::vector<Bytes> send(kP);  // all empty
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(send, recv).ok());
    ASSERT_EQ(recv.size(), static_cast<size_t>(kP));
    for (const Bytes& b : recv) EXPECT_TRUE(b.empty());
  });
}

// Reference payload of the (src, dst) block for a randomized alltoall:
// empty with probability 1 - density, else 1..64 bytes derived from the
// triple, so every rank can compute every block without communicating.
Bytes reference_block(uint64_t seed, int src, int dst, double density) {
  std::mt19937_64 rng(seed ^ (static_cast<uint64_t>(src) << 32) ^
                      static_cast<uint64_t>(dst));
  if (std::uniform_real_distribution<double>(0.0, 1.0)(rng) >= density) return {};
  Bytes b(1 + rng() % 64);
  for (std::byte& x : b) x = static_cast<std::byte>(rng());
  return b;
}

TEST(Collectives, AlltoallRandomSparseMatchesReference) {
  // recv[i] must be exactly what rank i addressed to me, empty or not, and
  // the clock must follow the unchanged cost formula: max arrival + p
  // latencies + (bytes sent + bytes received) / bandwidth.
  const uint64_t seed = tests::test_seed(0xa2a);
  for (const int p : {1, 2, 7, 16}) {
    for (const double density : {0.0, 0.1, 0.5, 1.0}) {
      Runtime::run(p, [&](Comm& c) {
        std::vector<Bytes> send(static_cast<size_t>(p));
        size_t sent = 0, received = 0;
        for (int dst = 0; dst < p; ++dst) {
          send[static_cast<size_t>(dst)] = reference_block(seed, c.rank(), dst, density);
          sent += send[static_cast<size_t>(dst)].size();
          received += reference_block(seed, dst, c.rank(), density).size();
        }
        std::vector<Bytes> recv{Bytes{std::byte{1}}};  // stale content is replaced
        ASSERT_TRUE(c.alltoall(send, recv).ok());
        ASSERT_EQ(recv.size(), static_cast<size_t>(p));
        for (int src = 0; src < p; ++src) {
          EXPECT_EQ(recv[static_cast<size_t>(src)],
                    reference_block(seed, src, c.rank(), density))
              << "p=" << p << " density=" << density << " src=" << src;
        }
        const NetworkModel net;
        EXPECT_DOUBLE_EQ(c.now(), 0.0 + static_cast<double>(p) * net.latency_s +
                                      static_cast<double>(sent + received) /
                                          net.bandwidth_Bps);
      });
    }
  }
}

TEST(Comms, DupGivesIndependentMatching) {
  Runtime::run(2, [](Comm& c) {
    Comm d;
    ASSERT_TRUE(c.dup(d).ok());
    ASSERT_EQ(d.size(), 2);
    ASSERT_EQ(d.rank(), c.rank());
    if (c.rank() == 0) {
      ASSERT_TRUE(c.send_string(1, 1, "on-world").ok());
      ASSERT_TRUE(d.send_string(1, 1, "on-dup").ok());
    } else {
      Bytes out;
      ASSERT_TRUE(d.recv(0, 1, out).ok());
      EXPECT_EQ(to_string_copy(out), "on-dup");  // not the world message
      ASSERT_TRUE(c.recv(0, 1, out).ok());
      EXPECT_EQ(to_string_copy(out), "on-world");
    }
  });
}

TEST(Comms, SplitByParity) {
  Runtime::run(6, [](Comm& c) {
    Comm sub;
    ASSERT_TRUE(c.split(c.rank() % 2, c.rank(), sub).ok());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    int64_t sum = 0;
    ASSERT_TRUE(sub.allreduce_one(ReduceOp::kSum, int64_t{c.rank()}, sum).ok());
    EXPECT_EQ(sum, c.rank() % 2 ? 1 + 3 + 5 : 0 + 2 + 4);
  });
}

TEST(Comms, SplitUndefinedColorGetsInvalidComm) {
  Runtime::run(4, [](Comm& c) {
    Comm sub;
    ASSERT_TRUE(c.split(c.rank() == 0 ? -1 : 0, 0, sub).ok());
    if (c.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(VirtualTime, ComputeAdvancesClock) {
  Runtime::run(1, [](Comm& c) {
    const double t0 = c.now();
    c.compute(1.5);
    EXPECT_NEAR(c.now() - t0, 1.5, 1e-12);
  });
}

TEST(VirtualTime, BarrierSynchronizesClocks) {
  Runtime::run(4, [](Comm& c) {
    c.compute(c.rank() == 3 ? 10.0 : 0.5);
    ASSERT_TRUE(c.barrier().ok());
    EXPECT_GE(c.now(), 10.0);  // everyone waited for the slow rank
  });
}

TEST(VirtualTime, MessageCarriesLatency) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.compute(2.0);
      ASSERT_TRUE(c.send_string(1, 0, "late").ok());
    } else {
      Bytes out;
      ASSERT_TRUE(c.recv(0, 0, out).ok());
      EXPECT_GE(c.now(), 2.0);  // receive completes after the send time
    }
  });
}

TEST(VirtualTime, MakespanIsMaxFinishTime) {
  JobResult r = Runtime::run(3, [](Comm& c) { c.compute(1.0 + c.rank()); });
  EXPECT_NEAR(r.makespan(), 3.0, 1e-9);
}

TEST(VirtualTime, LargeTransferDominatedByBandwidth) {
  JobOptions opts;
  opts.net.latency_s = 1e-6;
  opts.net.bandwidth_Bps = 1e6;  // 1 MB/s to make costs visible
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      Bytes big(1000000);  // 1 MB -> ~1 s
      ASSERT_TRUE(c.send(1, 0, big).ok());
    } else {
      Bytes out;
      ASSERT_TRUE(c.recv(0, 0, out).ok());
      EXPECT_NEAR(c.now(), 1.0, 0.1);
    }
  }, opts);
}

// Parameterized sweep: collectives across a range of communicator sizes.
class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, AllreduceSumOfRanks) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& c) {
    int64_t sum = 0;
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kSum, int64_t{c.rank()}, sum).ok());
    EXPECT_EQ(sum, int64_t{p} * (p - 1) / 2);
  });
}

TEST_P(CollectiveSweep, AlltoallIdentity) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& c) {
    std::vector<Bytes> send(p);
    for (int j = 0; j < p; ++j) {
      ByteWriter w;
      w.put<int32_t>(c.rank() * 1000 + j);
      send[j] = std::move(w).take();
    }
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(send, recv).ok());
    for (int i = 0; i < p; ++i) {
      ByteReader r(recv[i]);
      int32_t v = 0;
      ASSERT_TRUE(r.get(v).ok());
      EXPECT_EQ(v, i * 1000 + c.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSweep, ::testing::Values(1, 2, 3, 7, 16, 32));

}  // namespace
}  // namespace ftmr::simmpi
