// Tests for the extension features: nonblocking point-to-point, pluggable
// record readers, and storage fault injection.
#include <gtest/gtest.h>

#include <map>

#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "core/ftjob.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"
#include "tests/test_names.hpp"

namespace ftmr {
namespace {

using core::CkptOptions;
using core::FtJob;
using core::FtJobOptions;
using core::FtMode;
using core::StageFns;
using simmpi::Comm;
using simmpi::Request;
using simmpi::Runtime;

// ---------------------------------------------------------------------------
// Nonblocking point-to-point
// ---------------------------------------------------------------------------

TEST(Nonblocking, IsendCompletesEagerly) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      Request r = c.isend(1, 7, as_bytes_view("async"));
      EXPECT_TRUE(r.done());
      EXPECT_TRUE(r.status().ok());
      EXPECT_TRUE(r.wait().ok());
    } else {
      Bytes out;
      ASSERT_TRUE(c.recv(0, 7, out).ok());
      EXPECT_EQ(to_string_copy(out), "async");
    }
  });
}

TEST(Nonblocking, IrecvWaitBlocksUntilDelivery) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      Bytes out;
      Request r = c.irecv(1, 3, &out);
      EXPECT_FALSE(r.done());
      ASSERT_TRUE(r.wait().ok());
      EXPECT_EQ(to_string_copy(out), "late");
      EXPECT_TRUE(r.done());
    } else {
      ASSERT_TRUE(c.send_string(0, 3, "late").ok());
    }
  });
}

TEST(Nonblocking, TestPollsWithoutBlocking) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      Bytes out;
      Request r = c.irecv(1, 5, &out);
      // Wait for the signal that the payload was sent, then test() must hit.
      Bytes sig;
      ASSERT_TRUE(c.recv(1, 6, sig).ok());
      EXPECT_TRUE(r.test());
      EXPECT_EQ(to_string_copy(out), "payload");
    } else {
      ASSERT_TRUE(c.send_string(0, 5, "payload").ok());
      ASSERT_TRUE(c.send_string(0, 6, "sent").ok());
    }
  });
}

TEST(Nonblocking, WaitAllOverlapsManyTransfers) {
  constexpr int kP = 4;
  Runtime::run(kP, [](Comm& c) {
    // Post all receives first (classic overlap pattern), then send.
    std::vector<Bytes> in(kP);
    std::vector<Request> reqs;
    for (int src = 0; src < kP; ++src) {
      if (src != c.rank()) reqs.push_back(c.irecv(src, 1, &in[src]));
    }
    for (int dst = 0; dst < kP; ++dst) {
      if (dst != c.rank()) {
        (void)c.isend(dst, 1, as_bytes_view("r" + std::to_string(c.rank())));
      }
    }
    ASSERT_TRUE(Request::wait_all(reqs).ok());
    for (int src = 0; src < kP; ++src) {
      if (src != c.rank()) {
        EXPECT_EQ(to_string_copy(in[src]), "r" + std::to_string(src));
      }
    }
  });
}

TEST(Nonblocking, WaitOnDeadPeerFails) {
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 1e-6, -1});
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      Bytes out;
      Request r = c.irecv(1, 0, &out);
      Status s = r.wait();
      EXPECT_EQ(s.code(), ErrorCode::kProcFailed);
    } else {
      c.compute(1.0);
    }
  }, jo);
}

TEST(Nonblocking, DefaultRequestIsComplete) {
  Request r;
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(r.test());
  EXPECT_TRUE(r.wait().ok());
}

// ---------------------------------------------------------------------------
// Pluggable record readers (Table 1: FileRecordReader)
// ---------------------------------------------------------------------------

// Semicolon-separated records instead of lines.
class SemicolonReader final : public core::FileRecordReader<int64_t, std::string> {
 public:
  void open(uint64_t, std::string_view chunk) override {
    data_ = chunk;
    pos_ = 0;
    n_ = 0;
  }
  bool next(int64_t& key, std::string& value) override {
    if (pos_ >= data_.size()) return false;
    size_t end = data_.find(';', pos_);
    if (end == std::string_view::npos) end = data_.size();
    key = static_cast<int64_t>(n_++);
    value.assign(data_.substr(pos_, end - pos_));
    pos_ = end + 1;
    return true;
  }
  [[nodiscard]] uint64_t position() const override { return n_; }
  void skip(uint64_t n) override {
    int64_t k;
    std::string v;
    for (uint64_t i = 0; i < n && next(k, v); ++i) {
    }
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  uint64_t n_ = 0;
};

TEST(CustomReader, SemicolonRecordsCountCorrectly) {
  storage::TempDir tmp("ftmr-reader");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  ASSERT_TRUE(fs.write_file(storage::Tier::kShared, 0, "input/c0",
                            as_bytes_view("a;b;a;c")).ok());
  ASSERT_TRUE(fs.write_file(storage::Tier::kShared, 0, "input/c1",
                            as_bytes_view("b;a")).ok());
  Runtime::run(2, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 1;
    FtJob job(c, &fs, o);
    StageFns fns = apps::wordcount_stage();
    fns.make_reader = [] { return std::make_unique<SemicolonReader>(); };
    ASSERT_TRUE(job.run([&](FtJob& j) {
      if (auto s = j.run_stage(fns, false, nullptr); !s.ok()) return s;
      return j.write_output();
    }).ok());
  });
  std::vector<std::string> parts;
  ASSERT_TRUE(fs.list_dir(storage::Tier::kShared, 0, "output", parts).ok());
  std::map<std::string, int64_t> counts;
  for (const auto& name : parts) {
    Bytes data;
    ASSERT_TRUE(
        fs.read_file(storage::Tier::kShared, 0, "output/" + name, data).ok());
    ByteReader r(data);
    while (!r.exhausted()) {
      std::string k, v;
      if (!r.get_string(k).ok() || !r.get_string(v).ok()) break;
      counts[k] += std::strtoll(v.c_str(), nullptr, 10);
    }
  }
  EXPECT_EQ(counts["a"], 3);
  EXPECT_EQ(counts["b"], 2);
  EXPECT_EQ(counts["c"], 1);
}

TEST(CustomReader, RecoveryUsesCustomSkip) {
  // A failure mid-map with the custom reader must still produce exact
  // output — the committed-record skip goes through the custom skip().
  storage::TempDir tmp("ftmr-reader2");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  std::map<std::string, int64_t> expected;
  for (int i = 0; i < 8; ++i) {
    std::string text;
    for (int j = 0; j < 40; ++j) {
      const std::string w = tests::numbered("t", (i + j) % 9);
      text += w + ";";
      expected[w]++;
    }
    ASSERT_TRUE(fs.write_file(storage::Tier::kShared, 0,
                              "input/c" + std::to_string(i),
                              as_bytes_view(text)).ok());
  }
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 5e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 8;
    FtJob job(c, &fs, o);
    StageFns fns = apps::wordcount_stage();
    fns.make_reader = [] { return std::make_unique<SemicolonReader>(); };
    Status s = job.run([&](FtJob& j) {
      if (auto st = j.run_stage(fns, false, nullptr); !st.ok()) return st;
      return j.write_output();
    });
    if (c.global_rank() != 1) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  std::vector<std::string> parts;
  ASSERT_TRUE(fs.list_dir(storage::Tier::kShared, 0, "output", parts).ok());
  std::map<std::string, int64_t> counts;
  for (const auto& name : parts) {
    Bytes data;
    ASSERT_TRUE(
        fs.read_file(storage::Tier::kShared, 0, "output/" + name, data).ok());
    ByteReader r(data);
    while (!r.exhausted()) {
      std::string k, v;
      if (!r.get_string(k).ok() || !r.get_string(v).ok()) break;
      counts[k] += std::strtoll(v.c_str(), nullptr, 10);
    }
  }
  EXPECT_EQ(counts, expected);
}

// ---------------------------------------------------------------------------
// Storage fault injection
// ---------------------------------------------------------------------------

TEST(IoFaults, InjectedFailuresAreConsumedInOrder) {
  storage::TempDir tmp("ftmr-iofault");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  fs.inject_io_failures(2);
  Bytes out;
  EXPECT_EQ(fs.write_file(storage::Tier::kShared, 0, "a", as_bytes_view("x")).code(),
            ErrorCode::kIo);
  EXPECT_EQ(fs.read_file(storage::Tier::kShared, 0, "a", out).code(),
            ErrorCode::kIo);
  // Armed failures exhausted: normal service resumes.
  EXPECT_TRUE(fs.write_file(storage::Tier::kShared, 0, "a", as_bytes_view("x")).ok());
  EXPECT_TRUE(fs.read_file(storage::Tier::kShared, 0, "a", out).ok());
}

TEST(IoFaults, EngineSurfacesInputReadFailureCleanly) {
  storage::TempDir tmp("ftmr-iofault2");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  apps::TextGenOptions tg;
  tg.nchunks = 8;
  ASSERT_TRUE(apps::generate_text(fs, tg).ok());
  std::atomic<int> io_errors{0};
  simmpi::JobOptions jo;
  // The failing rank leaves the collective pattern; peers must not hang
  // beyond the deadlock guard.
  jo.deadlock_timeout_s = 2.0;
  simmpi::JobResult r = Runtime::run(4, [&](Comm& c) {
    if (c.rank() == 0) fs.inject_io_failures(1);  // first chunk read fails
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    FtJob job(c, &fs, o);
    Status s = job.run([&](FtJob& j) {
      if (auto st = j.run_stage(apps::wordcount_stage(), false, nullptr); !st.ok()) {
        return st;
      }
      return j.write_output();
    });
    if (s.code() == ErrorCode::kIo) io_errors++;
  }, jo);
  // The job doesn't hang; at least one rank reports the I/O error.
  EXPECT_GE(io_errors.load(), 1);
  (void)r;
}

}  // namespace
}  // namespace ftmr
