// Tests of the benchmark itself: seeded reproducibility of its inputs, and
// that a wrong answer is counted as a failure.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "api/engine.h"
#include "digest.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "workload.h"

namespace qbench {
namespace {

std::vector<Statement> Prefix(const std::string& workload, uint64_t seed,
                              size_t client, size_t n) {
  StatementStream stream(workload, seed, client);
  std::vector<Statement> out;
  for (size_t i = 0; i < n; ++i) out.push_back(stream.Next());
  return out;
}

/// Digest of every relation of the workload's catalog and of every
/// pre-generated version, in a fixed order.
std::vector<uint64_t> DataDigests(const Workload& w) {
  std::vector<uint64_t> out;
  for (const std::string& name : w.catalog.Names()) {
    out.push_back(RelationDigest(w.catalog.Find(name)->data));
  }
  for (const auto& [relation, versions] : w.versions) {
    for (const tqp::CatalogEntry& e : versions) {
      out.push_back(RelationDigest(e.data));
    }
  }
  return out;
}

TEST(QbenchWorkload, SameSeedGivesIdenticalStreamsAndCatalogs) {
  for (const std::string& name : WorkloadNames()) {
    const Workload a = MakeWorkload(name, 7);
    const Workload b = MakeWorkload(name, 7);
    const Workload c = MakeWorkload(name, 8);
    EXPECT_EQ(DataDigests(a), DataDigests(b)) << name;
    // Only the written versions depend on the seed; initial catalogs are
    // fixed so that every seed searches the same plan spaces.
    if (name == "update_mix") {
      EXPECT_NE(DataDigests(a), DataDigests(c)) << name;
    } else {
      EXPECT_EQ(DataDigests(a), DataDigests(c)) << name;
    }
    EXPECT_EQ(a.warmup, b.warmup) << name;
    bool any_stream_differs = false;
    for (size_t client = 0; client < a.clients; ++client) {
      const auto s7 = Prefix(name, 7, client, 300);
      EXPECT_EQ(s7, Prefix(name, 7, client, 300)) << name << " " << client;
      any_stream_differs |= s7 != Prefix(name, 8, client, 300);
      if (client > 0) {
        EXPECT_NE(s7, Prefix(name, 7, 0, 300)) << name << " " << client;
      }
    }
    EXPECT_TRUE(any_stream_differs) << name;
  }
}

TEST(QbenchWorkload, MixesHoldExactProportionsPerCycle) {
  size_t writes = 0;
  for (const Statement& st : Prefix("update_mix", 3, 0, 4000)) {
    writes += st.write ? 1 : 0;
  }
  EXPECT_EQ(writes, 200u);  // one write per 20 statements
  std::map<std::string, size_t> texts;
  for (const Statement& st : Prefix("analytic_large", 3, 1, 700)) {
    ++texts[st.text];
  }
  EXPECT_EQ(texts.size(), 7u);
  for (const auto& [text, n] : texts) EXPECT_EQ(n, 100u) << text;
}

/// Serves update_mix and checks replies against the reference oracle.
class QbenchDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = MakeWorkload("update_mix", 11);
    engine_ = std::make_unique<tqp::Engine>(workload_.catalog,
                                            workload_.options);
    server_ = std::make_unique<tqp::Server>(engine_.get(),
                                            tqp::ServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect(server_->host(), server_->port()).ok());
  }

  /// One read; `raw` receives its result frames.
  ReadRecord Read(const std::string& text, std::string* raw = nullptr) {
    ReadRecord r;
    r.text = text;
    r.first_state = history_.Last();
    auto out = client_.RunQuery(text, /*capture_raw=*/true);
    EXPECT_TRUE(out.ok());
    r.last_state = history_.Last();
    r.ok = out->ok;
    r.digest = ReplyDigest(out->raw);
    if (raw != nullptr) *raw = out->raw;
    return r;
  }

  void Write(const std::string& relation, size_t version) {
    const tqp::CatalogEntry entry = workload_.versions.at(relation)[version];
    ASSERT_TRUE(engine_
                    ->MutateCatalog([&](tqp::Catalog& c) {
                      auto st = c.Update(relation, entry);
                      history_.Append(relation, version);
                      return st;
                    })
                    .ok());
  }

  uint64_t Failures(const std::vector<ReadRecord>& records) {
    ReferenceOracle oracle(workload_);
    return oracle.CountFailures(records, history_, 2);
  }

  Workload workload_;
  std::unique_ptr<tqp::Engine> engine_;
  std::unique_ptr<tqp::Server> server_;
  tqp::ServiceClient client_;
  StateHistory history_;
};

constexpr char kReadsR[] = "VALIDTIME COALESCED SELECT DISTINCT Name FROM R";

TEST_F(QbenchDigestTest, CorrectRepliesPass) {
  std::vector<ReadRecord> records;
  for (const std::string& text : workload_.warmup) records.push_back(Read(text));
  Write("R", 2);
  records.push_back(Read(kReadsR));
  EXPECT_EQ(Failures(records), 0u);
}

TEST_F(QbenchDigestTest, PlantedWrongRowIsCountedAsFailure) {
  std::string raw;
  ReadRecord good = Read(kReadsR, &raw);
  // Plant a wrong row: change the first value of the first row.
  const std::string marker = "\"rows\":[[\"";
  const size_t pos = raw.find(marker);
  ASSERT_NE(pos, std::string::npos);
  std::string planted = raw;
  planted.insert(pos + marker.size(), "x");
  ReadRecord bad = good;
  bad.digest = ReplyDigest(planted);
  EXPECT_NE(bad.digest, good.digest);
  EXPECT_EQ(Failures({good}), 0u);
  EXPECT_EQ(Failures({good, bad}), 1u);

  ReadRecord error = good;
  error.ok = false;
  EXPECT_EQ(Failures({error}), 1u);
}

TEST_F(QbenchDigestTest, ReplyMustMatchAStateItCouldObserve) {
  ReadRecord before = Read(kReadsR);
  Write("R", 1);
  ReadRecord after = Read(kReadsR);
  ASSERT_NE(before.digest, after.digest);
  EXPECT_EQ(Failures({before, after}), 0u);
  // The pre-write answer is wrong for a read that began after the write.
  ReadRecord stale = before;
  stale.first_state = stale.last_state = after.first_state;
  EXPECT_EQ(Failures({stale}), 1u);
  // A read that overlapped the write may return either answer.
  stale.first_state = 0;
  EXPECT_EQ(Failures({stale}), 0u);
}

TEST(QbenchDigest, BatchSizeDoesNotChangeTheDigest) {
  const Workload w = MakeWorkload("adhoc_small", 5);
  const tqp::Relation& r = w.catalog.Find("R")->data;
  for (size_t batch : {1, 7, 256}) {
    tqp::Engine engine(w.catalog);
    tqp::ServerOptions options;
    options.batch_rows = batch;
    tqp::Server server(&engine, options);
    ASSERT_TRUE(server.Start().ok());
    tqp::ServiceClient client;
    ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
    auto out = client.RunQuery("SELECT * FROM R", /*capture_raw=*/true);
    ASSERT_TRUE(out.ok() && out->ok);
    EXPECT_EQ(ReplyDigest(out->raw), RelationDigest(r)) << batch;
  }
}

}  // namespace
}  // namespace qbench
