// Randomised property suites across module boundaries:
//  * reconfiguration atomicity under injected failures — a failed plan
//    leaves the architecture byte-identical (the §3 transactional claim);
//  * parser robustness for the rule language and the ADL (no crash on
//    arbitrary input; generated-valid inputs round-trip);
//  * adaptive join operators agree with the reference under random
//    arrival timings;
//  * record files match a shadow model under random append/read
//    workloads with tiny buffer pools, and a bit flipped anywhere in a
//    page's slot directory never makes a reader leave the frame.

#include <gtest/gtest.h>

#include <sstream>

#include "adapt/rules.h"
#include "adl/architecture.h"
#include "adl/parser.h"
#include "common/rng.h"
#include "component/reconfigure.h"
#include "data/xml.h"
#include "query/executor.h"
#include "query/join.h"
#include "storage/record_file.h"

namespace dbm {
namespace {

// ---------------------------------------------------------------------------
// Reconfiguration atomicity fuzz
// ---------------------------------------------------------------------------

class FuzzComponent : public component::Component {
 public:
  FuzzComponent(std::string name, bool flaky, Rng* rng)
      : Component(std::move(name), "fuzz-service"),
        flaky_(flaky),
        rng_(rng) {
    DeclarePort("dep", "fuzz-service", /*optional=*/true);
  }
  Status Init() override { return MaybeFail("init"); }
  Status Start() override { return MaybeFail("start"); }
  Status Stop() override { return MaybeFail("stop"); }

 private:
  Status MaybeFail(const char* what) {
    if (flaky_ && rng_->Bernoulli(0.5)) {
      return Status::Internal(std::string("injected ") + what + " failure");
    }
    return Status::OK();
  }
  bool flaky_;
  Rng* rng_;
};

std::string SnapshotString(const component::Registry& reg) {
  auto snap = const_cast<component::Registry&>(reg).Snapshot();
  std::ostringstream out;
  for (const auto& c : snap.components) out << c << ";";
  for (const auto& b : snap.bindings) {
    out << b.from_component << "." << b.from_port << "->" << b.to_component
        << ";";
  }
  return out.str();
}

class ReconfigFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReconfigFuzz, FailedPlansChangeNothing) {
  Rng rng(GetParam());
  component::Registry reg;
  component::Reconfigurer rc(&reg);

  // Stable initial population.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(reg.Add(std::make_shared<FuzzComponent>(
                            "base" + std::to_string(i), false, &rng))
                    .ok());
  }
  ASSERT_TRUE(reg.Bind("base0", "dep", "base1").ok());
  ASSERT_TRUE(reg.Bind("base2", "dep", "base3").ok());
  ASSERT_TRUE(reg.StartAll().ok());

  int committed = 0, rolled_back = 0;
  for (int round = 0; round < 120; ++round) {
    std::string before = SnapshotString(reg);
    component::ReconfigurationPlan plan;
    int ops = 1 + static_cast<int>(rng.Uniform(3));
    std::vector<std::string> names = reg.Names();
    for (int op = 0; op < ops; ++op) {
      switch (rng.Uniform(3)) {
        case 0:
          plan.Add(std::make_shared<FuzzComponent>(
              "new" + std::to_string(round) + "_" + std::to_string(op),
              rng.Bernoulli(0.4), &rng));
          break;
        case 1: {
          const std::string& owner = names[rng.Uniform(names.size())];
          const std::string& target = names[rng.Uniform(names.size())];
          plan.Rebind(owner, "dep", target);
          break;
        }
        case 2: {
          const std::string& victim = names[rng.Uniform(names.size())];
          plan.Swap(victim, std::make_shared<FuzzComponent>(
                                victim, rng.Bernoulli(0.4), &rng));
          break;
        }
      }
    }
    Status s = rc.Execute(plan);
    if (s.ok()) {
      ++committed;
    } else {
      ++rolled_back;
      // The transactional property: nothing changed.
      EXPECT_EQ(SnapshotString(reg), before)
          << "round " << round << ": " << s.ToString();
    }
    // Registry invariants hold either way.
    for (const std::string& name : reg.Names()) {
      auto c = reg.Get(name);
      ASSERT_TRUE(c.ok());
      for (component::Port* p : (*c)->Ports()) {
        EXPECT_FALSE(p->blocked()) << "port left blocked after plan";
        if (p->Peek() != nullptr) {
          EXPECT_TRUE(reg.Contains(p->Peek()->name()))
              << "dangling binding to removed component";
        }
      }
    }
  }
  // Both paths must actually be exercised.
  EXPECT_GT(committed, 5);
  EXPECT_GT(rolled_back, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconfigFuzz,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Parser robustness
// ---------------------------------------------------------------------------

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, RuleParserNeverCrashes) {
  Rng rng(GetParam());
  const char* vocab[] = {"If",    "Select", "then", "else", "BEST",
                         "SWITCH", "NEAREST", "and",  "or",  ">",
                         "<",     ">=",     "(",    ")",    ",",
                         "90",    "30.5",   "%",    "Kbps", "node1.p",
                         "cpu",   ".",      "!=",   "="};
  for (int trial = 0; trial < 400; ++trial) {
    std::string text;
    size_t len = rng.Uniform(14);
    for (size_t i = 0; i < len; ++i) {
      text += vocab[rng.Uniform(sizeof(vocab) / sizeof(vocab[0]))];
      text += " ";
    }
    auto rule = adapt::ParseRule(text);  // must not crash/hang
    if (rule.ok()) {
      // Valid parses must round-trip stably.
      auto again = adapt::ParseRule(rule->ToString());
      ASSERT_TRUE(again.ok()) << rule->ToString();
      EXPECT_EQ(again->ToString(), rule->ToString());
    }
  }
}

TEST_P(ParserFuzz, AdlParserNeverCrashesOnMutations) {
  Rng rng(GetParam() + 1000);
  const std::string base = R"(
component A { provide x : t; require p : u optional; }
component B { provide y : u; }
configuration C { inst a : A; inst b : B; bind a.p -- b; }
)";
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Uniform(6));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0: mutated[pos] = static_cast<char>(32 + rng.Uniform(95)); break;
        case 1: mutated.erase(pos, 1); break;
        case 2: mutated.insert(pos, 1, static_cast<char>(32 + rng.Uniform(95))); break;
      }
    }
    auto doc = adl::Parse(mutated);  // outcome irrelevant; no crash
    if (doc.ok() && doc->configurations.count("C") > 0) {
      (void)adl::Validate(*doc, doc->configurations.at("C"));
    }
  }
}

TEST_P(ParserFuzz, XmlParserNeverCrashesOnMutations) {
  Rng rng(GetParam() + 2000);
  const std::string base =
      R"(<reading seq="4"><temperature>21.5</temperature><b u="p">88</b></reading>)";
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = base;
    for (int e = 0; e < 4; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] = static_cast<char>(32 + rng.Uniform(95));
    }
    auto doc = data::ParseXml(mutated);
    if (doc.ok()) {
      auto again = data::ParseXml(data::SerializeXml(*doc));
      EXPECT_TRUE(again.ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(3, 5, 7));

// ---------------------------------------------------------------------------
// Join agreement under random timings
// ---------------------------------------------------------------------------

class TimingFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TimingFuzz, AdaptiveJoinsAgreeUnderRandomArrivals) {
  Rng rng(GetParam());
  using namespace dbm::query;
  auto make = [&](const std::string& name, size_t n) {
    data::Relation rel(name,
                       data::Schema({{"k", data::ValueType::kInt}}));
    for (size_t i = 0; i < n; ++i) {
      rel.InsertUnchecked(
          data::Tuple({static_cast<int64_t>(rng.Uniform(25))}));
    }
    return rel;
  };
  for (int trial = 0; trial < 6; ++trial) {
    data::Relation l = make("l", 40 + rng.Uniform(80));
    data::Relation r = make("r", 40 + rng.Uniform(80));
    size_t expected = 0;
    for (const auto& a : l.rows())
      for (const auto& b : r.rows())
        if (data::CompareValues(a.at(0), b.at(0)) == 0) ++expected;

    auto timing = [&] {
      DelayedSource::Timing t;
      t.initial_delay = static_cast<SimTime>(rng.Uniform(2000));
      t.interarrival = static_cast<SimTime>(rng.Uniform(50));
      t.burst_every = rng.Bernoulli(0.5) ? 1 + rng.Uniform(30) : 0;
      t.stall = static_cast<SimTime>(rng.Uniform(100000));
      return t;
    };
    DelayedSource::Timing tl = timing(), tr = timing();

    SymmetricHashJoin shj(std::make_unique<DelayedSource>(&l, tl),
                          std::make_unique<DelayedSource>(&r, tr),
                          JoinSpec{0, 0});
    std::vector<Tuple> out;
    ASSERT_TRUE(Execute(&shj, &out, {}).ok());
    EXPECT_EQ(out.size(), expected) << "shj trial " << trial;

    size_t mem = 1 + rng.Uniform(64);
    XJoin xj(std::make_unique<DelayedSource>(&l, tl),
             std::make_unique<DelayedSource>(&r, tr), JoinSpec{0, 0}, mem);
    out.clear();
    ASSERT_TRUE(Execute(&xj, &out, {}).ok());
    EXPECT_EQ(out.size(), expected) << "xjoin mem=" << mem;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingFuzz,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Record file vs shadow model
// ---------------------------------------------------------------------------

class RecordFileFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecordFileFuzz, MatchesShadowUnderRandomWorkload) {
  Rng rng(GetParam());
  auto disk = std::make_shared<storage::DiskComponent>();
  auto policy = std::make_shared<storage::ClockPolicy>();
  storage::BufferManager buffer("buf", 3);  // deliberately tiny
  buffer.FindPort("disk")->SetTarget(disk);
  buffer.FindPort("policy")->SetTarget(policy);
  storage::RecordFile file(&buffer, disk.get());

  std::vector<std::pair<storage::RecordId, std::vector<uint8_t>>> shadow;
  for (int step = 0; step < 600; ++step) {
    if (shadow.empty() || rng.Bernoulli(0.6)) {
      std::vector<uint8_t> rec(1 + rng.Uniform(900));
      for (auto& b : rec) b = static_cast<uint8_t>(rng.Uniform(256));
      auto id = file.Append(rec);
      ASSERT_TRUE(id.ok());
      shadow.emplace_back(*id, std::move(rec));
    } else {
      const auto& [id, expect] = shadow[rng.Uniform(shadow.size())];
      auto got = file.Read(id);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, expect);
    }
    if (step % 100 == 0) {
      ASSERT_TRUE(buffer.CheckInvariants().ok());
    }
  }
  // Full scan visits exactly the shadow, in append order.
  size_t i = 0;
  ASSERT_TRUE(file.Scan([&](const storage::RecordId& id,
                            const std::vector<uint8_t>& rec) {
                    EXPECT_TRUE(id == shadow[i].first);
                    EXPECT_EQ(rec, shadow[i].second);
                    ++i;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(i, shadow.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecordFileFuzz,
                         ::testing::Values(9, 18, 27));

TEST(RecordFileBitFlip, DirectoryFlipsNeverLeaveTheFrame) {
  // One real page, then every bit of its header and of each slot length
  // flipped in turn. Every reader returns ok or an error and hands out
  // only bytes inside the frame; a flipped count or free offset is always
  // DataLoss. One frame, so the frame is the pool's whole allocation and
  // the sanitizers see any read past it.
  Rng rng(4242);
  auto disk = std::make_shared<storage::DiskComponent>();
  auto policy = std::make_shared<storage::LruPolicy>();
  storage::BufferManager buffer("buf", 1);
  buffer.FindPort("disk")->SetTarget(disk);
  buffer.FindPort("policy")->SetTarget(policy);
  storage::RecordFile file(&buffer, disk.get());
  size_t used = 4;
  while (true) {
    std::vector<uint8_t> rec(1 + rng.Uniform(300));
    for (auto& b : rec) b = static_cast<uint8_t>(rng.Uniform(256));
    if (used + 2 + rec.size() > storage::kPageSize) break;
    ASSERT_TRUE(file.Append(rec).ok());
    used += 2 + rec.size();
  }
  ASSERT_EQ(file.pages().size(), 1u);
  const storage::PageId pid = file.pages()[0];
  const uint16_t count = static_cast<uint16_t>(file.record_count());

  // The test holds its own pin throughout, so the frame stays put.
  auto page = buffer.GetPage(pid);
  ASSERT_TRUE(page.ok());
  uint8_t* frame = (*page)->bytes.data();
  // Flip targets: the header's four bytes, then each slot's length.
  std::vector<size_t> targets = {0, 1, 2, 3};
  for (size_t off = 4, s = 0; s < count; ++s) {
    targets.push_back(off);
    targets.push_back(off + 1);
    off += 2 + (frame[off] | (frame[off + 1] << 8));
  }

  for (size_t byte : targets) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      frame[byte] ^= static_cast<uint8_t>(1u << bit);
      const bool header = byte < 4;
      for (uint16_t slot = 0; slot <= count; ++slot) {
        auto rec = file.Read({pid, slot});
        if (rec.ok()) {
          EXPECT_LE(rec->size(), storage::RecordFile::kMaxRecord);
        }
        if (header) {
          EXPECT_TRUE(rec.status().IsDataLoss()) << rec.status().ToString();
        }
      }
      Status visit = file.VisitPage(
          pid, [&](uint16_t, const uint8_t* bytes, size_t len) {
            EXPECT_GE(bytes, frame);
            EXPECT_LE(bytes + len, frame + storage::kPageSize);
            return true;
          });
      Status scan = file.Scan(
          [](const storage::RecordId&, const std::vector<uint8_t>& rec) {
            EXPECT_LE(rec.size(), storage::RecordFile::kMaxRecord);
            return true;
          });
      if (header) {
        EXPECT_TRUE(visit.IsDataLoss()) << visit.ToString();
        EXPECT_TRUE(scan.IsDataLoss()) << scan.ToString();
      }
      frame[byte] ^= static_cast<uint8_t>(1u << bit);
    }
  }
  EXPECT_EQ(buffer.PinCount(pid), 1);  // every reader unpinned
  ASSERT_TRUE(buffer.Unpin(pid, false).ok());
  EXPECT_TRUE(buffer.CheckInvariants().ok());
}

}  // namespace
}  // namespace dbm
