#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/codec.h"
#include "data/data_component.h"
#include "data/relation.h"
#include "data/value.h"
#include "data/version.h"
#include "data/xml.h"

namespace dbm::data {
namespace {

// ---------------------------------------------------------------------------
// Values / schema / tuples
// ---------------------------------------------------------------------------

TEST(ValueTest, TypesAndNull) {
  EXPECT_EQ(TypeOf(Value{}), ValueType::kNull);
  EXPECT_EQ(TypeOf(Value{int64_t{3}}), ValueType::kInt);
  EXPECT_EQ(TypeOf(Value{3.5}), ValueType::kDouble);
  EXPECT_EQ(TypeOf(Value{std::string("x")}), ValueType::kString);
  EXPECT_TRUE(IsNull(Value{}));
  EXPECT_FALSE(IsNull(Value{int64_t{0}}));
}

TEST(ValueTest, CrossTypeNumericCompare) {
  EXPECT_EQ(CompareValues(Value{int64_t{3}}, Value{3.0}), 0);
  EXPECT_LT(CompareValues(Value{int64_t{2}}, Value{2.5}), 0);
  EXPECT_GT(CompareValues(Value{std::string("a")}, Value{int64_t{9}}), 0);
  EXPECT_LT(CompareValues(Value{}, Value{int64_t{0}}), 0);  // null first
}

TEST(ValueTest, EqualValuesHashEqual) {
  EXPECT_EQ(HashValue(Value{int64_t{3}}), HashValue(Value{3.0}));
  EXPECT_EQ(HashValue(Value{std::string("abc")}),
            HashValue(Value{std::string("abc")}));
  EXPECT_NE(HashValue(Value{std::string("abc")}),
            HashValue(Value{std::string("abd")}));
}

TEST(SchemaTest, IndexOfAndJoin) {
  Schema a({{"id", ValueType::kInt}, {"name", ValueType::kString}});
  Schema b({{"id", ValueType::kInt}, {"amount", ValueType::kDouble}});
  auto idx = a.IndexOf("name");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_TRUE(a.IndexOf("ghost").status().IsNotFound());
  Schema j = Schema::Join(a, b);
  EXPECT_EQ(j.size(), 4u);
  EXPECT_TRUE(j.IndexOf("l.id").ok());
  EXPECT_TRUE(j.IndexOf("r.id").ok());
  EXPECT_TRUE(j.IndexOf("amount").ok());
}

TEST(TupleTest, CheckAgainstSchema) {
  Schema s({{"id", ValueType::kInt}, {"name", ValueType::kString}});
  EXPECT_TRUE(CheckTuple(s, Tuple({int64_t{1}, std::string("x")})).ok());
  EXPECT_TRUE(CheckTuple(s, Tuple({Value{}, std::string("x")})).ok());  // null
  EXPECT_FALSE(CheckTuple(s, Tuple({int64_t{1}})).ok());            // arity
  EXPECT_FALSE(CheckTuple(s, Tuple({int64_t{1}, 2.5})).ok());       // type
}

// ---------------------------------------------------------------------------
// Relation + statistics
// ---------------------------------------------------------------------------

TEST(RelationTest, InsertTypeChecked) {
  Relation rel("t", Schema({{"x", ValueType::kInt}}));
  EXPECT_TRUE(rel.Insert(Tuple({int64_t{1}})).ok());
  EXPECT_FALSE(rel.Insert(Tuple({std::string("no")})).ok());
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, StatisticsBasics) {
  Relation people = gen::People(1000, 7);
  RelationStats stats = people.ComputeStatistics();
  EXPECT_EQ(stats.row_count, 1000u);
  const ColumnStats& age = stats.columns.at("age");
  EXPECT_EQ(age.count, 1000u);
  EXPECT_GE(age.min, 18);
  EXPECT_LE(age.max, 90);
  EXPECT_EQ(age.histogram.total(), 1000u);
  const ColumnStats& city = stats.columns.at("city");
  EXPECT_LE(city.distinct_estimate, 8u);
  EXPECT_GE(city.distinct_estimate, 2u);
}

TEST(RelationTest, HistogramSelectivity) {
  Relation rel("t", Schema({{"x", ValueType::kInt}}));
  for (int64_t i = 0; i < 100; ++i) rel.InsertUnchecked(Tuple({i}));
  RelationStats stats = rel.ComputeStatistics(10);
  const Histogram& h = stats.columns.at("x").histogram;
  EXPECT_NEAR(h.SelectivityLe(49.5), 0.5, 0.06);
  EXPECT_DOUBLE_EQ(h.SelectivityLe(-5), 0.0);
  EXPECT_DOUBLE_EQ(h.SelectivityLe(1000), 1.0);
  EXPECT_NEAR(h.SelectivityEq(50), 0.01, 0.02);
}

TEST(RelationTest, PerturbCardinality) {
  Relation people = gen::People(100, 3);
  RelationStats stats = people.ComputeStatistics();
  stats.PerturbCardinality(0.1);
  EXPECT_EQ(stats.row_count, 10u);
}

TEST(RelationTest, SampleFraction) {
  Relation people = gen::People(2000, 5);
  Relation sample = people.Sample(0.25, 99);
  EXPECT_NEAR(static_cast<double>(sample.size()), 500.0, 80.0);
  EXPECT_EQ(sample.schema(), people.schema());
}

TEST(RelationTest, SerializeRoundTrip) {
  Relation people = gen::People(137, 11);
  auto back = Relation::Deserialize(people.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->name(), "people");
  EXPECT_EQ(back->schema(), people.schema());
  ASSERT_EQ(back->size(), people.size());
  for (size_t i = 0; i < people.size(); ++i) {
    EXPECT_TRUE(back->rows()[i] == people.rows()[i]) << i;
  }
}

TEST(RelationTest, DeserializeRejectsTruncation) {
  Relation people = gen::People(10, 1);
  std::vector<uint8_t> bytes = people.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(Relation::Deserialize(bytes).ok());
}

TEST(RelationTest, DeserializeRejectsUnknownTypeTag) {
  // A row whose type byte names no ValueType is corrupt: skipping it
  // would leave the row shorter than the schema.
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  rel.InsertUnchecked(Tuple({int64_t{5}}));
  std::vector<uint8_t> bytes = rel.Serialize();
  bytes[bytes.size() - 9] = 7;  // the row's type byte, before its u64
  auto back = Relation::Deserialize(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsIoError()) << back.status().ToString();
}

TEST(RelationTest, DeserializeRejectsUnknownColumnType) {
  // A schema type byte outside ValueType is corrupt, not a new type.
  Relation rel("r", Schema({{"x", ValueType::kInt}}));
  rel.InsertUnchecked(Tuple({int64_t{5}}));
  std::vector<uint8_t> bytes = rel.Serialize();
  // name (4 + 1), column count (4), column name (4 + 1): the type byte.
  const size_t type_at = 4 + 1 + 4 + 4 + 1;
  ASSERT_EQ(bytes[type_at], static_cast<uint8_t>(ValueType::kInt));
  bytes[type_at] = 9;
  auto back = Relation::Deserialize(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsIoError()) << back.status().ToString();
}

TEST(RelationTest, DeserializeRejectsRowsThatBreakTheSchema) {
  // Well-formed values of the wrong type: the row must be checked
  // against the schema, as Insert checks it.
  Relation ints("r", Schema({{"x", ValueType::kInt}}));
  Relation strings("r", Schema({{"x", ValueType::kString}}));
  ASSERT_TRUE(strings.Insert(Tuple({std::string("five")})).ok());
  std::vector<uint8_t> bytes = ints.Serialize();
  const std::vector<uint8_t> body = strings.Serialize();
  // Both headers have the same length; keep the int one up to its row
  // count and splice in the string relation's row count and row.
  bytes.resize(bytes.size() - 8);
  bytes.insert(bytes.end(), body.begin() + static_cast<long>(bytes.size()),
               body.end());
  auto back = Relation::Deserialize(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsInvalidArgument()) << back.status().ToString();
}

TEST(RelationTest, DeserializeRejectsTrailingBytes) {
  Relation people = gen::People(3, 1);
  std::vector<uint8_t> bytes = people.Serialize();
  bytes.push_back(0);
  auto back = Relation::Deserialize(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_TRUE(back.status().IsIoError()) << back.status().ToString();
}

TEST(RelationTest, GeneratorsAreDeterministic) {
  EXPECT_EQ(gen::People(50, 9).Serialize(), gen::People(50, 9).Serialize());
  EXPECT_NE(gen::People(50, 9).Serialize(), gen::People(50, 10).Serialize());
}

TEST(RelationTest, OrdersReferencePeople) {
  Relation orders = gen::Orders(500, 100, 0.8, 3);
  for (const Tuple& row : orders.rows()) {
    int64_t pid = std::get<int64_t>(row.at(1));
    EXPECT_GE(pid, 0);
    EXPECT_LT(pid, 100);
  }
}

// ---------------------------------------------------------------------------
// XML
// ---------------------------------------------------------------------------

TEST(XmlTest, ParseBasicDocument) {
  auto doc = ParseXml(
      R"(<reading seq="4"><temperature>21.5</temperature>)"
      R"(<battery unit="pct">88</battery></reading>)");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->tag, "reading");
  EXPECT_EQ(doc->Attr("seq"), "4");
  ASSERT_EQ(doc->children.size(), 2u);
  EXPECT_EQ(doc->children[0].text, "21.5");
  EXPECT_EQ(doc->children[1].Attr("unit"), "pct");
}

TEST(XmlTest, SelfClosingAndWhitespace) {
  auto doc = ParseXml("  <a>\n  <b/>\n  <c x=\"1\"/>\n</a> ");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->children.size(), 2u);
  EXPECT_TRUE(doc->children[0].children.empty());
}

TEST(XmlTest, Errors) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());  // mismatched
  EXPECT_FALSE(ParseXml("<a>").ok());             // unterminated
  EXPECT_FALSE(ParseXml("<a></a><b></b>").ok());  // two roots
  EXPECT_FALSE(ParseXml("no xml").ok());
}

TEST(XmlTest, SerializeRoundTrip) {
  auto doc = ParseXml(R"(<r a="1"><x>hi</x><y/></r>)");
  ASSERT_TRUE(doc.ok());
  auto again = ParseXml(SerializeXml(*doc));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(SerializeXml(*again), SerializeXml(*doc));
}

TEST(XmlTest, RowRoundTrip) {
  Relation readings = gen::SensorReadings(5, 2);
  const Schema& schema = readings.schema();
  for (const Tuple& row : readings.rows()) {
    XmlNode node = RowToXml(schema, row);
    auto back = XmlToRow(schema, node);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(std::get<int64_t>(back->at(0)), std::get<int64_t>(row.at(0)));
    EXPECT_NEAR(std::get<double>(back->at(1)), std::get<double>(row.at(1)),
                1e-3);
  }
}

// ---------------------------------------------------------------------------
// Codecs (property: round trip over random payloads)
// ---------------------------------------------------------------------------

// The codec name is a std::string, not a const char*, so the printed
// parameter (and the test name ctest derives from it) is the name itself
// rather than the literal's address.
class CodecRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(CodecRoundTrip, EncodeDecodeIdentity) {
  auto [name, seed] = GetParam();
  auto codec = FindCodec(name);
  ASSERT_TRUE(codec.ok());
  Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes input;
    size_t len = rng.Uniform(2000);
    // Mix runs and noise so RLE sees both friendly and hostile data.
    while (input.size() < len) {
      if (rng.Bernoulli(0.5)) {
        input.insert(input.end(), 1 + rng.Uniform(50),
                     static_cast<uint8_t>(rng.Uniform(256)));
      } else {
        input.push_back(static_cast<uint8_t>(rng.Uniform(256)));
      }
    }
    Bytes encoded = (*codec)->Encode(input);
    auto decoded = (*codec)->Decode(encoded);
    ASSERT_TRUE(decoded.ok()) << (*codec)->name();
    EXPECT_EQ(*decoded, input);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecRoundTrip,
    ::testing::Combine(::testing::Values("identity", "rle", "delta-rle", "lz"),
                       ::testing::Values(1, 2, 3)));

TEST(CodecTest, RleCompressesRuns) {
  RleCodec rle;
  Bytes runs(1000, 7);
  EXPECT_LT(rle.Encode(runs).size(), 20u);
}

TEST(CodecTest, DeltaRleCompressesDriftingSequences) {
  DeltaRleCodec codec;
  Bytes ramp(1000);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<uint8_t>(i);
  // A pure byte ramp delta-encodes to a run of 1s.
  EXPECT_LT(codec.Encode(ramp).size(), 20u);
}

TEST(CodecTest, DecodeRejectsGarbage) {
  RleCodec rle;
  EXPECT_FALSE(rle.Decode({5, 1, 2}).ok());  // truncated literal run
  EXPECT_FALSE(rle.Decode({200}).ok());      // repeat run missing its byte
  EXPECT_TRUE(FindCodec("nope").status().IsNotFound());
}

TEST(CodecTest, SerializedRelationCompresses) {
  Relation readings = gen::SensorReadings(2000, 4);
  Bytes raw = readings.Serialize();
  RleCodec rle;
  // Type tags and high-order zero bytes repeat heavily.
  EXPECT_LT(rle.Encode(raw).size(), raw.size());
}

// ---------------------------------------------------------------------------
// Versions
// ---------------------------------------------------------------------------

TEST(VersionTest, MaterializeKinds) {
  Relation people = gen::People(500, 8);
  auto replica =
      Materialize(people, VersionKind::kReplica, "laptop", 100);
  ASSERT_TRUE(replica.ok());
  auto compressed =
      Materialize(people, VersionKind::kCompressed, "laptop", 100, 1.0,
                  "rle");
  ASSERT_TRUE(compressed.ok());
  auto summary =
      Materialize(people, VersionKind::kSummary, "pda", 100, 0.1);
  ASSERT_TRUE(summary.ok());

  EXPECT_LT(compressed->payload.size(), replica->payload.size());
  EXPECT_LT(summary->payload.size(), replica->payload.size() / 4);

  auto opened = compressed->Open();
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->size(), people.size());

  auto opened_summary = summary->Open();
  ASSERT_TRUE(opened_summary.ok());
  EXPECT_LT(opened_summary->size(), people.size() / 4);
  EXPECT_GT(opened_summary->size(), 0u);
}

TEST(VersionTest, StorePutGetDropCatalogue) {
  Relation people = gen::People(50, 8);
  VersionStore store;
  auto v1 = Materialize(people, VersionKind::kReplica, "laptop", 0);
  auto v2 = Materialize(people, VersionKind::kCompressed, "pda", 0);
  ASSERT_TRUE(v1.ok() && v2.ok());
  ASSERT_TRUE(store.Put(*v1).ok());
  ASSERT_TRUE(store.Put(*v2).ok());
  EXPECT_TRUE(store.Put(*v1).code() == StatusCode::kAlreadyExists);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.At("pda").size(), 1u);
  EXPECT_EQ(store.Catalogue().size(), 2u);
  ASSERT_TRUE(store.Get(v1->descriptor.id).ok());
  ASSERT_TRUE(store.Drop(v1->descriptor.id).ok());
  EXPECT_TRUE(store.Get(v1->descriptor.id).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Data component (Fig 2 assembly)
// ---------------------------------------------------------------------------

TEST(DataComponentTest, CarriesAllFourParts) {
  DataComponent dc("personal-data", gen::People(100, 1), "laptop");
  // Data.
  EXPECT_EQ(dc.relation().size(), 100u);
  // Metadata.
  EXPECT_EQ(dc.statistics().row_count, 100u);
  // Adaptability rules.
  ASSERT_TRUE(dc.rules().Add(1, "personal-data",
                             "Select BEST(PDA, Laptop)").ok());
  EXPECT_EQ(dc.rules().size(), 1u);
  // Versions.
  ASSERT_TRUE(dc.PublishVersion(VersionKind::kCompressed, "pda", 0).ok());
  EXPECT_EQ(dc.versions().size(), 1u);
}

TEST(DataComponentTest, TriggersFireOnInsert) {
  DataComponent dc("t", Relation("t", Schema({{"x", ValueType::kInt}})),
                   "laptop");
  int fired = 0;
  ASSERT_TRUE(dc.AddTrigger(Trigger{"count", TriggerEvent::kInsert,
                                    [&](const Tuple&) {
                                      ++fired;
                                      return Status::OK();
                                    }})
                  .ok());
  ASSERT_TRUE(dc.Insert(Tuple({int64_t{1}})).ok());
  ASSERT_TRUE(dc.Insert(Tuple({int64_t{2}})).ok());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(dc.statistics().row_count, 2u);
}

TEST(DataComponentTest, RejectingTriggerBlocksInsert) {
  DataComponent dc("t", Relation("t", Schema({{"x", ValueType::kInt}})),
                   "laptop");
  ASSERT_TRUE(dc.AddTrigger(
                    Trigger{"veto", TriggerEvent::kInsert,
                            [](const Tuple& t) {
                              return std::get<int64_t>(t.at(0)) < 0
                                         ? Status::InvalidArgument("negative")
                                         : Status::OK();
                            }})
                  .ok());
  EXPECT_TRUE(dc.Insert(Tuple({int64_t{5}})).ok());
  EXPECT_FALSE(dc.Insert(Tuple({int64_t{-1}})).ok());
  EXPECT_EQ(dc.relation().size(), 1u);
}

TEST(DataComponentTest, MigrationAndCheckpointRestore) {
  DataComponent dc("d", gen::People(30, 2), "laptop");
  dc.MigrateTo("pda");
  EXPECT_EQ(dc.location(), "pda");
  EXPECT_EQ(dc.migrations(), 1u);

  component::StateBlob blob;
  ASSERT_TRUE(dc.Checkpoint(&blob).ok());
  DataComponent other("d2", Relation("e", Schema{}), "elsewhere");
  ASSERT_TRUE(other.Restore(blob).ok());
  EXPECT_EQ(other.relation().size(), 30u);
  EXPECT_EQ(other.location(), "pda");
}

TEST(DataComponentTest, DuplicateTriggerRejected) {
  DataComponent dc("t", Relation("t", Schema({{"x", ValueType::kInt}})),
                   "laptop");
  Trigger t{"a", TriggerEvent::kInsert, nullptr};
  ASSERT_TRUE(dc.AddTrigger(t).ok());
  EXPECT_TRUE(dc.AddTrigger(t).code() == StatusCode::kAlreadyExists);
  ASSERT_TRUE(dc.DropTrigger("a").ok());
  EXPECT_TRUE(dc.DropTrigger("a").IsNotFound());
}

}  // namespace
}  // namespace dbm::data
