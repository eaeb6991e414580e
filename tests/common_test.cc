#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/crc32.h"
#include "common/event_loop.h"
#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace dbm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "not-found: missing thing");
}

TEST(StatusTest, WithContextPrefixes) {
  Status s = Status::IoError("disk gone").WithContext("loading page 7");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "loading page 7: disk gone");
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  Status s = Status::OK().WithContext("ctx");
  EXPECT_TRUE(s.ok());
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto f = []() -> Status {
    DBM_RETURN_NOT_OK(Status::Aborted("stop"));
    return Status::OK();
  };
  EXPECT_TRUE(f().IsAborted());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::NotFound("x");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    int v = 0;
    DBM_ASSIGN_OR_RETURN(v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(*outer(false), 14);
  EXPECT_TRUE(outer(true).status().IsNotFound());
}

TEST(StringsTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitSkipEmpty) {
  auto parts = Split(",a,,b,", ',', /*skip_empty=*/true);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, TrimAndCase) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_TRUE(EqualsIgnoreCase("BEST", "best"));
  EXPECT_FALSE(EqualsIgnoreCase("BEST", "rest"));
}

TEST(StringsTest, JoinAndFormat) {
  EXPECT_EQ(Join({"a", "b", "c"}, "::"), "a::b::c");
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("component", "comp"));
  EXPECT_TRUE(EndsWith("file.xml", ".xml"));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

// Numbers from outside input parse whole or not at all: no silent 0 for
// "abc", no prefix for "9000x", no wrap of "-1" into an unsigned.
TEST(StringsTest, ParseNumberConsumesTheWholeToken) {
  EXPECT_EQ(ParseNumber<int64_t>("9000"), 9000);
  EXPECT_EQ(ParseNumber<int64_t>("-5"), -5);
  EXPECT_EQ(ParseNumber<uint64_t>("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(ParseNumber<double>("0.25"), 0.25);
  EXPECT_EQ(ParseNumber<double>("1e3"), 1000.0);
  for (const char* bad : {"", "abc", "9000x", " 1", "1 ", "0x10", "+1"}) {
    EXPECT_FALSE(ParseNumber<int64_t>(bad).has_value()) << bad;
  }
  EXPECT_FALSE(ParseNumber<uint64_t>("-1").has_value());
  EXPECT_FALSE(ParseNumber<uint64_t>("18446744073709551616").has_value());
  EXPECT_FALSE(ParseNumber<int32_t>("2147483648").has_value());
  EXPECT_FALSE(ParseNumber<double>("1.5x").has_value());
  EXPECT_FALSE(ParseNumber<double>("abc").has_value());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ZipfSkewsTowardHead) {
  Rng rng(11);
  int head = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) head += (rng.Zipf(100, 0.9) < 10);
  // With theta=0.9 the first decile gets far more than 10% of mass.
  EXPECT_GT(head, n / 4);
}

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(30, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(20, [&] { order.push_back(2); });
  loop.RunUntil();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 30);
}

TEST(EventLoopTest, FifoWithinSameInstant) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(10, [&order, i] { order.push_back(i); });
  }
  loop.RunUntil();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  EventId id = loop.ScheduleAt(5, [&] { fired = true; });
  EXPECT_TRUE(loop.Cancel(id));
  loop.RunUntil();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(loop.Cancel(id));  // second cancel reports failure
}

TEST(EventLoopTest, EventsMayScheduleEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) loop.ScheduleAfter(10, tick);
  };
  loop.ScheduleAfter(0, tick);
  loop.RunUntil();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.Now(), 40);
}

TEST(EventLoopTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(10, [&] { ++ran; });
  loop.ScheduleAt(100, [&] { ++ran; });
  loop.RunUntil(50);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(loop.Now(), 50);
  loop.RunUntil();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopTest, PastScheduleClampsToNow) {
  EventLoop loop;
  loop.ScheduleAt(50, [] {});
  loop.RunUntil();
  SimTime fired_at = -1;
  loop.ScheduleAt(10, [&] { fired_at = loop.Now(); });  // in the past
  loop.RunUntil();
  EXPECT_EQ(fired_at, 50);
}

TEST(JsonTest, UnicodeEscapeDecodesAscii) {
  auto v = ParseJson("\"a\\u0041b\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->str, "aAb");
}

TEST(JsonTest, UnicodeEscapeDecodesTwoByteUtf8) {
  auto v = ParseJson("\"caf\\u00e9\"");  // é = U+00E9
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->str, "caf\xc3\xa9");
}

TEST(JsonTest, UnicodeEscapeDecodesThreeByteUtf8) {
  auto v = ParseJson("\"\\u20AC\"");  // € = U+20AC
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->str, "\xe2\x82\xac");
}

TEST(JsonTest, SurrogatePairDecodesToFourByteUtf8) {
  auto v = ParseJson("\"\\uD83D\\uDE00\"");  // 😀 = U+1F600
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->str, "\xf0\x9f\x98\x80");
}

TEST(JsonTest, LoneSurrogatesAreErrors) {
  EXPECT_FALSE(ParseJson("\"\\uD83D\"").ok());          // high, end of string
  EXPECT_FALSE(ParseJson("\"\\uD83Dx\"").ok());         // high, no escape
  EXPECT_FALSE(ParseJson("\"\\uD83D\\u0041\"").ok());   // high + non-low
  EXPECT_FALSE(ParseJson("\"\\uDE00\"").ok());          // bare low
}

TEST(JsonTest, BadUnicodeEscapesAreErrors) {
  EXPECT_FALSE(ParseJson("\"\\u00g1\"").ok());  // non-hex digit
  EXPECT_FALSE(ParseJson("\"\\u12\"").ok());    // truncated
  EXPECT_FALSE(ParseJson("\"\\uD83D\\u\"").ok());
}

TEST(JsonTest, EscapeRoundTripsThroughEmitter) {
  // JsonEscape escapes control characters as \u00XX; the parser must
  // bring them back byte-for-byte. Multi-byte UTF-8 passes through raw.
  const std::string original = "tab\tnl\nbell\x07caf\xc3\xa9 \xf0\x9f\x98\x80";
  auto v = ParseJson("\"" + JsonEscape(original) + "\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->str, original);
}

TEST(JsonTest, NumberRendersNonFiniteAsNull) {
  EXPECT_EQ(JsonNumber(1.5), "1.5");
  EXPECT_EQ(JsonNumber(-0.25), "-0.25");
  EXPECT_EQ(JsonNumber(1234567.0), "1.23457e+06");
  // JSON has no NaN or infinity: each is null, which parses.
  for (double v : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(JsonNumber(v), "null");
    auto doc = ParseJson("[" + JsonNumber(v) + "]");
    ASSERT_TRUE(doc.ok());
    EXPECT_TRUE(doc->array.at(0).IsNull());
  }
}

TEST(Crc32Test, KnownAnswerVectors) {
  // The check-value of CRC-32/ISO-HDLC ("123456789" -> 0xCBF43926) pins
  // the polynomial and reflection; the sliced fast path must agree with
  // it at every length, including the sub-8-byte tail cases.
  auto crc = [](const std::string& s) {
    return Crc32(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  };
  EXPECT_EQ(crc("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc(""), 0x00000000u);
  EXPECT_EQ(crc("a"), 0xE8B7BE43u);
  EXPECT_EQ(crc(std::string(32, '\0')), 0x190A55ADu);
}

TEST(Crc32Test, SlicedPathMatchesBytewiseReference) {
  // Re-derive the one-byte-at-a-time reference inline and compare on
  // every prefix of a 4 KiB pseudo-random buffer — all tail lengths and
  // the 8-byte main loop get exercised.
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::vector<uint8_t> buf(4096);
  Rng rng(7);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  uint32_t ref = 0xffffffffu;
  for (size_t n = 1; n <= buf.size(); ++n) {
    ref = table[(ref ^ buf[n - 1]) & 0xff] ^ (ref >> 8);
    if (n % 61 == 0 || n == buf.size()) {
      EXPECT_EQ(Crc32(buf.data(), n), ref ^ 0xffffffffu) << "length " << n;
    }
  }
}

TEST(SimClockTest, Conversions) {
  EXPECT_EQ(Millis(3), 3000);
  EXPECT_EQ(Seconds(1.5), 1500000);
  EXPECT_DOUBLE_EQ(ToSeconds(2500000), 2.5);
  EXPECT_DOUBLE_EQ(ToMillis(2500), 2.5);
}

}  // namespace
}  // namespace dbm
