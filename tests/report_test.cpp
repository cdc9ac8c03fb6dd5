// Tests for the JSON builder and reader, the machine-readable reports,
// multi-root protection, and the engine's latency self-instrumentation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

namespace cryptodrop {
namespace {

// --- Json builder -----------------------------------------------------------

TEST(Json, Scalars) {
  EXPECT_EQ(Json(nullptr).to_string(), "null");
  EXPECT_EQ(Json(true).to_string(), "true");
  EXPECT_EQ(Json(false).to_string(), "false");
  EXPECT_EQ(Json(42).to_string(), "42");
  EXPECT_EQ(Json(2.5).to_string(), "2.5");
  EXPECT_EQ(Json("hi").to_string(), "\"hi\"");
}

TEST(Json, IntegersPrintWithoutFraction) {
  EXPECT_EQ(Json(std::size_t{5099}).to_string(), "5099");
  EXPECT_EQ(Json(std::uint64_t{0}).to_string(), "0");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b").to_string(), "\"a\\\"b\"");
  EXPECT_EQ(Json("a\\b").to_string(), "\"a\\\\b\"");
  EXPECT_EQ(Json("line\nbreak\t!").to_string(), "\"line\\nbreak\\t!\"");
  EXPECT_EQ(Json(std::string("ctl\x01", 4)).to_string(), "\"ctl\\u0001\"");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json j = Json::object();
  j.set("z", 1).set("a", 2);
  EXPECT_EQ(j.to_string(), "{\"z\":1,\"a\":2}");
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.is_object());
}

TEST(Json, ArrayAndNesting) {
  Json arr = Json::array();
  arr.push(1).push("two").push(Json::object().set("three", 3.0));
  EXPECT_EQ(arr.to_string(), "[1,\"two\",{\"three\":3}]");
  EXPECT_TRUE(arr.is_array());
  EXPECT_EQ(arr.size(), 3u);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::object().to_string(), "{}");
  EXPECT_EQ(Json::array().to_string(), "[]");
}

TEST(Json, PrettyPrintingIndents) {
  Json j = Json::object();
  j.set("k", Json::array().push(1).push(2));
  const std::string pretty = j.to_pretty_string();
  EXPECT_NE(pretty.find("{\n  \"k\": [\n    1,\n    2\n  ]\n}"), std::string::npos);
}

// --- Json reader ---------------------------------------------------------------

TEST(JsonParse, ReadsEveryKindThroughTheAccessors) {
  const Result<Json> parsed = Json::parse(
      " {\"n\": null, \"t\": true, \"f\": false, \"x\": -2.5e1,"
      " \"s\": \"hi\", \"a\": [1, \"two\", {}], \"o\": {\"k\": []}} \n");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const Json& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.fields().size(), 7u);
  EXPECT_EQ(doc.fields()[0].first, "n");
  EXPECT_EQ(doc.fields()[6].first, "o");
  EXPECT_TRUE(doc.find("n")->is_null());
  EXPECT_TRUE(doc.find("t")->is_bool());
  EXPECT_TRUE(doc.find("t")->as_bool());
  EXPECT_FALSE(doc.bool_or("f", true));
  EXPECT_EQ(doc.number_or("x", 0), -25.0);
  EXPECT_EQ(doc.string_or("s", ""), "hi");
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].as_number(), 1.0);
  EXPECT_EQ(a->items()[1].as_string(), "two");
  EXPECT_TRUE(a->items()[2].is_object());
  EXPECT_TRUE(doc.find("o")->find("k")->is_array());
  // Fallbacks: absent keys, wrong kinds, lookups on non-objects.
  EXPECT_EQ(doc.string_or("x", "fb"), "fb");
  EXPECT_EQ(doc.number_or("s", 7), 7);
  EXPECT_TRUE(doc.bool_or("missing", true));
  EXPECT_EQ(a->find("s"), nullptr);
  EXPECT_TRUE(a->fields().empty());
  EXPECT_TRUE(doc.items().empty());
}

TEST(JsonParse, DecodesEscapes) {
  const Result<Json> parsed =
      Json::parse(R"("q\" b\\ s\/ \b\f\n\r\t \u0001 \u00e9 \u20AC")");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().as_string(),
            "q\" b\\ s/ \b\f\n\r\t \x01 \xC3\xA9 \xE2\x82\xAC");
}

TEST(JsonParse, RejectsMalformedInputWithWhatAndOffset) {
  const struct {
    const char* text;
    const char* message;
  } cases[] = {
      {"", "unexpected end of input at offset 0"},
      {"nul", "bad literal at offset 0"},
      {"[tru]", "bad literal at offset 1"},
      {"\"\\u12\"", "truncated \\u escape at offset 3"},
      {"\"\\u12g4\"", "bad \\u escape at offset 6"},
      {"\"\\q\"", "bad escape at offset 3"},
      {"\"abc", "unterminated string at offset 4"},
      {"\"abc\\", "unterminated string at offset 5"},
      {"[1,2", "unterminated array at offset 4"},
      {"[1 2]", "expected ',' or ']' at offset 3"},
      {"{\"a\":1", "unterminated object at offset 6"},
      {"{\"a\":1 \"b\":2}", "expected ',' or '}' at offset 7"},
      {"{\"a\" 1}", "expected ':' at offset 5"},
      {"{1:2}", "expected object key at offset 1"},
      {"[1,]", "expected a value at offset 3"},
      {"{} x", "trailing characters after JSON value at offset 3"},
      {"1.2.3", "bad number '1.2.3' at offset 0"},
      {"-", "bad number '-' at offset 0"},
      {"[+1]", "bad number '+1' at offset 1"},
      {"1e999", "bad number '1e999' at offset 0"},
  };
  for (const auto& c : cases) {
    const Result<Json> parsed = Json::parse(c.text);
    ASSERT_FALSE(parsed.is_ok()) << c.text;
    EXPECT_EQ(parsed.code(), Errc::invalid_argument) << c.text;
    EXPECT_EQ(parsed.status().message(), c.message) << c.text;
  }
}

TEST(JsonParse, NestingIsBoundedAtTheLimit) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const std::size_t limit = Json::kMaxParseDepth;
  EXPECT_TRUE(Json::parse(nested(limit)).is_ok());
  const Result<Json> over = Json::parse(nested(limit + 1));
  ASSERT_FALSE(over.is_ok());
  EXPECT_EQ(over.status().message(),
            "nesting deeper than " + std::to_string(limit) + " at offset " +
                std::to_string(limit));
}

TEST(JsonParse, HostileJsonNestingIsAnErrorNotACrash) {
  // 30,000 levels overflowed an unbounded recursive reader's 8 MiB
  // stack; the bound turns it into an ordinary parse error.
  constexpr std::size_t kDepth = 30000;
  const std::string arrays = std::string(kDepth, '[') + std::string(kDepth, ']');
  std::string objects;
  for (std::size_t i = 0; i < kDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kDepth, '}');
  for (const std::string& text : {arrays, objects}) {
    const Result<Json> parsed = Json::parse(text);
    ASSERT_FALSE(parsed.is_ok());
    EXPECT_NE(parsed.status().message().find("nesting deeper than"),
              std::string::npos);
  }
}

TEST(JsonParse, DuplicateKeysKeepDocumentOrderAndFindTheFirst) {
  const Result<Json> parsed = Json::parse("{\"k\":1,\"k\":2}");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value().number_or("k", 0), 1.0);
  Json built = Json::object();
  built.set("k", "first").set("k", "second");
  EXPECT_EQ(built.string_or("k", ""), "first");
}

TEST(JsonParse, RoundTripsAHandBuiltValue) {
  Json j = Json::object();
  j.set("control", std::string("a\x01" "b\x1f", 4))
      .set("escapes", "line\nbreak\ttab \"quoted\" back\\slash")
      .set("bmp", "caf\xC3\xA9 \xE2\x82\xAC \xE4\xB8\xAD")
      .set("ints", Json::array()
                       .push(0)
                       .push(-1)
                       .push(4294967296LL)
                       .push(9007199254740992LL)
                       .push(-9007199254740992LL))
      .set("reals", Json::array().push(0.1).push(-2.5).push(1.0 / 3.0).push(6.02e-23))
      .set("empty_array", Json::array())
      .set("empty_object", Json::object())
      .set("nested", Json::array().push(Json::object().set("x", nullptr).set("y", true)));
  for (const std::string& text : {j.to_string(), j.to_pretty_string()}) {
    const Result<Json> parsed = Json::parse(text);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().to_string(), j.to_string());
    EXPECT_EQ(parsed.value().to_pretty_string(), j.to_pretty_string());
  }
  EXPECT_EQ(Json::parse(j.to_string()).value().string_or("control", ""),
            std::string("a\x01" "b\x1f", 4));
}

TEST(JsonRoundTrip, NumbersBeyondLongLongKeepTheirValue) {
  // 1e19 and -9.3e18 lie outside long long: they print in %.10g form
  // (and without the out-of-range conversion) and read back exactly.
  for (const double value : {1e19, -9.3e18}) {
    const std::string text = Json(value).to_string();
    const Result<Json> parsed = Json::parse(text);
    ASSERT_TRUE(parsed.is_ok()) << text << ": " << parsed.status().to_string();
    EXPECT_EQ(parsed.value().as_number(), value) << text;
    EXPECT_EQ(parsed.value().to_string(), text);
  }
  EXPECT_EQ(Json(1e19).to_string(), "1e+19");
  EXPECT_EQ(Json(-9.3e18).to_string(), "-9.3e+18");
  // The extremes long long holds still print as integers.
  EXPECT_EQ(Json(-9223372036854775808.0).to_string(), "-9223372036854775808");
  EXPECT_EQ(Json(9007199254740992.0).to_string(), "9007199254740992");
}

TEST(JsonRoundTrip, NonFiniteNumbersWriteAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  Json j = Json::array()
               .push(std::numeric_limits<double>::quiet_NaN())
               .push(inf)
               .push(-inf);
  EXPECT_EQ(j.to_string(), "[null,null,null]");
  const Result<Json> parsed = Json::parse(j.to_pretty_string());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().items().size(), 3u);
  for (const Json& item : parsed.value().items()) EXPECT_TRUE(item.is_null());
  EXPECT_EQ(parsed.value().to_string(), j.to_string());
}

TEST(JsonParse, IntegralChecksWholenessAndRange) {
  EXPECT_EQ(Json::integral<int>(-7.0), -7);
  EXPECT_EQ(Json::integral<std::uint32_t>(4294967295.0), 4294967295u);
  EXPECT_EQ(Json::integral<std::uint32_t>(4294967296.0), std::nullopt);
  EXPECT_EQ(Json::integral<std::uint64_t>(-1.0), std::nullopt);
  EXPECT_EQ(Json::integral<std::uint64_t>(-0.0), 0u);
  EXPECT_EQ(Json::integral<std::uint64_t>(18446744073709549568.0),
            18446744073709549568ull);  // largest double below 2^64
  EXPECT_EQ(Json::integral<std::uint64_t>(18446744073709551616.0), std::nullopt);
  EXPECT_EQ(Json::integral<long long>(9223372036854775808.0), std::nullopt);
  EXPECT_EQ(Json::integral<int>(2.5), std::nullopt);
  EXPECT_EQ(Json::integral<int>(1e300), std::nullopt);
  EXPECT_EQ(Json::integral<int>(std::numeric_limits<double>::quiet_NaN()), std::nullopt);
  EXPECT_EQ(Json::integral<int>(-std::numeric_limits<double>::infinity()), std::nullopt);

  const Json doc = Json::parse(R"({"n": 3, "f": 0.5, "s": "3"})").value();
  EXPECT_EQ(doc.integer_or<int>("n", 9), 3);
  EXPECT_EQ(doc.integer_or<int>("missing", 9), 9);
  EXPECT_EQ(doc.integer_or<int>("s", 9), 9);  // not a number: the fallback
  EXPECT_EQ(doc.integer_or<int>("f", 9), std::nullopt);
}

// --- harness reports ---------------------------------------------------------

class ReportTest : public ::testing::Test {
 protected:
  static harness::Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec;
    spec.total_files = 300;
    spec.total_dirs = 30;
    spec.compute_hashes = false;
    env = new harness::Environment(harness::make_environment(spec, 66));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }
};

harness::Environment* ReportTest::env = nullptr;

TEST_F(ReportTest, SampleJsonHasExpectedFields) {
  sim::SampleSpec spec;
  spec.family = "Xorist";
  spec.behavior = sim::BehaviorClass::A;
  spec.profile = sim::family_profile("Xorist", sim::BehaviorClass::A);
  spec.seed = 3;
  const auto r = harness::run_sample(*env, spec, {});
  const std::string json = harness::to_json(r).to_string();
  EXPECT_NE(json.find("\"family\":\"Xorist\""), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"A\""), std::string::npos);
  EXPECT_NE(json.find("\"detected\":true"), std::string::npos);
  EXPECT_NE(json.find("\"indicators\":{"), std::string::npos);
}

TEST_F(ReportTest, CampaignReportAggregates) {
  std::vector<sim::SampleSpec> specs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::SampleSpec spec;
    spec.family = "Virlock";
    spec.behavior = sim::BehaviorClass::C;
    spec.profile = sim::family_profile("Virlock", sim::BehaviorClass::C);
    spec.seed = seed;
    specs.push_back(spec);
  }
  const auto results = harness::run_campaign(*env, specs, {});
  const Json report = harness::campaign_report(*env, results);
  const std::string json = report.to_string();
  EXPECT_NE(json.find("\"samples\":4"), std::string::npos);
  EXPECT_NE(json.find("\"detection_rate\":1"), std::string::npos);
  EXPECT_NE(json.find("\"family\":\"Virlock\""), std::string::npos);
  // Per-sample records only with the flag.
  EXPECT_EQ(json.find("\"files_attacked\""), std::string::npos);
  const std::string with_samples =
      harness::campaign_report(*env, results, /*include_samples=*/true).to_string();
  EXPECT_NE(with_samples.find("\"files_attacked\""), std::string::npos);
}

TEST_F(ReportTest, BenignReportCountsFalsePositives) {
  std::vector<harness::BenignRunResult> results(3);
  results[0].app = "A";
  results[1].app = "B";
  results[1].detected = true;
  results[2].app = "C";
  const std::string json = harness::benign_report(results).to_string();
  EXPECT_NE(json.find("\"false_positives\":1"), std::string::npos);
  EXPECT_NE(json.find("\"applications\":3"), std::string::npos);
}

// --- multi-root protection -----------------------------------------------

TEST(MultiRoot, AdditionalRootsAreMonitored) {
  vfs::FileSystem fs;
  core::ScoringConfig config;
  config.protected_root = "users/victim/documents";
  config.additional_roots = {"users/victim/desktop", "users/victim/pictures"};
  config.score_threshold = 1000000;
  config.union_threshold = 1000000;
  core::AnalysisEngine engine(config);
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("p");
  Rng rng(4);

  ASSERT_TRUE(fs.put_file_raw("users/victim/desktop/todo.txt",
                              to_bytes(synth_prose(rng, 2000))).is_ok());
  ASSERT_TRUE(fs.put_file_raw("users/victim/music/song.txt",
                              to_bytes(synth_prose(rng, 2000))).is_ok());

  // Deleting under an additional root scores; an unlisted sibling doesn't.
  ASSERT_TRUE(fs.remove(pid, "users/victim/desktop/todo.txt").is_ok());
  const int after_desktop = engine.score(pid);
  EXPECT_GT(after_desktop, 0);
  ASSERT_TRUE(fs.remove(pid, "users/victim/music/song.txt").is_ok());
  EXPECT_EQ(engine.score(pid), after_desktop);
  fs.detach_filter(&engine);
}

// --- latency self-instrumentation -----------------------------------------

TEST(LatencyStats, BucketsAccumulatePerOpType) {
  vfs::FileSystem fs;
  core::AnalysisEngine engine{core::ScoringConfig{}};
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("p");
  Rng rng(5);
  ASSERT_TRUE(fs.put_file_raw("users/victim/documents/a.txt",
                              to_bytes(synth_prose(rng, 20000))).is_ok());
  ASSERT_TRUE(fs.read_file(pid, "users/victim/documents/a.txt").is_ok());
  ASSERT_TRUE(fs.write_file(pid, "users/victim/documents/a.txt",
                            rng.bytes(20000)).is_ok());

  const core::LatencyStats& stats = engine.latency_stats();
  EXPECT_GT(stats.open.count, 0u);
  EXPECT_GT(stats.read.count, 0u);
  EXPECT_GT(stats.write.count, 0u);
  EXPECT_GT(stats.close.count, 0u);
  // A modified file's close runs the digest comparison — the expensive
  // path (paper §V-H: write/rename/close carry the measurement).
  EXPECT_GT(stats.close.max_ns, stats.open.max_ns);
  EXPECT_LE(stats.open.mean_micros(), 1000.0);  // far under the paper's 1 ms
  fs.detach_filter(&engine);
}

TEST(LatencyStats, UnmonitoredOpsCostNothing) {
  vfs::FileSystem fs;
  core::AnalysisEngine engine{core::ScoringConfig{}};
  fs.attach_filter(&engine);
  const vfs::ProcessId pid = fs.register_process("p");
  ASSERT_TRUE(fs.write_file(pid, "elsewhere/x.bin", to_bytes("data")).is_ok());
  const core::LatencyStats& stats = engine.latency_stats();
  EXPECT_EQ(stats.open.count + stats.write.count + stats.close.count, 0u);
  fs.detach_filter(&engine);
}

}  // namespace
}  // namespace cryptodrop
