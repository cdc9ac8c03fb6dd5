// Tests for the static-analysis rule engine (tools/lint) and the
// runtime lock-rank validator (common/ranked_mutex.hpp) — each lint
// rule must fire on a planted violation and stay quiet on the
// sanctioned spelling, and the allowlist must suppress (and track)
// exactly what it names. DESIGN.md §13.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/ranked_mutex.hpp"
#include "lint/graph.hpp"
#include "lint/lint_rules.hpp"
#include "lint/scan.hpp"

namespace lint = cryptodrop::lint;
namespace common = cryptodrop::common;

namespace {

/// Small name schema the fixture snippets are checked against.
lint::NameTables fixture_tables() {
  lint::NameTables tables;
  tables.metric_families = {"ops_observed_total",
                            "indicator_events_total.<indicator>"};
  tables.placeholder_labels["<indicator>"] = {"entropy_delta", "deletion"};
  tables.span_names = {"engine.verdict", "engine.entropy"};
  tables.span_constants = {{"kVerdict", "engine.verdict"},
                           {"kEntropy", "engine.entropy"}};
  return tables;
}

/// Runs every rule over a snippet; returns the issues.
std::vector<lint::Issue> lint_snippet(const std::string& text) {
  return lint::lint_source("fixture.cpp", lint::split_lines(text),
                           fixture_tables());
}

/// The rule ids of each issue, in order.
std::vector<std::string> rules_of(const std::vector<lint::Issue>& issues) {
  std::vector<std::string> rules;
  for (const auto& issue : issues) rules.push_back(issue.rule);
  return rules;
}

TEST(LintRng, FlagsBannedRandomnessPrimitives) {
  EXPECT_EQ(rules_of(lint_snippet("int x = std::rand();")),
            std::vector<std::string>{"rng"});
  EXPECT_EQ(rules_of(lint_snippet("std::mt19937 gen(42);")),
            std::vector<std::string>{"rng"});
  EXPECT_EQ(rules_of(lint_snippet("std::random_device rd;")),
            std::vector<std::string>{"rng"});
}

TEST(LintRng, IgnoresCommentsStringsAndProjectRng) {
  EXPECT_TRUE(lint_snippet("// std::rand is banned; use common/rng").empty());
  EXPECT_TRUE(lint_snippet("log(\"std::rand would be bad\");").empty());
  EXPECT_TRUE(lint_snippet("auto v = rng.next_u64();").empty());
}

TEST(LintWallClock, FlagsClockReads) {
  const auto issues =
      lint_snippet("auto t = std::chrono::steady_clock::now();");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "wall-clock");
  EXPECT_EQ(issues[0].line, 1u);
  EXPECT_EQ(rules_of(lint_snippet("auto w = system_clock::now();")),
            std::vector<std::string>{"wall-clock"});
}

TEST(LintWallClock, IgnoresVirtualClockAndComments) {
  EXPECT_TRUE(lint_snippet("clock_.advance_ns(100);").empty());
  EXPECT_TRUE(lint_snippet("// steady_clock::now lives in obs only").empty());
}

TEST(LintNakedLock, FlagsHandLockCalls) {
  EXPECT_EQ(rules_of(lint_snippet("mu_.lock();")),
            std::vector<std::string>{"naked-lock"});
  EXPECT_EQ(rules_of(lint_snippet("shard.mu.unlock();")),
            std::vector<std::string>{"naked-lock"});
  EXPECT_EQ(rules_of(lint_snippet("if (mu_.try_lock()) { }")),
            std::vector<std::string>{"naked-lock"});
}

TEST(LintNakedLock, AcceptsGuardObjects) {
  // RAII construction has no .lock() call at all.
  EXPECT_TRUE(lint_snippet("std::lock_guard guard(mu_);").empty());
  // Methods on a guard object are the sanctioned early-release form.
  EXPECT_TRUE(lint_snippet("locked.lock.unlock();").empty());
  EXPECT_TRUE(lint_snippet("locks[i - 1].unlock();").empty());
  EXPECT_TRUE(lint_snippet("shard_guard.lock();").empty());
}

TEST(LintLockRank, FlagsUntaggedRawMutexDeclarations) {
  EXPECT_EQ(rules_of(lint_snippet("std::mutex mu_;")),
            std::vector<std::string>{"lock-rank"});
  EXPECT_EQ(rules_of(lint_snippet("std::shared_mutex table_mu_;")),
            std::vector<std::string>{"lock-rank"});
}

TEST(LintLockRank, AcceptsTagsRanksAndNonDeclarations) {
  EXPECT_TRUE(lint_snippet("std::mutex mu_;  // lock-rank: 40").empty());
  EXPECT_TRUE(
      lint_snippet("// lock-rank: 10 (scoreboard)\nstd::mutex mu_;").empty());
  // Template arguments, references and pointers are not lock objects.
  EXPECT_TRUE(lint_snippet("std::lock_guard<std::mutex> g(mu_);").empty());
  EXPECT_TRUE(lint_snippet("void f(std::mutex& mu);").empty());
  EXPECT_TRUE(lint_snippet("std::mutex* borrowed = nullptr;").empty());
}

TEST(LintMetricName, FlagsUnknownNames) {
  const auto issues =
      lint_snippet("auto* c = registry.counter(\"bogus_total\", \"help\");");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "metric-name");
  EXPECT_NE(issues[0].message.find("bogus_total"), std::string::npos);
}

TEST(LintMetricName, AcceptsSchemaNamesAndPlaceholderForms) {
  EXPECT_TRUE(
      lint_snippet("registry.counter(\"ops_observed_total\", \"help\");")
          .empty());
  // An expanded placeholder label is a legal concrete name.
  EXPECT_TRUE(lint_snippet("registry.counter("
                           "\"indicator_events_total.entropy_delta\", \"h\");")
                  .empty());
  // The `"family." + label` dynamic form resolves via the placeholder.
  EXPECT_TRUE(lint_snippet("registry.counter("
                           "\"indicator_events_total.\" + label, \"h\");")
                  .empty());
  // Non-literal first arguments are the runtime gate's job, not ours.
  EXPECT_TRUE(lint_snippet("registry.counter(name, \"help\");").empty());
}

TEST(LintMetricName, FlagsUnknownDynamicFamilyAndSpansLines) {
  EXPECT_EQ(rules_of(lint_snippet(
                "registry.counter(\"mystery.\" + label, \"help\");")),
            std::vector<std::string>{"metric-name"});
  // Registration split across lines is still one call.
  const auto issues = lint_snippet(
      "auto* g = registry.gauge(\n    \"bogus_gauge\",\n    \"help\");");
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "metric-name");
  EXPECT_EQ(issues[0].line, 1u);
}

TEST(LintSpanName, FlagsUnknownSpanNamesAndConstants) {
  EXPECT_EQ(rules_of(lint_snippet("obs::ScopedSpan s(\"engine.mystery\");")),
            std::vector<std::string>{"span-name"});
  EXPECT_EQ(
      rules_of(lint_snippet("obs::ScopedSpan s(obs::span_name::kBogus);")),
      std::vector<std::string>{"span-name"});
}

TEST(LintSpanName, AcceptsSchemaSpans) {
  EXPECT_TRUE(lint_snippet("obs::ScopedSpan s(\"engine.verdict\");").empty());
  EXPECT_TRUE(
      lint_snippet("obs::ScopedSpan s(obs::span_name::kVerdict);").empty());
  // Root form: the tracer comes first, the name second.
  EXPECT_TRUE(lint_snippet("obs::ScopedSpan s(tracer_, "
                           "obs::span_name::kEntropy, pid, index);")
                  .empty());
  // Declarations without a name argument are not emission sites.
  EXPECT_TRUE(
      lint_snippet("ScopedSpan(SpanTracer* tracer, std::string_view name);")
          .empty());
}

TEST(LintAllowlist, SuppressesTracksAndRejects) {
  std::vector<std::string> errors;
  auto allow = lint::Allowlist::parse(
      {
          "# comment",
          "",
          "wall-clock src/obs/span.cpp tracer owns the clock reads",
          "rng bench/bench_perf.cpp never used",
          "malformed-no-reason src/x.cpp",
      },
      &errors);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("malformed"), std::string::npos);

  EXPECT_TRUE(allow.allows("wall-clock", "src/obs/span.cpp"));
  EXPECT_FALSE(allow.allows("wall-clock", "src/obs/metrics.cpp"));
  EXPECT_FALSE(allow.allows("naked-lock", "src/obs/span.cpp"));

  // The rng entry was never consulted — it must surface as stale.
  const auto stale = allow.unused_entries();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "rng bench/bench_perf.cpp");
}

TEST(LintNameTables, ExpandsPlaceholderFamilies) {
  const auto expanded = fixture_tables().expanded_metric_names();
  EXPECT_TRUE(expanded.count("ops_observed_total"));
  EXPECT_TRUE(expanded.count("indicator_events_total.entropy_delta"));
  EXPECT_TRUE(expanded.count("indicator_events_total.deletion"));
  EXPECT_TRUE(expanded.count("indicator_events_total.<indicator>"));
  EXPECT_FALSE(expanded.count("indicator_events_total.bogus"));
}

TEST(LintScan, ExtractsStringConstants) {
  const auto constants = lint::extract_string_constants({
      "inline constexpr std::string_view kVerdict = \"engine.verdict\";",
      "inline constexpr int kNotAString = 3;",
  });
  ASSERT_EQ(constants.size(), 1u);
  EXPECT_EQ(constants.at("kVerdict"), "engine.verdict");
}

TEST(LintAllowlist, DirectoryEntriesAndStaleKeys) {
  std::vector<std::string> errors;
  auto allow = lint::Allowlist::parse(
      {
          "hot-alloc src/simhash/ pooled scratch buffers",
          "rng bench/bench_perf.cpp never used",
      },
      &errors);
  EXPECT_TRUE(errors.empty());

  // A trailing '/' covers the directory, not a same-prefix sibling.
  EXPECT_TRUE(allow.allows("hot-alloc", "src/simhash/similarity.cpp"));
  EXPECT_TRUE(allow.allows("hot-alloc", "src/simhash/digest_cache.cpp"));
  EXPECT_FALSE(allow.allows("hot-alloc", "src/simhash_extras/x.cpp"));
  EXPECT_FALSE(allow.allows("hot-throw", "src/simhash/similarity.cpp"));

  const auto stale = allow.unused_entry_keys();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].first, "rng");
  EXPECT_EQ(stale[0].second, "bench/bench_perf.cpp");
}

TEST(LintAllowlist, NearestPathRanksByEditDistance) {
  const std::vector<std::string> candidates = {"src/core/engine.cpp",
                                               "src/obs/span.cpp"};
  EXPECT_EQ(lint::nearest_path("src/core/engin.cpp", candidates),
            "src/core/engine.cpp");
  EXPECT_EQ(lint::nearest_path("src/obs/spans.cpp", candidates),
            "src/obs/span.cpp");
}

// --- include-graph layering (tools/lint/layers.txt, DESIGN.md §17) -----

/// A two-level fixture DAG: core (rank 1) may include common (rank 0).
lint::LayerSpec fixture_layers() {
  std::vector<std::string> errors;
  auto spec = lint::LayerSpec::parse(
      {"# fixture", "0 common src/common", "1 obs src/obs",
       "1 core src/core"},
      &errors);
  EXPECT_TRUE(errors.empty());
  return spec;
}

using FileMap = std::map<std::string, std::vector<std::string>>;

TEST(LintLayering, DownwardAndIntraLayerEdgesAreLegal) {
  const FileMap files = {
      {"src/core/engine.cpp",
       {"#include \"common/util.hpp\"", "#include \"core/engine.hpp\""}},
      {"src/core/engine.hpp", {}},
      {"src/common/util.hpp", {}},
  };
  const auto graph = lint::IncludeGraph::build(files);
  EXPECT_EQ(graph.edges.size(), 2u);
  EXPECT_TRUE(lint::check_layering(graph, fixture_layers()).empty());
}

TEST(LintLayering, UpwardEdgeFailsWithEdgePathPrinted) {
  // The deliberate upward include of the acceptance criteria: a rank-0
  // file reaching into rank 1.
  const FileMap files = {
      {"src/common/util.hpp", {"#include \"core/engine.hpp\""}},
      {"src/core/engine.hpp", {}},
  };
  const auto issues =
      lint::check_layering(lint::IncludeGraph::build(files), fixture_layers());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "layer-violation");
  EXPECT_EQ(issues[0].file, "src/common/util.hpp");
  EXPECT_EQ(issues[0].line, 1u);
  EXPECT_NE(issues[0].message.find(
                "edge src/common/util.hpp -> src/core/engine.hpp"),
            std::string::npos);
  EXPECT_NE(issues[0].message.find("goes up the layer DAG"),
            std::string::npos);
}

TEST(LintLayering, EqualRankCrossLayerEdgeIsFlagged) {
  const FileMap files = {
      {"src/core/engine.cpp", {"#include \"obs/span.hpp\""}},
      {"src/obs/span.hpp", {}},
  };
  const auto issues =
      lint::check_layering(lint::IncludeGraph::build(files), fixture_layers());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("crosses between equal-rank layers"),
            std::string::npos);
}

TEST(LintLayering, UnlayeredFilesAreExempt) {
  const FileMap files = {
      {"scripts/gen.cpp", {"#include \"core/engine.hpp\""}},
      {"src/core/engine.hpp", {}},
  };
  EXPECT_TRUE(
      lint::check_layering(lint::IncludeGraph::build(files), fixture_layers())
          .empty());
}

TEST(LintCycles, ReportsTheFullCyclePathOnce) {
  const FileMap files = {
      {"src/common/a.hpp", {"#include \"common/b.hpp\""}},
      {"src/common/b.hpp", {"#include \"common/a.hpp\""}},
  };
  const auto issues = lint::check_cycles(lint::IncludeGraph::build(files));
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "include-cycle");
  // Anchored at the smallest member, with every hop printed.
  EXPECT_EQ(issues[0].file, "src/common/a.hpp");
  EXPECT_NE(issues[0].message.find("src/common/a.hpp"), std::string::npos);
  EXPECT_NE(issues[0].message.find("src/common/b.hpp"), std::string::npos);
  EXPECT_NE(issues[0].message.find(" -> "), std::string::npos);
}

TEST(LintCycles, AcyclicChainsPass) {
  const FileMap files = {
      {"src/common/a.hpp", {"#include \"common/b.hpp\""}},
      {"src/common/b.hpp", {"#include \"common/c.hpp\""}},
      {"src/common/c.hpp", {}},
  };
  EXPECT_TRUE(lint::check_cycles(lint::IncludeGraph::build(files)).empty());
}

// --- hot-path purity (// cryptodrop:hot, DESIGN.md §17) -----------------

/// Runs the hot-path checker over an in-memory file set.
lint::HotPathReport hot_check(FileMap files) {
  return lint::check_hot_paths(files);
}

TEST(LintHotPath, CleanAnnotatedFunctionPasses) {
  const auto report = hot_check({{"src/core/hot.cpp",
                                  {
                                      "// cryptodrop:hot",
                                      "int tick(int x) {",
                                      "  return x + 1;",
                                      "}",
                                  }}});
  EXPECT_TRUE(report.issues.empty());
  EXPECT_EQ(report.annotated, 1u);
  EXPECT_EQ(report.reachable, 1u);
}

TEST(LintHotPath, FlagsAllocationInHotBody) {
  const auto report = hot_check({{"src/core/hot.cpp",
                                  {
                                      "// cryptodrop:hot",
                                      "void tick() {",
                                      "  scores.push_back(1);",
                                      "}",
                                  }}});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].rule, "hot-alloc");
  EXPECT_EQ(report.issues[0].line, 3u);
}

TEST(LintHotPath, PooledReceiversAreExemptFromAllocRule) {
  const auto report = hot_check({{"src/core/hot.cpp",
                                  {
                                      "// cryptodrop:hot",
                                      "void tick() {",
                                      "  scratch_pool.push_back(1);",
                                      "}",
                                  }}});
  EXPECT_TRUE(report.issues.empty());
}

TEST(LintHotPath, FlagsThrowInHotBody) {
  const auto report = hot_check({{"src/core/hot.cpp",
                                  {
                                      "// cryptodrop:hot",
                                      "void tick() {",
                                      "  throw std::runtime_error(\"x\");",
                                      "}",
                                  }}});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].rule, "hot-throw");
}

TEST(LintHotPath, FlagsFreeBlockingCallsButNotMethods) {
  const auto bad = hot_check({{"src/core/hot.cpp",
                               {
                                   "// cryptodrop:hot",
                                   "void tick(int fd, char* p) {",
                                   "  read(fd, p, 16);",
                                   "}",
                               }}});
  ASSERT_EQ(bad.issues.size(), 1u);
  EXPECT_EQ(bad.issues[0].rule, "hot-blocking");

  // A method named like a syscall is not blocking I/O.
  const auto good = hot_check({{"src/core/hot.cpp",
                                {
                                    "// cryptodrop:hot",
                                    "void tick(File& f, char* p) {",
                                    "  f.read(p, 16);",
                                    "}",
                                }}});
  EXPECT_TRUE(good.issues.empty());
}

TEST(LintHotPath, FlagsRawMutexInHotBody) {
  const auto report = hot_check({{"src/core/hot.cpp",
                                  {
                                      "// cryptodrop:hot",
                                      "void tick() {",
                                      "  std::mutex mu;",
                                      "}",
                                  }}});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].rule, "hot-unranked-lock");
}

TEST(LintHotPath, WalksIntoSameRepoCalleesAndPrintsChain) {
  const auto report = hot_check({{"src/core/hot.cpp",
                                  {
                                      "// cryptodrop:hot",
                                      "void tick() {",
                                      "  helper();",
                                      "}",
                                      "void helper() {",
                                      "  auto* p = new int(3);",
                                      "}",
                                  }}});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].rule, "hot-alloc");
  EXPECT_EQ(report.issues[0].line, 6u);
  EXPECT_NE(report.issues[0].message.find("via tick -> helper"),
            std::string::npos);
  EXPECT_EQ(report.annotated, 1u);
  EXPECT_EQ(report.reachable, 2u);
}

TEST(LintHotPath, MarkerWithoutAFunctionIsAnError) {
  const auto report = hot_check({{"src/core/hot.cpp",
                                  {
                                      "// cryptodrop:hot",
                                      "int x = 3;",
                                  }}});
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].rule, "hot-annotation");
  EXPECT_EQ(report.annotated, 0u);
}

// --- --report-json schema -----------------------------------------------

TEST(LintReport, RendersTheDocumentedSchema) {
  lint::ReportStats stats;
  stats.files_scanned = 7;
  stats.graph_nodes = 7;
  stats.graph_edges = 9;
  stats.layers = {lint::LayerStat{"common", 0, 3, 5, 0},
                  lint::LayerStat{"core", 1, 4, 0, 5}};
  stats.hot_annotated = 2;
  stats.hot_reachable = 6;
  stats.violations_by_rule = {{"hot-alloc", 1}, {"layer-violation", 2}};
  stats.suppressions_used = 4;

  const std::string text = lint::render_report_json(stats);
  const auto parsed = cryptodrop::Json::parse(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const cryptodrop::Json* doc = &parsed.value();

  EXPECT_EQ(doc->number_or("schema_version", 0), 1);
  EXPECT_EQ(doc->number_or("files_scanned", 0), 7);
  EXPECT_EQ(doc->number_or("suppressions_used", 0), 4);

  const auto* graph = doc->find("include_graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->number_or("nodes", 0), 7);
  EXPECT_EQ(graph->number_or("edges", 0), 9);
  const auto* layers = graph->find("layers");
  ASSERT_NE(layers, nullptr);
  ASSERT_EQ(layers->items().size(), 2u);
  EXPECT_EQ(layers->items()[0].string_or("name", ""), "common");
  EXPECT_EQ(layers->items()[0].number_or("rank", -1), 0);
  EXPECT_EQ(layers->items()[0].number_or("files", 0), 3);
  EXPECT_EQ(layers->items()[0].number_or("fan_in", 0), 5);
  EXPECT_EQ(layers->items()[1].number_or("fan_out", 0), 5);

  const auto* hot = doc->find("hot_paths");
  ASSERT_NE(hot, nullptr);
  EXPECT_EQ(hot->number_or("annotated", 0), 2);
  EXPECT_EQ(hot->number_or("reachable", 0), 6);

  const auto* violations = doc->find("violations");
  ASSERT_NE(violations, nullptr);
  EXPECT_EQ(violations->number_or("total", 0), 3);
  const auto* by_rule = violations->find("by_rule");
  ASSERT_NE(by_rule, nullptr);
  EXPECT_EQ(by_rule->number_or("hot-alloc", 0), 1);
  EXPECT_EQ(by_rule->number_or("layer-violation", 0), 2);
}

TEST(LintReport, EmptyStatsStillParse) {
  const auto parsed = cryptodrop::Json::parse(lint::render_report_json({}));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const cryptodrop::Json* doc = &parsed.value();
  EXPECT_EQ(doc->number_or("schema_version", 0), 1);
  const auto* violations = doc->find("violations");
  ASSERT_NE(violations, nullptr);
  EXPECT_EQ(violations->number_or("total", -1), 0);
}

TEST(LintReport, JsonRoundTrip) {
  lint::ReportStats stats;
  stats.files_scanned = 3;
  stats.layers = {lint::LayerStat{"common", 0, 3, 1, 0}};
  stats.violations_by_rule = {{"hot-alloc", 1}};
  for (const lint::ReportStats& s : {stats, lint::ReportStats{}}) {
    const std::string text = lint::render_report_json(s);
    const auto parsed = cryptodrop::Json::parse(text);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().to_pretty_string(), text);
    const std::string compact = parsed.value().to_string();
    const auto reparsed = cryptodrop::Json::parse(compact);
    ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
    EXPECT_EQ(reparsed.value().to_string(), compact);
  }
}

// --- runtime lock-rank validator ---------------------------------------

// Unchecked, the wrapper must be exactly a std::mutex — no per-object
// cost in release builds.
static_assert(sizeof(common::RankedMutex<1, false>) == sizeof(std::mutex));
static_assert(sizeof(common::RankedSharedMutex<1, false>) ==
              sizeof(std::shared_mutex));

// Checked instantiations under test-friendly names (EXPECT_DEATH is a
// macro — template-argument commas would split its argument list).
using CheckedRank10 = common::RankedMutex<10, true>;
using CheckedRank20 = common::RankedMutex<20, true>;
using CheckedRank30 = common::RankedMutex<30, true>;
using CheckedSharedRank10 = common::RankedSharedMutex<10, true>;

TEST(RankedMutex, AscendingRanksAreLegal) {
  CheckedRank10 scoreboard;
  CheckedRank20 file_table;
  std::lock_guard outer(scoreboard);
  std::lock_guard inner(file_table);
  SUCCEED();
}

TEST(RankedMutex, SameRankAscendingAddressIsLegal) {
  // The engine snapshot sweep: all shards of one rank, in index order.
  CheckedRank10 shards[4];
  for (auto& shard : shards) shard.lock();
  for (int i = 3; i >= 0; --i) shards[i].unlock();
  SUCCEED();
}

TEST(RankedMutexDeathTest, AbortsOnRankInversion) {
  EXPECT_DEATH(
      {
        CheckedRank10 scoreboard;
        CheckedRank20 file_table;
        std::lock_guard outer(file_table);
        std::lock_guard inner(scoreboard);
      },
      "lock-rank violation");
}

TEST(RankedMutexDeathTest, AbortsOnSameRankDescendingAddress) {
  EXPECT_DEATH(
      {
        CheckedRank10 shards[2];
        std::lock_guard outer(shards[1]);
        std::lock_guard inner(shards[0]);
      },
      "lock-rank violation");
}

TEST(RankedMutexDeathTest, TryLockRespectsRankOrder) {
  EXPECT_DEATH(
      {
        CheckedRank20 file_table;
        CheckedRank10 scoreboard;
        std::lock_guard outer(file_table);
        (void)scoreboard.try_lock();  // succeeds, and must still abort
      },
      "lock-rank violation");
}

TEST(RankedMutex, OutOfOrderReleaseUnwindsCorrectly) {
  CheckedRank10 a;
  CheckedRank20 b;
  a.lock();
  b.lock();
  a.unlock();  // release the lower rank first
  CheckedRank30 c;
  std::lock_guard g(c);  // stack top is rank 20 — still legal
  b.unlock();
}

TEST(RankedSharedMutex, SharedAcquisitionsAreRankChecked) {
  CheckedSharedRank10 table;
  CheckedRank20 leaf;
  table.lock_shared();
  {
    std::lock_guard g(leaf);
  }
  table.unlock_shared();
  EXPECT_DEATH(
      {
        CheckedRank20 outer_leaf;
        CheckedSharedRank10 inner_table;
        std::lock_guard g(outer_leaf);
        inner_table.lock_shared();
      },
      "lock-rank violation");
}

}  // namespace
