// Causal span tracing (obs/span.hpp + obs/trace_export.hpp): span
// identity and nesting, record-time sampling, ring spill, the
// determinism contract at any job count, Chrome trace-event export
// round-trips, and the critical-path analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "daemon/wire.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"

namespace cryptodrop::obs {
namespace {

using harness::Environment;

/// The deterministic projection of one span: everything the contract
/// covers (span_id, parent_id, pid, name, args), nothing it excludes
/// (tid, seq, start_ns, dur_ns).
std::string deterministic_signature(const SpanRecord& record) {
  std::string sig = std::to_string(record.span_id) + "|" +
                    std::to_string(record.parent_id) + "|" +
                    std::to_string(record.pid) + "|" + std::string(record.name);
  for (const SpanArg& arg : record.args) {
    sig += "|" + arg.key + "=";
    sig += arg.numeric ? std::to_string(arg.num) : arg.str;
  }
  return sig;
}

std::vector<std::string> sorted_signatures(const SpanSnapshot& snapshot) {
  std::vector<std::string> sigs;
  sigs.reserve(snapshot.spans.size());
  for (const SpanRecord& record : snapshot.spans) {
    sigs.push_back(deterministic_signature(record));
  }
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

TEST(SpanId, PacksPidOpIndexAndSerial) {
  const std::uint64_t id = SpanTracer::make_span_id(42, 1234567, 9);
  EXPECT_EQ((id >> 50) & 0x3FFF, 42u);
  EXPECT_EQ((id >> 12) & 0x3FFFFFFFFFULL, 1234567u);
  EXPECT_EQ(id & 0xFFF, 9u);
  // Distinct coordinates → distinct ids.
  EXPECT_NE(SpanTracer::make_span_id(1, 1, 0), SpanTracer::make_span_id(1, 1, 1));
  EXPECT_NE(SpanTracer::make_span_id(1, 1, 0), SpanTracer::make_span_id(1, 2, 0));
  EXPECT_NE(SpanTracer::make_span_id(1, 1, 0), SpanTracer::make_span_id(2, 1, 0));
}

TEST(SpanTracer, ScopedSpansNestAndRecordParentage) {
  SpanTracer tracer(TraceOptions{.enabled = true});
  {
    ScopedSpan root(&tracer, span_name::kDispatch, /*pid=*/3, /*op_index=*/7);
    root.arg("op", "write");
    {
      ScopedSpan pre(span_name::kFilterPre);
      pre.arg("filter", "analysis_engine");
      ScopedSpan entropy(span_name::kEntropy);
      entropy.arg("bytes", 4096.0);
    }
    ScopedSpan post(span_name::kFilterPost);
  }
  const SpanSnapshot snap = tracer.snapshot();
  if (!kMetricsEnabled) {
    EXPECT_TRUE(snap.spans.empty());
    return;
  }
  ASSERT_EQ(snap.spans.size(), 4u);
  // (tid, seq) sort puts the one thread's spans in start order.
  EXPECT_EQ(snap.spans[0].name, span_name::kDispatch);
  EXPECT_EQ(snap.spans[1].name, span_name::kFilterPre);
  EXPECT_EQ(snap.spans[2].name, span_name::kEntropy);
  EXPECT_EQ(snap.spans[3].name, span_name::kFilterPost);

  const SpanRecord& root = snap.spans[0];
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(root.span_id, SpanTracer::make_span_id(3, 7, 0));
  EXPECT_EQ(snap.spans[1].parent_id, root.span_id);
  EXPECT_EQ(snap.spans[2].parent_id, snap.spans[1].span_id);  // entropy under pre
  EXPECT_EQ(snap.spans[3].parent_id, root.span_id);
  // Child serials are dense per op, in open order.
  EXPECT_EQ(snap.spans[1].span_id & 0xFFF, 1u);
  EXPECT_EQ(snap.spans[2].span_id & 0xFFF, 2u);
  EXPECT_EQ(snap.spans[3].span_id & 0xFFF, 3u);
  for (const SpanRecord& r : snap.spans) EXPECT_EQ(r.pid, 3u);
  ASSERT_EQ(snap.spans[2].args.size(), 1u);
  EXPECT_TRUE(snap.spans[2].args[0].numeric);
  EXPECT_DOUBLE_EQ(snap.spans[2].args[0].num, 4096.0);
}

TEST(SpanTracer, ChildSpanWithoutRootIsInert) {
  SpanTracer tracer(TraceOptions{.enabled = true});
  {
    ScopedSpan orphan(span_name::kEntropy);  // no current span on this thread
    EXPECT_FALSE(orphan.active());
  }
  EXPECT_TRUE(tracer.snapshot().spans.empty());
}

TEST(SpanTracer, SamplingKeepsOneInNAndForcedPidsKeepAll) {
  if (!kMetricsEnabled) GTEST_SKIP() << "tracing compiled out";
  TraceOptions options;
  options.enabled = true;
  options.sample_every = 4;
  SpanTracer tracer(options);

  std::size_t kept = 0;
  for (std::uint64_t op = 0; op < 100; ++op) {
    kept += tracer.should_sample(1, op) ? 1 : 0;
  }
  EXPECT_EQ(kept, 25u);  // exactly 1-in-4, not probabilistic

  EXPECT_FALSE(tracer.should_sample(2, 1));
  tracer.force_pid(2);
  for (std::uint64_t op = 0; op < 16; ++op) {
    EXPECT_TRUE(tracer.should_sample(2, op));  // suspension tail: keep all
  }
  EXPECT_FALSE(tracer.should_sample(3, 1));  // other pids still sampled
}

TEST(SpanTracer, RingSpillEvictsOldestAndCountsDrops) {
  if (!kMetricsEnabled) GTEST_SKIP() << "tracing compiled out";
  TraceOptions options;
  options.enabled = true;
  options.ring_capacity = 32;  // 2 records per shard
  SpanTracer tracer(options);
  constexpr std::uint64_t kSpans = 100;
  for (std::uint64_t op = 0; op < kSpans; ++op) {
    ScopedSpan root(&tracer, span_name::kDispatch, 1, op);
  }
  const SpanSnapshot snap = tracer.snapshot();
  EXPECT_EQ(snap.recorded, kSpans);
  EXPECT_EQ(snap.dropped, kSpans - snap.spans.size());
  EXPECT_GT(snap.dropped, 0u);
  EXPECT_LE(snap.spans.size(), options.ring_capacity);
  // One thread fills one shard; the survivors are the newest records.
  for (const SpanRecord& r : snap.spans) {
    EXPECT_GE((r.span_id >> 12) & 0x3FFFFFFFFFULL, kSpans - options.ring_capacity);
  }
}

class SpanHarnessTest : public ::testing::Test {
 protected:
  static Environment* env;

  static void SetUpTestSuite() {
    corpus::CorpusSpec spec = harness::small_corpus_spec(220, 24);
    spec.compute_hashes = false;
    env = new Environment(harness::make_environment(spec, 321));
  }
  static void TearDownTestSuite() {
    delete env;
    env = nullptr;
  }

  static std::vector<sim::SampleSpec> some_specs(std::size_t n) {
    std::vector<sim::SampleSpec> all = sim::table1_samples(1);
    std::vector<sim::SampleSpec> picked;
    const std::size_t stride = all.size() / n;
    for (std::size_t i = 0; i < n; ++i) picked.push_back(all[i * stride]);
    return picked;
  }
};

Environment* SpanHarnessTest::env = nullptr;

TEST_F(SpanHarnessTest, SpanIdentityIsBitIdenticalAtAnyJobCount) {
  harness::RunPlan plan;
  plan.trace.enabled = true;
  plan.trace.sample_every = 4;
  harness::RunnerOptions serial;
  serial.jobs = 1;
  harness::RunnerOptions pooled;
  pooled.jobs = 8;

  const auto specs = some_specs(8);
  const auto a = harness::run_campaign(*env, specs, plan, serial);
  const auto b = harness::run_campaign(*env, specs, plan, pooled);
  ASSERT_EQ(a.size(), b.size());
  std::size_t total_spans = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trace.spans.size(), b[i].trace.spans.size());
    EXPECT_EQ(a[i].trace.recorded, b[i].trace.recorded);
    EXPECT_EQ(sorted_signatures(a[i].trace), sorted_signatures(b[i].trace))
        << "trial " << i << " (" << a[i].family << ")";
    total_spans += a[i].trace.spans.size();
  }
  if (kMetricsEnabled) {
    EXPECT_GT(total_spans, 0u);
  } else {
    EXPECT_EQ(total_spans, 0u);  // empty-but-valid under NO_METRICS
  }
}

TEST_F(SpanHarnessTest, TracedRunNestsEngineStagesUnderFilterSpans) {
  if (!kMetricsEnabled) GTEST_SKIP() << "tracing compiled out";
  harness::RunPlan plan;
  plan.trace.enabled = true;
  const auto specs = some_specs(2);
  const auto r = harness::run_sample(*env, specs[0], plan);
  ASSERT_FALSE(r.trace.spans.empty());

  std::size_t engine_stages = 0;
  bool saw_verdict = false;
  for (const SpanRecord& record : r.trace.spans) {
    if (record.parent_id == 0) {
      EXPECT_EQ(record.name, span_name::kDispatch);
      continue;
    }
    // Every non-root span hangs off a retained span of the same op.
    const auto parent = std::find_if(
        r.trace.spans.begin(), r.trace.spans.end(),
        [&](const SpanRecord& p) { return p.span_id == record.parent_id; });
    ASSERT_NE(parent, r.trace.spans.end()) << record.name;
    if (record.name.starts_with("engine.")) {
      ++engine_stages;
      EXPECT_TRUE(parent->name == span_name::kFilterPre ||
                  parent->name == span_name::kFilterPost ||
                  parent->name.starts_with("engine."))
          << record.name << " under " << parent->name;
    }
    if (record.name == span_name::kVerdict) saw_verdict = true;
  }
  EXPECT_GT(engine_stages, 0u);
  EXPECT_EQ(saw_verdict, r.detected);
}

TEST_F(SpanHarnessTest, FaultFilterAppearsAsNamedFilterSpan) {
  if (!kMetricsEnabled) GTEST_SKIP() << "tracing compiled out";
  harness::RunPlan plan;
  plan.faults.emplace();
  plan.faults->plan = vfs::FaultPlan::uniform(0.05, 99);
  plan.trace.enabled = true;
  const auto r = harness::run_sample(*env, some_specs(2)[1], plan);
  bool saw_fault_filter = false;
  for (const SpanRecord& record : r.trace.spans) {
    for (const SpanArg& arg : record.args) {
      if (arg.key == "filter" && arg.str == "fault_injection") {
        saw_fault_filter = true;
      }
    }
  }
  EXPECT_TRUE(saw_fault_filter);
}

TEST_F(SpanHarnessTest, TraceJsonRoundTripsAndValidates) {
  harness::RunPlan plan;
  plan.trace.enabled = true;
  harness::RunnerOptions options;
  options.jobs = 2;
  const auto results = harness::run_campaign(*env, some_specs(3), plan, options);
  const std::string text = harness::trace_report(results).to_string();

  const Result<std::vector<TraceEvent>> parsed = parse_trace_events(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_TRUE(validate_trace_events(parsed.value()).is_ok());

  if (!kMetricsEnabled) {
    // Empty-but-valid: a trace document with zero duration events.
    for (const TraceEvent& e : parsed.value()) EXPECT_NE(e.phase, 'B');
    return;
  }
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t metadata = 0;
  for (const TraceEvent& e : parsed.value()) {
    begins += e.phase == 'B' ? 1 : 0;
    ends += e.phase == 'E' ? 1 : 0;
    metadata += e.phase == 'M' ? 1 : 0;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
  EXPECT_GE(metadata, results.size());  // one process_name per trial pid

  const TraceReport report = analyze_trace(parsed.value(), 5);
  EXPECT_GT(report.ops, 0u);
  EXPECT_FALSE(report.stages.empty());
  EXPECT_LE(report.slowest.size(), 5u);
  EXPECT_FALSE(format_trace_report(report).empty());
}

TEST_F(SpanHarnessTest, JsonRoundTripOfScoreboardAndTrace) {
  // Every document a traced campaign writes parses back to the same
  // bytes, compact and pretty.
  harness::RunPlan plan;
  plan.trace.enabled = true;
  const auto results = harness::run_campaign(*env, some_specs(2), plan);
  std::vector<Json> documents = {harness::trace_report(results)};
  for (const harness::RansomwareRunResult& r : results) {
    documents.push_back(daemon::scoreboard_to_json(r.scoreboard));
    documents.push_back(to_trace_json(r.trace));
  }
  for (const Json& doc : documents) {
    for (const std::string& text : {doc.to_string(), doc.to_pretty_string()}) {
      const Result<Json> parsed = Json::parse(text);
      ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
      EXPECT_EQ(parsed.value().to_string(), doc.to_string());
      EXPECT_EQ(parsed.value().to_pretty_string(), doc.to_pretty_string());
    }
  }
}

TEST(TraceExport, HostileJsonNestingIsAnError) {
  constexpr std::size_t kDepth = 30000;
  std::string objects;
  for (std::size_t i = 0; i < kDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kDepth, '}');
  for (const std::string& text :
       {std::string(kDepth, '[') + std::string(kDepth, ']'), objects}) {
    const Result<std::vector<TraceEvent>> parsed = parse_trace_events(text);
    ASSERT_FALSE(parsed.is_ok());
    EXPECT_EQ(parsed.code(), Errc::invalid_argument);
  }
}

TEST(TraceExport, PidAndTidMustBeWholeNumbersInRange) {
  for (const char* bad : {"-0.5", "1e300", "-1e300", "2.5", "9223372036854775808"}) {
    for (const char* key : {"pid", "tid"}) {
      const std::string text = std::string(R"({"traceEvents":[{"name":"x","ph":"B","ts":1,")") +
                               key + "\":" + bad + "}]}";
      const Result<std::vector<TraceEvent>> parsed = parse_trace_events(text);
      ASSERT_FALSE(parsed.is_ok()) << text;
      EXPECT_EQ(parsed.code(), Errc::invalid_argument) << text;
    }
  }
  const Result<std::vector<TraceEvent>> ok = parse_trace_events(
      R"({"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":-3,"tid":7}]})");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value()[0].pid, -3);
  EXPECT_EQ(ok.value()[0].tid, 7);
}

TEST(TraceExport, EmptyTraceIsValidAndAnalyzable) {
  const std::string text = empty_trace_json().to_string();
  const Result<std::vector<TraceEvent>> parsed = parse_trace_events(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed.value().empty());
  EXPECT_TRUE(validate_trace_events(parsed.value()).is_ok());
  const TraceReport report = analyze_trace(parsed.value());
  EXPECT_EQ(report.ops, 0u);
  EXPECT_FALSE(format_trace_report(report).empty());
}

TEST(TraceExport, ValidatorRejectsBrokenTraces) {
  const auto event = [](const char* name, char phase, double ts) {
    TraceEvent e;
    e.name = name;
    e.phase = phase;
    e.ts = ts;
    e.pid = 1;
    e.tid = 1;
    return e;
  };
  // ts regression within one track.
  EXPECT_FALSE(validate_trace_events(
                   {event("a", 'B', 10.0), event("a", 'E', 5.0)})
                   .is_ok());
  // E without a matching B.
  EXPECT_FALSE(validate_trace_events({event("a", 'E', 1.0)}).is_ok());
  // B/E name mismatch.
  EXPECT_FALSE(validate_trace_events(
                   {event("a", 'B', 1.0), event("b", 'E', 2.0)})
                   .is_ok());
  // Unclosed B at end of trace.
  EXPECT_FALSE(validate_trace_events({event("a", 'B', 1.0)}).is_ok());
  // The well-formed version of the same trace passes.
  EXPECT_TRUE(validate_trace_events(
                  {event("a", 'B', 1.0), event("b", 'B', 2.0),
                   event("b", 'E', 3.0), event("a", 'E', 4.0)})
                  .is_ok());
}

TEST(TraceExport, AnalyzeAttributesSelfTimeToStages) {
  const auto event = [](const char* name, char phase, double ts,
                        std::vector<std::pair<std::string, std::string>> args = {}) {
    TraceEvent e;
    e.name = name;
    e.phase = phase;
    e.ts = ts;
    e.pid = 1;
    e.tid = 1;
    e.args = std::move(args);
    return e;
  };
  // One 100us op: 30us in entropy, 50us in digest, 20us self.
  const std::vector<TraceEvent> events = {
      event("vfs.dispatch", 'B', 0.0, {{"op", "write"}, {"path", "a.txt"}}),
      event("engine.entropy", 'B', 10.0),
      event("engine.entropy", 'E', 40.0),
      event("engine.sdhash_digest", 'B', 45.0),
      event("engine.sdhash_digest", 'E', 95.0),
      event("vfs.dispatch", 'E', 100.0),
  };
  ASSERT_TRUE(validate_trace_events(events).is_ok());
  const TraceReport report = analyze_trace(events, 10);
  EXPECT_EQ(report.ops, 1u);
  EXPECT_DOUBLE_EQ(report.total_self_us, 100.0);

  const auto stage = [&](const std::string& name) -> const StageCost& {
    const auto it = std::find_if(report.stages.begin(), report.stages.end(),
                                 [&](const StageCost& s) { return s.name == name; });
    EXPECT_NE(it, report.stages.end()) << name;
    return *it;
  };
  EXPECT_DOUBLE_EQ(stage("vfs.dispatch").self_us, 20.0);
  EXPECT_DOUBLE_EQ(stage("vfs.dispatch").total_us, 100.0);
  EXPECT_DOUBLE_EQ(stage("engine.entropy").self_us, 30.0);
  EXPECT_DOUBLE_EQ(stage("engine.sdhash_digest").self_us, 50.0);

  // Indicator attribution: entropy → entropy_delta, digest → similarity_drop.
  const auto indicator = [&](const std::string& name) -> const IndicatorCost& {
    const auto it =
        std::find_if(report.indicators.begin(), report.indicators.end(),
                     [&](const IndicatorCost& c) { return c.indicator == name; });
    EXPECT_NE(it, report.indicators.end()) << name;
    return *it;
  };
  EXPECT_DOUBLE_EQ(indicator("entropy_delta").self_us, 30.0);
  EXPECT_DOUBLE_EQ(indicator("similarity_drop").self_us, 50.0);

  ASSERT_EQ(report.slowest.size(), 1u);
  EXPECT_EQ(report.slowest[0].op, "write");
  EXPECT_EQ(report.slowest[0].path, "a.txt");
  EXPECT_DOUBLE_EQ(report.slowest[0].dur_us, 100.0);
}

TEST(TraceExport, KnownSpanNamesMatchesSchemaOrder) {
  const std::vector<std::string_view> names = known_span_names();
  ASSERT_EQ(names.size(), 12u);
  EXPECT_EQ(names.front(), span_name::kDispatch);
  EXPECT_EQ(names.back(), span_name::kDaemonExecute);
  // No duplicates.
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

}  // namespace
}  // namespace cryptodrop::obs
