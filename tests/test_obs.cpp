// acme::obs unit tests: trace-event well-formedness, histogram bucket math,
// Prometheus exposition escaping and round-trip, disabled-mode no-op
// guarantees, the FNV-1a digest helper, and strict bench CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "core/acme.h"

namespace acme::obs {
namespace {

// Every test runs against the process-global registry/tracer, so scrub state
// on both sides of each test body.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

// ------------------------------------------------------------------ metrics

TEST_F(ObsTest, CounterIncrementsAndResets) {
  Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, HistogramBucketMathMatchesPrometheusLeSemantics) {
  Histogram h({1.0, 10.0, 100.0});
  for (double v : {0.5, 1.0, 5.0, 10.0, 99.0, 1000.0}) h.observe(v);
  // `le` buckets are cumulative and upper-bound inclusive.
  EXPECT_EQ(h.cumulative(0), 2u);  // 0.5, 1.0
  EXPECT_EQ(h.cumulative(1), 4u);  // + 5.0, 10.0
  EXPECT_EQ(h.cumulative(2), 5u);  // + 99.0
  EXPECT_EQ(h.cumulative(3), 6u);  // +Inf == count()
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 5.0 + 10.0 + 99.0 + 1000.0, 1e-6);
}

TEST_F(ObsTest, HistogramSumUsesFixedPointGrain) {
  // Values round to 1e-6 per observation so concurrent sums commute.
  Histogram h({1.0});
  h.observe(0.1234567891);
  EXPECT_NEAR(h.sum(), 0.123457, 1e-9);
}

TEST_F(ObsTest, BucketLayoutHelpers) {
  EXPECT_EQ(Histogram::exponential_buckets(1.0, 4.0, 3),
            (std::vector<double>{1.0, 4.0, 16.0}));
}

TEST_F(ObsTest, RegistryIsIdempotentPerIdentity) {
  auto& a = metrics().counter("test_idem_total", "help");
  auto& b = metrics().counter("test_idem_total", "help");
  EXPECT_EQ(&a, &b);
  // Same name, different labels: a different series.
  auto& c = metrics().counter("test_idem_total", "help", {{"k", "v"}});
  EXPECT_NE(&a, &c);
  // Same identity as a different kind: programming error.
  EXPECT_THROW(metrics().histogram("test_idem_total", "help", {1.0}),
               common::CheckError);
  // Same histogram identity with a different bucket layout: also an error.
  metrics().histogram("test_idem_hist", "help", {1.0, 2.0});
  EXPECT_THROW(metrics().histogram("test_idem_hist", "help", {1.0, 3.0}),
               common::CheckError);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsHandles) {
  auto& c = metrics().counter("test_reset_total", "help");
  c.inc(7);
  reset();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed in place
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

// ------------------------------------------------- Prometheus text format

TEST_F(ObsTest, PrometheusEscapesHelpAndLabelValues) {
  metrics()
      .counter("test_escape_total", "help with \\ and\nnewline",
               {{"path", "a\\b \"quoted\"\nline"}})
      .inc(3);
  const std::string text = metrics().prometheus_text();
  EXPECT_NE(text.find("# HELP test_escape_total help with \\\\ and\\nnewline"),
            std::string::npos);
  EXPECT_NE(text.find("path=\"a\\\\b \\\"quoted\\\"\\nline\""),
            std::string::npos);
}

TEST_F(ObsTest, PrometheusRoundTripsThroughParser) {
  metrics().counter("test_rt_total", "a counter", {{"op", "all_reduce"}}).inc(5);
  auto& h = metrics().histogram("test_rt_seconds", "a histogram", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(50.0);

  std::string error;
  const auto samples = parse_prometheus(metrics().prometheus_text(), &error);
  ASSERT_TRUE(samples.has_value()) << error;

  auto value_of = [&](const std::string& name, const Labels& labels) -> double {
    for (const auto& s : *samples)
      if (s.name == name && s.labels == labels) return s.value;
    ADD_FAILURE() << "sample not found: " << name;
    return NAN;
  };
  EXPECT_EQ(value_of("test_rt_total", {{"op", "all_reduce"}}), 5.0);
  EXPECT_EQ(value_of("test_rt_seconds_bucket", {{"le", "0.1"}}), 1.0);
  EXPECT_EQ(value_of("test_rt_seconds_bucket", {{"le", "1"}}), 2.0);
  EXPECT_EQ(value_of("test_rt_seconds_bucket", {{"le", "+Inf"}}), 3.0);
  EXPECT_EQ(value_of("test_rt_seconds_count", {}), 3.0);
  EXPECT_NEAR(value_of("test_rt_seconds_sum", {}), 50.55, 1e-9);
}

TEST_F(ObsTest, PrometheusBytesAreDeterministic) {
  metrics().counter("test_det_b_total", "b").inc(2);
  metrics().counter("test_det_a_total", "a").inc(1);
  const std::string first = metrics().prometheus_text();
  EXPECT_EQ(first, metrics().prometheus_text());
  // Sorted by name regardless of registration order.
  EXPECT_LT(first.find("test_det_a_total"), first.find("test_det_b_total"));
}

TEST_F(ObsTest, ParserRejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(parse_prometheus("metric{unclosed=\"v\" 1\n", &error).has_value());
  EXPECT_FALSE(parse_prometheus("metric_without_value\n", &error).has_value());
}

// ------------------------------------------------------------------- traces

TEST_F(ObsTest, ScopedSpansBalanceAndNest) {
  set_enabled(true);
  {
    ACME_OBS_SPAN("test", "outer");
    ACME_OBS_SPAN_ARG("test", "inner", "k", "v");
  }
  const auto events = tracer().events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
  EXPECT_EQ(events[2].name, "inner");  // LIFO close order
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_FALSE(TraceRecorder::well_formed_error(events).has_value());
}

TEST_F(ObsTest, WellFormednessCatchesViolations) {
  using P = TraceEvent::Phase;
  auto ev = [](const char* name, P phase, double ts, std::uint32_t tid,
               std::uint64_t id = 0) {
    TraceEvent e;
    e.name = name;
    e.category = "test";
    e.phase = phase;
    e.ts_us = ts;
    e.tid = tid;
    e.id = id;
    return e;
  };
  // Unbalanced: B without E.
  EXPECT_TRUE(TraceRecorder::well_formed_error({ev("a", P::kBegin, 1, 1)})
                  .has_value());
  // E without B.
  EXPECT_TRUE(
      TraceRecorder::well_formed_error({ev("a", P::kEnd, 1, 1)}).has_value());
  // Mismatched close name.
  EXPECT_TRUE(TraceRecorder::well_formed_error(
                  {ev("a", P::kBegin, 1, 1), ev("b", P::kEnd, 2, 1)})
                  .has_value());
  // Non-monotone timestamps on one tid.
  EXPECT_TRUE(TraceRecorder::well_formed_error(
                  {ev("a", P::kInstant, 5, 1), ev("b", P::kInstant, 1, 1)})
                  .has_value());
  // Async begin without end.
  EXPECT_TRUE(TraceRecorder::well_formed_error({ev("t", P::kAsyncBegin, 1, 1, 7)})
                  .has_value());
  // The fixed versions all pass.
  EXPECT_FALSE(TraceRecorder::well_formed_error(
                   {ev("a", P::kBegin, 1, 1), ev("a", P::kEnd, 2, 1),
                    ev("t", P::kAsyncBegin, 3, 1, 7),
                    ev("t", P::kAsyncEnd, 4, 1, 7)})
                   .has_value());
}

TEST_F(ObsTest, TraceJsonIsWellFormedChromeFormat) {
  set_enabled(true);
  {
    ACME_OBS_SPAN_ARG("cat", "span \"quoted\"\\", "key", "line1\nline2");
  }
  tracer().instant("cat", "instant");
  tracer().counter("cat", "depth", 3.5);
  const std::string json = tracer().to_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\": [", 0), 0u);
  // String escaping survives.
  EXPECT_NE(json.find("span \\\"quoted\\\"\\\\"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  // Instant events carry the thread scope.
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  // Counter events carry their sample as an unquoted numeric "value" arg
  // (the Chrome counter-track convention: the event name is the track, the
  // args dict holds the series).
  EXPECT_NE(json.find("\"value\": 3.5"), std::string::npos);
}

TEST_F(ObsTest, TraceBufferDropsNewestPastCapacity) {
  TraceRecorder small(4);
  for (int i = 0; i < 10; ++i) small.instant("t", "e" + std::to_string(i));
  EXPECT_EQ(small.event_count(), 4u);
  EXPECT_EQ(small.dropped(), 6u);
  EXPECT_EQ(small.events()[0].name, "e0");  // oldest kept
}

TEST_F(ObsTest, ThreadsGetDistinctTidsAndMonotoneTimestamps) {
  set_enabled(true);
  auto spin = [] {
    for (int i = 0; i < 50; ++i) {
      ACME_OBS_SPAN("mt", "work");
    }
  };
  std::thread a(spin), b(spin);
  spin();
  a.join();
  b.join();
  const auto events = tracer().events();
  EXPECT_EQ(events.size(), 300u);
  EXPECT_FALSE(TraceRecorder::well_formed_error(events).has_value());
}

// ------------------------------------------------------- disabled behaviour

TEST_F(ObsTest, DisabledSpansAndHooksAreNoOps) {
  ASSERT_FALSE(enabled());
  {
    ACME_OBS_SPAN("test", "invisible");
  }
  EXPECT_EQ(tracer().event_count(), 0u);
}

TEST_F(ObsTest, MidSpanToggleCannotUnbalanceTrace) {
  // Disabling inside an open span must still emit the matching E.
  set_enabled(true);
  {
    ACME_OBS_SPAN("test", "toggled");
    set_enabled(false);
  }
  const auto events = tracer().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(TraceRecorder::well_formed_error(events).has_value());

  // Enabling inside a span opened while disabled must NOT emit a stray E.
  reset();
  {
    ACME_OBS_SPAN("test", "stray");
    set_enabled(true);
  }
  EXPECT_EQ(tracer().event_count(), 0u);
  set_enabled(false);
}

TEST_F(ObsTest, InstrumentedSubsystemsRecordNothingWhileDisabled) {
  ASSERT_FALSE(enabled());
  sim::Engine engine;
  for (int i = 0; i < 100; ++i) engine.schedule_at(i, [] {});
  engine.run();
  comm::CollectiveModel model(comm::kalos_fabric());
  comm::World w;
  w.gpus = 64;
  (void)model.all_reduce(w, 1e9);
  EXPECT_EQ(tracer().event_count(), 0u);
  EXPECT_EQ(metrics().prometheus_text().find("acme_sim_events_fired_total"),
            std::string::npos);
}

// ------------------------------------------------------------------ digest

TEST_F(ObsTest, TCiSurvivesWelfordStateRoundTrip) {
  // The t-based 95% CI is a pure function of the Welford moments, so a
  // snapshot round-trip of StreamingStats must leave the reported CI (and
  // the MetricAggregator built on top) bitwise unchanged — this is what
  // keeps restored worlds' aggregate tables byte-identical.
  common::Rng rng(991);
  common::StreamingStats moments;
  for (int i = 0; i < 64; ++i) moments.add(rng.uniform(5.0, 15.0));
  common::StreamingStats rebuilt;
  rebuilt.set_state(moments.state());
  EXPECT_EQ(common::ci95_halfwidth(moments), common::ci95_halfwidth(rebuilt));
  EXPECT_GT(common::ci95_halfwidth(rebuilt), 0.0);
  // Continuing both accumulators keeps the CI locked together.
  common::Rng tail_a = rng;
  common::Rng tail_b = rng;
  for (int i = 0; i < 64; ++i) moments.add(tail_a.uniform(5.0, 15.0));
  for (int i = 0; i < 64; ++i) rebuilt.add(tail_b.uniform(5.0, 15.0));
  EXPECT_EQ(common::ci95_halfwidth(moments), common::ci95_halfwidth(rebuilt));
}

TEST_F(ObsTest, Fnv1aKnownVectors) {
  EXPECT_EQ(common::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(common::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(common::fnv1a("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(common::fnv1a("hello world"), 0x779a65e7023cd2e7ull);
}

TEST_F(ObsTest, Fnv1aIncrementalMatchesOneShot) {
  common::Fnv1a inc;
  inc.update("hello ").update("world");
  EXPECT_EQ(inc.digest(), common::fnv1a("hello world"));
  EXPECT_EQ(common::fnv1a_hex(0xcbf29ce484222325ull), "cbf29ce484222325");
  EXPECT_EQ(common::fnv1a_hex(0x1ull), "0000000000000001");
}

// ------------------------------------------------------------------- CLI

TEST_F(ObsTest, FlagSetRejectsUnknownFlagWithSuggestion) {
  std::string out = "default";
  common::FlagSet flags("prog");
  flags.add("--trace-out", &out, "trace path");
  const char* argv[] = {"prog", "--trace-ou", "x.json"};
  std::string error;
  EXPECT_FALSE(flags.parse(3, const_cast<char**>(argv), &error));
  EXPECT_NE(error.find("--trace-ou"), std::string::npos);
  EXPECT_NE(error.find("did you mean --trace-out"), std::string::npos);
  EXPECT_EQ(out, "default");  // nothing assigned on failure
}

TEST_F(ObsTest, FlagSetRejectsPositionalsAndMissingValues) {
  std::uint64_t n = 3;
  common::FlagSet flags("prog");
  flags.add("--n", &n, "a number");
  std::string error;
  const char* positional[] = {"prog", "stray"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(positional), &error));
  const char* missing[] = {"prog", "--n"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(missing), &error));
  const char* bad[] = {"prog", "--n", "12x"};
  EXPECT_FALSE(flags.parse(3, const_cast<char**>(bad), &error));
  EXPECT_EQ(n, 3u);
}

TEST_F(ObsTest, FlagSetParsesValuesAndHelp) {
  std::uint64_t n = 0;
  double d = 0;
  std::string s;
  common::FlagSet flags("prog", "test program");
  flags.add("--n", &n, "a number");
  flags.add("--d", &d, "a double");
  flags.add("--s", &s, "a string");
  const char* argv[] = {"prog", "--n", "7", "--d", "2.5", "--s", "x", "--help"};
  ASSERT_TRUE(flags.parse(8, const_cast<char**>(argv)));
  EXPECT_EQ(n, 7u);
  EXPECT_EQ(d, 2.5);
  EXPECT_EQ(s, "x");
  EXPECT_TRUE(flags.help_requested());
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("usage: prog"), std::string::npos);
  EXPECT_NE(usage.find("--n"), std::string::npos);
}

}  // namespace
}  // namespace acme::obs
