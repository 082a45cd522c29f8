// Tests for the telemetry subsystem's building blocks: the lock-free
// metrics registry (aggregation across workers, histogram bucket
// boundaries, snapshot racing live increments — the case TSan watches),
// the trace recorder/span, the perf probe's graceful degradation, and both
// exporters' format contracts.

#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perf.hpp"
#include "telemetry/session.hpp"
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "../support/json_check.hpp"

namespace statfi::telemetry {
namespace {

TEST(MetricsRegistry, CountersAggregateAcrossWorkers) {
    MetricsRegistry reg;
    const MetricId hits = reg.add_counter("hits_total", "test counter");
    const MetricId misses = reg.add_counter("misses_total", "other counter");
    reg.freeze(3);
    reg.inc(0, hits, 5);
    reg.inc(1, hits, 7);
    reg.inc(2, hits);  // default delta 1
    reg.inc(1, misses, 2);

    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.workers, 3u);
    ASSERT_NE(snap.find("hits_total"), nullptr);
    EXPECT_EQ(snap.find("hits_total")->counter, 13u);
    EXPECT_EQ(snap.find("misses_total")->counter, 2u);
    EXPECT_EQ(snap.find("no_such_metric"), nullptr);
}

TEST(MetricsRegistry, GaugeIsProcessWideLastWriteWins) {
    MetricsRegistry reg;
    const MetricId g = reg.add_gauge("accuracy", "test gauge");
    reg.freeze(4);
    reg.set_gauge(g, 0.25);
    reg.set_gauge(g, 0.75);
    EXPECT_DOUBLE_EQ(reg.snapshot().find("accuracy")->gauge, 0.75);
}

TEST(MetricsRegistry, HistogramBucketBoundariesAreInclusiveLe) {
    MetricsRegistry reg;
    const MetricId h =
        reg.add_histogram("latency_seconds", "test histogram", {1.0, 2.0, 4.0});
    reg.freeze(1);
    // Prometheus le semantics: a value equal to a bound lands IN that bucket.
    reg.observe(0, h, 0.5);   // bucket le=1
    reg.observe(0, h, 1.0);   // bucket le=1 (inclusive)
    reg.observe(0, h, 1.5);   // bucket le=2
    reg.observe(0, h, 4.0);   // bucket le=4 (inclusive)
    reg.observe(0, h, 100.0); // +Inf overflow

    const auto snap = reg.snapshot();
    const auto* m = snap.find("latency_seconds");
    ASSERT_NE(m, nullptr);
    ASSERT_EQ(m->bucket_counts.size(), 4u);  // 3 bounds + overflow
    EXPECT_EQ(m->bucket_counts[0], 2u);
    EXPECT_EQ(m->bucket_counts[1], 1u);
    EXPECT_EQ(m->bucket_counts[2], 1u);
    EXPECT_EQ(m->bucket_counts[3], 1u);
    EXPECT_EQ(m->count, 5u);
    EXPECT_DOUBLE_EQ(m->sum, 0.5 + 1.0 + 1.5 + 4.0 + 100.0);
}

TEST(MetricsRegistry, HistogramAggregatesAcrossWorkers) {
    MetricsRegistry reg;
    const MetricId h = reg.add_histogram("h", "help", {10.0});
    reg.freeze(2);
    reg.observe(0, h, 1.0);
    reg.observe(1, h, 2.0);
    reg.observe(1, h, 20.0);
    const auto snap = reg.snapshot();
    const auto* m = snap.find("h");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->bucket_counts[0], 2u);
    EXPECT_EQ(m->bucket_counts[1], 1u);
    EXPECT_EQ(m->count, 3u);
    EXPECT_DOUBLE_EQ(m->sum, 23.0);
}

TEST(MetricsRegistry, RegistrationAfterFreezeThrows) {
    MetricsRegistry reg;
    reg.add_counter("a", "");
    reg.freeze(1);
    EXPECT_THROW(reg.add_counter("b", ""), std::logic_error);
    EXPECT_THROW(reg.add_gauge("c", ""), std::logic_error);
    EXPECT_THROW(reg.add_histogram("d", "", {1.0}), std::logic_error);
}

TEST(MetricsRegistry, FreezeIsIdempotentForSameCountOnly) {
    MetricsRegistry reg;
    reg.add_counter("a", "");
    reg.freeze(2);
    EXPECT_NO_THROW(reg.freeze(2));
    EXPECT_THROW(reg.freeze(3), std::logic_error);
    EXPECT_EQ(reg.worker_count(), 2u);
}

TEST(MetricsRegistry, HistogramBoundsMustBeStrictlyIncreasing) {
    MetricsRegistry reg;
    EXPECT_THROW(reg.add_histogram("h", "", {1.0, 1.0}),
                 std::invalid_argument);
    EXPECT_THROW(reg.add_histogram("h", "", {2.0, 1.0}),
                 std::invalid_argument);
}

/// The concurrency contract: worker threads hammer their own slots while
/// the main thread snapshots. Run under TSan in CI — a data race here is
/// exactly what the relaxed-atomic slot design must prevent. Values are
/// checked for prefix-consistency (a snapshot never sees more than what
/// was written, and the final snapshot sees everything).
TEST(MetricsRegistry, SnapshotRacesLiveIncrementsSafely) {
    MetricsRegistry reg;
    const MetricId c = reg.add_counter("c", "");
    const MetricId h = reg.add_histogram("h", "", {0.5});
    constexpr std::size_t kWorkers = 4;
    constexpr std::uint64_t kPerWorker = 20'000;
    reg.freeze(kWorkers);

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w)
        threads.emplace_back([&, w] {
            while (!go.load(std::memory_order_acquire)) {}
            for (std::uint64_t i = 0; i < kPerWorker; ++i) {
                reg.inc(w, c);
                reg.observe(w, h, i % 2 == 0 ? 0.25 : 1.0);
            }
        });
    go.store(true, std::memory_order_release);
    for (int k = 0; k < 50; ++k) {
        const auto snap = reg.snapshot();
        EXPECT_LE(snap.find("c")->counter, kWorkers * kPerWorker);
        EXPECT_LE(snap.find("h")->count, kWorkers * kPerWorker);
    }
    for (auto& t : threads) t.join();

    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.find("c")->counter, kWorkers * kPerWorker);
    EXPECT_EQ(snap.find("h")->count, kWorkers * kPerWorker);
    EXPECT_EQ(snap.find("h")->bucket_counts[0], kWorkers * kPerWorker / 2);
}

/// A scraper may snapshot before the engine has frozen the schema (the
/// /metrics and /status routes start with the campaign). Such a snapshot
/// reads zeros and races nothing; run under TSan in CI.
TEST(MetricsRegistry, SnapshotRacesFreezeSafely) {
    MetricsRegistry reg;
    const MetricId c = reg.add_counter("c", "");
    EXPECT_EQ(reg.snapshot().workers, 0u);
    std::thread scraper([&] {
        // Scrape until the freeze is visible; nothing is counted before.
        for (;;) {
            const auto snap = reg.snapshot();
            EXPECT_EQ(snap.find("c")->counter, 0u);
            if (snap.workers == 4) return;
        }
    });
    reg.freeze(4);
    scraper.join();
    reg.inc(3, c, 7);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.workers, 4u);
    EXPECT_EQ(snap.find("c")->counter, 7u);
}

TEST(Trace, SpanRecordsCompleteEvent) {
    TraceRecorder rec;
    {
        Span span(&rec, "phase_a", 3);
    }
    const auto events = rec.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].name, "phase_a");
    EXPECT_EQ(events[0].tid, 3u);
    EXPECT_GE(events[0].dur_us, 0.0);
}

TEST(Trace, NullRecorderSpanIsInert) {
    Span span(nullptr, "ignored");
    span.close();  // no crash, nothing recorded anywhere
}

TEST(Trace, CloseIsIdempotent) {
    TraceRecorder rec;
    Span span(&rec, "once");
    span.close();
    span.close();
    EXPECT_EQ(rec.event_count(), 1u);
}

TEST(Trace, ChromeTraceIsValidJsonWithExpectedFields) {
    TraceRecorder rec;
    { Span s(&rec, "plan"); }
    { Span s(&rec, "needs \"escaping\"\n", 1); }
    std::ostringstream out;
    rec.write_chrome_trace(out);
    const std::string doc = out.str();
    EXPECT_TRUE(testsupport::is_valid_json(doc)) << doc;
    EXPECT_NE(doc.find("\"ph\""), std::string::npos);
    EXPECT_NE(doc.find("\"plan\""), std::string::npos);
    EXPECT_NE(doc.find("\"dur\""), std::string::npos);
}

TEST(Perf, UnavailableProbeDegradesGracefully) {
    PerfProbe probe;
    EXPECT_FALSE(probe.available());
    EXPECT_FALSE(probe.read().valid);
    EXPECT_FALSE(probe.unavailable_reason().empty());
    // open() either works (bare metal) or reports why not (containers/CI
    // with perf_event_paranoid, non-Linux builds) — both are correct.
    if (probe.open()) {
        const PerfSample a = probe.read();
        EXPECT_TRUE(a.valid);
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < 100'000; ++i) sink += i;
        const PerfSample d = probe.delta_since(a);
        EXPECT_TRUE(d.valid);
        EXPECT_GT(d.instructions, 0u);
    } else {
        EXPECT_FALSE(probe.available());
        EXPECT_FALSE(probe.unavailable_reason().empty());
        EXPECT_FALSE(probe.read().valid);
    }
    probe.close();
}

TEST(Session, RegistersWellKnownSchemaAndPhases) {
    Session session;
    session.bind_workers(2);
    session.metrics().inc(0, session.ids().faults_total, 10);
    session.metrics().inc(1, session.ids().faults_total, 5);
    { PhaseScope scope(&session, "golden_pass"); }

    const auto snap = session.metrics().snapshot();
    ASSERT_NE(snap.find("statfi_faults_total"), nullptr);
    EXPECT_EQ(snap.find("statfi_faults_total")->counter, 15u);
    ASSERT_NE(snap.find("statfi_evaluate_seconds"), nullptr);
    EXPECT_EQ(snap.find("statfi_evaluate_seconds")->kind,
              MetricKind::Histogram);
    ASSERT_NE(session.trace(), nullptr);
    ASSERT_EQ(session.trace()->event_count(), 1u);
    EXPECT_EQ(session.trace()->events()[0].name, "golden_pass");
}

TEST(Session, TraceDisabledMeansNullRecorderAndInertScopes) {
    SessionOptions options;
    options.enable_trace = false;
    Session session(options);
    EXPECT_EQ(session.trace(), nullptr);
    { PhaseScope scope(&session, "ignored"); }  // must not crash
    PhaseScope null_scope(nullptr, "also ignored");
}

MetricsSnapshot exporter_fixture() {
    MetricsRegistry reg;
    const MetricId c = reg.add_counter("statfi_faults_total", "faults");
    const MetricId g = reg.add_gauge("statfi_golden_accuracy", "accuracy");
    const MetricId h =
        reg.add_histogram("statfi_evaluate_seconds", "latency", {0.001, 0.1});
    reg.freeze(2);
    reg.inc(0, c, 3);
    reg.inc(1, c, 4);
    reg.set_gauge(g, 0.875);
    reg.observe(0, h, 0.0005);
    reg.observe(1, h, 0.05);
    reg.observe(1, h, 7.0);
    return reg.snapshot();
}

TEST(Exporters, PrometheusExpositionInvariants) {
    std::ostringstream out;
    write_prometheus(out, exporter_fixture());
    const std::string text = out.str();

    EXPECT_NE(text.find("# HELP statfi_faults_total faults"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE statfi_faults_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("statfi_faults_total 7\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE statfi_golden_accuracy gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE statfi_evaluate_seconds histogram"),
              std::string::npos);
    // Histogram buckets are CUMULATIVE and end at le="+Inf" == _count.
    EXPECT_NE(text.find("statfi_evaluate_seconds_bucket{le=\"0.001\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("statfi_evaluate_seconds_bucket{le=\"0.1\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("statfi_evaluate_seconds_bucket{le=\"+Inf\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("statfi_evaluate_seconds_count 3\n"),
              std::string::npos);
}

TEST(Exporters, PrometheusIncludesPerfPhases) {
    PerfPhases phases;
    PerfSample s;
    s.instructions = 1000;
    s.cycles = 500;
    s.valid = true;
    phases.emplace_back("census", s);
    std::ostringstream out;
    write_prometheus(out, exporter_fixture(), phases);
    const std::string text = out.str();
    EXPECT_NE(
        text.find("statfi_perf_instructions_total{phase=\"census\"} 1000"),
        std::string::npos);
    EXPECT_NE(text.find("statfi_perf_cycles_total{phase=\"census\"} 500"),
              std::string::npos);
}

TEST(Exporters, MetricsJsonIsOneValidDocument) {
    PerfPhases phases;
    PerfSample s;
    s.valid = true;
    s.instructions = 42;
    phases.emplace_back("census", s);
    std::ostringstream out;
    write_metrics_json(out, exporter_fixture(), phases);
    const std::string doc = out.str();
    EXPECT_TRUE(testsupport::is_valid_json(doc)) << doc;
    EXPECT_NE(doc.find("\"statfi_faults_total\""), std::string::npos);
    EXPECT_NE(doc.find("\"perf_phases\""), std::string::npos);
    EXPECT_NE(doc.find("\"bucket_counts\""), std::string::npos);
}

}  // namespace
}  // namespace statfi::telemetry
