// Tests for the /metrics exporter (src/obs/exporter.*): Prometheus name
// mapping, golden text-exposition rendering (counters, gauges, cumulative
// histogram buckets), HTTP routing, a real loopback-socket round-trip, and
// the engine-owned exporter started via EngineOptions::exporter_port.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace iq {
namespace {

TEST(ExporterTest, PrometheusNameSanitization) {
  EXPECT_EQ(PrometheusName("iq.engine.min_cost_nanos"),
            "iq_engine_min_cost_nanos");
  EXPECT_EQ(PrometheusName("already_fine:name"), "already_fine:name");
  EXPECT_EQ(PrometheusName("has-dash and space"), "has_dash_and_space");
  // A leading digit is not a valid first character; it gains a '_' prefix.
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusName(""), "_");
}

TEST(ExporterTest, PrometheusEscape) {
  EXPECT_EQ(PrometheusEscape("plain"), "plain");
  EXPECT_EQ(PrometheusEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscape("say \"hi\"\n"), "say \\\"hi\\\"\\n");
}

TEST(ExporterTest, GoldenCounterAndGaugeRendering) {
  MetricsSnapshot snap;
  snap.counters.emplace_back("iq.test.requests", 42);
  snap.gauges.emplace_back("iq.test.level", -3);
  EXPECT_EQ(RenderPrometheusText(snap),
            "# HELP iq_test_requests iq.test.requests\n"
            "# TYPE iq_test_requests counter\n"
            "iq_test_requests 42\n"
            "# HELP iq_test_level iq.test.level\n"
            "# TYPE iq_test_level gauge\n"
            "iq_test_level -3\n");
}

TEST(ExporterTest, HistogramRendersCumulativeBuckets) {
  // Samples 0, 1, 1, 3: bucket 0 = {0} holds one, bucket 1 = {1} holds two,
  // bucket 2 = [2,4) holds one. Buckets must render cumulatively with
  // inclusive integer upper bounds (le = next lower bound minus one).
  MetricsSnapshot snap;
  HistogramSnapshot h;
  h.name = "iq.test.lat";
  h.buckets.assign(static_cast<size_t>(Histogram::kNumBuckets), 0);
  h.buckets[0] = 1;
  h.buckets[1] = 2;
  h.buckets[2] = 1;
  h.count = 4;
  h.sum = 5;
  snap.histograms.push_back(h);
  std::string text = RenderPrometheusText(snap);

  EXPECT_NE(text.find("# TYPE iq_test_lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("iq_test_lat_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("iq_test_lat_bucket{le=\"1\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("iq_test_lat_bucket{le=\"3\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("iq_test_lat_bucket{le=\"7\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("iq_test_lat_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("iq_test_lat_sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("iq_test_lat_count 4\n"), std::string::npos);
  // Exactly kNumBuckets bucket lines (43 bounded + the +Inf top bucket).
  int bucket_lines = 0;
  for (size_t pos = 0;
       (pos = text.find("iq_test_lat_bucket{", pos)) != std::string::npos;
       ++pos) {
    ++bucket_lines;
  }
  EXPECT_EQ(bucket_lines, Histogram::kNumBuckets);
}

TEST(ExporterTest, ResponseRouting) {
  std::string ok = ExporterResponseForPath("/healthz", 123);
  EXPECT_EQ(ok.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(ok.find("\r\n\r\nok\n"), std::string::npos);

  std::string metrics = ExporterResponseForPath("/metrics", 123);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);

  std::string statusz = ExporterResponseForPath("/statusz", 123);
  EXPECT_NE(statusz.find("application/json"), std::string::npos);
  EXPECT_NE(statusz.find("\"uptime_ns\": 123"), std::string::npos);
  EXPECT_NE(statusz.find("\"events\""), std::string::npos);

  std::string missing = ExporterResponseForPath("/nope", 123);
  EXPECT_EQ(missing.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u);
}

TEST(ExporterTest, LoopbackRoundTrip) {
  MetricsRegistry::Global()
      .GetCounter("iq.test.roundtrip")
      ->Increment(7);
  MetricsExporter exporter;
  ASSERT_TRUE(exporter.Start(0).ok());  // ephemeral loopback port
  ASSERT_TRUE(exporter.running());
  ASSERT_GT(exporter.port(), 0);

  auto metrics = HttpGetLocal(exporter.port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("iq_test_roundtrip 7\n"), std::string::npos);

  auto health = HttpGetLocal(exporter.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, "ok\n");

  auto missing = HttpGetLocal(exporter.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing->find("not found"), std::string::npos);

  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  EXPECT_EQ(exporter.port(), -1);
  exporter.Stop();  // idempotent
  // Restartable after Stop.
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_GT(exporter.port(), 0);
}

TEST(ExporterTest, StartRejectsBadPortAndDoubleStart) {
  MetricsExporter exporter;
  EXPECT_FALSE(exporter.Start(70000).ok());
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_FALSE(exporter.Start(0).ok());  // already running
}

TEST(ExporterTest, EngineOwnedExporterServesEngineMetrics) {
  Dataset data = MakeIndependent(40, 3, 77);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  EngineOptions eopts;
  eopts.exporter_port = 0;
  auto engine = IqEngine::Create(std::move(data), LinearForm::Identity(3),
                                 MakeQueries(30, 3, 78, qopts), eopts);
  ASSERT_TRUE(engine.ok());
  ASSERT_NE(engine->exporter(), nullptr);
  ASSERT_TRUE(engine->exporter()->running());

  auto r = engine->MinCost(1, 3, {});
  ASSERT_TRUE(r.ok());

  auto body = HttpGetLocal(engine->exporter()->port(), "/metrics");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  // The solve above moved the engine counters; the scrape must carry them.
  EXPECT_NE(body->find("iq_engine_"), std::string::npos);
  EXPECT_NE(body->find("iq_index_"), std::string::npos);
}

TEST(ExporterTest, TracezServesRetainedTracesAndSingleTraceExport) {
  Dataset data = MakeIndependent(24, 3, 91);
  QueryGenOptions qopts;
  qopts.k_max = 5;
  EngineOptions eopts;
  eopts.exporter_port = 0;
  eopts.slow_trace_nanos = 1;  // retain every root solve
  auto engine = IqEngine::Create(std::move(data), LinearForm::Identity(3),
                                 MakeQueries(12, 3, 92, qopts), eopts);
  ASSERT_TRUE(engine.ok());
  ASSERT_NE(engine->exporter(), nullptr);
  TraceCollector& tc = TraceCollector::Global();
  tc.ClearRetained();
  tc.Clear();

  ASSERT_TRUE(engine->MinCost(1, 2, {}).ok());
  std::vector<RetainedTrace> retained = tc.RetainedTraces();
  ASSERT_EQ(retained.size(), 1u);

  auto tracez = HttpGetLocal(engine->exporter()->port(), "/tracez");
  ASSERT_TRUE(tracez.ok()) << tracez.status().ToString();
  EXPECT_NE(tracez->find("\"tracez\""), std::string::npos);
  EXPECT_NE(tracez->find("\"trace_summary\""), std::string::npos);
  EXPECT_NE(tracez->find("\"IqEngine::MinCost\""), std::string::npos);

  const std::string single =
      "/tracez?trace=" + std::to_string(retained[0].trace_id);
  auto perfetto = HttpGetLocal(engine->exporter()->port(), single);
  ASSERT_TRUE(perfetto.ok());
  EXPECT_EQ(perfetto->rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(perfetto->find("\"thread_name\""), std::string::npos);

  auto unknown =
      HttpGetLocal(engine->exporter()->port(), "/tracez?trace=999999999");
  ASSERT_TRUE(unknown.ok());
  EXPECT_NE(unknown->find("no retained trace"), std::string::npos);

  tc.SetEnabled(false);
  tc.Clear();
  tc.ClearRetained();
}

}  // namespace
}  // namespace iq
