// Tests for src/obs: the JSON value type, span nesting and ordering,
// cross-thread counter aggregation, the JSONL exporter round-trip, and the
// disabled-mode regression guarantees (no spans recorded, no allocations).
#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "data/preprocess.hpp"
#include "defense/cls.hpp"
#include "models/lenet.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "tensor/pool.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps g_news.
// Used by the disabled-mode test to prove ZKG_SPAN/ZKG_COUNT never allocate
// when tracing is off.
static std::atomic<std::uint64_t> g_news{0};

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

// Out of line on purpose: inlined into a caller, GCC sees std::free applied
// to a pointer from operator new and warns (-Wmismatched-new-delete),
// although the replaced operator new above allocates with std::malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace zkg;

// Every test runs against the global registry; this guard leaves it clean
// (disabled, empty) no matter how the test exits.
struct TelemetryFixture {
  TelemetryFixture() {
    obs::Telemetry::global().reset();
    obs::Telemetry::global().set_enabled(true);
  }
  ~TelemetryFixture() {
    obs::Telemetry::global().set_enabled(false);
    obs::Telemetry::global().reset();
  }
  obs::Telemetry& t = obs::Telemetry::global();
};

std::vector<obs::SpanRecord> spans_named(const obs::Telemetry& t,
                                         const std::string& name) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& s : t.spans()) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

// ------------------------------------------------------------------- Json

TEST(Json, DumpPrimitives) {
  EXPECT_EQ(obs::Json().dump(), "null");
  EXPECT_EQ(obs::Json(true).dump(), "true");
  EXPECT_EQ(obs::Json(false).dump(), "false");
  EXPECT_EQ(obs::Json(42).dump(), "42");
  EXPECT_EQ(obs::Json(-7).dump(), "-7");
  EXPECT_EQ(obs::Json("hi").dump(), "\"hi\"");
}

TEST(Json, IntegersPrintWithoutExponent) {
  EXPECT_EQ(obs::Json(std::int64_t{123456789012}).dump(), "123456789012");
  EXPECT_EQ(obs::Json(0.0).dump(), "0");
}

TEST(Json, NonFiniteSerializesAsNull) {
  EXPECT_EQ(obs::Json(std::nan("")).dump(), "null");
  EXPECT_EQ(obs::Json(1.0 / 0.0).dump(), "null");
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  const std::string dumped = obs::Json("a\"b\\c\nd\te").dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(obs::json_parse(dumped).as_string(), "a\"b\\c\nd\te");
}

TEST(Json, ObjectRoundTrip) {
  obs::JsonObject object;
  object["name"] = "train.epoch";
  object["count"] = 3;
  object["ratio"] = 0.25;
  object["ok"] = true;
  object["none"] = nullptr;
  object["list"] = obs::JsonArray{obs::Json(1), obs::Json(2)};
  const obs::Json value(std::move(object));

  const obs::Json parsed = obs::json_parse(value.dump());
  EXPECT_EQ(parsed, value);
  EXPECT_EQ(parsed.at("name").as_string(), "train.epoch");
  EXPECT_DOUBLE_EQ(parsed.at("count").as_number(), 3.0);
  EXPECT_TRUE(parsed.at("ok").as_bool());
  EXPECT_TRUE(parsed.at("none").is_null());
  EXPECT_EQ(parsed.at("list").as_array().size(), 2u);
  EXPECT_TRUE(parsed.contains("ratio"));
  EXPECT_FALSE(parsed.contains("missing"));
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(obs::json_parse(""), SerializationError);
  EXPECT_THROW(obs::json_parse("{"), SerializationError);
  EXPECT_THROW(obs::json_parse("{\"a\":}"), SerializationError);
  EXPECT_THROW(obs::json_parse("[1,]"), SerializationError);
  EXPECT_THROW(obs::json_parse("tru"), SerializationError);
  EXPECT_THROW(obs::json_parse("{} trailing"), SerializationError);
}

TEST(Json, AccessorsThrowOnTypeMismatch) {
  EXPECT_THROW(obs::Json(1).as_string(), Error);
  EXPECT_THROW(obs::Json("x").as_number(), Error);
  EXPECT_THROW(obs::Json(1).at("k"), Error);
}

// ------------------------------------------------------------------ Spans

TEST(ObsSpan, NestingRecordsParentAndDepth) {
  TelemetryFixture fixture;
  {
    ZKG_SPAN("outer");
    {
      ZKG_SPAN("inner");
    }
  }
  // Spans are appended at scope exit: inner closes before outer.
  const std::vector<obs::SpanRecord> spans = fixture.t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");

  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[0].parent,
            static_cast<std::int64_t>(spans[1].seq));
  // seq is the open order: outer opened first.
  EXPECT_LT(spans[1].seq, spans[0].seq);
  // The child is fully contained in the parent.
  EXPECT_GE(spans[0].start_s, spans[1].start_s);
  EXPECT_LE(spans[0].start_s + spans[0].dur_s,
            spans[1].start_s + spans[1].dur_s + 1e-9);
}

TEST(ObsSpan, SiblingsShareParentAndOrderBySeq) {
  TelemetryFixture fixture;
  {
    ZKG_SPAN("root");
    { ZKG_SPAN("a"); }
    { ZKG_SPAN("b"); }
  }
  const std::vector<obs::SpanRecord> spans = fixture.t.spans();
  ASSERT_EQ(spans.size(), 3u);
  const obs::SpanRecord root = spans_named(fixture.t, "root").at(0);
  const obs::SpanRecord a = spans_named(fixture.t, "a").at(0);
  const obs::SpanRecord b = spans_named(fixture.t, "b").at(0);
  EXPECT_EQ(a.parent, static_cast<std::int64_t>(root.seq));
  EXPECT_EQ(b.parent, static_cast<std::int64_t>(root.seq));
  EXPECT_LT(a.seq, b.seq);
  EXPECT_EQ(a.depth, 1u);
  EXPECT_EQ(b.depth, 1u);
}

TEST(ObsSpan, WorkerThreadSpansAreDepthZeroRoots) {
  TelemetryFixture fixture;
  parallel_for(256, 32, [&](std::int64_t, std::int64_t) {
    ZKG_SPAN("test.chunk");
  });
  const std::vector<obs::SpanRecord> chunks =
      spans_named(fixture.t, "test.chunk");
  ASSERT_GE(chunks.size(), 1u);
  std::set<std::uint64_t> seqs;
  for (const obs::SpanRecord& s : chunks) {
    EXPECT_EQ(s.depth, 0u);       // fresh stack on each worker thread
    EXPECT_EQ(s.parent, -1);
    EXPECT_GE(s.dur_s, 0.0);
    seqs.insert(s.seq);
  }
  EXPECT_EQ(seqs.size(), chunks.size());  // seq ids are globally unique
}

// --------------------------------------------------------------- Counters

TEST(ObsCounter, AggregatesAcrossParallelForThreads) {
  TelemetryFixture fixture;
  obs::Counter& items = fixture.t.counter("test.items");
  constexpr std::int64_t kCount = 4096;
  parallel_for(kCount, 1, [&](std::int64_t begin, std::int64_t end) {
    items.add(static_cast<std::uint64_t>(end - begin));
  });
  EXPECT_EQ(items.value(), static_cast<std::uint64_t>(kCount));
  // parallel_for self-reports while tracing is on.
  EXPECT_GE(fixture.t.counter("parallel.calls").value(), 1u);
  EXPECT_GE(fixture.t.counter("parallel.items").value(),
            static_cast<std::uint64_t>(kCount));
}

TEST(ObsCounter, SameNameReturnsSameCounter) {
  TelemetryFixture fixture;
  obs::Counter& a = fixture.t.counter("test.same");
  obs::Counter& b = fixture.t.counter("test.same");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
}

TEST(ObsCounter, ResetZeroesValuesButKeepsRegistration) {
  TelemetryFixture fixture;
  obs::Counter& c = fixture.t.counter("test.reset");
  c.add(7);
  fixture.t.gauge("test.gauge").set(1.5);
  fixture.t.reset();
  EXPECT_EQ(c.value(), 0u);                    // same object, zeroed
  EXPECT_EQ(&c, &fixture.t.counter("test.reset"));
  EXPECT_EQ(fixture.t.gauge("test.gauge").value(), 0.0);
  EXPECT_EQ(fixture.t.span_count(), 0u);
}

// -------------------------------------------------------------- Histograms

TEST(ObsHistogram, RecordsCountMeanAndExtremes) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  h.record(0.001);
  h.record(0.003);
  h.record(0.002);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_NEAR(h.mean_seconds(), 0.002, 1e-4);
  EXPECT_NEAR(h.min_seconds(), 0.001, 1e-5);
  EXPECT_NEAR(h.max_seconds(), 0.003, 1e-5);
  EXPECT_GT(h.total_seconds(), 0.0);
}

TEST(ObsHistogram, QuantilesAreMonotoneAndWithinBucketError) {
  obs::Histogram h;
  // 1ms .. 100ms uniformly: the true p50 is ~50.5ms.
  for (int i = 1; i <= 100; ++i) h.record(i * 1e-3);
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  // Log-bucketed storage: 2^(1/kSubBuckets) relative error (12.5% here).
  EXPECT_NEAR(p50, 0.0505, 0.0505 * 0.15);
  EXPECT_NEAR(p99, 0.099, 0.099 * 0.15);
  EXPECT_LE(h.quantile(0.0), p50);
  EXPECT_LE(p50, h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), p99);
  // The top quantile never reports past the observed maximum.
  EXPECT_LE(h.quantile(1.0), h.max_seconds() + 1e-12);
}

TEST(ObsHistogram, BucketIndexRoundTrips) {
  for (const double s : {1e-7, 1e-6, 3.7e-5, 1e-3, 0.25, 7.0, 1000.0}) {
    const int index = obs::Histogram::bucket_index(s);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, obs::Histogram::kBucketCount);
    // The value lands inside (or below the floor of) its bucket.
    if (s >= obs::Histogram::kMinSeconds) {
      EXPECT_GE(s, obs::Histogram::bucket_lower(index) * (1 - 1e-9));
      EXPECT_LE(s, obs::Histogram::bucket_upper(index) * (1 + 1e-9));
    }
  }
}

TEST(ObsHistogram, MergeAndResetAreExact) {
  obs::Histogram a, b;
  for (int i = 0; i < 10; ++i) a.record(1e-3);
  for (int i = 0; i < 30; ++i) b.record(4e-3);
  a.merge(b);
  EXPECT_EQ(a.count(), 40u);
  EXPECT_NEAR(a.max_seconds(), 4e-3, 1e-5);
  EXPECT_NEAR(a.min_seconds(), 1e-3, 1e-5);
  // 75% of the mass sits at 4ms: p90 lands in that bucket.
  EXPECT_NEAR(a.quantile(0.9), 4e-3, 4e-3 * 0.15);
  EXPECT_EQ(b.count(), 30u);  // merge leaves the source untouched

  a.reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.max_seconds(), 0.0);
  EXPECT_EQ(a.quantile(0.99), 0.0);
}

TEST(ObsHistogram, SummaryMentionsQuantiles) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(2e-3);
  const std::string summary = obs::histogram_summary(h);
  EXPECT_NE(summary.find("p50"), std::string::npos);
  EXPECT_NE(summary.find("p99"), std::string::npos);
}

TEST(ObsHistogram, RegistryReturnsStableReferencesAndExportsJsonl) {
  TelemetryFixture fixture;
  obs::Histogram& h = fixture.t.histogram("test.latency");
  EXPECT_EQ(&h, &fixture.t.histogram("test.latency"));
  ZKG_HISTO("test.latency", 0.002);
  ZKG_HISTO("test.latency", 0.004);
  EXPECT_EQ(h.count(), 2u);

  const std::vector<obs::Telemetry::HistogramSnapshot> snaps =
      fixture.t.histogram_values();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "test.latency");
  EXPECT_EQ(snaps[0].count, 2u);
  EXPECT_NEAR(snaps[0].mean_s, 0.003, 1e-4);
  EXPECT_GT(snaps[0].p99_s, 0.0);

  std::ostringstream out;
  obs::write_jsonl(out, fixture.t);
  std::istringstream lines(out.str());
  std::string line;
  bool saw_histogram = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const obs::Json record = obs::json_parse(line);
    if (record.at("type").as_string() != "histogram") continue;
    saw_histogram = true;
    EXPECT_EQ(record.at("name").as_string(), "test.latency");
    EXPECT_DOUBLE_EQ(record.at("count").as_number(), 2.0);
    EXPECT_GT(record.at("p50_s").as_number(), 0.0);
    EXPECT_GE(record.at("p99_s").as_number(),
              record.at("p50_s").as_number());
    EXPECT_GT(record.at("max_s").as_number(), 0.0);
  }
  EXPECT_TRUE(saw_histogram);

  fixture.t.reset();
  EXPECT_EQ(h.count(), 0u);  // same object, zeroed alongside counters
  EXPECT_EQ(&h, &fixture.t.histogram("test.latency"));
}

// ------------------------------------------------------------------ Export

TEST(ObsExport, JsonlRoundTripsThroughParser) {
  TelemetryFixture fixture;
  {
    ZKG_SPAN("export.root");
    { ZKG_SPAN("export.child"); }
  }
  fixture.t.counter("export.counter").add(11);
  fixture.t.gauge("export.gauge").set(2.5);

  std::ostringstream out;
  obs::write_jsonl(out, fixture.t);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<obs::Json> records;
  while (std::getline(lines, line)) {
    if (!line.empty()) records.push_back(obs::json_parse(line));
  }
  ASSERT_GE(records.size(), 4u);

  const obs::Json& meta = records.front();
  EXPECT_EQ(meta.at("type").as_string(), "meta");
  EXPECT_DOUBLE_EQ(meta.at("version").as_number(), 1.0);
  EXPECT_EQ(meta.at("clock").as_string(), "steady");
  EXPECT_EQ(meta.at("backend").as_string(), parallel_backend_name());
  EXPECT_GE(meta.at("threads").as_number(), 1.0);

  bool saw_root = false, saw_child = false, saw_counter = false,
       saw_gauge = false;
  for (const obs::Json& record : records) {
    const std::string type = record.at("type").as_string();
    if (type == "span") {
      const std::string name = record.at("name").as_string();
      EXPECT_GE(record.at("dur_s").as_number(), 0.0);
      if (name == "export.root") {
        saw_root = true;
        EXPECT_DOUBLE_EQ(record.at("depth").as_number(), 0.0);
        EXPECT_DOUBLE_EQ(record.at("parent").as_number(), -1.0);
      }
      if (name == "export.child") {
        saw_child = true;
        EXPECT_DOUBLE_EQ(record.at("depth").as_number(), 1.0);
      }
    } else if (type == "counter" &&
               record.at("name").as_string() == "export.counter") {
      saw_counter = true;
      EXPECT_DOUBLE_EQ(record.at("value").as_number(), 11.0);
    } else if (type == "gauge" &&
               record.at("name").as_string() == "export.gauge") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(record.at("value").as_number(), 2.5);
    }
  }
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_child);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);

  // Spans are emitted in seq (open) order: root before child.
  std::vector<std::string> span_names;
  for (const obs::Json& record : records) {
    if (record.at("type").as_string() == "span") {
      span_names.push_back(record.at("name").as_string());
    }
  }
  ASSERT_EQ(span_names.size(), 2u);
  EXPECT_EQ(span_names[0], "export.root");
  EXPECT_EQ(span_names[1], "export.child");
}

TEST(ObsExport, GaugeProvidersRunAtExport) {
  TelemetryFixture fixture;
  fixture.t.add_gauge_provider([](obs::Telemetry& t) {
    t.gauge("provider.gauge").set(42.0);
  });
  std::ostringstream out;
  obs::write_jsonl(out, fixture.t);
  EXPECT_NE(out.str().find("\"provider.gauge\""), std::string::npos);
  EXPECT_EQ(fixture.t.gauge("provider.gauge").value(), 42.0);
}

TEST(ObsExport, PoolGaugesAppearInExport) {
  TelemetryFixture fixture;
  // Touch the pool so its gauge provider is registered and has data.
  BufferPool::global().release(FloatBuffer(4096));
  std::ostringstream out;
  obs::write_jsonl(out, fixture.t);
  EXPECT_NE(out.str().find("\"pool.hits\""), std::string::npos);
  EXPECT_NE(out.str().find("\"pool.free_buffers\""), std::string::npos);
}

TEST(ObsExport, TablesSummarise) {
  TelemetryFixture fixture;
  {
    ZKG_SPAN("table.root");
    { ZKG_SPAN("table.child"); }
  }
  fixture.t.counter("table.counter").add(3);
  const std::string spans = obs::span_table(fixture.t).to_text();
  EXPECT_NE(spans.find("table.root"), std::string::npos);
  EXPECT_NE(spans.find("table.child"), std::string::npos);
  const std::string metrics = obs::metric_table(fixture.t).to_text();
  EXPECT_NE(metrics.find("table.counter"), std::string::npos);
}

TEST(ObsExport, FlushReturnsFalseWithoutPath) {
  TelemetryFixture fixture;
  fixture.t.set_trace_path("");
  EXPECT_FALSE(obs::flush(fixture.t));
}

// --------------------------------------------------------- Disabled mode

TEST(ObsDisabled, SpanAndCountMacrosRecordNothingAndNeverAllocate) {
  obs::Telemetry& t = obs::Telemetry::global();
  t.reset();
  t.set_enabled(false);

  const std::uint64_t allocs_before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    ZKG_SPAN("disabled.span");
    ZKG_COUNT("disabled.count", 1);
    ZKG_HISTO("disabled.histo", 1e-3);
  }
  const std::uint64_t allocs_after = g_news.load(std::memory_order_relaxed);

  EXPECT_EQ(allocs_after, allocs_before);
  EXPECT_EQ(t.span_count(), 0u);
  // The counter was never even created.
  const auto counters = t.counter_values();
  for (const auto& [name, value] : counters) {
    EXPECT_NE(name, "disabled.count");
  }
  // Likewise the histogram: the disabled fast path is a single branch.
  for (const obs::Telemetry::HistogramSnapshot& snap : t.histogram_values()) {
    EXPECT_NE(snap.name, "disabled.histo");
  }
}

TEST(ObsDisabled, SteadyStateTrainingStaysPoolMissFree) {
  obs::Telemetry& t = obs::Telemetry::global();
  t.reset();
  t.set_enabled(false);

  Rng data_rng(7);
  const data::Dataset train =
      data::scale_pixels(data::make_synth_digits(128, data_rng));
  Rng model_rng(8);
  models::Classifier model = models::build_lenet(
      {1, 28, 28, 10}, models::Preset::kBench, model_rng);
  defense::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 32;
  defense::ClsTrainer trainer(model, config);

  trainer.fit(train);  // warmup: shapes stabilise, pool fills
  BufferPool::global().reset_stats();
  trainer.fit(train);
  EXPECT_EQ(BufferPool::global().stats().misses, 0u)
      << "disabled telemetry must not perturb the allocation-free hot path";
}

}  // namespace
