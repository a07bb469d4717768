// Telemetry exporters: JSON Lines for machines, common/table for humans.
//
// JSONL schema (one object per line, see DESIGN.md §9):
//   {"type":"meta","version":1,"clock":"steady","backend":"threadpool",
//    "threads":8}
//   {"type":"span","name":"train.epoch","seq":4,"parent":1,"thread":0,
//    "depth":1,"start_s":0.012,"dur_s":1.43}
//   {"type":"counter","name":"attack.steps","value":640}
//   {"type":"gauge","name":"pool.misses","value":0}
//   {"type":"histogram","name":"serve.latency","count":4096,
//    "mean_s":0.0021,"p50_s":0.0019,"p95_s":0.0031,"p99_s":0.0038,
//    "max_s":0.0102}
// Spans are ordered by seq (global open order); counters, gauges and
// histograms are sorted by name. Gauge providers (e.g. the BufferPool) run first, so the
// gauges reflect the moment of export.
#pragma once

#include <iosfwd>
#include <string>

#include "common/table.hpp"

namespace zkg::obs {

class Telemetry;

/// Writes the full registry as JSON Lines.
void write_jsonl(std::ostream& out, Telemetry& telemetry);

/// Per-span-name aggregate: count, total seconds, mean ms, share of the
/// traced root time. Rows sorted by total seconds, descending.
Table span_table(const Telemetry& telemetry);

/// All counters and gauges, one row each.
Table metric_table(Telemetry& telemetry);

/// Writes write_jsonl output to telemetry.trace_path(). Returns false (and
/// writes nothing) when the path is empty; throws zkg::Error when the file
/// cannot be opened. Safe to call repeatedly — the file is rewritten.
bool flush(Telemetry& telemetry);

}  // namespace zkg::obs
