//===- perfbench/src/Trace.h - Benchmark-side spans -----------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer's
/// public functions (the program itself carries no spans yet). Spans are
/// kept in memory and written out when the run ends: a Chrome
/// trace-event JSON file and a per-layer table of calls, total time,
/// self time (duration minus the part covered by child spans), p50 and
/// p99. A disabled tracer records nothing and costs one branch per span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  explicit Tracer(bool Enabled);

  bool enabled() const { return Enabled; }

  /// RAII span: opens at construction, closes at destruction. Spans
  /// opened on one thread while another is open nest under it.
  class Span {
  public:
    Span(Tracer &T, const char *Layer, const char *Name, uint64_t Op);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *T = nullptr; ///< null when tracing is off
    size_t Index = 0;
  };

  /// Opens a span for layer \p Layer, call \p Name, on behalf of
  /// operation \p Op (spans of one operation share it).
  Span span(const char *Layer, const char *Name, uint64_t Op = 0) {
    return Span(*this, Layer, Name, Op);
  }

  struct LayerRow {
    std::string Layer;
    uint64_t Calls = 0;
    double TotalS = 0;
    double SelfS = 0;
    double P50Ms = 0;
    double P99Ms = 0;
  };
  /// Per-layer aggregate over every closed span, in first-seen order.
  std::vector<LayerRow> layerTable() const;
  std::string layerTableText() const;

  /// Writes every span as a Chrome trace-event JSON array ("X" events,
  /// with the parent span and operation id in args). False on I/O error.
  bool writeTrace(const std::string &Path) const;

private:
  struct Record {
    const char *Layer;
    const char *Name;
    uint64_t Op;
    uint64_t Thread;
    int64_t Parent; ///< index into Records, -1 for a root span
    double StartS;
    double EndS = -1; ///< -1 while open
  };

  size_t open(const char *Layer, const char *Name, uint64_t Op);
  void close(size_t Index);
  double now() const;

  bool Enabled;
  std::chrono::steady_clock::time_point Origin;
  mutable std::mutex RecordsMutex;
  std::vector<Record> Records;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
