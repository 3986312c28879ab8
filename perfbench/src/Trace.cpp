//===- perfbench/src/Trace.cpp - Benchmark-side spans ---------------------===//
//
// Part of the SalSSA reproduction project, MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Common.h"
#include <cstdio>
#include <functional>
#include <map>
#include <thread>

namespace perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<size_t> OpenSpans;

uint64_t threadId() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff;
}

} // namespace

Tracer::Tracer(bool Enabled)
    : Enabled(Enabled), Origin(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

Tracer::Span::Span(Tracer &Tr, const char *Layer, const char *Name,
                   uint64_t Op) {
  if (!Tr.Enabled)
    return;
  T = &Tr;
  Index = Tr.open(Layer, Name, Op);
}

Tracer::Span::~Span() {
  if (T)
    T->close(Index);
}

size_t Tracer::open(const char *Layer, const char *Name, uint64_t Op) {
  int64_t Parent =
      OpenSpans.empty() ? -1 : static_cast<int64_t>(OpenSpans.back());
  size_t Index;
  {
    std::lock_guard<std::mutex> L(RecordsMutex);
    Index = Records.size();
    Records.push_back({Layer, Name, Op, threadId(), Parent, now()});
  }
  OpenSpans.push_back(Index);
  return Index;
}

void Tracer::close(size_t Index) {
  double End = now();
  if (!OpenSpans.empty() && OpenSpans.back() == Index)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> L(RecordsMutex);
  Records[Index].EndS = End;
}

std::vector<Tracer::LayerRow> Tracer::layerTable() const {
  std::lock_guard<std::mutex> L(RecordsMutex);
  std::vector<double> ChildS(Records.size(), 0.0);
  for (const Record &R : Records)
    if (R.Parent >= 0 && R.EndS >= 0)
      ChildS[static_cast<size_t>(R.Parent)] += R.EndS - R.StartS;

  std::vector<LayerRow> Rows;
  std::map<std::string, size_t> RowOf;
  std::vector<std::vector<double>> Durations;
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    if (R.EndS < 0)
      continue;
    auto [It, Inserted] = RowOf.emplace(R.Layer, Rows.size());
    if (Inserted) {
      Rows.push_back({R.Layer});
      Durations.emplace_back();
    }
    LayerRow &Row = Rows[It->second];
    double Dur = R.EndS - R.StartS;
    ++Row.Calls;
    Row.TotalS += Dur;
    Row.SelfS += std::max(0.0, Dur - ChildS[I]);
    Durations[It->second].push_back(Dur * 1e3);
  }
  for (size_t I = 0; I < Rows.size(); ++I) {
    Rows[I].P50Ms = quantile(Durations[I], 0.5);
    Rows[I].P99Ms = quantile(Durations[I], 0.99);
  }
  return Rows;
}

std::string Tracer::layerTableText() const {
  std::string Out;
  char Line[256];
  std::snprintf(Line, sizeof(Line), "%-22s %8s %11s %11s %11s %11s\n",
                "layer", "calls", "total_s", "self_s", "p50_ms", "p99_ms");
  Out += Line;
  for (const LayerRow &R : layerTable()) {
    std::snprintf(Line, sizeof(Line),
                  "%-22s %8llu %11.4f %11.4f %11.4f %11.4f\n",
                  R.Layer.c_str(), static_cast<unsigned long long>(R.Calls),
                  R.TotalS, R.SelfS, R.P50Ms, R.P99Ms);
    Out += Line;
  }
  return Out;
}

bool Tracer::writeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(RecordsMutex);
  std::fprintf(F, "[\n");
  bool First = true;
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    if (R.EndS < 0)
      continue;
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"op\":%llu}}",
                 First ? "" : ",\n", R.Name, R.Layer,
                 static_cast<unsigned long long>(R.Thread), R.StartS * 1e6,
                 (R.EndS - R.StartS) * 1e6, I,
                 static_cast<long long>(R.Parent),
                 static_cast<unsigned long long>(R.Op));
    First = false;
  }
  std::fprintf(F, "\n]\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
