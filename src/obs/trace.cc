// Copyright 2026 The netbone Authors.

#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <sstream>

namespace netbone::obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAdmission:
      return "admission";
    case SpanKind::kCacheLookup:
      return "cache_lookup";
    case SpanKind::kLineageWalk:
      return "lineage_walk";
    case SpanKind::kDeltaPatch:
      return "delta_patch";
    case SpanKind::kColdScore:
      return "cold_score";
    case SpanKind::kExtract:
      return "extract";
  }
  return "unknown";
}

const char* AnswerPathName(AnswerPath path) {
  switch (path) {
    case AnswerPath::kUnknown:
      return "unknown";
    case AnswerPath::kWarm:
      return "warm";
    case AnswerPath::kDelta:
      return "delta";
    case AnswerPath::kCold:
      return "cold";
    case AnswerPath::kDegraded:
      return "degraded";
    case AnswerPath::kNegative:
      return "negative";
    case AnswerPath::kFailed:
      return "failed";
  }
  return "unknown";
}

namespace {

int64_t SinceClockEpochNs(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

TraceRecorder::TraceRecorder(int64_t sample_rate, int64_t buffer_bytes)
    : sample_rate_(sample_rate),
      epoch_ns_(SinceClockEpochNs(std::chrono::steady_clock::now())) {
  if (sample_rate_ <= 0) return;
  int64_t capacity = buffer_bytes / static_cast<int64_t>(sizeof(Slot));
  capacity = std::max<int64_t>(capacity, 1);
  slots_.reserve(static_cast<size_t>(capacity));
  for (int64_t i = 0; i < capacity; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

int64_t TraceRecorder::NowNs() const {
  return ToNs(std::chrono::steady_clock::now());
}

int64_t TraceRecorder::ToNs(std::chrono::steady_clock::time_point t) const {
  return SinceClockEpochNs(t) - epoch_ns_;
}

void TraceRecorder::Commit(const RequestTrace& trace) {
  if (slots_.empty()) return;
  const uint64_t ticket = tickets_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = *slots_[ticket % slots_.size()];
  uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  slot.ticket = ticket;
  slot.trace = trace;
  slot.seq.store(seq + 2, std::memory_order_release);
  committed_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<RequestTrace> TraceRecorder::Snapshot() const {
  std::vector<std::pair<uint64_t, RequestTrace>> entries;
  entries.reserve(slots_.size());
  for (const auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    uint64_t seq = slot.seq.load(std::memory_order_acquire);
    // seq < 2: never written. Odd: a writer holds it — skip rather than
    // wait (the trace shows up in the next snapshot).
    if (seq < 2 || (seq & 1) != 0) continue;
    if (!slot.seq.compare_exchange_strong(seq, seq + 1,
                                          std::memory_order_acquire)) {
      continue;
    }
    entries.emplace_back(slot.ticket, slot.trace);
    slot.seq.store(seq + 2, std::memory_order_release);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<RequestTrace> traces;
  traces.reserve(entries.size());
  for (auto& [ticket, trace] : entries) traces.push_back(trace);
  return traces;
}

std::string TraceRecorder::DumpJson() const {
  const std::vector<RequestTrace> traces = Snapshot();
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < traces.size(); ++i) {
    const RequestTrace& t = traces[i];
    if (i > 0) out << ",";
    out << "\n  {\"request_id\": " << t.request_id << ", \"method\": \""
        << t.method << "\", \"kind\": \"" << t.kind << "\", \"path\": \""
        << AnswerPathName(t.path) << "\", \"ok\": " << (t.ok ? "true" : "false")
        << ", \"cache_hit\": " << (t.cache_hit ? "true" : "false")
        << ", \"degraded\": " << (t.degraded ? "true" : "false")
        << ", \"retries\": " << static_cast<int>(t.retries)
        << ", \"begin_ns\": " << t.begin_ns << ", \"total_ns\": " << t.total_ns
        << ", \"deadline_slack_ns\": " << t.deadline_slack_ns
        << ", \"spans\": [";
    for (int s = 0; s < t.num_spans; ++s) {
      if (s > 0) out << ", ";
      out << "{\"span\": \"" << SpanKindName(t.spans[s].kind)
          << "\", \"start_ns\": " << t.spans[s].start_ns
          << ", \"duration_ns\": " << t.spans[s].duration_ns << "}";
    }
    out << "]}";
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace netbone::obs
