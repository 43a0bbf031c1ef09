// Copyright 2026 The netbone Authors.
//
// Test-side reader for the one counter readout, obs::MetricsSnapshot:
// Metric(source, name) returns a counter or gauge by exact name and fails
// the running test when no such name exists, so a misspelled or renamed
// metric cannot silently read as 0 the way MetricsSnapshot::ValueOf's
// fallback would. `source` is a snapshot, a registry, or anything with a
// Metrics() method (BackboneEngine, ShardedBackboneEngine).

#ifndef NETBONE_TESTS_METRIC_VALUE_H_
#define NETBONE_TESTS_METRIC_VALUE_H_

#include <concepts>
#include <cstdint>
#include <limits>
#include <string_view>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace netbone {

inline int64_t Metric(const obs::MetricsSnapshot& snapshot,
                      std::string_view name) {
  for (const obs::MetricsSnapshot::Value& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  for (const obs::MetricsSnapshot::Value& gauge : snapshot.gauges) {
    if (gauge.name == name) return gauge.value;
  }
  ADD_FAILURE() << "no counter or gauge named \"" << name << "\"";
  return std::numeric_limits<int64_t>::min();
}

inline int64_t Metric(const obs::MetricRegistry& registry,
                      std::string_view name) {
  return Metric(registry.Snapshot(), name);
}

template <typename Source>
  requires requires(const Source& source) {
    { source.Metrics() } -> std::convertible_to<obs::MetricsSnapshot>;
  }
int64_t Metric(const Source& source, std::string_view name) {
  return Metric(source.Metrics(), name);
}

}  // namespace netbone

#endif  // NETBONE_TESTS_METRIC_VALUE_H_
