#include "ranking/metrics.h"

namespace sqlcheck {

MetricsStore MetricsStore::Default() {
  MetricsStore store;
  store.metrics_ = {{
#define SQLCHECK_AP(Id, Name, Category, P, M, DA, DI, A, RP, WP, MAINT, DAMP, Fix) \
  ApMetrics{RP, WP, MAINT, DAMP, DI, A},
#include "rules/catalog.def"
  }};
  return store;
}

const ApMetrics& MetricsStore::For(AntiPattern type) const {
  return metrics_[static_cast<size_t>(type)];
}

void MetricsStore::RecordObservation(AntiPattern type, const ApMetrics& observed,
                                     double alpha) {
  ApMetrics& current = metrics_[static_cast<size_t>(type)];
  auto blend = [alpha](double old_value, double new_value) {
    return (1.0 - alpha) * old_value + alpha * new_value;
  };
  current.read_speedup = blend(current.read_speedup, observed.read_speedup);
  current.write_speedup = blend(current.write_speedup, observed.write_speedup);
  current.maintainability = blend(current.maintainability, observed.maintainability);
  current.data_amplification =
      blend(current.data_amplification, observed.data_amplification);
  // Binary flags stick once observed.
  current.data_integrity = current.data_integrity | observed.data_integrity;
  current.accuracy = current.accuracy | observed.accuracy;
}

}  // namespace sqlcheck
