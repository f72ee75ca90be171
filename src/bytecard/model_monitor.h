#ifndef BYTECARD_BYTECARD_MODEL_MONITOR_H_
#define BYTECARD_BYTECARD_MODEL_MONITOR_H_

#include <map>
#include <string>
#include <vector>

#include "cardest/bayes/bayes_net.h"
#include "common/rng.h"
#include "common/status.h"
#include "minihouse/table.h"

namespace bytecard {

struct MonitorReport {
  int probes = 0;
  double median_qerror = 1.0;
  double p90_qerror = 1.0;
  double max_qerror = 1.0;
  bool healthy = true;
};

// The Model Monitor (paper §4.4.2): auto-generates multi-predicate probe
// queries, executes them for true cardinalities, computes the model's
// Q-Errors, and flags models whose error exceeds the threshold so ByteCard
// falls back to traditional estimation for the affected table. Only
// single-table COUNT models are probed (computing true join sizes online is
// too expensive); multi-table estimates are covered transitively because
// FactorJoin composes single-table models.
class ModelMonitor {
 public:
  struct Options {
    int probes = 24;
    double qerror_threshold = 100.0;  // P90 above this marks unhealthy
  };

  ModelMonitor() {}
  explicit ModelMonitor(Options options) : options_(options) {}

  // Probes `context` against `table` and records the health verdict.
  Result<MonitorReport> EvaluateBnModel(
      const minihouse::Table& table,
      const cardest::BnInferenceContext& context);

  // Health registry consulted by the ByteCard facade.
  bool IsHealthy(const std::string& table) const;
  void SetHealth(const std::string& table, bool healthy);

  // Generates one random multi-predicate probe conjunction over `table`
  // (exposed for tests and for the NDV fine-tune trigger path).
  minihouse::Conjunction GenerateProbe(const minihouse::Table& table,
                                       Rng* rng) const;

 private:
  Options options_;
  std::map<std::string, bool> health_;
};

}  // namespace bytecard

#endif  // BYTECARD_BYTECARD_MODEL_MONITOR_H_
