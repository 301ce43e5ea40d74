#pragma once

// Entry points of the two benchmark modes and the result record they fill.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "oplog.hpp"

namespace e2e {

/// What one run reports. `metrics` maps a metric name to (value, unit);
/// `info` holds context lines that are printed but not gated.
struct RunResult {
  bool correct = true;
  /// False when the generator itself fell behind its open-loop schedule:
  /// the run's numbers describe the generator, not the server.
  bool valid = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> info;
  std::map<std::string, std::uint64_t> statuses;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string server;    ///< path of the easched_cli binary (drive mode)
  std::string work_dir;  ///< scratch directory for data dirs and journals
  std::string trace_out; ///< Chrome trace JSON path (replay mode)
};

/// Untraced end-to-end run against `easched_cli serve --listen`.
RunResult run_drive(const RunConfig& config);

/// Traced in-process replay measuring each layer from outside.
RunResult run_replay(const RunConfig& config);

}  // namespace e2e
