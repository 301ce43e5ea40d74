#pragma once

// The benchmark's workloads and the op log they generate.
//
// Every run begins by turning (workload, seed) into an op log: a list of
// arrivals and completions ordered by *model time*. A task
// arriving at model time t gets R = t + U(0,2), D = R + U(10,20) and
// C = U(0.2,1.5) -- loadgen's distributions shifted to the arrival instant --
// and its completion is due once the model clock passes D. The live set is
// therefore bounded by the arrival rate times the mean lifetime (about 16
// model units), and the op sequence depends only on the seed, never on how
// fast the server answers.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/tasksys/task.hpp"

namespace e2e {

using easched::Rng;
using easched::Task;

/// One named traffic mix.
struct WorkloadSpec {
  std::string name;
  /// Arrivals per model time unit; the live set settles near 16 x lambda.
  double lambda = 1.0;
  /// Arrivals per wall second during the nominal (open-loop) phase.
  double nominal_rate = 10.0;
  /// Each arrival sends kQuote, then kAdmit of the same task once the quote
  /// is answered (the client's admit decision follows its quote).
  bool quote_then_admit = false;
  /// Arrivals come in on/off clumps of 1..15 sent as one kAdmitBatch frame.
  bool bursty = false;
  /// Outstanding requests the peak (saturation) phase keeps in flight.
  std::size_t peak_window = 8;
};

/// The workloads the benchmark knows, by name. Nominal rates sit far below
/// each mix's peak rate on one CPU of a shared 4-vCPU host -- about a third
/// (stream-dense), a seventh (quote-admit) and a ninth (burst-batch) of it --
/// so that a slow spell of the host slows the server rather than tipping it
/// into an ever-growing backlog.
inline std::vector<WorkloadSpec> workload_specs() {
  return {
      {"stream-dense", 19.0, 60.0, false, false, 8},
      {"quote-admit", 3.2, 100.0, true, false, 8},
      {"burst-batch", 3.2, 200.0, false, true, 4},
  };
}

inline const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> specs = workload_specs();
  for (const WorkloadSpec& spec : specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

enum class OpKind : std::uint8_t {
  kArrive,    ///< arrivals [first, first + count): kAdmit, kAdmitBatch or quote->admit
  kComplete,  ///< kComplete of arrivals[first]
};

struct Arrival {
  std::string tenant;
  std::string rid;
  Task task;
};

struct LogOp {
  double at = 0.0;  ///< model time the op is due
  OpKind kind = OpKind::kArrive;
  std::uint32_t first = 0;
  std::uint32_t count = 1;
};

struct OpLog {
  std::vector<Arrival> arrivals;
  std::vector<LogOp> ops;  ///< ascending model time
  /// Model time by which the live set has reached steady state: the warm-up
  /// replays every op due before it.
  double warm_until = 24.0;
};

/// Zipf(s) popularity over `n` ranks, by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    double total = 0.0;
    for (std::size_t rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::size_t draw(Rng& rng) const {
    const double u = rng.uniform(0.0, 1.0);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

inline Task draw_task(double arrival, Rng& rng) {
  const double release = arrival + rng.uniform(0.0, 2.0);
  const double deadline = release + rng.uniform(10.0, 20.0);
  return Task{release, deadline, rng.uniform(0.2, 1.5)};
}

/// Generate `arrival_count` arrivals and their completions.
inline OpLog generate_log(const WorkloadSpec& spec, std::uint64_t seed, std::size_t arrival_count) {
  Rng rng(Rng::seed_of(spec.name, seed));
  const Zipf tenants(32, 1.1);
  OpLog log;
  log.arrivals.reserve(arrival_count);
  double t = 0.0;
  while (log.arrivals.size() < arrival_count) {
    std::size_t clump = 1;
    if (spec.bursty) {
      // On/off: clump epochs are Poisson; a clump of 1..15 lands at once.
      clump = static_cast<std::size_t>(1.0 + rng.uniform(0.0, 15.0));
      t += -std::log(1.0 - rng.uniform(0.0, 1.0)) * 8.0 / spec.lambda;
    } else {
      t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / spec.lambda;
    }
    clump = std::min(clump, arrival_count - log.arrivals.size());
    const auto first = static_cast<std::uint32_t>(log.arrivals.size());
    for (std::size_t j = 0; j < clump; ++j) {
      const std::size_t i = log.arrivals.size();
      Arrival arrival;
      arrival.tenant = "tenant-" + std::to_string(tenants.draw(rng));
      arrival.rid = "s" + std::to_string(seed) + "-" + std::to_string(i);
      arrival.task = draw_task(t, rng);
      // Completion is due once the model clock passes D.
      log.ops.push_back({std::nextafter(arrival.task.deadline, INFINITY), OpKind::kComplete,
                         static_cast<std::uint32_t>(i), 1});
      log.arrivals.push_back(std::move(arrival));
    }
    if (spec.bursty) {
      log.ops.push_back({t, OpKind::kArrive, first, static_cast<std::uint32_t>(clump)});
    } else {
      for (std::uint32_t j = 0; j < clump; ++j) log.ops.push_back({t, OpKind::kArrive, first + j, 1});
    }
  }
  // Completions due at the same instant as an arrival go first (a quote-admit
  // client sends its due completions before the quote); otherwise the
  // generation order stands.
  std::stable_sort(log.ops.begin(), log.ops.end(), [](const LogOp& a, const LogOp& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.kind == OpKind::kComplete && b.kind != OpKind::kComplete;
  });
  // Completions of arrivals past the generated tail would be due after the
  // last arrival; the log ends at its last arrival.
  while (!log.ops.empty() && log.ops.back().kind == OpKind::kComplete) log.ops.pop_back();
  return log;
}

/// Arrivals to generate for a run of `seconds`: the warm-up, the nominal
/// phase and a peak phase far beyond any capacity seen so far.
inline std::size_t arrivals_for(const WorkloadSpec& spec, double seconds) {
  return static_cast<std::size_t>(spec.lambda * (OpLog{}.warm_until + 2.0) +
                                  spec.nominal_rate * seconds * 12.0 + 2000.0);
}

// --- Small statistics helpers ---------------------------------------------

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]); 0 for
/// an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace e2e
