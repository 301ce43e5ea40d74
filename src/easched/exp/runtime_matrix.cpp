#include "easched/exp/runtime_matrix.hpp"

#include <utility>

#include "easched/common/contracts.hpp"
#include "easched/common/math.hpp"
#include "easched/common/rng.hpp"
#include "easched/parallel/parallel_for.hpp"
#include "easched/sched/pipeline.hpp"

namespace easched {

std::vector<RuntimePolicySpec> default_runtime_policies() {
  return {
      {"static", RuntimePolicy::kStatic, false},
      {"cc", RuntimePolicy::kCycleConserving, false},
      {"la", RuntimePolicy::kLookAhead, false},
      {"cc+dpm", RuntimePolicy::kCycleConserving, true},
      {"la+dpm", RuntimePolicy::kLookAhead, true},
  };
}

const RuntimeCellStats& RuntimeMatrixResult::cell(std::string_view policy, double ratio) const {
  for (const RuntimeCellStats& c : cells) {
    if (c.policy == policy && almost_equal(c.acet_ratio, ratio)) return c;
  }
  EASCHED_EXPECTS_MSG(false, "unknown runtime matrix cell");
  return cells.front();  // unreachable
}

namespace {

/// Everything one Monte-Carlo run contributes, laid out per cell
/// (policy-major, ratio-minor) so the reduction is a flat index-order loop.
struct RunContribution {
  std::vector<double> energy;
  std::vector<double> vs_static;
  std::vector<double> reclaimed;
  std::vector<double> sleep_time;
  std::vector<double> missed;
};

}  // namespace

RuntimeMatrixResult run_runtime_matrix(std::string_view label, const RuntimeMatrixConfig& config,
                                       const PowerModel& power, std::size_t runs,
                                       ThreadPool& pool) {
  EASCHED_EXPECTS(runs > 0);
  EASCHED_EXPECTS(!config.policies.empty());
  EASCHED_EXPECTS(!config.acet_ratios.empty());

  DpmConfig dpm = config.dpm;
  if (dpm.idle_power < 0.0) dpm.idle_power = power.static_power();

  const std::size_t cell_count = config.policies.size() * config.acet_ratios.size();
  std::vector<RunContribution> contributions(runs);

  // One iteration is a whole Monte-Carlo run: a coarse job that fans out at
  // any run count, so this loop bypasses `Exec::loop`'s kernel grain.
  parallel_for(0, runs, [&](std::size_t run) {
    Rng rng(Rng::seed_of(label, run));
    const TaskSet tasks = config.bursty ? generate_bursty_workload(config.bursts, rng)
                                        : generate_workload(config.workload, rng);
    const Schedule plan = run_pipeline(tasks, config.cores, power).der.final_schedule;

    RunContribution& out = contributions[run];
    out.energy.assign(cell_count, 0.0);
    out.vs_static.assign(cell_count, 0.0);
    out.reclaimed.assign(cell_count, 0.0);
    out.sleep_time.assign(cell_count, 0.0);
    out.missed.assign(cell_count, 0.0);

    for (std::size_t ri = 0; ri < config.acet_ratios.size(); ++ri) {
      RuntimeOptions base;
      base.acet.ratio = config.acet_ratios[ri];
      base.acet.jitter = std::min(config.acet_jitter, std::max(0.0, 1.0 - base.acet.ratio));
      base.acet.seed = Rng::seed_of(label, run, 1);
      base.dpm_config = dpm;  // idle leakage applies to every cell
      base.la_expectation = config.la_expectation;

      // The normalization baseline: replay the plan verbatim at this ratio.
      RuntimeOptions static_opt = base;
      static_opt.policy = RuntimePolicy::kStatic;
      static_opt.dpm = false;
      const double static_energy =
          run_runtime(tasks, plan, power, static_opt).energy.total();

      for (std::size_t pi = 0; pi < config.policies.size(); ++pi) {
        const RuntimePolicySpec& spec = config.policies[pi];
        RuntimeOptions opt = base;
        opt.policy = spec.policy;
        opt.dpm = spec.dpm;
        const RuntimeReport report = run_runtime(tasks, plan, power, opt);

        const std::size_t cell = pi * config.acet_ratios.size() + ri;
        out.energy[cell] = report.energy.total();
        out.vs_static[cell] =
            static_energy > 0.0 ? report.energy.total() / static_energy : 1.0;
        out.reclaimed[cell] = report.reclaimed_total;
        out.sleep_time[cell] = report.sleep_time_total;
        out.missed[cell] = report.missed_deadlines() > 0 ? 1.0 : 0.0;
      }
    }
  }, pool);

  RuntimeMatrixResult result;
  result.runs = runs;
  result.cells.reserve(cell_count);
  for (const RuntimePolicySpec& spec : config.policies) {
    for (const double ratio : config.acet_ratios) {
      RuntimeCellStats cell;
      cell.policy = spec.name;
      cell.acet_ratio = ratio;
      result.cells.push_back(std::move(cell));
    }
  }
  // Serial, index-order reduction: bit-identical at any pool size.
  for (const RunContribution& run : contributions) {
    for (std::size_t cell = 0; cell < cell_count; ++cell) {
      result.cells[cell].realized_energy.add(run.energy[cell]);
      result.cells[cell].energy_vs_static.add(run.vs_static[cell]);
      result.cells[cell].reclaimed.add(run.reclaimed[cell]);
      result.cells[cell].sleep_time.add(run.sleep_time[cell]);
      result.cells[cell].misses.add(run.missed[cell]);
    }
  }
  return result;
}

}  // namespace easched
