// Differential test of incremental delta replanning: 25 seeded workloads,
// random admit/remove sequences of 50+ ops, pools of 1, 2 and 8 threads,
// plus 200-task sequences large enough that the pooled loops fan out.
// After every op the delta planner's plan must be bit-identical to the
// from-scratch DER pipeline — availability values and cached sums, energy
// fold, segment list — and both schedules must pass the validator. A second
// battery replays the same sequences on different pool sizes and asserts the
// delta plans agree across pools step for step (the determinism contract of
// `parallel/exec.hpp` extended to the splice path). A third replays
// service-shaped moving windows, where deltas dirty the whole horizon and the
// planner serves the repack without a splice.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "differential.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/incremental.hpp"

namespace easched {
namespace {

using differential::ReplayStats;
using differential::replay_admit_remove;

constexpr std::size_t kWorkloads = 25;
constexpr std::size_t kOps = 50;

std::size_t base_tasks_for(std::size_t index) {
  const std::size_t sizes[] = {5, 12, 20, 33, 40};
  return sizes[index % 5];
}

int cores_for(std::size_t index) {
  const int cores[] = {1, 2, 4, 8};
  return cores[index % 4];
}

TEST(IncrementalDifferential, SerialSequencesMatchFromScratch) {
  for (std::size_t w = 0; w < kWorkloads; ++w) {
    SCOPED_TRACE(w);
    const ReplayStats stats = replay_admit_remove("incremental-differential", w,
                                                  base_tasks_for(w), kOps, cores_for(w),
                                                  Exec::serial());
    if (HasFatalFailure()) return;
    ASSERT_EQ(stats.steps, kOps + 1);
    // The first quote always rebuilds (no cached plan); nearly every later
    // one must ride the single-op splice path, or the test is not actually
    // exercising the delta code it claims to.
    ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
    ASSERT_GE(stats.single_ops, stats.delta_steps - 1);
  }
}

TEST(IncrementalDifferential, PooledSequencesMatchFromScratch) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const Exec exec = Exec::on(pool);
    for (std::size_t w = 0; w < kWorkloads; ++w) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " workload=" << w);
      const ReplayStats stats = replay_admit_remove("incremental-differential", w,
                                                    base_tasks_for(w), kOps, cores_for(w), exec);
      if (HasFatalFailure()) return;
      ASSERT_EQ(stats.steps, kOps + 1);
      ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
    }
  }
}

// A 200-task base set: the splice, repack and pipeline loops run past the
// kernel grain, so the pools above really run the delta path in parallel
// (the sizes above all stay below it, where a pool runs every loop inline).
TEST(IncrementalDifferential, PooledSequencesAboveGrainMatchFromScratch) {
  constexpr std::size_t kBaseTasks = 200;
  constexpr std::size_t kAboveGrainOps = 12;
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    const Exec exec = Exec::on(pool);
    ASSERT_TRUE(exec.parallel(kBaseTasks));
    for (std::size_t w = 0; w < 2; ++w) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " workload=" << w);
      const ReplayStats stats =
          replay_admit_remove("incremental-differential-above-grain", w, kBaseTasks,
                              kAboveGrainOps, cores_for(w + 2), exec);
      if (HasFatalFailure()) return;
      ASSERT_EQ(stats.steps, kAboveGrainOps + 1);
      ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
    }
  }
}

// Replay one sequence under several pool sizes, recording the delta plan at
// every step, and require the recorded plans to agree exactly across pools:
// the splice path must keep the kernel's bit-identical-at-any-pool-size
// contract on its own output, not merely agree with some per-pool reference.
TEST(IncrementalDifferential, DeltaPlansBitIdenticalAcrossPools) {
  constexpr std::size_t kSeeds = 5;
  for (std::size_t w = 0; w < kSeeds; ++w) {
    SCOPED_TRACE(w);
    // Build the shared op sequence once (same draws for every pool size).
    Rng rng(Rng::seed_of("incremental-cross-pool", w));
    WorkloadConfig config;
    config.task_count = base_tasks_for(w);
    const TaskSet base = generate_workload(config, rng);
    std::vector<std::vector<Task>> steps;
    std::vector<Task> live(base.begin(), base.end());
    steps.push_back(live);
    for (std::size_t op = 0; op < kOps; ++op) {
      if (live.size() <= 1 || rng.uniform() < 0.6) {
        WorkloadConfig one;
        one.task_count = 1;
        const TaskSet extra = generate_workload(one, rng);
        live.push_back(extra[0]);
      } else {
        const std::size_t victim = static_cast<std::size_t>(rng.uniform_index(live.size()));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      steps.push_back(live);
    }

    const PowerModel power(3.0, 0.05);
    DeltaOptions options;
    options.cores = cores_for(w);

    std::vector<DeltaPlan> reference;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      const Exec exec = Exec::on(pool);
      DeltaPlanner planner(power, options);
      for (std::size_t s = 0; s < steps.size(); ++s) {
        const DeltaPlan plan = planner.plan_to(TaskSet(steps[s]), exec);
        if (threads == 1) {
          reference.push_back(plan);
          continue;
        }
        ASSERT_EQ(plan.energy, reference[s].energy)
            << "threads=" << threads << " step=" << s;
        differential::expect_schedule_identical(plan.schedule, reference[s].schedule);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// Service-shaped moving window, the admission stream the service plans: an
// arrival at model time t brings R = t + U(0,2), D = R + U(10,20) and
// C = U(0.2,1.5), and a task leaves once the clock passes its deadline. At
// `rate` arrivals per time unit ~16·rate tasks are live. As in the service,
// expired tasks are removed in place and the arrival is appended, so one
// `plan_to` applies every expiry since the previous arrival plus the admit.
ReplayStats replay_moving_window(std::size_t seed, double rate, std::size_t arrivals, int cores,
                                 const Exec& exec) {
  Rng rng(Rng::seed_of("incremental-moving-window", seed));
  const PowerModel power(3.0, 0.05);
  DeltaOptions options;
  options.cores = cores;
  DeltaPlanner planner(power, options);
  ReplayStats stats;
  std::vector<Task> live;
  double t = 0.0;
  for (std::size_t a = 0; a < arrivals; ++a) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    std::erase_if(live, [t](const Task& task) { return task.deadline < t; });
    const double release = t + rng.uniform(0.0, 2.0);
    const double deadline = release + rng.uniform(10.0, 20.0);
    live.push_back(Task{release, deadline, rng.uniform(0.2, 1.5)});
    differential::expect_step_identical(planner, TaskSet(live), power, cores, exec, stats);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return stats;
}

// ~27 live, the per-shard load of the benchmark's streams: nearly every
// delta dirties the whole horizon, so this is where the whole-horizon branch
// (no splice) serves the plan; chains of expiries plus one admit cover the
// multi-op path through it.
TEST(IncrementalDifferential, MovingWindowDeltasMatchFromScratch) {
  constexpr std::size_t kArrivals = 160;
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (const Exec& exec : {Exec::serial(), Exec::on(pool2), Exec::on(pool8)}) {
    for (std::size_t seed = 0; seed < 3; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "pool=" << (exec.pool ? exec.pool->thread_count() : 0) << " seed=" << seed);
      const ReplayStats stats = replay_moving_window(seed, 1.7, kArrivals, 4, exec);
      if (HasFatalFailure()) return;
      ASSERT_EQ(stats.steps, kArrivals);
      ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
      EXPECT_GT(stats.whole_horizon_steps, 0u) << "whole-horizon branch never ran";
      EXPECT_GT(stats.chain_steps, 0u) << "no step chained several expiries with an admit";
    }
  }
}

// ~80 live: the dirty-column pass runs past the kernel grain, so pools really
// fan `ration_column` out and its thread-local scratch is shared by workers.
TEST(IncrementalDifferential, MovingWindowAboveGrainMatchesFromScratch) {
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const ReplayStats stats = replay_moving_window(7, 5.0, 120, 4, Exec::on(pool));
    if (HasFatalFailure()) return;
    ASSERT_GE(stats.delta_steps * 10, (stats.steps - 1) * 9);
    EXPECT_GT(stats.whole_horizon_steps, 0u);
    EXPECT_GE(stats.max_dirty_columns, kMinParallelIterations)
        << "no delta fanned its dirty columns out";
  }
}

}  // namespace
}  // namespace easched
