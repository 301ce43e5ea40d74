// The determinism contract of the parallel kernel: every parallel overload
// (pipeline, packing, interior point, incremental planner, sharded harness)
// must be BIT-identical to its serial counterpart at any pool size. No
// tolerance anywhere in this file — all comparisons are exact (==), on 20
// seeded workloads and pools of 1, 2, and 8 threads, plus workloads and
// delta-plan streams large enough that `Exec::loop` really fans out (loops
// shorter than `kMinParallelIterations` run inline on any pool).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/exp/sharding.hpp"
#include "easched/obs/trace.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/incremental.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/solver/interior_point.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

// The whole suite runs with a tracer ARMED: determinism must hold not just
// with instrumentation compiled in (always true) but while spans are being
// recorded. Spans record, they never reorder work — this environment is
// the enforcement.
class TracingEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    tracer_ = std::make_unique<obs::Tracer>();
    scope_ = std::make_unique<obs::TraceScope>(*tracer_);
  }
  void TearDown() override {
    scope_.reset();
    tracer_.reset();
  }

 private:
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::TraceScope> scope_;
};

const ::testing::Environment* const kTracingEnv =
    ::testing::AddGlobalTestEnvironment(new TracingEnvironment);

constexpr std::size_t kWorkloads = 20;
constexpr int kCores = 4;

TaskSet workload(std::size_t index) {
  Rng rng(Rng::seed_of("parallel-determinism", index));
  WorkloadConfig config;
  // Cycle through sizes so chunking kicks in at several granularities.
  const std::size_t sizes[] = {3, 8, 15, 40};
  config.task_count = sizes[index % 4];
  return generate_workload(config, rng);
}

void expect_same_allocation(const Availability& a, const Availability& b) {
  ASSERT_EQ(a.task_count(), b.task_count());
  ASSERT_EQ(a.subinterval_count(), b.subinterval_count());
  for (std::size_t i = 0; i < a.task_count(); ++i) {
    for (std::size_t j = 0; j < a.subinterval_count(); ++j) {
      ASSERT_EQ(a(i, j), b(i, j)) << "avail(" << i << ", " << j << ")";
    }
  }
}

void expect_same_pieces(const std::vector<IntermediatePiece>& a,
                        const std::vector<IntermediatePiece>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].task, b[k].task) << "piece " << k;
    ASSERT_EQ(a[k].subinterval, b[k].subinterval) << "piece " << k;
    ASSERT_EQ(a[k].time, b[k].time) << "piece " << k;
    ASSERT_EQ(a[k].frequency, b[k].frequency) << "piece " << k;
  }
}

void expect_same_method(const MethodResult& a, const MethodResult& b) {
  expect_same_allocation(a.availability, b.availability);
  ASSERT_EQ(a.total_available, b.total_available);
  expect_same_pieces(a.intermediate_pieces, b.intermediate_pieces);
  ASSERT_EQ(a.intermediate_energy, b.intermediate_energy);
  ASSERT_EQ(a.intermediate_schedule.segments(), b.intermediate_schedule.segments());
  ASSERT_EQ(a.final_frequency, b.final_frequency);
  ASSERT_EQ(a.final_energy, b.final_energy);
  ASSERT_EQ(a.final_schedule.segments(), b.final_schedule.segments());
}

class ParallelDeterminismTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelDeterminismTest, PipelineIsBitIdenticalAcrossPoolSizes) {
  const TaskSet tasks = workload(GetParam());
  const PowerModel power(3.0, 0.1);
  const PipelineResult serial = run_pipeline(tasks, kCores, power);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const PipelineResult parallel = run_pipeline(tasks, kCores, power, Exec::on(pool));
    ASSERT_EQ(serial.ideal_energy, parallel.ideal_energy) << threads << " threads";
    expect_same_method(serial.even, parallel.even);
    expect_same_method(serial.der, parallel.der);
  }
}

TEST_P(ParallelDeterminismTest, SortedMaterializationIsBitIdentical) {
  const TaskSet tasks = workload(GetParam());
  const PowerModel power(3.0, 0.1);
  const SubintervalDecomposition subs(tasks);
  const PipelineResult serial = run_pipeline(tasks, kCores, power);
  const Schedule sorted_serial = materialize_final_sorted(tasks, subs, kCores, serial.der);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const Schedule sorted_parallel =
        materialize_final_sorted(tasks, subs, kCores, serial.der, Exec::on(pool));
    ASSERT_EQ(sorted_serial.segments(), sorted_parallel.segments()) << threads << " threads";
  }
}

TEST_P(ParallelDeterminismTest, InteriorPointIteratesAreBitIdentical) {
  // Only a subset — the solver is the slow path.
  if (GetParam() % 4 != 1) GTEST_SKIP() << "solver subset";
  const TaskSet tasks = workload(GetParam());
  const PowerModel power(3.0, 0.1);
  const InteriorPointResult serial = solve_optimal_interior_point(tasks, kCores, power);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    InteriorPointOptions options;
    options.pool = &pool;
    const InteriorPointResult parallel =
        solve_optimal_interior_point(tasks, kCores, power, options);
    ASSERT_EQ(serial.solution.energy, parallel.solution.energy) << threads << " threads";
    ASSERT_EQ(serial.solution.execution_time, parallel.solution.execution_time);
    ASSERT_EQ(serial.outer_iterations, parallel.outer_iterations);
    ASSERT_EQ(serial.newton_steps, parallel.newton_steps);
    ASSERT_EQ(serial.factorizations, parallel.factorizations);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelDeterminismTest,
                         ::testing::Range(std::size_t{0}, kWorkloads));

// Task counts above the kernel grain, so the pipeline's task and
// subinterval loops fan out instead of running inline: without these the
// suite (and its TSan run) would compare the serial path with itself.
class AboveGrainDeterminismTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AboveGrainDeterminismTest, PipelineFansOutAndStaysBitIdentical) {
  Rng rng(Rng::seed_of("parallel-determinism-above-grain", GetParam()));
  WorkloadConfig config;
  config.task_count = GetParam();
  const TaskSet tasks = generate_workload(config, rng);
  const PowerModel power(3.0, 0.1);
  const SubintervalDecomposition subs(tasks);
  const PipelineResult serial = run_pipeline(tasks, kCores, power);
  const Schedule sorted_serial = materialize_final_sorted(tasks, subs, kCores, serial.der);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const Exec exec = Exec::on(pool);
    ASSERT_TRUE(exec.parallel(tasks.size()));
    ASSERT_TRUE(exec.parallel(subs.size()));
    const PipelineResult parallel = run_pipeline(tasks, kCores, power, exec);
    ASSERT_EQ(serial.ideal_energy, parallel.ideal_energy) << threads << " threads";
    expect_same_method(serial.even, parallel.even);
    expect_same_method(serial.der, parallel.der);
    const Schedule sorted_parallel =
        materialize_final_sorted(tasks, subs, kCores, serial.der, exec);
    ASSERT_EQ(sorted_serial.segments(), sorted_parallel.segments()) << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AboveGrainDeterminismTest,
                         ::testing::Values(std::size_t{200}, std::size_t{600}));

/// The admission path's kernel input: a moving-window stream of live sets,
/// as the service presents them to `DeltaPlanner::plan_to`. Each step adds
/// one arrival at model time `t` (R = t + U(0,2), D = R + U(10,20),
/// C = U(0.2,1.5)) and retires the tasks whose deadline has passed, so the
/// live set settles near 16 x `arrivals_per_unit`. Recording starts once the
/// window is full (t >= 22).
std::vector<TaskSet> moving_window_stream(double arrivals_per_unit, std::size_t steps) {
  Rng rng(Rng::seed_of("parallel-determinism-stream",
                       static_cast<std::uint64_t>(arrivals_per_unit)));
  std::vector<Task> live;
  std::vector<TaskSet> stream;
  double t = 0.0;
  while (stream.size() < steps) {
    t += rng.uniform(0.0, 2.0 / arrivals_per_unit);
    const double release = t + rng.uniform(0.0, 2.0);
    const Task arrival{release, release + rng.uniform(10.0, 20.0), rng.uniform(0.2, 1.5)};
    std::erase_if(live, [t](const Task& task) { return task.deadline <= t; });
    live.push_back(arrival);
    if (t >= 22.0) stream.emplace_back(live);
  }
  return stream;
}

TEST(DeltaStreamDeterminismTest, PlanToIsBitIdenticalAcrossPoolSizes) {
  const PowerModel power(3.0, 0.1);
  // ~26 live tasks (an admit-sized set: every kernel loop runs inline) and
  // ~300 (large enough that the splice and repack loops fan out).
  for (const auto& [rate, steps] :
       {std::pair{1.6, std::size_t{60}}, std::pair{19.0, std::size_t{12}}}) {
    SCOPED_TRACE(::testing::Message() << "arrivals per unit " << rate);
    const std::vector<TaskSet> stream = moving_window_stream(rate, steps);
    std::vector<DeltaPlan> reference;
    DeltaPlanner serial(power);
    for (const TaskSet& live : stream) reference.push_back(serial.plan_to(live, Exec::serial()));

    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      ThreadPool pool(threads);
      const Exec exec = Exec::on(pool);
      if (rate > 10.0) {
        ASSERT_TRUE(exec.parallel(stream.back().size()));
      }
      DeltaPlanner planner(power);
      std::size_t deltas = 0;
      for (std::size_t s = 0; s < stream.size(); ++s) {
        DeltaOutcome outcome;
        const DeltaPlan plan = planner.plan_to(stream[s], exec, &outcome);
        deltas += outcome.delta ? 1 : 0;
        ASSERT_EQ(plan.energy, reference[s].energy) << threads << " threads, step " << s;
        ASSERT_EQ(plan.schedule.segments(), reference[s].schedule.segments())
            << threads << " threads, step " << s;
      }
      EXPECT_GE(deltas, stream.size() / 2) << "the stream should exercise the splice path";
    }
  }
}

TEST(ShardedHarnessTest, RunShardedMatchesTheSerialLoop) {
  const ShardPlan plan{103, 8};
  std::vector<double> serial(plan.total);
  for (std::size_t run = 0; run < plan.total; ++run) {
    Rng rng(Rng::seed_of("sharded", run));
    serial[run] = rng.uniform(0.0, 1.0);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const auto sharded = run_sharded(
        plan,
        [](std::size_t run) {
          Rng rng(Rng::seed_of("sharded", run));
          return rng.uniform(0.0, 1.0);
        },
        pool);
    ASSERT_EQ(serial, sharded) << threads << " threads";
  }
}

TEST(ShardedHarnessTest, ShardLayoutCoversEveryRunOnce) {
  const ShardPlan plan{21, 4};
  ASSERT_EQ(plan.shard_count(), 6u);
  std::vector<int> seen(plan.total, 0);
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    const ShardPlan::Range range = plan.shard_range(s);
    ASSERT_LT(range.begin, range.end);
    for (std::size_t run = range.begin; run < range.end; ++run) ++seen[run];
  }
  for (const int count : seen) ASSERT_EQ(count, 1);
}

}  // namespace
}  // namespace easched
