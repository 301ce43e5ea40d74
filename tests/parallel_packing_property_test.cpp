// Property test for McNaughton packing under randomized heavy subintervals,
// exercised through both the serial and the parallel `pack_subintervals`
// path. Invariants checked on every instance: the two paths emit the exact
// same segments; no two segments collide on a core; no task runs on two
// cores at once; and every pack item's time is conserved by its segments.
// The small seeds stay below the kernel grain (`kMinParallelIterations`),
// where a pool runs the serial packer inline; the above-grain seeds have
// enough subintervals that the pooled arena packer really runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/packing.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

constexpr int kCores = 3;

/// Random pack items for each subinterval, biased heavy: total demand close
/// to (but within) the `cores · length` capacity, items within the length.
std::vector<std::vector<PackItem>> random_items(const SubintervalDecomposition& subs,
                                                Rng& rng) {
  std::vector<std::vector<PackItem>> items(subs.size());
  for (std::size_t j = 0; j < subs.size(); ++j) {
    const double length = subs[j].length();
    double capacity = static_cast<double>(kCores) * length * rng.uniform(0.6, 0.999);
    const std::size_t count = 1 + rng.uniform_index(12);
    for (std::size_t k = 0; k < count && capacity > 0.0; ++k) {
      const double time = std::min(capacity, length * rng.uniform(0.05, 0.999));
      items[j].push_back(
          {static_cast<TaskId>(k), time, rng.uniform(0.5, 4.0)});
      capacity -= time;
    }
  }
  return items;
}

void expect_no_core_collision(const Schedule& schedule) {
  for (CoreId core = 0; core < schedule.core_count(); ++core) {
    const std::vector<Segment> on_core = schedule.segments_on_core(core);
    for (std::size_t k = 1; k < on_core.size(); ++k) {
      ASSERT_LE(on_core[k - 1].end, on_core[k].start + 1e-12)
          << "core " << core << " segments overlap";
    }
  }
}

void expect_no_intra_task_parallelism(const Schedule& schedule,
                                      const std::vector<std::vector<PackItem>>& items) {
  for (const auto& sub_items : items) {
    for (const PackItem& item : sub_items) {
      const std::vector<Segment> of_task = schedule.segments_of_task(item.task);
      for (std::size_t k = 1; k < of_task.size(); ++k) {
        ASSERT_LE(of_task[k - 1].end, of_task[k].start + 1e-12)
            << "task " << item.task << " runs on two cores at once";
      }
    }
  }
}

void expect_work_conservation(const Schedule& schedule, const SubintervalDecomposition& subs,
                              const std::vector<std::vector<PackItem>>& items) {
  // Segment time per (task, subinterval), reconstructed from segment spans.
  std::map<std::pair<TaskId, std::size_t>, double> packed;
  for (const Segment& segment : schedule.segments()) {
    for (std::size_t j = 0; j < subs.size(); ++j) {
      if (segment.start >= subs[j].begin - 1e-12 && segment.end <= subs[j].end + 1e-12) {
        packed[{segment.task, j}] += segment.duration();
        break;
      }
    }
  }
  for (std::size_t j = 0; j < subs.size(); ++j) {
    const double tol = 1e-8 * std::max(1.0, subs[j].length());
    for (const PackItem& item : items[j]) {
      const double packed_time = packed[std::make_pair(item.task, j)];
      ASSERT_NEAR(packed_time, item.time, tol)
          << "task " << item.task << " subinterval " << j;
    }
  }
}

/// Pack random heavy items over a `task_count`-task workload serially and on
/// a pool of 4; both must agree exactly and hold every invariant.
/// `fans_out` states whether the pool takes the pooled arena packer.
void check_packing(std::uint64_t seed, std::size_t task_count, bool fans_out) {
  Rng rng(Rng::seed_of("parallel-packing", seed));
  WorkloadConfig config;
  config.task_count = task_count;
  const TaskSet tasks = generate_workload(config, rng);
  const SubintervalDecomposition subs(tasks);
  const auto items = random_items(subs, rng);

  const Schedule serial = pack_subintervals(subs, kCores, items, Exec::serial());
  ThreadPool pool(4);
  const Exec exec = Exec::on(pool);
  ASSERT_EQ(exec.parallel(subs.size()), fans_out) << subs.size() << " subintervals";
  const Schedule parallel = pack_subintervals(subs, kCores, items, exec);

  ASSERT_EQ(serial.segments(), parallel.segments());
  for (const Schedule* schedule : {&serial, &parallel}) {
    expect_no_core_collision(*schedule);
    expect_no_intra_task_parallelism(*schedule, items);
    expect_work_conservation(*schedule, subs, items);
  }
}

/// Run the full pipeline serially and on a pool of 4: every schedule must
/// validate and the two paths must emit the same final segments.
void check_pipeline(std::uint64_t seed, std::size_t task_count, bool fans_out) {
  Rng rng(Rng::seed_of("parallel-packing-pipeline", seed));
  WorkloadConfig config;
  config.task_count = task_count;
  const TaskSet tasks = generate_workload(config, rng);
  const PowerModel power(3.0, 0.05);

  const PipelineResult serial = run_pipeline(tasks, kCores, power);
  ThreadPool pool(4);
  const Exec exec = Exec::on(pool);
  ASSERT_EQ(exec.parallel(SubintervalDecomposition(tasks).size()), fans_out);
  const PipelineResult parallel = run_pipeline(tasks, kCores, power, exec);

  for (const PipelineResult* result : {&serial, &parallel}) {
    for (const MethodResult* m : {&result->even, &result->der}) {
      const ValidationReport inter = m->intermediate_schedule.validate(tasks, 1e-5);
      EXPECT_TRUE(inter.ok) << (inter.violations.empty() ? "" : inter.violations.front());
      const ValidationReport final_r = m->final_schedule.validate(tasks, 1e-5);
      EXPECT_TRUE(final_r.ok) << (final_r.violations.empty() ? "" : final_r.violations.front());
    }
  }
  ASSERT_EQ(serial.der.final_schedule.segments(), parallel.der.final_schedule.segments());
  ASSERT_EQ(serial.even.final_schedule.segments(), parallel.even.final_schedule.segments());
}

class PackingPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackingPropertyTest, SerialAndParallelPackingAgreeAndHoldInvariants) {
  check_packing(GetParam(), 6 + GetParam() % 20, /*fans_out=*/false);
}

TEST_P(PackingPropertyTest, FullPipelineValidatesThroughBothPaths) {
  check_pipeline(GetParam(), 6 + GetParam() % 20, /*fans_out=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingPropertyTest,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{12}));

// 90-120 tasks give ~180-240 subintervals: the pool packs through the
// arena and scatters, so the invariants hold on the parallel code itself.
class PackingPropertyAboveGrainTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackingPropertyAboveGrainTest, SerialAndParallelPackingAgreeAndHoldInvariants) {
  check_packing(100 + GetParam(), 90 + 10 * GetParam(), /*fans_out=*/true);
}

TEST_P(PackingPropertyAboveGrainTest, FullPipelineValidatesThroughBothPaths) {
  check_pipeline(100 + GetParam(), 90 + 10 * GetParam(), /*fans_out=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingPropertyAboveGrainTest,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{4}));

}  // namespace
}  // namespace easched
