// Thread pool and parallel_for: correctness, exceptions, determinism of the
// parallel Monte-Carlo pattern used by the experiment harness, affinity-sized
// default pools, and which loops fan out (the kernel grain of `Exec::loop`
// versus the coarse job loops that must fan out at any count).

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "easched/common/rng.hpp"
#include "easched/exp/runtime_matrix.hpp"
#include "easched/exp/sharding.hpp"
#include "easched/faults/fault_injection.hpp"
#include "easched/faults/fault_plan.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/parallel_for.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

TEST(ThreadPoolTest, RunsSubmittedJobs) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ManyJobsAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, WorkersSurviveThrowingJobs) {
  // The contract the service layer depends on: a throwing job is surfaced
  // through its future and never takes down a worker, so the pool keeps
  // serving afterwards — even on a single-worker pool, where a dead worker
  // would hang everything.
  ThreadPool pool(1);
  auto bad = pool.submit([] { throw std::runtime_error("job failure"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  auto good = pool.submit([] { return 7; });
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolTest, DiscardedFutureOfThrowingJobDoesNotTerminate) {
  ThreadPool pool(2);
  // Fire-and-forget a throwing job: the exception dies with the discarded
  // shared state instead of reaching std::terminate.
  { auto dropped = pool.submit([] { throw std::runtime_error("ignored"); }); }
  std::atomic<int> ran{0};
  std::vector<std::future<void>> after;
  for (int i = 0; i < 16; ++i) {
    after.push_back(pool.submit([&ran] { ran.fetch_add(1); }));
  }
  for (auto& f : after) f.get();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(pool.thread_count(), ThreadPool::available_cpus());
}

/// Pins the calling thread to the first CPU of its affinity mask, as
/// `taskset -c N` pins a process, and restores the mask when it goes out of
/// scope. Threads started meanwhile (pool workers) inherit the one-CPU mask.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&original_);
    EXPECT_EQ(::sched_getaffinity(0, sizeof(original_), &original_), 0);
    std::size_t first = 0;
    while (!CPU_ISSET(first, &original_)) ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    EXPECT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
  }
  ~PinToOneCpu() { ::sched_setaffinity(0, sizeof(original_), &original_); }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  std::size_t original_cpus() const { return static_cast<std::size_t>(CPU_COUNT(&original_)); }

 private:
  cpu_set_t original_;
};

TEST(ThreadPoolTest, DefaultSizeFollowsTheAffinityMask) {
  std::size_t available = 0;
  std::size_t workers = 0;
  std::size_t original_cpus = 0;
  {
    const PinToOneCpu pin;
    original_cpus = pin.original_cpus();
    available = ThreadPool::available_cpus();
    ThreadPool pool;
    workers = pool.thread_count();
  }
  EXPECT_EQ(available, 1u);
  EXPECT_EQ(workers, 1u);
  EXPECT_EQ(ThreadPool::available_cpus(), original_cpus);
}

TEST(ThreadPoolTest, OneCpuDefaultPoolRunsAnAboveGrainPipelineInline) {
  // A process pinned to one CPU gets a one-worker default pool; a workload
  // whose loops would fan out on a larger pool then runs inline, and the
  // result is still bit-identical to the serial run.
  Rng rng(Rng::seed_of("thread-pool-one-cpu", 0));
  WorkloadConfig config;
  config.task_count = 200;
  const TaskSet tasks = generate_workload(config, rng);
  const PowerModel power(3.0, 0.1);
  const PipelineResult serial = run_pipeline(tasks, 4, power);

  const PinToOneCpu pin;
  ThreadPool pool;
  ASSERT_EQ(pool.thread_count(), 1u);
  const Exec exec = Exec::on(pool);
  EXPECT_FALSE(exec.parallel(tasks.size()));
  const PipelineResult pinned = run_pipeline(tasks, 4, power, exec);
  EXPECT_EQ(pinned.ideal_energy, serial.ideal_energy);
  EXPECT_EQ(pinned.even.final_energy, serial.even.final_energy);
  EXPECT_EQ(pinned.der.final_energy, serial.der.final_energy);
  EXPECT_EQ(pinned.even.final_schedule.segments(), serial.even.final_schedule.segments());
  EXPECT_EQ(pinned.der.final_schedule.segments(), serial.der.final_schedule.segments());
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(
      0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, HandlesEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  int runs = 0;
  parallel_for(
      5, 5, [&](std::size_t) { ++runs; }, pool);
  EXPECT_EQ(runs, 0);
  parallel_for(
      5, 6, [&](std::size_t i) { runs += static_cast<int>(i); }, pool);
  EXPECT_EQ(runs, 5);
}

TEST(ParallelForTest, SubrangeRespectsBounds) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  parallel_for(
      10, 110, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); }, pool);
  EXPECT_EQ(sum.load(), (10L + 109L) * 100L / 2L);
}

TEST(ParallelForTest, ExceptionInBodyPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(
                   0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("fail at 37");
                   },
                   pool),
               std::runtime_error);
}

TEST(ParallelMapTest, CollectsResultsByIndex) {
  ThreadPool pool(4);
  const auto out = parallel_map(
      100, [](std::size_t i) { return i * i; }, pool);
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMapTest, SeededRunsAreDeterministicRegardlessOfThreads) {
  // The Monte-Carlo harness pattern: per-index seeds must make results
  // independent of scheduling.
  const auto compute = [](std::size_t threads) {
    ThreadPool pool(threads);
    return parallel_map(
        64,
        [](std::size_t i) {
          Rng rng(Rng::seed_of("determinism", i));
          double sum = 0.0;
          for (int k = 0; k < 100; ++k) sum += rng.uniform();
          return sum;
        },
        pool);
  };
  EXPECT_EQ(compute(1), compute(8));
}

/// Counts the jobs `pool` ran while `work` executed: every pool job passes
/// the fault hook, and a zero-delay `job_delay` at p=1 counts each one.
template <typename Work>
std::uint64_t pool_jobs_during(std::size_t threads, Work&& work) {
  FaultInjector injector(FaultPlan::parse("seed=1;job_delay:p=1,us=0"));
  faults::FaultScope scope(injector);
  {
    ThreadPool pool(threads);
    work(pool);
  }  // joining drains every job, including claimers the caller outran
  return injector.occurrences(FaultSite::kJobDelay);
}

TEST(ExecGrainTest, KernelLoopsBelowTheGrainRunInline) {
  ThreadPool pool(4);
  const Exec exec = Exec::on(pool);
  EXPECT_FALSE(exec.parallel(kMinParallelIterations - 1));
  EXPECT_TRUE(exec.parallel(kMinParallelIterations));
  EXPECT_FALSE(Exec::serial().parallel(1000));
  ThreadPool single(1);
  EXPECT_FALSE(Exec::on(single).parallel(1000));

  const auto jobs_for = [](std::size_t n) {
    return pool_jobs_during(4, [n](ThreadPool& p) {
      std::vector<int> hits(n, 0);
      Exec::on(p).loop(n, [&](std::size_t i) { ++hits[i]; });
      for (const int h : hits) EXPECT_EQ(h, 1);
    });
  };
  EXPECT_EQ(jobs_for(kMinParallelIterations - 1), 0u);
  EXPECT_GE(jobs_for(kMinParallelIterations), 1u);
}

TEST(ExecGrainTest, CoarseJobLoopsFanOutBelowTheGrain) {
  // A Monte-Carlo run is a whole job, so the harness loops fan out however
  // few runs there are — they must not inherit the kernel-loop cutoff.
  static_assert(2 < kMinParallelIterations);
  const std::uint64_t matrix_jobs = pool_jobs_during(2, [](ThreadPool& pool) {
    RuntimeMatrixConfig config;
    config.cores = 2;
    config.workload.task_count = 6;
    config.acet_ratios = {1.0};
    const RuntimeMatrixResult result =
        run_runtime_matrix("grain", config, PowerModel(3.0, 0.1), 2, pool);
    EXPECT_EQ(result.runs, 2u);
  });
  EXPECT_GE(matrix_jobs, 1u);

  const std::uint64_t sharded_jobs = pool_jobs_during(2, [](ThreadPool& pool) {
    const auto out =
        run_sharded(ShardPlan{2, 1}, [](std::size_t run) { return run * 3; }, pool);
    EXPECT_EQ(out, (std::vector<std::size_t>{0, 3}));
  });
  EXPECT_GE(sharded_jobs, 1u);
}

}  // namespace
}  // namespace easched
