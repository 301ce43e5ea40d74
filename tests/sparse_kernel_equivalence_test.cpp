// Equivalence of the sparse kernel (sweep-line decomposition + row-compressed
// Availability) with the dense O(n·N) reference it replaced. The reference —
// per-subinterval membership scans and a full n×N matrix — is reimplemented
// here, in this file, exactly as the pre-sweep kernel computed it; every
// comparison is exact (==), never a tolerance: same availabilities, same
// pieces, same energies, same schedules, on 25 seeded workloads, for both
// allocation methods (I1/F1 even, I2/F2 DER), serially and on pools of 1, 2,
// and 8 threads, plus two 200-task workloads on which the pools fan out.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "easched/common/rng.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/parallel/thread_pool.hpp"
#include "easched/power/power_model.hpp"
#include "easched/sched/allocation.hpp"
#include "easched/sched/ideal.hpp"
#include "easched/sched/packing.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/sched/schedule.hpp"
#include "easched/tasksys/subintervals.hpp"
#include "easched/tasksys/task_set.hpp"
#include "easched/tasksys/workload.hpp"

namespace easched {
namespace {

constexpr std::size_t kWorkloads = 25;

TaskSet workload(std::size_t index, std::size_t task_count) {
  Rng rng(Rng::seed_of("sparse-kernel-equivalence", index));
  WorkloadConfig config;
  config.task_count = task_count;
  return generate_workload(config, rng);
}

TaskSet workload(std::size_t index) {
  // Cycle sizes so both sparse (few overlaps) and dense (many) regimes and
  // several chunking granularities are exercised.
  const std::size_t sizes[] = {5, 12, 20, 33, 40};
  return workload(index, sizes[index % 5]);
}

int cores_for(std::size_t index) {
  const int cores[] = {1, 2, 4, 8};
  return cores[index % 4];
}

// ---------------------------------------------------------------------------
// Dense reference: the pre-sweep kernel, verbatim semantics.
// ---------------------------------------------------------------------------

/// Reference decomposition: boundaries by sort + merge (identical to the
/// kernel), overlap sets by the O(n·N) per-subinterval membership scan
/// (`live_during`) the sweep construction replaced.
struct DenseDecomposition {
  std::vector<double> boundaries;
  std::vector<std::vector<TaskId>> overlapping;  ///< per subinterval

  std::size_t count() const { return overlapping.size(); }
  double begin(std::size_t j) const { return boundaries[j]; }
  double end(std::size_t j) const { return boundaries[j + 1]; }
  double length(std::size_t j) const { return end(j) - begin(j); }
  bool heavy(std::size_t j, int cores) const {
    return overlapping[j].size() > static_cast<std::size_t>(cores);
  }
};

DenseDecomposition dense_decompose(const TaskSet& tasks, double merge_tol = 1e-12) {
  DenseDecomposition d;
  d.boundaries.reserve(tasks.size() * 2);
  for (const Task& t : tasks) {
    d.boundaries.push_back(t.release);
    d.boundaries.push_back(t.deadline);
  }
  std::sort(d.boundaries.begin(), d.boundaries.end());
  std::vector<double> merged;
  for (const double b : d.boundaries) {
    if (merged.empty() || b - merged.back() > merge_tol) merged.push_back(b);
  }
  d.boundaries = std::move(merged);
  d.overlapping.resize(d.boundaries.size() - 1);
  for (std::size_t j = 0; j + 1 < d.boundaries.size(); ++j) {
    d.overlapping[j] = tasks.live_during(d.boundaries[j], d.boundaries[j + 1]);
  }
  return d;
}

/// Reference availability: the full n×N matrix with sums recomputed by
/// whole-row / whole-column scans in ascending index order — the exact
/// summation order whose results the sparse cached sums must reproduce.
class DenseMatrix {
 public:
  DenseMatrix(std::size_t tasks, std::size_t subintervals)
      : tasks_(tasks), subintervals_(subintervals), values_(tasks * subintervals, 0.0) {}

  double operator()(std::size_t i, std::size_t j) const {
    return values_[i * subintervals_ + j];
  }
  void set(std::size_t i, std::size_t j, double v) { values_[i * subintervals_ + j] = v; }

  double row_sum(std::size_t i) const {
    double sum = 0.0;
    for (std::size_t j = 0; j < subintervals_; ++j) sum += (*this)(i, j);
    return sum;
  }
  double column_sum(std::size_t j) const {
    double sum = 0.0;
    for (std::size_t i = 0; i < tasks_; ++i) sum += (*this)(i, j);
    return sum;
  }

  std::size_t task_count() const { return tasks_; }
  std::size_t subinterval_count() const { return subintervals_; }

 private:
  std::size_t tasks_;
  std::size_t subintervals_;
  std::vector<double> values_;
};

DenseMatrix dense_allocate(const TaskSet& tasks, const DenseDecomposition& d, int cores,
                           const IdealCase& ideal, AllocationMethod method) {
  DenseMatrix avail(tasks.size(), d.count());
  for (std::size_t j = 0; j < d.count(); ++j) {
    const std::vector<TaskId>& overlapping = d.overlapping[j];
    if (overlapping.empty()) continue;
    if (!d.heavy(j, cores)) {
      for (const TaskId i : overlapping) {
        avail.set(static_cast<std::size_t>(i), j, d.length(j));
      }
      continue;
    }
    std::vector<double> ration;
    if (method == AllocationMethod::kEven) {
      ration = even_ration(overlapping.size(), cores, d.length(j));
    } else {
      std::vector<double> ders;
      ders.reserve(overlapping.size());
      for (const TaskId i : overlapping) {
        ders.push_back(ideal.execution_time_in(i, d.begin(j), d.end(j)) * ideal.frequency(i));
      }
      ration = der_ration(ders, cores, d.length(j));
    }
    for (std::size_t k = 0; k < overlapping.size(); ++k) {
      avail.set(static_cast<std::size_t>(overlapping[k]), j, ration[k]);
    }
  }
  return avail;
}

/// Everything the dense pipeline produced for one method.
struct DenseMethodResult {
  DenseMatrix availability{0, 0};
  std::vector<double> total_available;
  std::vector<IntermediatePiece> intermediate_pieces;
  double intermediate_energy = 0.0;
  Schedule intermediate_schedule;
  std::vector<double> final_frequency;
  double final_energy = 0.0;
  Schedule final_schedule;
};

Schedule dense_materialize(const DenseDecomposition& d, int cores,
                           const std::vector<IntermediatePiece>& pieces) {
  std::vector<std::vector<PackItem>> per_subinterval(d.count());
  for (const IntermediatePiece& p : pieces) {
    if (p.time <= 0.0) continue;
    per_subinterval[p.subinterval].push_back({p.task, p.time, p.frequency});
  }
  Schedule schedule(cores);
  for (std::size_t j = 0; j < d.count(); ++j) {
    if (per_subinterval[j].empty()) continue;
    pack_subinterval(d.begin(j), d.end(j), cores, per_subinterval[j], schedule);
  }
  schedule.coalesce();
  return schedule;
}

DenseMethodResult dense_method(const TaskSet& tasks, const DenseDecomposition& d, int cores,
                               const PowerModel& power, const IdealCase& ideal,
                               AllocationMethod method) {
  DenseMethodResult r;
  r.availability = dense_allocate(tasks, d, cores, ideal, method);

  // Intermediate pieces: subinterval-major, overlapping tasks ascending.
  for (std::size_t j = 0; j < d.count(); ++j) {
    const bool heavy = d.heavy(j, cores);
    for (const TaskId id : d.overlapping[j]) {
      const auto i = static_cast<std::size_t>(id);
      const double o = ideal.execution_time_in(id, d.begin(j), d.end(j));
      if (o <= 0.0) continue;
      IntermediatePiece piece;
      piece.task = id;
      piece.subinterval = j;
      if (heavy) {
        const double a = r.availability(i, j);
        if (o <= a) {
          piece.time = o;
          piece.frequency = ideal.frequency(id);
        } else {
          piece.time = a;
          piece.frequency = o * ideal.frequency(id) / a;
        }
      } else {
        piece.time = o;
        piece.frequency = ideal.frequency(id);
      }
      r.intermediate_pieces.push_back(piece);
    }
  }
  for (const IntermediatePiece& p : r.intermediate_pieces) {
    r.intermediate_energy += p.time <= 0.0 ? 0.0 : power.energy_for_duration(p.time, p.frequency);
  }
  r.intermediate_schedule = dense_materialize(d, cores, r.intermediate_pieces);

  // Final re-optimization: one frequency per task from the dense row sum,
  // used time distributed proportionally over the full dense row.
  std::vector<IntermediatePiece> final_pieces;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const double a_total = r.availability.row_sum(i);
    r.total_available.push_back(a_total);
    const double f = power.optimal_frequency(tasks[i].work, a_total);
    r.final_frequency.push_back(f);
    r.final_energy += power.energy_for_work(tasks[i].work, f);
    const double used = tasks[i].work / f;
    const double scale = std::min(1.0, used / a_total);
    for (std::size_t j = 0; j < d.count(); ++j) {
      const double budget = r.availability(i, j);
      if (budget <= 0.0) continue;
      IntermediatePiece piece;
      piece.task = static_cast<TaskId>(i);
      piece.subinterval = j;
      piece.time = std::min(budget * scale, d.length(j));
      piece.frequency = f;
      if (piece.time > 0.0) final_pieces.push_back(piece);
    }
  }
  r.final_schedule = dense_materialize(d, cores, final_pieces);
  return r;
}

// ---------------------------------------------------------------------------
// Exact comparisons.
// ---------------------------------------------------------------------------

void expect_same_decomposition(const SubintervalDecomposition& sparse,
                               const DenseDecomposition& dense) {
  ASSERT_EQ(sparse.boundaries().size(), dense.boundaries.size());
  for (std::size_t k = 0; k < dense.boundaries.size(); ++k) {
    ASSERT_EQ(sparse.boundaries()[k], dense.boundaries[k]) << "boundary " << k;
  }
  ASSERT_EQ(sparse.size(), dense.count());
  std::size_t mass = 0;
  for (std::size_t j = 0; j < dense.count(); ++j) {
    ASSERT_EQ(sparse[j].begin, dense.begin(j));
    ASSERT_EQ(sparse[j].end, dense.end(j));
    ASSERT_EQ(sparse[j].overlapping.size(), dense.overlapping[j].size()) << "subinterval " << j;
    for (std::size_t k = 0; k < dense.overlapping[j].size(); ++k) {
      ASSERT_EQ(sparse[j].overlapping[k], dense.overlapping[j][k])
          << "subinterval " << j << " member " << k;
    }
    mass += dense.overlapping[j].size();
  }
  ASSERT_EQ(sparse.overlap_mass(), mass);
}

void expect_same_availability(const Availability& sparse, const DenseMatrix& dense) {
  ASSERT_EQ(sparse.task_count(), dense.task_count());
  ASSERT_EQ(sparse.subinterval_count(), dense.subinterval_count());
  for (std::size_t i = 0; i < dense.task_count(); ++i) {
    for (std::size_t j = 0; j < dense.subinterval_count(); ++j) {
      ASSERT_EQ(sparse(i, j), dense(i, j)) << "avail(" << i << ", " << j << ")";
    }
    ASSERT_EQ(sparse.row_sum(i), dense.row_sum(i)) << "row " << i;
  }
  for (std::size_t j = 0; j < dense.subinterval_count(); ++j) {
    ASSERT_EQ(sparse.column_sum(j), dense.column_sum(j)) << "column " << j;
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

void expect_method_matches_dense(const MethodResult& sparse, const DenseMethodResult& dense) {
  expect_same_availability(sparse.availability, dense.availability);
  ASSERT_EQ(sparse.total_available, dense.total_available);
  expect_same_pieces(sparse.intermediate_pieces, dense.intermediate_pieces);
  ASSERT_EQ(sparse.intermediate_energy, dense.intermediate_energy);
  ASSERT_EQ(sparse.intermediate_schedule.segments(), dense.intermediate_schedule.segments());
  ASSERT_EQ(sparse.final_frequency, dense.final_frequency);
  ASSERT_EQ(sparse.final_energy, dense.final_energy);
  ASSERT_EQ(sparse.final_schedule.segments(), dense.final_schedule.segments());
}

class SparseKernelEquivalenceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SparseKernelEquivalenceTest, DecompositionMatchesDenseReference) {
  const TaskSet tasks = workload(GetParam());
  const SubintervalDecomposition sparse(tasks);
  const DenseDecomposition dense = dense_decompose(tasks);
  expect_same_decomposition(sparse, dense);
}

TEST_P(SparseKernelEquivalenceTest, PipelineMatchesDenseReference) {
  const TaskSet tasks = workload(GetParam());
  const int cores = cores_for(GetParam());
  const PowerModel power(3.0, 0.1);
  const IdealCase ideal(tasks, power);
  const SubintervalDecomposition subs(tasks);
  const DenseDecomposition dense = dense_decompose(tasks);

  for (const auto method : {AllocationMethod::kEven, AllocationMethod::kDer}) {
    const MethodResult sparse =
        schedule_with_method(tasks, subs, cores, power, ideal, method);
    const DenseMethodResult reference =
        dense_method(tasks, dense, cores, power, ideal, method);
    expect_method_matches_dense(sparse, reference);
  }
}

/// The pipeline on pools of 1, 2 and 8 threads against the dense reference.
void expect_pooled_pipeline_matches_dense(const TaskSet& tasks, int cores) {
  const PowerModel power(3.0, 0.1);
  const IdealCase ideal(tasks, power);
  const DenseDecomposition dense = dense_decompose(tasks);
  const DenseMethodResult even = dense_method(tasks, dense, cores, power, ideal,
                                              AllocationMethod::kEven);
  const DenseMethodResult der = dense_method(tasks, dense, cores, power, ideal,
                                             AllocationMethod::kDer);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const PipelineResult pooled = run_pipeline(tasks, cores, power, Exec::on(pool));
    ASSERT_EQ(pooled.ideal_energy, ideal.total_energy()) << threads << " threads";
    expect_method_matches_dense(pooled.even, even);
    expect_method_matches_dense(pooled.der, der);
  }
}

TEST_P(SparseKernelEquivalenceTest, PooledPipelineMatchesDenseReference) {
  expect_pooled_pipeline_matches_dense(workload(GetParam()), cores_for(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Workloads, SparseKernelEquivalenceTest,
                         ::testing::Range(std::size_t{0}, kWorkloads));

// The workloads above all stay below the kernel grain, where a pool runs
// every loop inline. 200 tasks put the task and subinterval loops past it.
TEST(SparseKernelEquivalenceAboveGrainTest, PooledPipelineMatchesDenseReference) {
  for (const std::size_t index : {std::size_t{0}, std::size_t{1}}) {
    SCOPED_TRACE(index);
    const TaskSet tasks = workload(100 + index, 200);
    ThreadPool pool(2);
    ASSERT_TRUE(Exec::on(pool).parallel(SubintervalDecomposition(tasks).size()));
    expect_pooled_pipeline_matches_dense(tasks, cores_for(index + 2));
  }
}

}  // namespace
}  // namespace easched
