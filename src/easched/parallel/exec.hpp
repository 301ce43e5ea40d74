#pragma once

/// \file exec.hpp
/// \brief Execution context threaded through the scheduling kernel.
///
/// `Exec` is how callers opt compute-heavy kernels (the subinterval
/// pipeline, the interior-point solver, per-subinterval packing) into
/// parallel execution: attach a `ThreadPool` and long loops fan out over it,
/// or leave it empty and everything runs inline on the caller. It is a plain
/// pointer wrapper — copy it freely, it owns nothing.
///
/// **Grain.** `Exec::loop` is for fine-grained kernel loops, whose bodies
/// cost from tens of nanoseconds to a few microseconds. Handing such a loop
/// to the pool costs a job allocation, a lock and a wake-up per claimer,
/// which for an admit-sized task set (tens of tasks) is more than the loop
/// itself. So a loop of fewer than `kMinParallelIterations` iterations runs
/// inline even with a pool attached; only loops at least that long fan out.
/// Coarse, job-level loops (one Monte-Carlo run per iteration) must fan out
/// at any count and call `parallel_for` directly instead.
///
/// **Determinism contract.** Every function accepting an `Exec` must return
/// bit-identical results for *any* context — serial, or a pool of any size.
/// The discipline that guarantees it (enforced by
/// `tests/parallel_determinism_test.cpp`):
///
///  * loop bodies write only pre-sized, index-disjoint output slots;
///  * all reductions (energy sums, piece concatenation, matrix assembly)
///    happen serially, in index order, after the parallel loop;
///  * no atomics-into-shared-accumulator shortcuts, ever — the reduction
///    order must not depend on scheduling.
///
/// The grain cutoff changes only *where* iterations run, never what they
/// compute, so it cannot affect results either.
///
/// Because `parallel_for` is caller-participating (see parallel_for.hpp),
/// an `Exec` pointing at the global pool is safe to use from code that is
/// itself running on a pool worker — nested loops degrade to inline
/// execution instead of deadlocking, and the process never runs more
/// compute lanes than one shared budget allows.

#include <cstddef>

#include "easched/parallel/parallel_for.hpp"

namespace easched {

/// Shortest kernel loop that `Exec::loop` fans out over a pool: the measured
/// crossover. Handing a loop to a pool of 4 cost ~20-30 us on a 4-vCPU VM
/// (Release). Measured there, pool of 4 over serial: a 50-task pipeline ran
/// 1.39x slower with no cutoff, 1.24x at 64 and 1.07-1.12x at 128; a ~50-live
/// `DeltaPlanner::plan_to` stream 1.69x / 1.21x / 1.03x. At ~300 live, where
/// the splice and repack loops run to hundreds of iterations, the pool beat
/// serial by 1.20x with no cutoff, 1.15x at 64 and 1.15x at 128 (medians of
/// twelve interleaved runs).
inline constexpr std::size_t kMinParallelIterations = 128;

/// Optional parallel execution context; default = serial.
struct Exec {
  ThreadPool* pool = nullptr;

  /// True when a kernel loop of `n` iterations would actually fan out.
  bool parallel(std::size_t n) const {
    return pool != nullptr && pool->thread_count() > 1 && n >= kMinParallelIterations;
  }

  static Exec serial() { return {}; }
  static Exec on(ThreadPool& p) { return Exec{&p}; }
  /// The process-wide shared worker budget.
  static Exec global() { return Exec{&ThreadPool::global()}; }

  /// Run the kernel loop `body(i)` for `i` in `[0, n)` under this context:
  /// on the pool when `parallel(n)`, inline otherwise.
  template <typename Body>
  void loop(std::size_t n, Body&& body) const {
    if (!parallel(n)) {
      for (std::size_t i = 0; i < n; ++i) body(i);
    } else {
      parallel_for(0, n, body, *pool);
    }
  }
};

}  // namespace easched
