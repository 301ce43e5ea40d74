// Traced mode: replay the workload's op log in process and time each layer
// from outside, by calling its public functions.
//
// Two supervisors are built with the options `easched_cli serve --listen`
// uses. Supervisor A sits behind an in-process `FrontEnd` and is driven over
// loopback; supervisor B gets the same ops as direct calls. Routing and
// planning are deterministic, so both hold the same committed sets and hand
// out the same ids -- the network == in-process contract is checked on
// every admit. Beside them, a mirror of each shard's committed-set sequence
// (shards assigned by `Supervisor::route`) feeds a standalone
// `DeltaPlanner`, `Schedule::validate`, `PlanCache::insert`,
// `plan_signature` and a sampled from-scratch DER plan, and a scratch
// `AdmissionJournal` times the WAL appends.
//
// Ops run one at a time (closed loop), in blocks of 32 that alternate
// between tracing off and tracing on; the difference between the two
// halves' loopback admit p50 is the tracing overhead. The benchmark's own
// spans are kept in memory and written, with the program's spans from the
// traced blocks, as one Chrome trace at the end.

#include <algorithm>
#include <chrono>
#include <deque>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>

#include "bench.hpp"
#include "easched/common/math.hpp"
#include "easched/net/client.hpp"
#include "easched/net/front_end.hpp"
#include "easched/net/protocol.hpp"
#include "easched/obs/trace.hpp"
#include "easched/parallel/exec.hpp"
#include "easched/sched/ideal.hpp"
#include "easched/sched/incremental.hpp"
#include "easched/sched/pipeline.hpp"
#include "easched/service/journal.hpp"
#include "easched/service/plan_cache.hpp"
#include "easched/service/supervisor.hpp"
#include "easched/tasksys/subintervals.hpp"

namespace e2e {
namespace {

namespace net = easched::net;
namespace obs = easched::obs;
using easched::TaskId;
using easched::TaskSet;
using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

double us_between(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Ops per tracing block; blocks alternate off / on.
constexpr std::size_t kBlock = 32;
/// Every Nth mirror plan is also planned from scratch (control + oracle).
constexpr std::size_t kScratchEvery = 16;
/// Caps on recorded spans (the benchmark's own, and the program's per
/// thread), so a long run writes a trace of tens of MB, not hundreds.
constexpr std::size_t kMaxBenchSpans = std::size_t{1} << 17;
constexpr std::size_t kRingPerThread = std::size_t{1} << 16;

/// The options `easched_cli serve --listen --shards 2 --cores 4` builds
/// its supervisor with (every other flag at its default).
easched::SupervisorOptions serve_options(const std::string& data_dir) {
  easched::SupervisorOptions sup;
  sup.shards = 2;
  sup.data_dir = data_dir;
  sup.service.cores = 4;
  sup.service.f_max = easched::kInf;
  sup.service.exact_first = false;
  sup.service.incremental = true;
  sup.brownout_enabled = false;
  return sup;
}

struct BenchSpan {
  const char* name;
  TimePoint start;
  TimePoint end;
  std::uint64_t request;
};

/// One shard's committed set as the generator mirrors it, plus the
/// standalone layer instances it is planned through.
struct ShardMirror {
  explicit ShardMirror(const easched::PowerModel& power) : planner(power, delta_options()) {}

  static easched::DeltaOptions delta_options() {
    easched::DeltaOptions options;
    options.cores = 4;
    return options;
  }

  std::vector<std::pair<TaskId, easched::Task>> committed;  ///< id order
  easched::DeltaPlanner planner;
  easched::PlanCache cache{128};
};

class Replay {
 public:
  Replay(const RunConfig& config, const OpLog& log, RunResult& result)
      : config_(config), spec_(*config.spec), log_(log), result_(result),
        a_(power_, serve_options(config.work_dir + "/replay-a")),
        b_(power_, serve_options(config.work_dir + "/replay-b")),
        front_end_(a_, net::FrontEndOptions{}),
        journal_(config.work_dir + "/bench-journal.wal"),
        tracer_(obs::TracerOptions{kRingPerThread}),
        ids_(log.arrivals.size(), -1) {
    for (std::size_t k = 0; k < 2; ++k) mirrors_.emplace_back(power_);
    front_end_.start();
    client_.connect("127.0.0.1", front_end_.port());
  }

  void run() {
    std::size_t cursor = 0;
    measuring_ = false;
    while (cursor < log_.ops.size() && log_.ops[cursor].at < log_.warm_until) {
      apply(log_.ops[cursor++]);
      if (!result_.correct) return;
    }
    const easched::MetricsSnapshot b_before = b_.metrics_snapshot();
    measuring_ = true;
    const TimePoint start = Clock::now();
    const auto budget = std::chrono::duration<double>(config_.seconds);
    std::size_t measured = 0;
    while (cursor < log_.ops.size() && Clock::now() - start < budget) {
      traced_ = (measured / kBlock) % 2 == 1;
      {
        std::optional<obs::TraceScope> scope;
        if (traced_) scope.emplace(tracer_);
        apply(log_.ops[cursor++]);
      }
      if (!result_.correct) return;
      ++measured;
      std::size_t live = 0;
      for (const ShardMirror& m : mirrors_) live += m.committed.size();
      live_samples_.push_back(static_cast<double>(live));
    }
    if (cursor >= log_.ops.size()) result_.fail("op log exhausted during the replay");
    const easched::MetricsSnapshot b_after = b_.metrics_snapshot();
    result_.info["replay_ops_measured"] = static_cast<double>(measured);
    audit();
    check_final_state();
    report(b_before, b_after);
    write_trace();
  }

 private:
  template <typename F>
  double timed(const char* name, F&& body) {
    const TimePoint t0 = Clock::now();
    body();
    const TimePoint t1 = Clock::now();
    if (measuring_ && spans_.size() < kMaxBenchSpans) spans_.push_back({name, t0, t1, request_});
    return us_between(t0, t1);
  }

  void apply(const LogOp& op) {
    request_ = static_cast<std::uint64_t>(&op - log_.ops.data()) + 1;
    switch (op.kind) {
      case OpKind::kArrive:
        if (spec_.bursty) {
          admit_batch(op.first, op.count);
        } else {
          if (spec_.quote_then_admit) quote(log_.arrivals[op.first].tenant, log_.arrivals[op.first].task);
          admit(op.first);
        }
        break;
      case OpKind::kComplete:
        complete(op.first);
        break;
    }
  }

  void quote(const std::string& tenant, const easched::Task& task) {
    ++result_.attempted;
    net::QuoteResponse wire;
    const double rtt = timed("bench.net.quote_rtt", [&] { wire = client_.quote({tenant, task}); });
    std::optional<easched::AdmissionDecision> direct;
    timed("bench.service.quote", [&] { direct = b_.quote(tenant, task); });
    count(wire.status);
    if (!direct || direct->admitted != wire.admitted || direct->energy_after != wire.energy_after) {
      result_.fail("quote over the wire differs from the in-process quote");
    }
    if (measuring_) quote_rtt_us_.push_back(rtt);
  }

  void admit(std::uint32_t i) {
    const Arrival& a = log_.arrivals[i];
    ++result_.attempted;
    if (measuring_) codec(net::Op::kAdmit, net::encode_admit_request({a.tenant, a.rid, a.task, 0}));
    net::AdmitResponse wire;
    const double rtt = timed("bench.net.admit_rtt", [&] { wire = client_.admit({a.tenant, a.rid, a.task, 0}); });
    easched::ServiceDecision direct;
    const std::uint64_t misses = b_misses();
    const double submit = timed("bench.service.submit", [&] { direct = b_.submit(a.tenant, a.task, a.rid); });
    if (measuring_) admit_path_misses_ += b_misses() - misses;
    count(wire.status);
    if (measuring_) {
      (traced_ ? rtt_traced_us_ : rtt_untraced_us_).push_back(rtt);
      submit_us_.push_back(submit);
    }
    committed(i, wire, direct);
  }

  void admit_batch(std::uint32_t first, std::uint32_t n) {
    net::AdmitBatchRequest request;
    std::vector<easched::Supervisor::BatchItem> items;
    for (std::uint32_t j = 0; j < n; ++j) {
      const Arrival& a = log_.arrivals[first + j];
      request.items.push_back({a.tenant, a.rid, a.task});
      items.push_back({a.tenant, a.task, a.rid});
    }
    result_.attempted += n;
    if (measuring_) codec(net::Op::kAdmitBatch, net::encode_admit_batch_request(request));
    net::AdmitBatchResponse wire;
    const double rtt = timed("bench.net.admit_batch_rtt", [&] { wire = client_.admit_batch(request); });
    std::vector<easched::ServiceDecision> direct;
    const std::uint64_t misses = b_misses();
    const double submit = timed("bench.service.submit_batch", [&] { direct = b_.submit_batch(items); });
    if (measuring_) admit_path_misses_ += b_misses() - misses;
    if (wire.items.size() != n || direct.size() != n) {
      result_.fail("admit batch answered the wrong number of items");
      return;
    }
    if (measuring_) {
      const double per_item = static_cast<double>(n);
      (traced_ ? rtt_traced_us_ : rtt_untraced_us_).push_back(rtt / per_item);
      submit_us_.push_back(submit / per_item);
    }
    for (std::uint32_t j = 0; j < n; ++j) {
      count(wire.items[j].status);
      committed(first + j, wire.items[j], direct[j]);
    }
  }

  /// Both paths agreed on an admit: mirror it into its shard and plan.
  void committed(std::uint32_t i, const net::AdmitResponse& wire, const easched::ServiceDecision& direct) {
    if (wire.status != net::Status::kOk || !wire.admitted || !direct.admission.admitted) {
      result_.fail("admit of " + log_.arrivals[i].rid + " was not committed");
      return;
    }
    if (wire.id != direct.id) {
      result_.fail("network and in-process admits of " + log_.arrivals[i].rid + " got different ids");
      return;
    }
    const Arrival& a = log_.arrivals[i];
    ids_[i] = wire.id;
    const std::size_t shard = b_.route(a.tenant);
    mirrors_[shard].committed.push_back({static_cast<TaskId>(wire.id), a.task});
    if (measuring_) {
      journal_us_.push_back(timed("bench.service.journal_append",
                                  [&] { journal_.append_admit(static_cast<TaskId>(wire.id), a.task, a.rid); }));
      plan_mirror(shard);
    }
  }

  void complete(std::uint32_t i) {
    const Arrival& a = log_.arrivals[i];
    ++result_.attempted;
    const net::TaskOpRequest request{a.tenant, ids_[i]};
    net::StatusResponse wire;
    timed("bench.net.complete_rtt", [&] { wire = client_.complete_task(request); });
    std::optional<bool> direct;
    const double us =
        timed("bench.service.complete", [&] { direct = b_.complete(a.tenant, static_cast<TaskId>(ids_[i])); });
    count(wire.status);
    if (wire.status != net::Status::kOk || !direct || !*direct) {
      result_.fail("completion of " + a.rid + " failed");
      return;
    }
    const std::size_t shard = b_.route(a.tenant);
    auto& set = mirrors_[shard].committed;
    const auto it = std::find_if(set.begin(), set.end(),
                                 [&](const auto& entry) { return entry.first == ids_[i]; });
    if (it != set.end()) set.erase(it);
    if (measuring_) {
      complete_us_.push_back(us);
      journal_us_.push_back(timed("bench.service.journal_append",
                                  [&] { journal_.append_complete(static_cast<TaskId>(ids_[i])); }));
      plan_mirror(shard);
    }
  }

  /// Plan the shard's mirrored committed set through each sched/ layer.
  void plan_mirror(std::size_t shard) {
    ShardMirror& m = mirrors_[shard];
    if (m.committed.empty()) return;
    std::vector<easched::Task> tasks;
    for (const auto& entry : m.committed) tasks.push_back(entry.second);
    const TaskSet set(std::move(tasks));
    const easched::Exec exec = easched::Exec::global();
    std::string signature;
    signature_us_.push_back(timed("bench.service.signature",
                                  [&] { signature = easched::plan_signature(m.committed); }));
    easched::DeltaOutcome outcome;
    easched::DeltaPlan plan;
    delta_us_.push_back(timed("bench.sched.delta_plan", [&] { plan = m.planner.plan_to(set, exec, &outcome); }));
    delta_hits_ += outcome.delta ? 1 : 0;
    ++delta_plans_;
    dirty_columns_ += outcome.dirty_columns;
    delta_ops_ += outcome.ops;
    easched::ValidationReport report;
    validate_us_.push_back(timed("bench.sched.validate", [&] { report = plan.schedule.validate(set); }));
    if (!report.ok) result_.fail("delta plan failed validation");
    const easched::CachedPlan cached{plan.energy, plan.schedule, easched::PlanRung::kDer};
    insert_us_.push_back(timed("bench.sched.cache_insert", [&] { m.cache.insert(signature, cached); }));
    if (delta_plans_ % kScratchEvery == 0) {
      double scratch_energy = 0.0;
      scratch_us_.push_back(timed("bench.sched.scratch_plan", [&] {
        scratch_energy = scratch_der_energy(set);
      }));
      if (scratch_energy != plan.energy) result_.fail("delta plan energy differs from the from-scratch plan");
    }
  }

  double scratch_der_energy(const TaskSet& set) const {
    const easched::Exec exec = easched::Exec::global();
    const easched::SubintervalDecomposition subs(set, 1e-12, exec);
    const easched::IdealCase ideal(set, power_);
    return easched::schedule_with_method(set, subs, 4, power_, ideal, easched::AllocationMethod::kDer, exec)
        .final_energy;
  }

  /// Encode one request frame, feed it through a decoder, decode it back.
  void codec(net::Op op, const std::string& payload) {
    const TimePoint t0 = Clock::now();
    const std::string bytes = net::encode_frame(op, false, request_, payload);
    net::FrameDecoder decoder;
    decoder.feed(bytes);
    bool ok = decoder.frames().size() == 1;
    if (ok && op == net::Op::kAdmit) {
      net::AdmitRequest back;
      ok = net::decode_admit_request(decoder.frames()[0].payload, back);
    } else if (ok) {
      net::AdmitBatchRequest back;
      ok = net::decode_admit_batch_request(decoder.frames()[0].payload, back);
    }
    const TimePoint t1 = Clock::now();
    if (!ok) result_.fail("codec round trip failed");
    codec_ns_.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count());
  }

  /// Plan-cache misses of supervisor B so far (read outside timed spans).
  std::uint64_t b_misses() const {
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < b_.shard_count(); ++k) {
      const easched::MetricsSnapshot snap = b_.shard(k).metrics_snapshot();
      if (const auto it = snap.counters.find("plan_cache_misses_total"); it != snap.counters.end()) {
        total += it->second;
      }
    }
    return total;
  }

  void count(net::Status status) {
    result_.statuses[std::string(net::status_name(status))] += 1;
    if (status != net::Status::kOk) ++result_.failed;
  }

  /// Replay every acked rid over the wire: each must come back
  /// deduplicated with its original id (none lost, none re-committed).
  void audit() {
    std::size_t lost = 0;
    std::size_t recommitted = 0;
    std::vector<double> rtt;
    for (std::size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] < 0) continue;
      const Arrival& a = log_.arrivals[i];
      net::AdmitResponse r;
      const TimePoint t0 = Clock::now();
      r = client_.admit({a.tenant, a.rid, a.task, 0});
      rtt.push_back(us_between(t0, Clock::now()));
      if (r.status != net::Status::kOk || r.id != ids_[i]) {
        ++lost;
      } else if (!r.deduplicated) {
        ++recommitted;
      }
    }
    result_.info["audit_acked_rids"] = static_cast<double>(rtt.size());
    if (lost > 0 || recommitted > 0) {
      result_.fail("dedup audit: " + std::to_string(lost) + " lost, " + std::to_string(recommitted) +
                   " re-committed");
    }
    result_.metric("net.dedup_rtt_us", quantile(rtt, 0.5), "us");
  }

  /// Each shard's final plan validates against its committed set, carries
  /// the from-scratch DER energy bit for bit, and holds the mirrored count.
  void check_final_state() {
    for (easched::Supervisor* sup : {&a_, &b_}) {
      for (std::size_t k = 0; k < sup->shard_count(); ++k) {
        easched::ServiceShard& shard = sup->shard(k);
        const TaskSet set = shard.committed_task_set();
        if (shard.committed_count() != mirrors_[k].committed.size()) {
          result_.fail("shard " + std::to_string(k) + " holds " + std::to_string(shard.committed_count()) +
                       " task(s), mirror " + std::to_string(mirrors_[k].committed.size()));
        }
        if (set.size() == 0) continue;
        if (!shard.current_plan().validate(set).ok) {
          result_.fail("shard " + std::to_string(k) + " plan fails validation");
        }
        if (shard.current_energy() != scratch_der_energy(set)) {
          result_.fail("shard " + std::to_string(k) + " energy differs from a from-scratch DER plan");
        }
      }
    }
  }

  void report(const easched::MetricsSnapshot& before, const easched::MetricsSnapshot& after) {
    auto delta = [&](const std::string& suffix) {
      double total = 0.0;
      for (std::size_t k = 0; k < 2; ++k) {
        const std::string name = "shard" + std::to_string(k) + "_" + suffix;
        const auto a = after.counters.find(name);
        const auto b = before.counters.find(name);
        total += static_cast<double>((a == after.counters.end() ? 0 : a->second) -
                                     (b == before.counters.end() ? 0 : b->second));
      }
      return total;
    };
    const double rtt_p50 = quantile(rtt_untraced_us_, 0.5);
    const double submit_p50 = quantile(submit_us_, 0.5);
    result_.metric("net.wire_overhead_us", rtt_p50 - submit_p50, "us");
    result_.metric("net.codec_ns_per_frame", quantile(codec_ns_, 0.5), "ns");
    const net::FrontEndStats fe = front_end_.stats();
    result_.metric("net.frames_per_writev",
                   fe.writev_calls == 0 ? 0.0
                                        : static_cast<double>(fe.writev_frames) / static_cast<double>(fe.writev_calls),
                   "ratio");
    const double frames = static_cast<double>(fe.admits + fe.admit_batches);
    result_.metric("net.items_per_frame",
                   frames == 0 ? 0.0 : static_cast<double>(fe.admits + fe.admit_batch_items) / frames, "ratio");

    result_.metric("service.submit_us.p50", submit_p50, "us");
    result_.metric("service.submit_us.p99", quantile(submit_us_, 0.99), "us");
    // The front-end supervisor sees the wire's request pattern; its
    // queue-wait histogram is the one a client's admits waited in.
    const easched::MetricsSnapshot a_metrics = a_.metrics_snapshot();
    std::optional<easched::obs::BucketHistogram> wait;
    double batch_sum = 0.0;
    double batch_count = 0.0;
    for (std::size_t k = 0; k < 2; ++k) {
      const std::string prefix = "shard" + std::to_string(k) + "_";
      if (const auto it = a_metrics.bucketed.find(prefix + "queue_wait_us"); it != a_metrics.bucketed.end()) {
        if (wait) {
          wait->merge(it->second);
        } else {
          wait = it->second;
        }
      }
      if (const auto it = a_metrics.histograms.find(prefix + "batch_size"); it != a_metrics.histograms.end()) {
        batch_sum += it->second.sum;
        batch_count += static_cast<double>(it->second.count);
      }
    }
    result_.metric("service.queue_wait_us.p99", wait ? wait->quantile(0.99) : 0.0, "us");
    result_.metric("service.batch_size.mean", batch_count == 0.0 ? 0.0 : batch_sum / batch_count, "count");
    const double misses = delta("plan_cache_misses_total");
    const double hits = delta("plan_cache_hits_total");
    const double admitted = delta("admitted_total");
    const double plans_per_admit = admitted == 0.0 ? 0.0 : misses / admitted;
    result_.metric("service.plans_per_admit", plans_per_admit, "ratio");
    result_.metric("service.cache_hit_ratio", hits + misses == 0.0 ? 0.0 : hits / (hits + misses), "ratio");
    result_.metric("service.journal_append_us", quantile(journal_us_, 0.5), "us");
    result_.metric("service.complete_us", quantile(complete_us_, 0.5), "us");
    result_.metric("service.signature_us", quantile(signature_us_, 0.5), "us");
    result_.metric("service.live_tasks", mean(live_samples_), "count");

    const double delta_p50 = quantile(delta_us_, 0.5);
    result_.metric("sched.delta_plan_us.p50", delta_p50, "us");
    result_.metric("sched.delta_plan_us.p99", quantile(delta_us_, 0.99), "us");
    result_.metric("sched.delta_hit_ratio",
                   delta_plans_ == 0 ? 0.0 : static_cast<double>(delta_hits_) / static_cast<double>(delta_plans_),
                   "ratio");
    result_.metric("sched.dirty_columns_per_op",
                   delta_ops_ == 0 ? 0.0 : static_cast<double>(dirty_columns_) / static_cast<double>(delta_ops_),
                   "count");
    result_.metric("sched.validate_us", quantile(validate_us_, 0.5), "us");
    result_.metric("sched.cache_insert_us", quantile(insert_us_, 0.5), "us");
    result_.metric("sched.scratch_plan_us", quantile(scratch_us_, 0.5), "us");
    // Share of an in-process admit spent in delta planning, counting only
    // the plans the admit path itself ran (a preceding quote's plan is a
    // cache hit for its admit): which layer a workload loads.
    const double admit_plans =
        admitted == 0.0 ? 0.0 : static_cast<double>(admit_path_misses_) / admitted;
    result_.info["admit_path_plans_per_admit"] = admit_plans;
    result_.metric("sched.plan_share_of_submit",
                   submit_p50 == 0.0 ? 0.0 : delta_p50 * admit_plans / submit_p50, "ratio");

    const double traced = quantile(rtt_traced_us_, 0.5);
    result_.metric("obs.trace_overhead_pct", rtt_p50 == 0.0 ? 0.0 : (traced - rtt_p50) / rtt_p50 * 100.0, "%");
    result_.info["replay_admit_rtt_p50_us"] = rtt_p50;
    result_.info["replay_quote_rtt_p50_us"] = quantile(quote_rtt_us_, 0.5);
  }

  void write_trace() {
    if (config_.trace_out.empty()) return;
    {
      // The benchmark's spans join the program's (recorded during the
      // traced blocks) in the same tracer, then everything is written once.
      obs::TraceScope scope(tracer_);
      for (const BenchSpan& s : spans_) obs::emit(s.name, s.start, s.end, s.request);
    }
    std::ofstream out(config_.trace_out);
    tracer_.write_chrome_trace(out);
    result_.info["trace_spans"] = static_cast<double>(tracer_.records().size());
    result_.info["trace_spans_dropped"] = static_cast<double>(tracer_.dropped());
    std::cout << "trace written to " << config_.trace_out << "\n";
  }

  const RunConfig& config_;
  const WorkloadSpec& spec_;
  const OpLog& log_;
  RunResult& result_;
  // CLI defaults of `easched_cli serve` (--alpha 3 --p0 0.1).
  const easched::PowerModel power_{3.0, 0.1};
  easched::Supervisor a_;
  easched::Supervisor b_;
  net::FrontEnd front_end_;
  net::BlockingClient client_;
  easched::AdmissionJournal journal_;
  obs::Tracer tracer_;
  std::deque<ShardMirror> mirrors_;  ///< deque: mirrors never relocate
  std::vector<std::int64_t> ids_;

  bool measuring_ = false;
  bool traced_ = false;
  std::uint64_t request_ = 0;
  std::vector<BenchSpan> spans_;
  std::vector<double> rtt_untraced_us_, rtt_traced_us_, quote_rtt_us_, submit_us_, complete_us_;
  std::vector<double> journal_us_, signature_us_, delta_us_, validate_us_, insert_us_, scratch_us_;
  std::vector<double> codec_ns_, live_samples_;
  std::size_t delta_hits_ = 0, delta_plans_ = 0, dirty_columns_ = 0, delta_ops_ = 0;
  std::uint64_t admit_path_misses_ = 0;
};

}  // namespace

RunResult run_replay(const RunConfig& config) {
  RunResult result;
  const OpLog log = generate_log(*config.spec, config.seed, arrivals_for(*config.spec, config.seconds));
  std::filesystem::remove_all(config.work_dir + "/replay-a");
  std::filesystem::remove_all(config.work_dir + "/replay-b");
  std::filesystem::remove(config.work_dir + "/bench-journal.wal");
  std::filesystem::create_directories(config.work_dir + "/replay-a");
  std::filesystem::create_directories(config.work_dir + "/replay-b");
  Replay replay(config, log, result);
  replay.run();
  return result;
}

}  // namespace e2e
