// Untraced end-to-end mode: spawn `easched_cli serve --listen 0`, drive it
// from one thread over a few pipelined connections, and check every answer.
//
// Phases, in order:
//   setup    spawn the server kSetups times; each spawn is timed to its
//            "serving on" line plus one answered round trip.
//   warm-up  replay the op log up to `warm_until` (window-bounded) so the
//            live set is at steady state before anything is timed.
//   nominal  open loop at the workload's fixed rate: every op has a due time
//            and latency is measured from it, so a stall charges every op
//            queued behind it.
//   peak     window-bounded saturation: the log continues as fast as the
//            in-flight window allows; acked admissions per second.
//            Nominal and peak blocks alternate until `--seconds` is spent.
//   audit    every acked rid is re-submitted and must come back
//            deduplicated with its original id; the server's live count
//            must equal the generator's mirror; the server must exit
//            cleanly (see `run_drive` for its exit audit).

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "easched/net/client.hpp"
#include "easched/net/protocol.hpp"

extern char** environ;

namespace e2e {
namespace {

namespace net = easched::net;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

constexpr double kNsPerMs = 1e6;
constexpr double kInfLatency = std::numeric_limits<double>::infinity();
/// Server spawns timed per run; setup_s is their median.
constexpr std::size_t kSetups = 5;

/// Milliseconds `reference_ms`'s fixed work took on the host the benchmark
/// was tuned on (one vCPU of a 4-vCPU 2.0 GHz Xeon VM, Release build).
constexpr double kReferenceMs = 3.0;

/// Time a fixed piece of benchmark-owned work: fill 2^15 doubles from a
/// splitmix64 stream and sort them. It shares no code with the program, so
/// its time tracks how fast the host runs this CPU just now, not the
/// program. Median of 5 repetitions, in ms.
double reference_ms() {
  static std::vector<double> values(std::size_t{1} << 15);
  static volatile double sink = 0.0;
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t start = now_ns();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (double& v : values) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      v = static_cast<double>((z ^ (z >> 31)) >> 11);
    }
    std::sort(values.begin(), values.end());
    sink = sink + values[values.size() / 2];
    times.push_back(static_cast<double>(now_ns() - start) / kNsPerMs);
  }
  return quantile(times, 0.5);
}

// --- The server process ----------------------------------------------------

/// One `easched_cli serve --listen 0` child. The destructor kills a child
/// that is still running, so no exit path leaves a server behind.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& data_dir) {
    // A fresh server: no journal or snapshot left from an earlier run.
    std::filesystem::remove_all(data_dir);
    std::filesystem::create_directories(data_dir);
    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipefd[1], STDOUT_FILENO);
    std::vector<std::string> args = {binary,     "serve",   "--listen",   "0",     "--shards",
                                     "2",        "--cores", "4",          "--data-dir", data_dir};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipefd[1]);
    out_fd_ = pipefd[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + binary + ": " + std::strerror(rc));
    }
    // Scripts parse the "serving on host:port (...)" line for the port.
    const std::int64_t deadline = now_ns() + 60'000'000'000;
    for (;;) {
      const std::size_t at = output_.find("serving on ");
      const std::size_t eol = at == std::string::npos ? at : output_.find('\n', at);
      if (eol != std::string::npos) {
        const std::string line = output_.substr(at, eol - at);
        const std::size_t colon = line.rfind(':');
        port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
        return;
      }
      if (!read_some(deadline)) throw std::runtime_error("server exited before serving");
    }
  }

  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) in MiB, or 0 when unreadable.
  double peak_rss_mb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
  }

  /// User plus system CPU seconds the server has used so far.
  double cpu_seconds() const {
    std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)), std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    const std::size_t name_end = text.rfind(')');
    if (name_end == std::string::npos) return 0.0;
    std::istringstream rest(text.substr(name_end + 1));
    std::string field;
    double ticks = 0.0;
    for (int k = 3; k <= 15 && rest >> field; ++k) {
      if (k >= 14) ticks += std::stod(field);
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }

  /// SIGTERM (the server drains, audits its acked admits and exits) and
  /// wait. Returns the exit code, or -1 when it had to be killed.
  int stop() {
    ::kill(pid_, SIGTERM);
    const std::int64_t deadline = now_ns() + 30'000'000'000;
    while (read_some(deadline)) {
    }
    int status = 0;
    for (;;) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) break;
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  const std::string& output() const { return output_; }

 private:
  /// Read whatever the child printed; false on EOF or deadline.
  bool read_some(std::int64_t deadline) {
    pollfd pfd{out_fd_, POLLIN, 0};
    const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
    if (left_ms <= 0) return false;
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(out_fd_, buf, sizeof buf);
    if (n <= 0) return false;
    output_.append(buf, static_cast<std::size_t>(n));
    return true;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string output_;
};

/// Spawn, wait for "serving on", answer one stats round trip: the set-up
/// time a client of a fresh server sees.
double timed_setup(const std::string& binary, const std::string& data_dir,
                   std::unique_ptr<ServerProcess>& server) {
  const std::int64_t started = now_ns();
  server = std::make_unique<ServerProcess>(binary, data_dir);
  net::BlockingClient client;
  client.connect("127.0.0.1", server->port());
  if (client.stats().status != net::Status::kOk) throw std::runtime_error("setup stats failed");
  return static_cast<double>(now_ns() - started) / 1e9;
}

// --- The generator ---------------------------------------------------------

enum class Req : std::uint8_t { kAdmit, kAdmitBatch, kQuoteThenAdmit, kComplete, kAudit, kStats };
enum class Phase : std::uint8_t { kWarm, kNominal, kPeak, kAudit };

struct Pending {
  Req req = Req::kAdmit;
  Phase phase = Phase::kWarm;
  std::uint32_t first = 0;
  std::uint32_t count = 1;
  std::int64_t due = 0;
};

struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_offset = 0;
  bool want_write = false;
  net::FrameDecoder decoder;
  std::unordered_map<std::uint64_t, Pending> pending;
  std::uint64_t next_correlation = 1;
};

/// Single-threaded open-loop client: epoll over the connections plus one
/// timerfd for the next due op.
class Generator {
 public:
  Generator(const WorkloadSpec& spec, const OpLog& log, std::uint16_t port, RunResult& result)
      : spec_(spec), log_(log), result_(result), ids_(log.arrivals.size(), -1),
        state_(log.arrivals.size(), kNone), parked_(log.arrivals.size()) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
    epoll_event timer_event{};
    timer_event.events = EPOLLIN;
    timer_event.data.u64 = kTimerKey;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &timer_event);
    for (std::size_t k = 0; k < kConnections; ++k) {
      Connection& c = connections_[k];
      c.fd = net::connect_with_backoff("127.0.0.1", port, std::chrono::milliseconds(5000));
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.u64 = k;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &event);
    }
  }

  ~Generator() {
    for (Connection& c : connections_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    ::close(timer_fd_);
    ::close(epoll_fd_);
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// One thread plus this many connections: the generator's footprint.
  static constexpr std::size_t kConnections = 2;

  /// `reference_ms` samples taken after the warm-up and after each cycle.
  const std::vector<double>& reference_samples() const { return reference_ms_; }

  void run(double seconds) {
    // Warm-up: fill the live set, untimed.
    phase_ = Phase::kWarm;
    windowed([&] { return cursor_ < log_.ops.size() && log_.ops[cursor_].at < log_.warm_until; },
             std::numeric_limits<std::int64_t>::max());
    drain();
    reference_ms_.push_back(reference_ms());

    // Nominal and peak blocks alternate, so a slow spell of the host lands
    // in blocks of both kinds instead of in one whole phase.
    const std::size_t cycles = std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kCycleSeconds));
    const double cycle_s = seconds / static_cast<double>(cycles);
    for (std::size_t c = 0; c < cycles; ++c) {
      nominal_block(cycle_s * kNominalShare);
      peak_block(cycle_s * (1.0 - kNominalShare));
      // Sample the host's speed with the server idle.
      drain();
      reference_ms_.push_back(reference_ms());
    }
    if (cursor_ >= log_.ops.size()) result_.fail("op log exhausted before the last peak block ended");

    // Audit: every acked rid replays as a deduplicated admit of its
    // original id.
    phase_ = Phase::kAudit;
    std::size_t audit_cursor = 0;
    std::size_t acked = 0;
    for (std::size_t i = 0; i < ids_.size(); ++i) acked += state_[i] != kNone ? 1 : 0;
    for (;;) {
      while (audit_cursor < ids_.size() && outstanding_ < 32) {
        if (state_[audit_cursor] != kNone) {
          const Arrival& a = log_.arrivals[audit_cursor];
          send(connection_of(a.tenant), net::Op::kAdmit,
               net::encode_admit_request({a.tenant, a.rid, a.task, 0}),
               {Req::kAudit, phase_, static_cast<std::uint32_t>(audit_cursor), 1, now_ns()});
        }
        ++audit_cursor;
      }
      // Nothing in flight means every acked rid has been replayed (the
      // arrivals left over were never sent).
      if (outstanding_ == 0) break;
      flush_all();
      if (!poll_once(now_ns() + 30'000'000'000)) {
        result_.fail("audit stalled");
        break;
      }
    }
    send(connections_[0], net::Op::kStats, {}, {Req::kStats, phase_, 0, 0, now_ns()});
    flush_all();
    while (outstanding_ > 0) {
      if (!poll_once(now_ns() + 30'000'000'000)) {
        result_.fail("stats round trip stalled");
        break;
      }
    }

    // --- Results ---------------------------------------------------------
    for (const Parked& park : parked_) {
      if (park.due >= 0) {
        ++result_.failed;
        ++result_.statuses["undecided"];
      }
    }
    std::size_t live = 0;
    for (std::size_t i = 0; i < ids_.size(); ++i) live += state_[i] == kAcked ? 1 : 0;
    if (server_committed_ != live) {
      result_.fail("server holds " + std::to_string(server_committed_) + " live task(s), mirror " +
                   std::to_string(live));
    }
    if (audit_lost_ > 0 || audit_recommitted_ > 0) {
      result_.fail("dedup audit: " + std::to_string(audit_lost_) + " lost, " +
                   std::to_string(audit_recommitted_) + " re-committed");
    }
    result_.info["audit_acked_rids"] = static_cast<double>(acked);
    result_.info["audit_lost"] = static_cast<double>(audit_lost_);
    result_.info["audit_recommitted"] = static_cast<double>(audit_recommitted_);
    result_.info["live_tasks_end"] = static_cast<double>(live);
    result_.info["completions_acked"] = static_cast<double>(acked - live);
    // Every op must succeed: the server runs without --fmax or brownout, so
    // each task is feasible and any other final status is a defect.
    if (result_.failed > 0) {
      result_.fail(std::to_string(result_.failed) + " op(s) ended without kOk (see the status counts)");
    }

    // Latency quantiles pool every nominal-phase sample of the run.
    result_.metric("admit_p50_ms", quantile(admit_ms_, 0.50), "ms");
    result_.metric("admit_p99_ms", quantile(admit_ms_, 0.99), "ms");
    if (!quote_ms_.empty()) {
      result_.metric("quote_p50_ms", quantile(quote_ms_, 0.50), "ms");
      result_.metric("quote_p99_ms", quantile(quote_ms_, 0.99), "ms");
    }
    result_.metric("complete_p50_ms", quantile(complete_ms_, 0.50), "ms");
    result_.metric("complete_p99_ms", quantile(complete_ms_, 0.99), "ms");
    result_.metric("peak_admits_per_s", static_cast<double>(peak_admits_) / peak_seconds_, "1/s");
    result_.info["nominal_admit_samples"] = static_cast<double>(admit_ms_.size());
    result_.info["nominal_quote_samples"] = static_cast<double>(quote_ms_.size());
    result_.info["nominal_complete_samples"] = static_cast<double>(complete_ms_.size());
    result_.info["nominal_offered_admits_per_s"] = spec_.nominal_rate;
    result_.info["nominal_acked_admits_per_s"] = static_cast<double>(nominal_admits_acked_) / nominal_seconds_;
    const double sent_ratio = offered_ == 0 ? 1.0
                                            : static_cast<double>(offered_ - unsent_) /
                                                  static_cast<double>(offered_);
    result_.info["nominal_achieved_over_offered"] = sent_ratio;
    const double lag_p99_ms = quantile(send_lag_ns_, 0.99) / kNsPerMs;
    result_.info["send_lag_p99_ms"] = lag_p99_ms;
    // Open-loop validity: the generator, not the server, must keep the
    // schedule. A late sender thins the offered load and flatters latency.
    if (sent_ratio < 0.99 || lag_p99_ms > kMaxSendLagMs) {
      result_.valid = false;
      result_.errors.push_back("generator fell behind its schedule (send lag p99 " +
                               std::to_string(lag_p99_ms) + " ms, sent/offered " +
                               std::to_string(sent_ratio) + ")");
    }
  }

 private:
  using Samples = std::vector<double>;
  static constexpr std::uint64_t kTimerKey = 1000;
  static constexpr double kMaxSendLagMs = 20.0;
  /// One nominal block plus one peak block.
  static constexpr double kCycleSeconds = 5.0;
  static constexpr double kNominalShare = 0.7;

  /// Open loop from each op's due time; latency is measured from it.
  void nominal_block(double seconds) {
    phase_ = Phase::kNominal;
    const std::int64_t start = now_ns() + 1'000'000;
    nominal_end_ = start + static_cast<std::int64_t>(seconds * 1e9);
    nominal_seconds_ += seconds;
    const double model_origin = cursor_ < log_.ops.size() ? log_.ops[cursor_].at : 0.0;
    const double ns_per_model = spec_.lambda / spec_.nominal_rate * 1e9;
    auto due_of = [&](std::size_t op) {
      return start + static_cast<std::int64_t>((log_.ops[op].at - model_origin) * ns_per_model);
    };
    while (true) {
      const std::int64_t now = now_ns();
      if (now >= nominal_end_) break;
      while (cursor_ < log_.ops.size() && due_of(cursor_) <= now) {
        const std::int64_t due = due_of(cursor_);
        const std::int64_t lag = now_ns() - due;
        if (send_op(log_.ops[cursor_], due)) send_lag_ns_.push_back(static_cast<double>(lag));
        ++offered_;
        ++cursor_;
      }
      flush_all();
      std::int64_t wake = nominal_end_;
      if (cursor_ < log_.ops.size()) wake = std::min(wake, due_of(cursor_));
      poll_once(wake);
    }
    // Ops that fell due before the block ended but were never sent show
    // the generator fell behind.
    for (std::size_t op = cursor_; op < log_.ops.size() && due_of(op) < nominal_end_; ++op) {
      ++unsent_;
      ++offered_;
    }
  }

  /// Window-bounded saturation: the log continues as fast as the in-flight
  /// window allows; acked admissions per second.
  void peak_block(double seconds) {
    phase_ = Phase::kPeak;
    const std::int64_t start = now_ns();
    peak_end_ = start + static_cast<std::int64_t>(seconds * 1e9);
    windowed([&] { return cursor_ < log_.ops.size(); }, peak_end_);
    peak_seconds_ += static_cast<double>(peak_end_ - start) / 1e9;
  }
  enum : std::uint8_t { kNone, kAcked, kCompleted };

  Connection& connection_of(const std::string& tenant) {
    // Tenant names end in their Zipf rank; a tenant keeps one connection.
    const std::size_t dash = tenant.rfind('-');
    const auto rank = static_cast<std::size_t>(std::stoul(tenant.substr(dash + 1)));
    return connections_[rank % kConnections];
  }

  /// Send window-bounded ops while `more()` holds and the clock is before
  /// `end`; a completion whose admit is not yet acked stalls the cursor.
  template <typename More>
  void windowed(More more, std::int64_t end) {
    while (now_ns() < end) {
      bool stalled = false;
      while (outstanding_ < spec_.peak_window && more()) {
        const LogOp& op = log_.ops[cursor_];
        if (op.kind == OpKind::kComplete && state_[op.first] != kAcked) {
          stalled = true;
          break;
        }
        send_op(op, now_ns());
        ++cursor_;
      }
      flush_all();
      if (!more() && outstanding_ == 0) return;
      if (outstanding_ == 0 && stalled) {
        result_.fail("completion of an unacked task with nothing in flight");
        return;
      }
      poll_once(end);
    }
  }

  void drain() {
    flush_all();
    const std::int64_t deadline = now_ns() + 60'000'000'000;
    while (outstanding_ > 0) {
      if (!poll_once(deadline)) {
        result_.fail("requests still unanswered 60 s after the phase ended");
        return;
      }
    }
  }

  /// Send one log op due at `due`. Returns false when the op was parked
  /// (a completion waiting for its admit's ack).
  bool send_op(const LogOp& op, std::int64_t due) {
    switch (op.kind) {
      case OpKind::kArrive: {
        const Arrival& a = log_.arrivals[op.first];
        if (spec_.bursty) {
          net::AdmitBatchRequest batch;
          for (std::uint32_t j = 0; j < op.count; ++j) {
            const Arrival& item = log_.arrivals[op.first + j];
            batch.items.push_back({item.tenant, item.rid, item.task});
          }
          send(connection_of(a.tenant), net::Op::kAdmitBatch,
               net::encode_admit_batch_request(batch),
               {Req::kAdmitBatch, phase_, op.first, op.count, due});
        } else if (spec_.quote_then_admit) {
          send(connection_of(a.tenant), net::Op::kQuote, net::encode_quote_request({a.tenant, a.task}),
               {Req::kQuoteThenAdmit, phase_, op.first, 1, due});
          ++result_.attempted;
        } else {
          send(connection_of(a.tenant), net::Op::kAdmit,
               net::encode_admit_request({a.tenant, a.rid, a.task, 0}),
               {Req::kAdmit, phase_, op.first, 1, due});
        }
        result_.attempted += op.count;
        return true;
      }
      case OpKind::kComplete:
        ++result_.attempted;
        if (state_[op.first] != kAcked) {
          parked_[op.first] = {due, phase_};
          return false;
        }
        send_complete(op.first, {Req::kComplete, phase_, op.first, 1, due});
        return true;
    }
    return false;
  }

  void send_complete(std::uint32_t arrival, const Pending& pending) {
    const Arrival& a = log_.arrivals[arrival];
    send(connection_of(a.tenant), net::Op::kComplete,
         net::encode_task_op_request({a.tenant, ids_[arrival]}), pending);
  }

  void send(Connection& c, net::Op op, const std::string& payload, Pending pending) {
    const std::uint64_t correlation = c.next_correlation++;
    c.out += net::encode_frame(op, /*response=*/false, correlation, payload);
    c.pending.emplace(correlation, pending);
    ++outstanding_;
  }

  void flush_all() {
    for (std::size_t k = 0; k < kConnections; ++k) flush(k);
  }

  void flush(std::size_t k) {
    Connection& c = connections_[k];
    while (c.out_offset < c.out.size()) {
      const ssize_t n = ::write(c.fd, c.out.data() + c.out_offset, c.out.size() - c.out_offset);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error(std::string("write: ") + std::strerror(errno));
      }
      c.out_offset += static_cast<std::size_t>(n);
    }
    if (c.out_offset == c.out.size()) {
      c.out.clear();
      c.out_offset = 0;
    }
    const bool want = !c.out.empty();
    if (want != c.want_write) {
      epoll_event event{};
      event.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      event.data.u64 = k;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &event);
      c.want_write = want;
    }
  }

  /// Wait for socket events or `wake`, then handle what arrived. Returns
  /// false when `wake` passed with nothing to do.
  bool poll_once(std::int64_t wake) {
    itimerspec spec{};
    const std::int64_t at = std::max<std::int64_t>(wake, 1);
    spec.it_value.tv_sec = at / 1'000'000'000;
    spec.it_value.tv_nsec = at % 1'000'000'000;
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
    epoll_event events[8];
    int n = 0;
    do {
      n = ::epoll_wait(epoll_fd_, events, 8, -1);
    } while (n < 0 && errno == EINTR);
    bool progressed = false;
    for (int e = 0; e < n; ++e) {
      const std::uint64_t key = events[e].data.u64;
      if (key == kTimerKey) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t r = ::read(timer_fd_, &expirations, sizeof expirations);
        continue;
      }
      progressed = true;
      if (events[e].events & EPOLLOUT) flush(key);
      if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) read_connection(key);
    }
    return progressed || now_ns() < wake;
  }

  void read_connection(std::size_t k) {
    Connection& c = connections_[k];
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("server closed the connection");
      if (!c.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)))) {
        throw std::runtime_error("protocol error: " + c.decoder.error());
      }
    }
    std::vector<net::Frame> frames = std::move(c.decoder.frames());
    c.decoder.frames().clear();
    const std::int64_t now = now_ns();
    for (const net::Frame& frame : frames) {
      const auto it = c.pending.find(frame.correlation);
      if (it == c.pending.end()) throw std::runtime_error("response with unknown correlation id");
      const Pending pending = it->second;
      c.pending.erase(it);
      --outstanding_;
      handle(pending, frame, now);
    }
    flush(k);
  }

  void count(net::Status status, std::uint64_t n = 1) {
    result_.statuses[std::string(net::status_name(status))] += n;
    if (status != net::Status::kOk) result_.failed += n;
  }

  double latency_ms(const Pending& p, std::int64_t now) const {
    return static_cast<double>(now - p.due) / kNsPerMs;
  }

  void on_admit(const Pending& p, std::uint32_t arrival, const net::AdmitResponse& r,
                std::int64_t now) {
    const bool ok = r.status == net::Status::kOk && r.admitted && !r.deduplicated;
    if (ok) {
      ids_[arrival] = r.id;
      state_[arrival] = kAcked;
      if (p.phase == Phase::kPeak && now <= peak_end_) ++peak_admits_;
      if (p.phase == Phase::kNominal && now <= nominal_end_) ++nominal_admits_acked_;
      if (const Parked park = parked_[arrival]; park.due >= 0) {
        send_complete(arrival, {Req::kComplete, park.phase, arrival, 1, park.due});
        parked_[arrival].due = -1;
      }
    } else if (r.status == net::Status::kOk) {
      result_.fail("admit of " + log_.arrivals[arrival].rid + " not committed");
    }
    if (p.phase == Phase::kNominal) admit_ms_.push_back(ok ? latency_ms(p, now) : kInfLatency);
  }

  void handle(const Pending& p, const net::Frame& frame, std::int64_t now) {
    switch (p.req) {
      case Req::kAdmit: {
        net::AdmitResponse r;
        if (!net::decode_admit_response(frame.payload, r)) r.status = net::Status::kBadRequest;
        count(r.status);
        on_admit(p, p.first, r, now);
        break;
      }
      case Req::kAdmitBatch: {
        net::AdmitBatchResponse r;
        if (!net::decode_admit_batch_response(frame.payload, r) || r.items.size() != p.count) {
          count(net::Status::kBadRequest, p.count);
          if (p.phase == Phase::kNominal) admit_ms_.insert(admit_ms_.end(), p.count, kInfLatency);
          break;
        }
        for (std::uint32_t j = 0; j < p.count; ++j) {
          count(r.items[j].status);
          on_admit(p, p.first + j, r.items[j], now);
        }
        break;
      }
      case Req::kQuoteThenAdmit: {
        net::QuoteResponse r;
        if (!net::decode_quote_response(frame.payload, r)) r.status = net::Status::kBadRequest;
        count(r.status);
        if (p.phase == Phase::kNominal) {
          quote_ms_.push_back(r.status == net::Status::kOk ? latency_ms(p, now) : kInfLatency);
        }
        // The client admits what it was quoted. The admit keeps the
        // arrival's due time, so its latency includes the quote before it.
        const Arrival& a = log_.arrivals[p.first];
        send(connection_of(a.tenant), net::Op::kAdmit, net::encode_admit_request({a.tenant, a.rid, a.task, 0}),
             {Req::kAdmit, p.phase, p.first, 1, p.due});
        break;
      }
      case Req::kComplete: {
        net::StatusResponse r;
        if (!net::decode_status_response(frame.payload, r)) r.status = net::Status::kBadRequest;
        count(r.status);
        if (r.status == net::Status::kOk) state_[p.first] = kCompleted;
        if (p.phase == Phase::kNominal) {
          complete_ms_.push_back(r.status == net::Status::kOk ? latency_ms(p, now) : kInfLatency);
        }
        break;
      }
      case Req::kAudit: {
        net::AdmitResponse r;
        if (!net::decode_admit_response(frame.payload, r)) r.status = net::Status::kBadRequest;
        if (r.status != net::Status::kOk || r.id != ids_[p.first]) {
          ++audit_lost_;
        } else if (!r.deduplicated) {
          ++audit_recommitted_;
        }
        break;
      }
      case Req::kStats: {
        net::StatsResponse r;
        if (!net::decode_stats_response(frame.payload, r) || r.status != net::Status::kOk) {
          result_.fail("stats round trip failed");
        }
        server_committed_ = r.committed_total;
        break;
      }
    }
  }

  const WorkloadSpec& spec_;
  const OpLog& log_;
  RunResult& result_;
  Connection connections_[kConnections];
  int epoll_fd_ = -1;
  int timer_fd_ = -1;

  Phase phase_ = Phase::kWarm;
  std::size_t cursor_ = 0;
  std::size_t outstanding_ = 0;
  std::vector<std::int64_t> ids_;
  std::vector<std::uint8_t> state_;
  /// A completion that fell due before its admit was acked (due < 0: none).
  struct Parked {
    std::int64_t due = -1;
    Phase phase = Phase::kWarm;
  };
  std::vector<Parked> parked_;

  std::int64_t nominal_end_ = 0;
  double nominal_seconds_ = 0.0;
  std::int64_t peak_end_ = 0;
  double peak_seconds_ = 0.0;
  Samples admit_ms_;  ///< nominal-phase latency samples
  Samples quote_ms_;
  Samples complete_ms_;
  std::vector<double> send_lag_ns_;
  std::vector<double> reference_ms_;
  std::size_t offered_ = 0;
  std::size_t unsent_ = 0;
  std::uint64_t nominal_admits_acked_ = 0;
  std::uint64_t peak_admits_ = 0;
  std::uint64_t audit_lost_ = 0;
  std::uint64_t audit_recommitted_ = 0;
  std::uint64_t server_committed_ = 0;
};

}  // namespace

RunResult run_drive(const RunConfig& config) {
  RunResult result;
  const WorkloadSpec& spec = *config.spec;
  // The op log exists before any server does; the server only ever sees it.
  const OpLog log = generate_log(spec, config.seed, arrivals_for(spec, config.seconds));

  // Thread + connection budget: this thread plus the generator's sockets
  // (the set-up probe's blocking client is closed before the run).
  const std::size_t budget = std::max(1u, std::thread::hardware_concurrency());
  result.info["generator_threads_plus_connections"] = 1.0 + Generator::kConnections;
  if (1 + Generator::kConnections > budget) {
    result.fail("generator needs more threads + connections than nproc");
    return result;
  }

  std::vector<double> reference = {reference_ms()};
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (std::size_t k = 0; k < kSetups; ++k) {
    if (server) {
      const int code = server->stop();
      if (code != 0) result.fail("set-up server exited " + std::to_string(code));
    }
    setups.push_back(timed_setup(config.server,
                                 config.work_dir + "/data" + std::to_string(k), server));
  }
  result.metric("setup_s", quantile(setups, 0.5), "s");

  Generator generator(spec, log, server->port(), result);
  generator.run(config.seconds);
  reference.insert(reference.end(), generator.reference_samples().begin(),
                   generator.reference_samples().end());
  // Scale to the reference host's speed: times are divided, and rates
  // multiplied, by how much slower this run's reference work was. The
  // measured values stay in the output as raw.<name>.
  const double host_ms = quantile(reference, 0.5);
  result.info["reference_ms"] = host_ms;
  const double slowdown = host_ms / kReferenceMs;
  std::map<std::string, std::pair<double, std::string>> scaled;
  for (const auto& [name, metric] : result.metrics) {
    const auto& [value, unit] = metric;
    scaled["raw." + name] = metric;
    if (unit == "ms" || unit == "s") {
      scaled[name] = {value / slowdown, unit};
    } else if (unit == "1/s") {
      scaled[name] = {value * slowdown, unit};
    } else {
      scaled[name] = metric;
    }
  }
  result.metrics = std::move(scaled);
  result.metric("server_peak_rss_mb", server->peak_rss_mb(), "MiB");
  result.info["server_cpu_us_per_op"] =
      server->cpu_seconds() * 1e6 / static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
  const int code = server->stop();
  // The server's own exit audit re-checks every rid it acked against the
  // live committed set, so a task completed after its ack reads as "lost"
  // there and the server exits 3. The dedup replay above is the real
  // no-lost-acks proof; the server's verdict is accepted only when its lost
  // count is exactly the completions this run acknowledged.
  const std::string& out = server->output();
  const std::size_t audit = out.find("audit: ");
  long long server_lost = -1;
  if (audit != std::string::npos) {
    const std::string line = out.substr(audit, out.find('\n', audit) - audit);
    std::cout << "server " << line << "\n";
    const std::size_t comma = line.find(", ");
    if (comma != std::string::npos) server_lost = std::stoll(line.substr(comma + 2));
  }
  const auto completed = static_cast<long long>(result.info["completions_acked"]);
  const bool clean = (code == 0 && server_lost == 0) || (code == 3 && server_lost == completed);
  if (!clean) {
    result.fail("server exited " + std::to_string(code) + " reporting " +
                std::to_string(server_lost) + " lost ack(s) with " + std::to_string(completed) +
                " completion(s) acked");
  }
  return result;
}

}  // namespace e2e
