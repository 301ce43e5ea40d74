// e2e_bench -- the repository benchmark's load generator and layer replay.
//
//   e2e_bench --mode drive --workload stream-dense --seed 1 --seconds 50
//             --server <easched_cli> --work-dir <dir>
//   e2e_bench --mode replay --workload quote-admit --seed 1 --seconds 50
//             --work-dir <dir> --trace-out <trace.json>
//
// `drive` measures what a client of `easched_cli serve --listen` sees;
// `replay` re-runs the same op log in process and times each layer's public
// calls. Both print human-readable lines and, last, one JSON object with the
// run's metrics (run.py turns it into the benchmark's result line).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "easched/common/cli.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

void print_result(const e2e::RunResult& r) {
  for (const auto& [status, n] : r.statuses) std::cout << "status " << status << ": " << n << "\n";
  for (const auto& [name, value] : r.info) std::cout << "info " << name << ": " << value << "\n";
  for (const auto& [name, metric] : r.metrics) {
    std::cout << "metric " << name << ": " << metric.first << " " << metric.second << "\n";
  }
  for (const std::string& e : r.errors) std::cout << "error: " << e << "\n";
  std::ostringstream json;
  json << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"valid\": " << (r.valid ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : r.metrics) {
    json << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << json_number(metric.first)
         << ", \"unit\": " << json_string(metric.second) << "}";
    first = false;
  }
  json << "}, \"info\": {";
  first = true;
  for (const auto& [name, value] : r.info) {
    json << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  json << "}, \"statuses\": {";
  first = true;
  for (const auto& [name, n] : r.statuses) {
    json << (first ? "" : ", ") << json_string(name) << ": " << n;
    first = false;
  }
  json << "}, \"errors\": [";
  first = true;
  for (const std::string& e : r.errors) {
    json << (first ? "" : ", ") << json_string(e);
    first = false;
  }
  json << "]}";
  std::cout << json.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  easched::CliParser args("e2e_bench", "end-to-end and per-layer benchmark of the admission service");
  args.add_option("mode", "drive", "drive (untraced, over loopback) | replay (traced, in process)");
  args.add_option("workload", "stream-dense", "stream-dense | quote-admit | burst-batch");
  args.add_option("seed", "1", "workload seed (the op log is a function of it)");
  args.add_option("seconds", "50", "measured seconds (alternating nominal and peak blocks)");
  args.add_option("server", "", "drive: path of the easched_cli binary");
  args.add_option("work-dir", "", "scratch directory for data dirs and journals");
  args.add_option("trace-out", "", "replay: Chrome trace JSON output path");
  if (!args.parse(argc, argv) || args.help_requested()) {
    std::cerr << (args.help_requested() ? args.help() : args.error() + "\n");
    return args.help_requested() ? 0 : 1;
  }
  e2e::RunConfig config;
  config.spec = e2e::find_workload(args.get("workload"));
  if (config.spec == nullptr) {
    std::cerr << "unknown --workload " << args.get("workload") << "\n";
    return 1;
  }
  config.seed = static_cast<std::uint64_t>(std::stoull(args.get("seed")));
  config.seconds = args.get_double("seconds");
  config.server = args.get("server");
  config.work_dir = args.get("work-dir");
  config.trace_out = args.get("trace-out");
  if (config.work_dir.empty() || config.seconds <= 0.0) {
    std::cerr << "need --work-dir and --seconds > 0\n";
    return 1;
  }
  std::filesystem::create_directories(config.work_dir);
  const std::string mode = args.get("mode");
  try {
    e2e::RunResult result;
    if (mode == "drive") {
      if (config.server.empty()) {
        std::cerr << "drive needs --server\n";
        return 1;
      }
      result = e2e::run_drive(config);
    } else if (mode == "replay") {
      result = e2e::run_replay(config);
    } else {
      std::cerr << "unknown --mode " << mode << "\n";
      return 1;
    }
    print_result(result);
    return result.correct ? 0 : 3;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
