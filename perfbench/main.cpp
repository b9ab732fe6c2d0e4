// Benchmark driver: runs one workload and prints its metrics, a table for
// people and, as the last line of standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) the per-layer ones. perfbench/README.md explains both.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json; run.py rejects output that is not.
constexpr MetricDef kEndToEnd[] = {
    {"cell_ticks_per_s", "cell-ticks/s"}, {"batch_p50_us", "us"},
    {"batch_p99_us", "us"},               {"goodput_mbps", "Mbit/s"},
    {"delay_p95_ms", "ms"},               {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"pbe.monitor_ms", "ms"},
    {"pbe.monitor_us_per_cell_tick", "us/tick"},
    {"pbe.estimator_ms", "ms"},
    {"sim.step_ms", "ms"},
    {"sim.other_ms", "ms"},
    {"sim.step_p50_us", "us"},
    {"sim.step_p99_us", "us"},
    {"sim.us_per_event", "us/event"},
    {"phy.noise_ms", "ms"},
    {"decoder.blind_ms.lte", "ms"},
    {"decoder.blind_ms.nr", "ms"},
    {"decoder.blind_us_per_tick.lte", "us/tick"},
    {"decoder.blind_us_per_tick.nr", "us/tick"},
    {"decoder.fusion_ms", "ms"},
    {"decoder.tracker_ms", "ms"},
    {"cap.read_ms", "ms"},
    {"cap.step_batch_ms", "ms"},
    {"cap.step_probe_ms", "ms"},
    {"cap.step_window_ms", "ms"},
    {"shard.speedup", "ratio"},
    {"shard.cpu_per_wall", "ratio"},
    {"decoder.candidates", "count"},
    {"decoder.candidates.lte", "count"},
    {"decoder.candidates.nr", "count"},
    {"decoder.yield", "ratio"},
    {"decoder.memo_hit_ratio", "ratio"},
    {"decoder.early_abort_ratio", "ratio"},
    {"decoder.lane_batches", "count"},
    {"net.events_dispatched", "count"},
    {"net.packets_sent", "count"},
    {"mac.tbs_sent", "count"},
    {"mac.harq_retx", "count"},
    {"mac.prbs_aggregate", "count"},
    {"unattributed_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"host.calibration_ms", "ms"},
};

constexpr const char* kWorkloads[] = {"endpoint", "replay_nr", "city"};

constexpr const char* kUsage =
    "usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]\n"
    "                 [--spans PATH] [--work-dir DIR]\n"
    "  --workload  endpoint | replay_nr | city\n"
    "  --seed      workload seed, 0 .. 18446744073709551615 (default 1)\n"
    "  --seconds   measured wall time, 1 .. 120 (default 20)\n"
    "  --trace     0 = end-to-end metrics, 1 = per-layer metrics (default 0)\n"
    "  --spans     traced runs write their last traced round's spans here\n"
    "  --work-dir  directory for scratch files (default .)\n";

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n%s", msg.c_str(), kUsage);
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const char* text,
                         std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec == std::errc::result_out_of_range) {
    usage_error(flag + " " + text + " is out of range " + std::to_string(lo) +
                " .. " + std::to_string(hi));
  }
  if (ec != std::errc() || ptr != end || ptr == text) {
    usage_error(flag + " expects a whole number, got '" + text + "'");
  }
  if (v < lo || v > hi) {
    usage_error(flag + " " + text + " is out of range " + std::to_string(lo) +
                " .. " + std::to_string(hi));
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  std::set<std::string> seen;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    }
    const bool known = flag == "--workload" || flag == "--seed" ||
                       flag == "--seconds" || flag == "--trace" ||
                       flag == "--spans" || flag == "--work-dir";
    if (!known) usage_error("unknown argument '" + flag + "'");
    if (!seen.insert(flag).second) usage_error(flag + " given twice");
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
      bool valid = false;
      for (const char* w : kWorkloads) valid = valid || opt.workload == w;
      if (!valid) {
        usage_error("unknown workload '" + opt.workload +
                    "' (valid: endpoint, replay_nr, city)");
      }
    } else if (flag == "--seed") {
      opt.seed = parse_uint(flag, value, 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<int>(parse_uint(flag, value, 1, kMaxSeconds));
    } else if (flag == "--trace") {
      opt.trace = parse_uint(flag, value, 0, 1) == 1;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      opt.work_dir = value;
    }
  }
  if (opt.workload.empty()) usage_error("--workload is required");
  return opt;
}

int emit(const Options& opt, Report& r) {
  r.set("peak_rss_mb", peak_rss_mib());
  std::string json;
  std::printf("%-32s %16s %-14s %s\n", "metric", "value", "unit", "samples");
  for (const MetricDef& m : opt.trace ? std::span<const MetricDef>(kPerLayer)
                                      : std::span<const MetricDef>(kEndToEnd)) {
    const auto it = r.metrics.find(m.name);
    Metric v;
    if (it != r.metrics.end()) {
      v = it->second;
    } else if (!opt.trace) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   opt.workload.c_str(), m.name);
      return 1;
    }
    if (!std::isfinite(v.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name);
      return 1;
    }
    std::printf("%-32s %16.6g %-14s %zu\n", m.name, v.value, m.unit, v.samples);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, v.value, m.unit);
    json += buf;
  }
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  Report r;
  try {
    if (opt.workload == "endpoint") {
      r = run_endpoint(opt);
    } else if (opt.workload == "replay_nr") {
      r = run_replay_nr(opt);
    } else {
      r = run_city(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  return emit(opt, r);
}
