#include "host.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#include "clock.hpp"
#include "core/timing.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// "L1d 48K, L1i 32K, L2 2048K, L3 107520K" from cpu0's cache indices.
std::string caches() {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = first_line(dir + "level");
    if (level.empty()) break;
    const std::string type = first_line(dir + "type");
    std::string tag = "L" + level;
    if (type == "Data") tag += "d";
    if (type == "Instruction") tag += "i";
    if (!out.empty()) out += ", ";
    out += tag + " " + first_line(dir + "size");
  }
  return out.empty() ? "unknown" : out;
}

}  // namespace

std::string host_json(const std::string& commit,
                      const std::string& source_hash) {
  std::ostringstream o;
  o << "{\"cpu\": " << quote(cpu_model())
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"allowed_cpus\": " << allowed_cpus().size()
    << ", \"caches\": " << quote(caches()) << ", \"clocksource\": "
    << quote(first_line(
           "/sys/devices/system/clocksource/clocksource0/current_clocksource"))
    << ", \"bench_clock\": " << quote(clock_name())
    << ", \"ns_per_tick\": " << ns_per_tick()
    << ", \"library_clock\": " << quote(emr::timing::clock_name())
    << ", \"library_pause_per_ns\": " << emr::timing::pause_rate()
    << ", \"compiler\": " << quote(kCompiler)
    << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
    << ", \"commit\": " << quote(commit.empty() ? "unknown" : commit)
    << ", \"source_hash\": "
    << quote(source_hash.empty() ? "unknown" : source_hash) << "}";
  return o.str();
}

std::string config_json(const WorkloadSpec& spec, const RunOptions& opts,
                        bool trace, int rounds) {
  const std::vector<int>& cpus = allowed_cpus();
  std::ostringstream pins;
  pins << "[" << cpus.front();
  for (int w = 0; w < spec.workers; ++w) {
    pins << ", " << worker_cpu(spec, w);
  }
  pins << "]";
  std::ostringstream o;
  o << "{\"workload\": " << quote(spec.name) << ", \"ds\": " << quote(spec.ds)
    << ", \"reclaimer\": " << quote(spec.reclaimer)
    << ", \"allocator\": " << quote(spec.allocator)
    << ", \"workers\": " << spec.workers << ", \"keyrange\": " << spec.keyrange
    << ", \"insert_pct\": " << spec.insert_pct
    << ", \"erase_pct\": " << spec.erase_pct << ", \"batch\": " << spec.batch
    << ", \"remote_penalty_ns\": " << spec.remote_penalty_ns
    << ", \"penalty_calibrated\": false"
    << ", \"queue_capacity\": " << spec.queue_capacity
    << ", \"seed\": " << opts.seed << ", \"seconds\": " << opts.seconds
    << ", \"warmup_seconds\": " << spec.warmup_seconds
    << ", \"rounds\": " << rounds
    << ", \"min_setup_seconds\": " << opts.setup_seconds
    << ", \"trace\": " << (trace ? 1 : 0)
    << ", \"pin_main_then_workers\": " << pins.str() << "}";
  return o.str();
}

}  // namespace perfbench
