// perfbench: the repository's benchmark command. One invocation runs one
// workload from a seed and prints provenance, every metric by name with
// its unit, and as its last line a JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 measures the end-to-end metrics over untraced rounds.
// --trace 1 runs untraced and then traced rounds from the same seed and
// reports the per-layer metrics of the traced ones. Exits 1 when the
// output check rejects anything, 2 on bad arguments, 3 when a run fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "clock.hpp"
#include "core/timing.hpp"
#include "driver.hpp"
#include "host.hpp"

using namespace perfbench;

namespace {

// Rounds per traced and untraced window of a --trace 1 run.
constexpr int kTraceRounds = 3;

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--records <csv>] [--commit <id>] "
               "[--source-hash <hash>]\nworkloads:",
               msg);
  for (const WorkloadSpec& w : workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  *out = std::stoull(s);
  return true;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_records(const std::string& path, const WindowResult& r) {
  std::ofstream out(path);
  out << "worker,kind,start_us,dur_us,free_us,alloc_us,frees,allocs\n";
  const auto us = [](std::uint64_t t) {
    return ticks_to_ns(static_cast<double>(t)) * 1e-3;
  };
  for (const OpRecord& rec : r.records) {
    out << static_cast<int>(rec.worker) << ',' << kind_name(rec.kind) << ','
        << us(rec.start_ticks) << ',' << us(rec.dur_ticks) << ','
        << us(rec.free_ticks) << ',' << us(rec.alloc_ticks) << ','
        << rec.frees << ',' << rec.allocs << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, records, commit, source_hash;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, &seed)) return usage("--seed takes a whole number");
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, &seconds) || seconds < 1 || seconds > 600) {
        return usage("--seconds takes a whole number from 1 to 600");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      trace = v == "1" ? 1 : 0;
    } else if (a == "--records") {
      records = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--source-hash") {
      source_hash = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!have_seed || seconds == 0 || trace > 1) {
    return usage("--seed, --seconds and --trace are required");
  }

  try {
    // The library's clock drives the allocator model's remote-penalty
    // spin; the benchmark's own clock times everything it reports.
    emr::timing::calibrate_clock();
    ns_per_tick();

    RunOptions opts;
    opts.seed = seed;
    opts.seconds = static_cast<double>(seconds);
    // Set-up time is the median of the stacks built in this run: one per
    // round, and for a cheap set-up as many as fit in 1 s.
    opts.setup_seconds = trace == 0 ? 1.0 : 0.0;
    std::printf("host %s\n", host_json(commit, source_hash).c_str());
    std::printf("config %s\n", config_json(*spec, opts, trace == 1,
                                  trace == 0 ? spec->rounds : kTraceRounds)
                          .c_str());
    std::fflush(stdout);

    std::vector<Metric> metrics;
    std::uint64_t attempted = 0, failed = 0;
    if (trace == 0) {
      const WindowResult untraced =
          run_rounds(*spec, opts, false, spec->rounds);
      attempted = untraced.completed;
      failed = untraced.failed;
      metrics = end_to_end_metrics(untraced);
    } else {
      // Half the time untraced, half traced, each over fewer rounds.
      opts.seconds /= 2;
      const WindowResult untraced =
          run_rounds(*spec, opts, false, kTraceRounds);
      const WindowResult traced = run_rounds(*spec, opts, true, kTraceRounds);
      attempted = untraced.completed + traced.completed;
      failed = untraced.failed + traced.failed;
      metrics = per_layer_metrics(traced, throughput_mops(untraced));
      for (Metric& m : per_kind_metrics(traced)) {
        metrics.push_back(std::move(m));
      }
      if (!records.empty()) write_records(records, traced);
    }

    for (const Metric& m : metrics) {
      std::printf("metric %-30s %16.6f %-7s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted > 0 ? attempted : 1);
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i != 0) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " +
              json_number(metrics[i].value) + ", \"unit\": \"" +
              metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
