// Benchmark program: runs one part of a workload and prints one JSON object
// (metrics, checks, run notes and provenance) on the last line of stdout.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --part <setup|run> [--socket-dir <dir>]
//
// The set-up part repeats the workload's set-up and reports setup_s and the
// reference check; the measured part reports the other metrics.  They run
// as separate processes so set-up repetitions never reach the measured
// part's peak resident set.
//
// Exit codes: 0 run completed and every check passed; 1 a check failed
// (the JSON still says which); 2 bad arguments, a non-Release build or an
// error that stopped the run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "provenance.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string to_json(const perfbench::RunReport& r, std::uint64_t seed,
                    bool trace) {
  std::ostringstream o;
  o << "{\"workload\": " << json_string(r.workload) << ", \"seed\": " << seed
    << ", \"trace\": " << (trace ? 1 : 0)
    << ", \"correct\": " << (r.correct() ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    o << (i ? ", " : "") << json_string(r.metrics[i].name)
      << ": {\"value\": " << json_number(r.metrics[i].value)
      << ", \"unit\": " << json_string(r.metrics[i].unit) << "}";
  o << "}, \"checks_passed\": [";
  for (std::size_t i = 0; i < r.checks_passed.size(); ++i)
    o << (i ? ", " : "") << json_string(r.checks_passed[i]);
  o << "], \"checks_failed\": [";
  for (std::size_t i = 0; i < r.checks_failed.size(); ++i)
    o << (i ? ", " : "") << json_string(r.checks_failed[i]);
  o << "], \"notes\": {";
  for (std::size_t i = 0; i < r.notes.size(); ++i)
    o << (i ? ", " : "") << json_string(r.notes[i].first) << ": "
      << json_string(r.notes[i].second);
  o << "}, \"provenance\": {";
  const auto prov = perfbench::provenance();
  for (std::size_t i = 0; i < prov.size(); ++i)
    o << (i ? ", " : "") << json_string(prov[i].first) << ": "
      << json_string(prov[i].second);
  o << "}}";
  return o.str();
}

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --part <setup|run> [--socket-dir <dir>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string part;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") workload = value;
      else if (arg == "--seed") seed = std::stoull(value);
      else if (arg == "--seconds") seconds = std::stod(value);
      else if (arg == "--trace") trace = std::stoi(value);
      else if (arg == "--part") part = value;
      else if (arg == "--socket-dir") perfbench::set_socket_dir(value);
      else return usage("unknown option " + arg);
    } catch (const std::exception&) {
      return usage("bad value '" + value + "' for " + arg);
    }
  }
  if (workload.empty() || !(seconds > 0) || (trace != 0 && trace != 1) ||
      (part != "setup" && part != "run"))
    return usage(
        "--workload, --seconds > 0, --trace 0|1 and --part setup|run are "
        "required");
  if (!perfbench::is_release_build())
    return usage("refusing to measure a non-Release build");

  try {
    const perfbench::RunReport report =
        perfbench::run_workload(
            workload, seed, seconds, trace == 1,
            part == "setup" ? perfbench::Part::Setup : perfbench::Part::Run);
    std::cout << to_json(report, seed, trace == 1) << std::endl;
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << ": " << e.what() << "\n";
    return 2;
  }
}
