// iq_obs — reports over the engine's observability payloads.
//
//   iq_obs prof   ranked serialization report from scalability profiles
//                 (DESIGN.md §11): a `bench/micro_parallel --profile=`
//                 dump or a /profilez scrape. Prints which mechanism (lock
//                 contention, chunk imbalance, or plain serial fraction)
//                 eats the parallel speedup.
//   iq_obs trace  per-trace critical-path summary over /tracez dumps
//                 (DESIGN.md §14): a saved /tracez scrape or a
//                 `bench/micro_parallel --scrape-tracez=` dump. Prints where
//                 each retained slow solve spent its wall clock.
//
// Usage:
//   iq_obs <prof|trace> <dump.json>         read a dump from a file
//   iq_obs <prof|trace> --scrape=PORT       scrape 127.0.0.1:PORT/profilez
//                                           (prof) or /tracez (trace)
//   iq_obs <prof|trace> --json=OUT <input>  also write the machine report
//   iq_obs <prof|trace> --top=N             rows per ranking (default 5)
//
// Exits 1 when the input holds no profile (prof) or no retained trace
// (trace). All the report logic lives in obs/profile.{h,cc} and
// obs/trace_analysis.{h,cc} (testable in-process); this binary is argument
// parsing and I/O.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/exporter.h"
#include "obs/profile.h"
#include "obs/trace_analysis.h"
#include "util/string_util.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <prof|trace> [--scrape=PORT] [--json=OUT] "
               "[--top=N] [dump.json]\n",
               argv0);
  return 2;
}

/// A finished report: the text for stdout, the machine form for --json=,
/// and whether the input held anything to report on.
struct Report {
  std::string text;
  std::string json;
  bool found = false;
};

Report ProfReport(const std::string& input, int top_n) {
  const std::vector<iq::ProfileReport> reports =
      iq::ParseProfileReports(input);
  return {iq::FormatSerializationReport(reports, top_n),
          iq::SerializationReportJson(reports), !reports.empty()};
}

Report TraceReport(const std::string& input, int top_n) {
  const iq::TraceDump dump = iq::ParseTracezDump(input);
  return {iq::FormatTraceReport(dump, top_n), iq::TraceReportJson(dump),
          !dump.traces.empty()};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string command = argv[1];
  if (command != "prof" && command != "trace") return Usage(argv[0]);
  const bool prof = command == "prof";

  std::string input_path;
  std::string json_out;
  int scrape_port = -1;
  int top_n = 5;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (iq::StrStartsWith(arg, "--scrape=")) {
      auto port = iq::ParseInt(arg.substr(strlen("--scrape=")));
      if (!port.ok() || *port <= 0 || *port > 65535) return Usage(argv[0]);
      scrape_port = static_cast<int>(*port);
    } else if (iq::StrStartsWith(arg, "--json=")) {
      json_out = arg.substr(strlen("--json="));
    } else if (iq::StrStartsWith(arg, "--top=")) {
      auto n = iq::ParseInt(arg.substr(strlen("--top=")));
      if (!n.ok() || *n <= 0) return Usage(argv[0]);
      top_n = static_cast<int>(*n);
    } else if (iq::StrStartsWith(arg, "--")) {
      return Usage(argv[0]);
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (input_path.empty() == (scrape_port < 0)) {
    // Exactly one input source: a file or a scrape.
    return Usage(argv[0]);
  }

  std::string text;
  if (scrape_port > 0) {
    auto body =
        iq::HttpGetLocal(scrape_port, prof ? "/profilez" : "/tracez");
    if (!body.ok()) {
      std::fprintf(stderr, "iq_obs: scrape failed: %s\n",
                   body.status().message().c_str());
      return 1;
    }
    text = *body;
  } else {
    std::ifstream in(input_path);
    if (!in) {
      std::fprintf(stderr, "iq_obs: cannot open %s\n", input_path.c_str());
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }

  const Report report =
      prof ? ProfReport(text, top_n) : TraceReport(text, top_n);
  std::fputs(report.text.c_str(), stdout);
  if (!json_out.empty()) {
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "iq_obs: cannot write %s\n", json_out.c_str());
      return 1;
    }
    out << report.json;
  }
  return report.found ? 0 : 1;
}
