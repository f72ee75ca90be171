// perfbench_runner: runs one benchmark workload in this process and prints
// its report; the last stdout line is one JSON object. run.py builds and
// drives it.
//
//   perfbench_runner --workload <stats-adhoc|imdb-scan|aeolus-live>
//                    --seed <n> --seconds <n> --trace <0|1> --work-dir <dir>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"

namespace {

void PrintMetrics(const char* key,
                  const std::vector<std::pair<std::string, double>>& metrics) {
  std::printf("\"%s\": {", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second);
  }
  std::printf("}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload <name> --seed <n> "
               "--seconds <n> --trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || config.workload.empty() || config.work_dir.empty() ||
      config.seconds < 1) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", config.work_dir.c_str());
    return 1;
  }

  bytecard::Result<perfbench::Report> report =
      bytecard::Status::InvalidArgument("unknown workload " + config.workload);
  if (config.workload == "stats-adhoc") {
    report = perfbench::RunStatsAdhoc(config);
  } else if (config.workload == "imdb-scan") {
    report = perfbench::RunImdbScan(config);
  } else if (config.workload == "aeolus-live") {
    report = perfbench::RunAeolusLive(config);
  }
  if (!report.ok()) {
    std::fprintf(stderr, "%s: %s\n", config.workload.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  const perfbench::Report& r = report.value();
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  const perfbench::FailureCounts& f = r.failures;
  std::printf(
      "{\"attempted\": %lld, \"failed\": %lld, \"refused\": %lld, "
      "\"errors\": %lld, \"wrong\": %lld, \"known_count_keyword\": %lld, "
      "\"known_in_minus_two\": %lld, ",
      static_cast<long long>(r.attempted), static_cast<long long>(f.total()),
      static_cast<long long>(f.refused), static_cast<long long>(f.errors),
      static_cast<long long>(f.wrong),
      static_cast<long long>(f.known_count_keyword),
      static_cast<long long>(f.known_in_minus_two));
  PrintMetrics("end_to_end", r.end_to_end);
  std::printf(", ");
  PrintMetrics("layers", r.layers);
  std::printf("}\n");
  return 0;
}
