// bench_e2e — end-to-end and per-layer benchmark of the whole DISTINCT
// path: ingest -> catalog -> training -> propagation -> pair fill ->
// clustering -> checkpoint, plus serving and incremental appends.
//
//   bench_e2e --seed=42                      every workload, each in its own
//                                            child process
//   bench_e2e --workload=offline_1m --seed=7 --seconds=10 --trace=0
//
// README.md documents the workloads, the metrics and the reference numbers.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "harness.h"
#include "workloads.h"

extern char** environ;

namespace distinct {
namespace e2e {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"offline_1m",
       "library-scale batch scan of a 1M-reference catalog: the link graph "
       "dwarfs the subtree memo, so propagation and pair fill dominate",
       RunOffline},
      {"serve_1m",
       "serving the same catalog over TCP, open loop: repeated names hit the "
       "result cache while the tail reaches a cold memo",
       RunServe},
      {"planted_25k",
       "the only workload where training and clustering do real work, and "
       "the memo fits",
       RunPlanted},
      {"append_25k",
       "writes beside reads: appends erase memo entries that the reads after "
       "them pay for",
       RunAppend},
  };
  return kWorkloads;
}

namespace {

/// Runs every workload in a child process of its own (so peak RSS and the
/// MemoryTracker start fresh for each) and returns 0 when all succeeded.
int RunAll(const std::vector<std::string>& child_flags) {
  std::vector<std::pair<std::string, int>> codes;
  for (const Workload& workload : Workloads()) {
    std::vector<std::string> args = {"bench_e2e",
                                     std::string("--workload=") + workload.name};
    args.insert(args.end(), child_flags.begin(), child_flags.end());
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    int code = 127;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) == 0) {
      int status = 0;
      while (waitpid(pid, &status, 0) < 0) {
      }
      code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    }
    codes.emplace_back(workload.name, code);
  }
  bool ok = true;
  std::string summary = "{\"workloads\": {";
  for (size_t i = 0; i < codes.size(); ++i) {
    summary += StrFormat("%s\"%s\": %d", i == 0 ? "" : ", ",
                         codes[i].first.c_str(), codes[i].second);
    ok = ok && codes[i].second == 0;
  }
  summary += StrFormat("}, \"correct\": %s}", ok ? "true" : "false");
  std::printf("\n%s\n", summary.c_str());
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("workload", "",
                  "workload to run; empty runs every workload, each in its "
                  "own child process");
  flags.AddInt64("seed", 42, "input seed: corpus, sample and query mix");
  flags.AddDouble("seconds", 10.0, "length of the measured phase");
  flags.AddInt64("trace", 0,
                 "1: per-layer run (observability on, bench-side spans, "
                 "Chrome trace)");
  flags.AddBool("smoke", false,
                "small inputs and one set-up, for the ctest smoke run");
  flags.AddString("out-dir", "bench_e2e_out",
                  "directory for BENCH_e2e_<workload>.json and trace files");
  flags.AddString("work-dir", "bench_e2e_out/work",
                  "scratch directory (each run's part is removed after it)");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.Help().c_str());
    return 2;
  }
  RunOptions options;
  options.workload = flags.GetString("workload");
  options.seed = static_cast<uint64_t>(
      ValueOrDie(flags.GetInt64InRange("seed", 0, INT64_MAX), "--seed"));
  options.seconds =
      ValueOrDie(flags.GetDoubleInRange("seconds", 0.1, 3600.0), "--seconds");
  options.trace =
      ValueOrDie(flags.GetInt64InRange("trace", 0, 1), "--trace") == 1;
  options.smoke = flags.GetBool("smoke");
  options.out_dir = flags.GetString("out-dir");
  const std::string work_root = flags.GetString("work-dir");

  if (options.workload.empty()) {
    return RunAll({StrFormat("--seed=%llu",
                             static_cast<unsigned long long>(options.seed)),
                   StrFormat("--seconds=%.17g", options.seconds),
                   StrFormat("--trace=%d", options.trace ? 1 : 0),
                   std::string("--smoke=") + (options.smoke ? "1" : "0"),
                   "--work-dir=" + work_root, "--out-dir=" + options.out_dir});
  }
  const Workload* workload = nullptr;
  for (const Workload& candidate : Workloads()) {
    if (options.workload == candidate.name) {
      workload = &candidate;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload=%s\n", options.workload.c_str());
    return 2;
  }

  options.work_dir = StrFormat("%s/%s-%d", work_root.c_str(), workload->name,
                               static_cast<int>(::getpid()));
  std::filesystem::create_directories(options.work_dir);
  std::filesystem::create_directories(options.out_dir);
  Report report(workload->name);
  AddProvenance(options, report);
  report.Fact("why", workload->why);
  workload->run(options, report);
  std::filesystem::remove_all(options.work_dir);
  return report.Finish(options);
}

}  // namespace
}  // namespace e2e
}  // namespace distinct

int main(int argc, char** argv) { return distinct::e2e::Main(argc, argv); }
