// plimbench: one workload of the plim benchmark per invocation.
//
//   plimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --plimc <daemon binary> --work <scratch dir>
//
// Prints per-circuit rows, then the JSON result as the last stdout line.
// Exits 1 when any output check or mirror guard failed, 2 on bad usage.

#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "plimbench: " << why
            << "\nusage: plimbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --plimc <path> --work <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string work_root;
  if (argc % 2 == 0) {
    return usage("every flag takes one value");
  }
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = static_cast<unsigned>(std::stoul(value));
      } else if (flag == "--trace") {
        args.trace = std::stoul(value) != 0;
      } else if (flag == "--plimc") {
        args.plimc = value;
      } else if (flag == "--work") {
        work_root = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  const auto* workload = perfbench::find_workload(args.workload);
  if (workload == nullptr || work_root.empty() || args.seconds == 0) {
    return usage("unknown workload or missing --work/--seconds");
  }
  args.work_dir = work_root + "/" + args.workload + "-" +
                  std::to_string(::getpid());
  args.trace_path = work_root + "/trace-" + args.workload + ".json";

  perfbench::Result result;
  int rc = 0;
  try {
    std::filesystem::create_directories(args.work_dir);
    std::printf("workload %s, seed %llu, %u s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    if (workload->serve) {
      perfbench::run_serve_workload(*workload, args, result);
    } else {
      perfbench::run_compile_workload(*workload, args, result);
    }
  } catch (const std::exception& e) {
    std::cerr << "plimbench: " << e.what() << '\n';
    rc = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(args.work_dir, ignored);
  if (rc != 0) {
    return rc;
  }
  std::fflush(stdout);
  std::cout << result.to_json() << std::endl;
  return result.correct && result.failed == 0 ? 0 : 1;
}
