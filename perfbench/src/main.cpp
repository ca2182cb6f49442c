// perfbench: the repository's verdict benchmark (see perfbench/README.md).
//
//   perfbench --workload paper|generated|serve|isolated --seed N
//             --seconds S --trace 0|1 [--worker PATH]
//
// --trace 0 runs one closed-loop timed window and prints the end-to-end
// metrics; --trace 1 runs an untraced and a traced half window, then
// the outside-in layer replays, and prints the per-layer metrics. The
// last line of standard output is the JSON result. The sockets and
// cache dirs a run writes are relative paths, so run it from a scratch
// directory.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "support/trace.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper|generated|serve|isolated "
               "--seed N --seconds S --trace 0|1 [--worker PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value);
    } else if (arg == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--worker") {
      args.worker = value;
    } else {
      return Usage();
    }
  }
  if (args.workload != "paper" && args.workload != "generated" &&
      args.workload != "serve" && args.workload != "isolated") {
    return Usage();
  }
  if (args.seconds <= 0) return Usage();
  if (args.workload == "isolated" && args.worker.empty()) {
    std::fprintf(stderr, "perfbench: isolated needs --worker (octopocs CLI)\n");
    return 2;
  }

  Context ctx;
  ctx.args = args;
  // Generator seeds are nonzero on the wire (0 means "no generated pair").
  ctx.corpus_seed = args.seed + 1;
  Prepare(ctx);

  Metrics metrics;
  Window window;
  if (!args.trace) {
    window = RunWindow(ctx, args.seconds, nullptr);
    PrintTraffic("timed window, run seed", ctx.items, window.samples);
    EndToEndMetrics(ctx, window, &metrics);
  } else {
    const Window untraced = RunWindow(ctx, args.seconds / 2, nullptr);
    support::Tracer tracer;
    const Window traced = RunWindow(ctx, args.seconds / 2, &tracer);
    window = untraced;
    window.attempted += traced.attempted;
    window.failed += traced.failed;
    window.samples.insert(window.samples.end(), traced.samples.begin(),
                          traced.samples.end());
    PrintTraffic("timed windows, run seed", ctx.items, window.samples);
    TailMs(ctx.items, window.samples);
    LayerMetrics(ctx, untraced, traced, tracer, &metrics);
  }
  PrintResult(ctx, window, metrics);
  return 0;
}
