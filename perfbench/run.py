#!/usr/bin/env python3
"""Builds the verdict benchmark from source and runs one workload.

    python3 perfbench/run.py --workload paper|generated|serve|isolated \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library modules, the octopocs CLI that
serves as the isolated workload's pool worker, and the benchmark
program) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs only re-check the build. Each run works in a fresh scratch
directory under the build directory (sockets, cache dirs, journals) and
removes it afterwards. Build output goes to stderr; the benchmark's output,
whose last line is the JSON result, goes to stdout.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench", "octopocs_cli"],
                   check=True, stdout=sys.stderr)


def main():
    for module in ("src", "tools"):
        if not os.path.isfile(os.path.join(ROOT, module, "CMakeLists.txt")):
            print("perfbench: the repository's %s/ is missing; run from a "
                  "full checkout" % module, file=sys.stderr)
            return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    worker = os.path.join(build_dir, "octo_tools", "octopocs")
    work = os.path.join(os.path.abspath(target), "perfbench-runs", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        sys.stdout.flush()
        return subprocess.run([binary] + sys.argv[1:] + ["--worker", worker],
                              cwd=work).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
