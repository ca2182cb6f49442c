#!/usr/bin/env python3
"""Runs every fenced README command against a build, verbatim.

    readme_commands.py --readme README.md --octopocs BIN --scripts DIR

Selects each command in a fenced block of the README that calls
`./build/tools/octopocs` or starts with `python3 scripts/` (a trailing
backslash joins continuation lines). Each runs through `sh`, in README
order, inside one fresh temporary directory, with exactly two rewrites:
`./build/tools/octopocs` becomes BIN, and every `/tmp/` path moves into
the temporary directory. A `scripts` symlink to DIR there lets
`python3 scripts/...` lines run unchanged, and relative output files
land in the temporary directory too.

A command passes when it exits 0 (`octopocs run` may also exit 3, its
documented code for a vulnerability-class crash). The lines in SKIPS are
not run; each skip is printed with its reason and the CI job that runs
the equivalent. Exits 1 when any command fails.
"""
import argparse
import os
import re
import subprocess
import sys
import tempfile
import time

BINARY = "./build/tools/octopocs"

# (substring of the command, why it is not run here, where CI runs it)
SKIPS = [
    ("octopocs serve", "starts a daemon that runs until signalled",
     "ci.yml jobs serve-smoke and build-test-bench"),
    ("octopocs client", "needs a running serve daemon",
     "ci.yml jobs serve-smoke and build-test-bench"),
    ("soak --seed 1 --pairs 300", "the 300-pair soak runs for minutes",
     "nightly-soak.yml job full-soak"),
    ("validate_trace.py --soak soak.jsonl",
     "reads the trace of the skipped 300-pair soak",
     "nightly-soak.yml job full-soak (soak-smoke in ci.yml at 64 pairs)"),
]


def fenced_commands(readme_text):
    """Yields (line number, command) for every selected fenced command."""
    in_fence = False
    pending, start = "", 0
    for number, line in enumerate(readme_text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            pending = ""
            continue
        if not in_fence:
            continue
        if not pending:
            start = number
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
            continue
        command = (pending + stripped).strip()
        pending = ""
        if BINARY in command or command.startswith("python3 scripts/"):
            yield start, command


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--readme", required=True)
    parser.add_argument("--octopocs", required=True)
    parser.add_argument("--scripts", required=True)
    args = parser.parse_args()

    with open(args.readme, encoding="utf-8") as f:
        commands = list(fenced_commands(f.read()))
    if not commands:
        print("FAIL: no fenced octopocs commands found in", args.readme)
        return 1

    failures = 0
    ran = 0
    with tempfile.TemporaryDirectory(prefix="readme-") as workdir:
        os.symlink(os.path.abspath(args.scripts),
                   os.path.join(workdir, "scripts"))
        for number, command in commands:
            skip = next((s for s in SKIPS if s[0] in command), None)
            if skip is not None:
                print(f"SKIP README:{number}: {command}\n"
                      f"     {skip[1]}; covered by {skip[2]}")
                continue
            run = command.replace(BINARY, os.path.abspath(args.octopocs))
            run = re.sub(r"(?<![\w/.])/tmp/", workdir + "/", run)
            start = time.monotonic()
            proc = subprocess.run(["sh", "-c", run], cwd=workdir,
                                  capture_output=True, text=True,
                                  timeout=600)
            seconds = time.monotonic() - start
            allowed = (0, 3) if "octopocs run " in command else (0,)
            ok = proc.returncode in allowed
            ran += 1
            print(f"{'ok  ' if ok else 'FAIL'} README:{number} "
                  f"(exit {proc.returncode}, {seconds:.1f} s): {command}")
            if not ok:
                failures += 1
                sys.stdout.write(proc.stdout[-2000:])
                sys.stdout.write(proc.stderr[-2000:])
    print(f"{ran} command(s) run, {len(commands) - ran} skipped, "
          f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
