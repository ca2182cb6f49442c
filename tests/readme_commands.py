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
documented code for a vulnerability-class crash). A command that ends
in `&` (the `serve` daemon) starts in the background; the runner waits
for the `--socket` path it names to appear before running the next
line, and at the end sends it SIGTERM and requires exit 0 or 143
(128 + SIGTERM, a drained daemon's exit). The lines in SKIPS are not
run; each skip is printed with its reason and the CI job that runs the
equivalent. Exits 1 when any command fails.
"""
import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

BINARY = "./build/tools/octopocs"

# (substring of the command, why it is not run here, where CI runs it)
SKIPS = [
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


def start_background(run, workdir):
    """Starts `run` (without its trailing `&`) and waits for the socket
    it names; returns (process, error message or None)."""
    proc = subprocess.Popen(["sh", "-c", "exec " + run], cwd=workdir,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    match = re.search(r"--socket\s+(\S+)", run)
    if match is None:
        return proc, None
    deadline = time.monotonic() + 60
    while not os.path.exists(match.group(1)):
        if proc.poll() is not None:
            return proc, f"exited {proc.returncode} before its socket appeared"
        if time.monotonic() > deadline:
            return proc, "its socket did not appear within 60 s"
        time.sleep(0.1)
    return proc, None


def stop_background(proc):
    """SIGTERMs a background command; returns (exit code, output)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        output, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        output, _ = proc.communicate()
    return proc.returncode, output


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
    background = []  # (README line, command, process)
    with tempfile.TemporaryDirectory(prefix="readme-") as workdir:
        os.symlink(os.path.abspath(args.scripts),
                   os.path.join(workdir, "scripts"))
        try:
            for number, command in commands:
                skip = next((s for s in SKIPS if s[0] in command), None)
                if skip is not None:
                    print(f"SKIP README:{number}: {command}\n"
                          f"     {skip[1]}; covered by {skip[2]}")
                    continue
                run = command.replace(BINARY, os.path.abspath(args.octopocs))
                run = re.sub(r"(?<![\w/.])/tmp/", workdir + "/", run)
                ran += 1
                if run.endswith("&"):
                    proc, error = start_background(run[:-1].strip(), workdir)
                    background.append((number, command, proc))
                    print(f"{'FAIL' if error else 'bg  '} README:{number}: "
                          f"{command}" + (f"\n     {error}" if error else ""))
                    failures += 1 if error else 0
                    continue
                start = time.monotonic()
                proc = subprocess.run(["sh", "-c", run], cwd=workdir,
                                      capture_output=True, text=True,
                                      timeout=600)
                seconds = time.monotonic() - start
                allowed = (0, 3) if "octopocs run " in command else (0,)
                ok = proc.returncode in allowed
                print(f"{'ok  ' if ok else 'FAIL'} README:{number} "
                      f"(exit {proc.returncode}, {seconds:.1f} s): {command}")
                if not ok:
                    failures += 1
                    sys.stdout.write(proc.stdout[-2000:])
                    sys.stdout.write(proc.stderr[-2000:])
            for number, command, proc in background:
                code, output = stop_background(proc)
                ok = code in (0, 128 + signal.SIGTERM)
                print(f"{'ok  ' if ok else 'FAIL'} README:{number} "
                      f"(SIGTERM, exit {code}): {command}")
                if not ok:
                    failures += 1
                    sys.stdout.write(output[-2000:])
        finally:
            # Only left running when a foreground command raised.
            for _, _, proc in background:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    print(f"{ran} command(s) run, {len(commands) - ran} skipped, "
          f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
