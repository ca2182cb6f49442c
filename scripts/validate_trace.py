#!/usr/bin/env python3
"""Validate a structured-trace JSONL file or a report cache directory.

Usage: validate_trace.py TRACE.jsonl
       validate_trace.py --server TRACE.jsonl
       validate_trace.py --soak TRACE.jsonl
       validate_trace.py --cache DIR

Trace mode (support/trace.h schema) checks, line by line:
  - each line is a standalone JSON object;
  - "type" is one of begin/end/counter;
  - the fixed key set is present ("name", "tid", "seq", "ts_ns", plus
    "arg" for spans and "value" for counters) with the right types;
  - "seq" values are unique and strictly increasing down the file
    (Snapshot() emits the global merge order);
  - per thread, begin/end events obey stack discipline: every end
    matches the innermost open begin of the same name, and nothing is
    left open at EOF;
  - every "fuzz_fallback" span (the --fuzz-fallback rung, DESIGN.md
    §16) opens inside a "verify" span on its own thread — the rung is
    part of a pipeline run, never free-floating — and every
    "fuzz.execs" counter lands inside an open "fuzz_fallback" span
    with a non-negative value.

Server mode (--server, a trace written by `octopocs serve`) runs every
trace-mode check plus:
  - at least one "request" span exists;
  - every "queue_depth" counter value is non-negative (the admission
    queue can never go negative);
  - every "request" span contains, on its own thread, either a nested
    "verify" span (the pipeline ran), an "artifact_disk_hit" counter
    (served from the persistent tier), or a "request_failed" counter
    (rejected) — a request that produced none of these fell through the
    daemon without being handled;
  - a "request" span holds at most one "verify" span directly (the
    pipeline's own "verify" span nests inside it), unless a
    "serve_contained_retry" counter comes before the second one: each
    request gets one pipeline run, and a contained tooling exception's
    single retry is the only re-run.

Soak mode (--soak, a trace written by `octopocs soak --trace-out`) runs
every trace-mode check plus:
  - at least one "gen" span exists (the corpus really was generated);
  - at least one "soak_leg" span exists, every one carries a positive
    leg number in "arg", and no leg number repeats (each leg runs once);
  - every "soak.pairs_verified" counter is non-negative and
    non-decreasing (it is cumulative across legs);
  - the final "soak.violations" counter exists and is exactly 0 — the
    run upheld every invariant.

Cache mode (--cache, a `corpus --cache-dir` or `serve --cache-dir`
directory; core/artifact_disk.h layout) reads DIR/artifacts.log with
DiskArtifactStore::Open's rules: records back to back, each a 32-byte
header ("OCXR" | length u32 | key.hi u64 | key.lo u64 | FNV-1a u64)
and its payload, up to the first break (fewer than 32 bytes left, a
wrong magic, a payload past the end of the file, or a final record
whose checksum fails), which is the torn tail Open heals. It checks:
  - no key is stored twice;
  - every record's FNV-1a checksum matches its payload;
  - every payload parses as a serialized VerificationReport carrying
    the full key set (core/report_io.h).

Exits 0 and prints a summary on success, 1 with the first offending
line otherwise.
"""
import json
import os
import struct
import sys


def fail(lineno, msg):
    print(f"FAIL line {lineno}: {msg}")
    sys.exit(1)


# Every key SerializeReport (src/core/report_io.cpp) writes; extras are
# allowed for forward compatibility, absences are not.
REPORT_KEYS = {
    "verdict", "type", "detail", "ep_name", "ep_in_s", "ep_in_t",
    "ep_encounters_in_s", "bunch_count", "crash_primitive_bytes",
    "symex_status", "poc_generated", "reformed_poc", "bunch_offsets",
    "observed_trap", "failed_phase", "deadline_expired",
    "exception_contained",
    "preprocess_seconds", "p1_seconds", "p23_seconds", "p4_seconds",
    "total_seconds",
}

# The fuzz-fallback stats record is sparse *and* all-or-nothing: a
# report from a run whose campaign never fired carries none of these
# keys (byte-compatible with pre-rung peers), a campaign report carries
# all five. Any strict subset means a torn or tampered frame — the same
# rule ParseReport enforces.
FUZZ_REPORT_KEYS = {
    "fuzz_attempted", "fuzz_execs", "fuzz_execs_to_crash",
    "fuzz_best_distance", "fuzz_seed",
}


RECORD_MAGIC = b"OCXR"
HEADER_BYTES = 32


def fnv1a(data):
    h = 1469598103934665603
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return h


def cache_fail(where, msg):
    print(f"FAIL {where}: {msg}")
    sys.exit(1)


def validate_cache(directory):
    try:
        with open(os.path.join(directory, "artifacts.log"), "rb") as f:
            log = f.read()
    except OSError as e:
        cache_fail("artifacts.log", str(e))

    keys = set()
    at = 0
    while len(log) - at >= HEADER_BYTES:
        length, hi, lo, checksum = struct.unpack_from("<IQQQ", log, at + 4)
        end = at + HEADER_BYTES + length
        if log[at:at + 4] != RECORD_MAGIC or end > len(log):
            break
        payload = log[at + HEADER_BYTES:end]
        where = f"record at offset {at}"
        if fnv1a(payload) != checksum:
            if end == len(log):
                break
            cache_fail(where, "checksum does not match its payload")
        if (hi, lo) in keys:
            cache_fail(where, f"key {hi:016x}{lo:016x} stored twice")
        keys.add((hi, lo))
        try:
            report = json.loads(payload.decode("utf-8"))
            if not isinstance(report, dict):
                raise ValueError("payload is not a JSON object")
        except (ValueError, UnicodeDecodeError) as e:
            cache_fail(where, f"payload is not a report: {e}")
        missing = REPORT_KEYS - set(report)
        if missing:
            cache_fail(where, f"report missing keys {sorted(missing)}")
        fuzz_present = FUZZ_REPORT_KEYS & set(report)
        if fuzz_present and fuzz_present != FUZZ_REPORT_KEYS:
            cache_fail(where, f"report has truncated fuzz stats "
                        f"{sorted(fuzz_present)}")
        at = end

    torn = at != len(log)
    print(f"OK: cache with {len(keys)} report(s), every key unique"
          f"{', torn tail (healed on reopen)' if torn else ''}")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--cache":
        validate_cache(sys.argv[2])
        return
    server_mode = False
    soak_mode = False
    args = sys.argv[1:]
    if args and args[0] == "--server":
        server_mode = True
        args = args[1:]
    elif args and args[0] == "--soak":
        soak_mode = True
        args = args[1:]
    if len(args) != 1:
        print(__doc__)
        sys.exit(2)

    span_keys = {"type", "name", "tid", "seq", "ts_ns", "arg"}
    counter_keys = {"type", "name", "tid", "seq", "ts_ns", "value"}

    events = 0
    last_seq = -1
    stacks = {}  # tid -> [open span names]
    counts = {"begin": 0, "end": 0, "counter": 0}
    # Server mode: per-tid stack of state mirroring the open "request"
    # spans, so nesting is handled like the span stack itself.
    request_spans = 0
    fuzz_spans = 0
    # tid -> [{"handled": saw verify/disk-hit/failed, "runs": direct
    #          verify spans, "retries": serve_contained_retry counters}]
    open_requests = {}
    HANDLED_COUNTERS = {"artifact_disk_hit", "request_failed"}
    # Soak mode state.
    gen_spans = 0
    soak_legs = set()
    last_pairs_verified = 0
    soak_violations = None  # last "soak.violations" value seen

    with open(args[0], encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                fail(lineno, "blank line")
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                fail(lineno, f"not valid JSON: {e}")
            if not isinstance(ev, dict):
                fail(lineno, "line is not a JSON object")

            kind = ev.get("type")
            if kind not in counts:
                fail(lineno, f"unknown type {kind!r}")
            counts[kind] += 1

            want = counter_keys if kind == "counter" else span_keys
            if set(ev) != want:
                fail(lineno, f"keys {sorted(ev)} != expected {sorted(want)}")
            if not isinstance(ev["name"], str) or not ev["name"]:
                fail(lineno, "name must be a non-empty string")
            for num_key in want - {"type", "name"}:
                if not isinstance(ev[num_key], int):
                    fail(lineno, f"{num_key} must be an integer")
            if ev["tid"] < 0 or ev["ts_ns"] < 0:
                fail(lineno, "tid/ts_ns must be non-negative")

            if ev["seq"] <= last_seq:
                fail(lineno, f"seq {ev['seq']} not strictly increasing "
                             f"(previous {last_seq})")
            last_seq = ev["seq"]

            stack = stacks.setdefault(ev["tid"], [])
            # Read before the push below: is this span a direct child of
            # the innermost open request?
            in_request = bool(stack) and stack[-1] == "request"
            if kind == "begin":
                if ev["name"] == "fuzz_fallback":
                    if "verify" not in stack:
                        fail(lineno, "fuzz_fallback span without an "
                                     "enclosing verify span")
                    fuzz_spans += 1
                stack.append(ev["name"])
            elif kind == "counter" and ev["name"] == "fuzz.execs":
                if "fuzz_fallback" not in stack:
                    fail(lineno, "fuzz.execs counter outside a "
                                 "fuzz_fallback span")
                if ev["value"] < 0:
                    fail(lineno, f"fuzz.execs went negative ({ev['value']})")
            elif kind == "end":
                if not stack:
                    fail(lineno, f"end {ev['name']!r} with no open span "
                                 f"on tid {ev['tid']}")
                if stack[-1] != ev["name"]:
                    fail(lineno, f"end {ev['name']!r} does not match "
                                 f"innermost open span {stack[-1]!r}")
                stack.pop()

            if soak_mode:
                if kind == "begin" and ev["name"] == "gen":
                    gen_spans += 1
                elif kind == "begin" and ev["name"] == "soak_leg":
                    if ev["arg"] < 1:
                        fail(lineno, f"soak_leg span with bad leg number "
                                     f"{ev['arg']}")
                    if ev["arg"] in soak_legs:
                        fail(lineno, f"soak leg {ev['arg']} ran twice")
                    soak_legs.add(ev["arg"])
                elif kind == "counter" and ev["name"] == "soak.pairs_verified":
                    if ev["value"] < last_pairs_verified:
                        fail(lineno, f"soak.pairs_verified went backwards "
                                     f"({last_pairs_verified} -> "
                                     f"{ev['value']})")
                    last_pairs_verified = ev["value"]
                elif kind == "counter" and ev["name"] == "soak.violations":
                    soak_violations = ev["value"]

            if server_mode:
                reqs = open_requests.setdefault(ev["tid"], [])
                if kind == "counter" and ev["name"] == "queue_depth" \
                        and ev["value"] < 0:
                    fail(lineno, f"queue_depth went negative "
                                 f"({ev['value']})")
                if kind == "begin" and ev["name"] == "request":
                    reqs.append({"handled": False, "runs": 0, "retries": 0})
                    request_spans += 1
                elif reqs and kind == "begin" and ev["name"] == "verify":
                    req = reqs[-1]
                    req["handled"] = True
                    if in_request:
                        # One run, plus one per contained-retry counter.
                        if req["runs"] > req["retries"]:
                            fail(lineno, "request span holds a second "
                                         "verify span without a "
                                         "serve_contained_retry counter "
                                         "before it")
                        req["runs"] += 1
                elif reqs and kind == "counter" \
                        and ev["name"] == "serve_contained_retry":
                    reqs[-1]["retries"] += 1
                elif reqs and kind == "counter" \
                        and ev["name"] in HANDLED_COUNTERS:
                    reqs[-1]["handled"] = True
                elif kind == "end" and ev["name"] == "request":
                    if not reqs:
                        fail(lineno, "request end without a request begin")
                    if not reqs.pop()["handled"]:
                        fail(lineno, "request span ended without a verify "
                                     "span, a disk hit, or a recorded "
                                     "failure")
            events += 1

    for tid, stack in stacks.items():
        if stack:
            fail("EOF", f"tid {tid} left spans open: {stack}")
    if events == 0:
        fail("EOF", "trace contains no events")
    if server_mode and request_spans == 0:
        fail("EOF", "server trace contains no request spans")
    if soak_mode:
        if gen_spans == 0:
            fail("EOF", "soak trace contains no gen span")
        if not soak_legs:
            fail("EOF", "soak trace contains no soak_leg spans")
        if soak_violations is None:
            fail("EOF", "soak trace has no final soak.violations counter")
        if soak_violations != 0:
            fail("EOF", f"soak run recorded {soak_violations} violation(s)")

    suffix = f", {request_spans} request span(s)" if server_mode else ""
    if soak_mode:
        suffix += (f", {len(soak_legs)} soak leg(s), "
                   f"{last_pairs_verified} pair(s) verified, 0 violations")
    if fuzz_spans:
        suffix += f", {fuzz_spans} fuzz_fallback span(s)"
    print(f"OK: {events} event(s) — {counts['begin']} begin / "
          f"{counts['end']} end / {counts['counter']} counter, "
          f"{len(stacks)} thread(s), balanced spans{suffix}")


if __name__ == "__main__":
    main()
