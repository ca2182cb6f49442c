#!/usr/bin/env python3
"""Validate a structured-trace or crash-journal JSONL file.

Usage: validate_trace.py TRACE.jsonl
       validate_trace.py --server TRACE.jsonl
       validate_trace.py --soak TRACE.jsonl
       validate_trace.py --journal JOURNAL.jsonl

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

Journal mode (core/journal.h schema) checks:
  - line 1 is a header with version 1, a non-empty options_hash, and a
    positive pair_count; no other header appears;
  - every other record is "started" {pair, attempt} or "finished"
    {pair, report}, with positive integer pair indices;
  - every finished report carries the full serialized
    VerificationReport key set (core/report_io.h);
  - no pair finishes twice (resume must replay, never re-run);
  - matching core::LoadJournal, a torn *final* record (the writer died
    mid-write) is reported but tolerated; a malformed record anywhere
    else fails.

Exits 0 and prints a summary on success, 1 with the first offending
line otherwise.
"""
import json
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


def validate_journal(path):
    started = {}   # pair -> attempts seen
    finished = set()
    header = None
    torn = False

    with open(path, "rb") as f:
        data = f.read()
    lines = data.split(b"\n")
    # A file ending in \n splits into [.., b""]; anything else means the
    # writer died mid-record.
    complete, tail = lines[:-1], lines[-1]

    for lineno, raw in enumerate(complete, 1):
        is_last = lineno == len(complete) and not tail
        try:
            rec = json.loads(raw.decode("utf-8"))
            if not isinstance(rec, dict):
                raise ValueError("record is not a JSON object")
        except (ValueError, UnicodeDecodeError) as e:
            # Same tolerance as core::LoadJournal: garbage is only
            # acceptable as the very last record (a torn write).
            if is_last:
                torn = True
                break
            fail(lineno, f"malformed journal record: {e}")

        kind = rec.get("type")
        if lineno == 1:
            if kind != "header":
                fail(lineno, f"first record must be the header, got {kind!r}")
            if rec.get("version") != 1:
                fail(lineno, f"unsupported journal version {rec.get('version')!r}")
            if not isinstance(rec.get("options_hash"), str) or not rec["options_hash"]:
                fail(lineno, "header options_hash must be a non-empty string")
            if not isinstance(rec.get("pair_count"), int) or rec["pair_count"] <= 0:
                fail(lineno, "header pair_count must be a positive integer")
            header = rec
            continue
        if kind == "header":
            fail(lineno, "duplicate header record")
        if kind == "started":
            pair = rec.get("pair")
            if not isinstance(pair, int) or pair < 1:
                fail(lineno, f"started record with bad pair {pair!r}")
            if not isinstance(rec.get("attempt"), int) or rec["attempt"] < 1:
                fail(lineno, "started record with bad attempt")
            started[pair] = started.get(pair, 0) + 1
        elif kind == "finished":
            pair = rec.get("pair")
            if not isinstance(pair, int) or pair < 1:
                fail(lineno, f"finished record with bad pair {pair!r}")
            if pair in finished:
                fail(lineno, f"pair {pair} finished twice")
            report = rec.get("report")
            if not isinstance(report, dict):
                fail(lineno, f"finished record for pair {pair} without a report")
            missing = REPORT_KEYS - set(report)
            if missing:
                fail(lineno, f"pair {pair} report missing keys {sorted(missing)}")
            fuzz_present = FUZZ_REPORT_KEYS & set(report)
            if fuzz_present and fuzz_present != FUZZ_REPORT_KEYS:
                fail(lineno, f"pair {pair} report has truncated fuzz stats "
                             f"{sorted(fuzz_present)}")
            finished.add(pair)
        else:
            fail(lineno, f"unknown journal record type {kind!r}")

    if header is None:
        fail(1, "journal has no header record")
    if tail:
        torn = True

    in_flight = sorted(set(started) - finished)
    print(f"OK: journal for {header['pair_count']} pair(s), options "
          f"{header['options_hash']} — {len(finished)} finished, "
          f"{len(in_flight)} in flight{' ' + str(in_flight) if in_flight else ''}"
          f"{', torn tail (healed on resume)' if torn else ''}")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--journal":
        validate_journal(sys.argv[2])
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
