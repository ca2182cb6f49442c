#!/usr/bin/env python3
"""Checks that every test the docs cite by name exists.

    doc_test_names.py ROOT

Collects every backticked `Suite.Name` in ROOT's README.md, DESIGN.md,
EXPERIMENTS.md and .claude/skills/verify/SKILL.md (an instantiation
prefix `Prefix/` and a `/N` parameter suffix are dropped; `Suite.*`
cites a whole suite) and every TEST/TEST_F/TEST_P under ROOT/tests.
Prints each citation that names no test and exits 1 if there is any.
"""
import pathlib
import re
import sys

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md"]
CITE = re.compile(r"`(?:\w+/)?([A-Z]\w*)\.([A-Z]\w*|\*)(?:/\d+)?`")
TEST = re.compile(r"\bTEST(?:_F|_P)?\(\s*(\w+)\s*,\s*(\w+)\s*\)")


def main() -> int:
    root = pathlib.Path(sys.argv[1])
    tests = set()
    for path in sorted((root / "tests").rglob("*")):
        if path.suffix in (".cpp", ".h"):
            tests.update(TEST.findall(path.read_text()))
    suites = {suite for suite, _ in tests}

    stale = []
    for doc in DOCS:
        path = root / doc
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for suite, name in CITE.findall(line):
                if name == "*":
                    known = suite in suites
                else:
                    known = (suite, name) in tests
                if not known:
                    stale.append(
                        f"{doc}:{lineno}: `{suite}.{name}` names no test")
    for entry in stale:
        print(entry)
    print(f"{len(tests)} tests; {len(stale)} stale citation(s)")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
