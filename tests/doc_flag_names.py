#!/usr/bin/env python3
"""Checks that every command-line flag the docs cite still exists.

    doc_flag_names.py ROOT

Collects every `--flag` inside a backticked span of ROOT's README.md and
DESIGN.md (outside fenced blocks) and requires a string literal starting
with "--flag (then a quote, `=` or anything that cannot continue a flag
name) in the C++ or Python sources under ROOT's tools/, bench/,
perfbench/ and scripts/, or in ROOT/tests/*.py. `--gtest*` flags belong
to GoogleTest and are exempt. EXPERIMENTS.md and the verify skill are
not checked: they name retired flags on purpose, as history. Prints each
citation that names no flag and exits 1 if there is any.
"""
import pathlib
import re
import sys

DOCS = ["README.md", "DESIGN.md"]
SOURCE_DIRS = ["tools", "bench", "perfbench", "scripts"]
SOURCE_SUFFIXES = (".cpp", ".h", ".py")
SPAN = re.compile(r"`([^`]+)`")
FLAG = re.compile(r"(?<![\w-])(--[A-Za-z][\w-]*)")


def sources(root: pathlib.Path):
    for name in SOURCE_DIRS:
        for path in sorted((root / name).rglob("*")):
            if path.suffix in SOURCE_SUFFIXES:
                yield path
    for path in sorted((root / "tests").glob("*.py")):
        if path.resolve() != pathlib.Path(__file__).resolve():
            yield path


def main() -> int:
    root = pathlib.Path(sys.argv[1])
    text = "\n".join(path.read_text() for path in sources(root))

    known = {}
    stale = []
    cited = 0
    for doc in DOCS:
        fenced = False
        lines = (root / doc).read_text().splitlines()
        for lineno, line in enumerate(lines, 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if fenced:
                continue
            for span in SPAN.findall(line):
                for flag in FLAG.findall(span):
                    if flag.startswith("--gtest"):
                        continue
                    cited += 1
                    if flag not in known:
                        literal = re.compile(
                            re.escape('"' + flag) + r"(?![\w-])")
                        known[flag] = literal.search(text) is not None
                    if not known[flag]:
                        stale.append(
                            f"{doc}:{lineno}: `{flag}` is no flag in the "
                            "sources")
    for entry in stale:
        print(entry)
    print(f"{cited} flag citation(s); {len(stale)} stale")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
