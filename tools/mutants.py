"""Run the listed source mutants against the tests that should kill them.

Each mutant is one exact text replacement in a file of ``src/segtriples``.
The runner checks every anchor first: an anchor that does not occur exactly
once in its file stops the run with exit status 2, before any test runs, so
a mutant is never skipped silently.  Then, one mutant at a time, it copies
``src/`` to a fresh temporary directory, applies the replacement there and
runs pytest on the mutant's named tests, with the copy first on the path
(``-o pythonpath=``) and the temporary directory as the working directory, so
each run starts from an empty hypothesis database.  A mutant is killed when
pytest exits 1 (a test failed) and survives when it exits 0; any other exit
status is an error.  The repository itself is never written.

    python tools/mutants.py [--json FILE]

prints one line per mutant, ``killed``, ``survived`` or ``error``, with the
failing test ids, and exits 0 only when every mutant run was killed.
Only the standard library is used.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "segtriples"
ORDER_TESTS = ["tests/test_classify.py"]

# (name, file under src/segtriples, anchor, replacement, tests)
MUTANTS = [
    ("minus_before_plus", "triples.py",
     "words.sort(key=None if derive else lambda w: [*map(mul, w, w[1:])], reverse=True)",
     "words.sort(key=None if derive else lambda w: [*map(mul, w, w[1:])], reverse=False)",
     ORDER_TESTS),
    ("no_single_suffix_in_the_combination_key", "classify.py",
     '"".join(map(itemgetter(0), combo)) + " ; single="',
     '"".join(map(itemgetter(0), combo))',
     ORDER_TESTS),
    ("copies_of_a_listed_set_back_to_back", "classify.py",
     "found = itertools.chain.from_iterable(zip(*itertools.tee(found, 1 + len(copies))))",
     "found = itertools.chain.from_iterable(itertools.tee(found, 1 + len(copies)))",
     ORDER_TESTS),
    ("placed_inserts_only_the_first_shed_segment", "algebra.py",
     "            if len(shed_segs) == 2:",
     "            if False:",
     ["tests/test_algebra.py",
      "tests/test_structural.py::test_deep_tower_is_the_product_of_its_depth_one_rows"]),
    ("mul_sends_a_three_segment_factor_to_placed", "algebra.py",
     "        if len(shed.segments) > 2:",
     "        if len(shed.segments) > 3:",
     ["tests/test_algebra.py"]),
]


def check_anchors(mutants) -> list:
    """One message per mutant whose anchor does not occur exactly once in its file."""
    problems = []
    for name, file, anchor, _, _ in mutants:
        count = (ROOT / PACKAGE / file).read_text(encoding="utf-8").count(anchor)
        if count != 1:
            problems.append(f"{name}: the anchor occurs {count} times in {PACKAGE / file}, not once")
    return problems


def run_mutant(name, file, anchor, replacement, tests) -> dict:
    """Apply one mutant to a copy of src/ and run its tests against that copy."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / "segtriples" / file
        target.write_text(target.read_text(encoding="utf-8").replace(anchor, replacement), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), "-o", f"pythonpath={copy}",
             *(str(ROOT / test) for test in tests)],
            cwd=tmp, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.findall(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.MULTILINE)
    verdict = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    result = {"name": name, "verdict": verdict, "exit": proc.returncode, "seconds": round(seconds, 1),
              "tests": tests, "failed": [test[test.find("tests/"):] for test in failed]}
    if verdict == "error":
        result["output"] = (proc.stdout + proc.stderr)[-2000:]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", metavar="FILE", help="also write the results to FILE as JSON")
    args = parser.parse_args(argv)
    if problems := check_anchors(MUTANTS):
        print("\n".join(problems), file=sys.stderr)
        return 2
    results = []
    for mutant in MUTANTS:
        result = run_mutant(*mutant)
        results.append(result)
        print(f"{result['verdict']:8} {result['name']} ({result['seconds']} s): {len(result['failed'])} failed"
              + "".join(f"\n         {test}" for test in result["failed"]), flush=True)
        if result["verdict"] == "error":
            print(result["output"], file=sys.stderr)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["verdict"] == "killed" for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
