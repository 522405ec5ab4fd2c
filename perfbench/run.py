#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Builds the benchmark binary (perfbench/CMakeLists.txt, compiling the repository's
src/ from source) into .bench_build/perfbench, runs one workload in a
fresh process, checks the output against BENCHMARK.json, and prints the
binary's report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones
(and writes the traced run's spans to .bench_build/perfbench/spans/).
--smoke runs every workload on a tiny slice, both modes, with the same
correctness gate and schema check.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; cmake output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def build_id():
    """Commit when in a git checkout, plus a digest of the built sources."""
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"{commit or 'nogit'}+src.{digest.hexdigest()[:12]}"


def check_schema(result, expected):
    """Errors in a binary's result against the metric list it must carry."""
    errors = []
    if not isinstance(result.get("correct"), bool):
        errors.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            errors.append(f"'{key}' is not an integer")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        errors.append("'attempted' is below 1")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            errors.append(f"metric {m['name']} unit {got.get('unit')} != {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append(f"metric {m['name']} value {got.get('value')} is not finite")
    names = {m["name"] for m in expected}
    errors += [f"unexpected metric {n}" for n in metrics if n not in names]
    return errors


def run_once(spec, workload, seed, seconds, trace, smoke, ident):
    """Run the binary; returns (contract result, errors). Echoes its report."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--build-id", ident]
    if smoke:
        cmd.append("--smoke")
    if trace:
        spans = BUILD / "spans" / f"{workload}-seed{seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"{workload}: benchmark binary exceeded {RUN_TIMEOUT_S} s"]
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        return None, [f"{workload}: benchmark binary printed no result (exit {r.returncode})"]
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    errors = check_schema(raw, expected)
    if r.returncode != 0 or not raw.get("correct"):
        errors.append(f"{workload}: correctness gate failed (exit {r.returncode})")
    result = {
        "correct": raw.get("correct") is True and r.returncode == 0,
        "attempted": raw.get("attempted", 0),
        "failed": raw.get("failed", 0),
        "metrics": {m["name"]: raw.get("metrics", {}).get(m["name"])
                    for m in expected},
    }
    return result, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload, both modes, on a tiny slice")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    build()
    ident = build_id()

    if args.smoke:
        problems = []
        for workload in names:
            for trace in (0, 1):
                print(f"== smoke {workload} --trace {trace}")
                _, errors = run_once(spec, workload, args.seed, 1, trace, True, ident)
                problems += errors
        for p in problems:
            print(f"smoke: {p}", file=sys.stderr)
        print(f"smoke: {'FAILED' if problems else 'ok'} "
              f"({len(names)} workloads x 2 modes)")
        sys.exit(1 if problems else 0)

    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result, errors = run_once(spec, args.workload, args.seed, seconds,
                              args.trace, False, ident)
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    if result is None or errors:
        sys.exit(1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
