"""Record one point of the benchmark trajectory: BENCH_<label>.json.

    python3 tools/bench_record.py [--checkout DIR]

Runs ``perfbench/run.py --workload W --seed 1 --seconds N --trace 0`` in
the checkout (default: this repository) for each workload of the
checkout's BENCHMARK.json, one after the other, N being its
``run_seconds``.  The seed is fixed, so that every point of the
trajectory runs the same queries.  Writes ``BENCH_<label>.json`` at the root of this
repository, the label being the checkout's short commit hash, with the
commit, the machine facts the benchmark recorded, and each workload's
five end-to-end metrics and its answer counts.

It then runs the Tier-1 command (``PYTHONPATH=src python -m pytest -q
--continue-on-collection-errors``) once in the checkout and records, under
``tier1``, its wall seconds, its passed and failed counts and each
acceptance criterion's seconds, read from the ``ACCEPTANCE n (name): PASS
(Xs, ...)`` lines.  Only the standard library is used; the benchmark
itself is not changed.  Exits 1 if any workload gave a wrong answer or
failed, or if a Tier-1 test failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEED = 1  # the benchmark's default seed


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def run_workload(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run of a workload: its summary line and the machine facts."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench %s printed nothing:\n%s" % (workload, proc.stderr[-2000:]))
    summary = json.loads(lines[-1])
    record = checkout / "perfbench" / "out" / ("%s-seed%d-trace0.json" % (workload, seed))
    machine = json.loads(record.read_text())["machine"]
    return {
        "correct": summary["correct"] and proc.returncode == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
        "machine": machine,
    }


def run_tier1(checkout: Path) -> dict:
    """One run of the Tier-1 suite: wall seconds, outcome counts and each
    acceptance criterion's own seconds and verdict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(num) for num, word in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    criteria = {
        "C" + num: {"name": name, "verdict": verdict, "seconds": float(seconds)}
        for num, name, verdict, seconds in re.findall(
            r"^ACCEPTANCE (\d+) \(([^)]*)\): (PASS|FAIL) \(([0-9.]+)s", proc.stdout, re.M)}
    return {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "wall_s": round(wall, 2),
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0),
        "returncode": proc.returncode,
        "criteria": criteria,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=HERE)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    bench = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    commit = git(checkout, "rev-parse", "HEAD")
    dirty = bool(git(checkout, "status", "--porcelain", "--untracked-files=no"))
    label = commit[:7]
    workloads, machine = {}, None
    for workload in (w["name"] for w in bench["workloads"]):
        result = run_workload(checkout, workload, SEED, seconds)
        machine = result.pop("machine")  # the same facts in every run
        workloads[workload] = result
        print("%-14s correct=%s %s" % (workload, result["correct"], " ".join(
            "%s=%.4g" % (name, m["value"]) for name, m in result["metrics"].items())), flush=True)
    tier1 = run_tier1(checkout)
    print("%-14s wall_s=%.1f passed=%d failed=%d %s" % ("tier1", tier1["wall_s"], tier1["passed"],
          tier1["failed"], " ".join("%s=%.1f" % (c, v["seconds"])
                                    for c, v in tier1["criteria"].items())), flush=True)
    out = HERE / ("BENCH_%s.json" % label)
    out.write_text(json.dumps({
        "label": label,
        "commit": commit,
        "uncommitted_changes": dirty,
        "command": "perfbench/run.py --workload W --seed %d --seconds %d --trace 0"
                   % (SEED, seconds),
        "machine": machine,
        "workloads": workloads,
        "tier1": tier1,
    }, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % out)
    ok = all(w["correct"] for w in workloads.values())
    return 0 if ok and tier1["failed"] == 0 and tier1["returncode"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
