"""Benchmark of the tqftrec package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload recursions --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Each repetition of a workload is a fresh
process (for ``cli``, one fresh ``tqft`` process per query), so memo
caches start cold.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced repetition and traced ones, and reports
the per-layer metrics derived from the recorded spans.  Every answer is
checked against the committed references; a wrong or failed query makes
the run exit 1.  The last line of standard output is one JSON object.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import analysis
import queries

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# A run makes round(--seconds / REP_SECONDS[workload]) repetitions, at
# least MIN_REPS: a fixed count, so both sides of a comparison do the same
# work whatever their speed.  At --seconds 12 that is 5, 3, 6 and 3
# repetitions, about 20-40 s per run on the 2-core VM the benchmark was
# defined on (Python 3.11, sympy 1.14, no numba).
REP_SECONDS = {"recursions": 2.4, "differentials": 4.0, "oracles": 2.0, "cli": 4.5}
MIN_REPS = 2
SETUP_SAMPLES = 3  # set-ups timed per run at least; set-up-only processes make up the count
CHILD_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_ptail_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env():
    """The pinned environment of every workload process."""
    env = dict(os.environ)
    env.pop("TQFT_BUDGET", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _python(*args, **kwargs):
    return subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT, **kwargs)


def _last_json(proc):
    if proc.returncode != 0:
        raise RuntimeError("worker exited %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- one repetition ------------------------------------------------------------


def worker_rep(workload, seed, *options):
    """One fresh process answering the workload's query list."""
    args = [str(HERE / "worker.py"), "run", "--workload", workload, "--seed", str(seed), *options]
    t0 = _now()
    return _last_json(_python(*args, "--t0", repr(t0)))


def cli_query(argv, cache, command=None, spans=None):
    """Run one tqft call; it fails on a nonzero exit, a traceback or bad JSON."""
    argv = [a.replace("{cache}", str(cache)) for a in argv]
    if command is None:
        command = [str(HERE / "worker.py"), "cli", "--spans", str(spans), "--"] if spans else ["-m", "tqftrec.cli"]
    start = time.perf_counter()
    proc = _python(*command, *argv)
    elapsed = time.perf_counter() - start
    error, answer = None, None
    if proc.returncode != 0:
        error = "exit code %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
    elif "Traceback" in proc.stderr:
        error = "traceback on stderr: %s" % proc.stderr.strip()[-500:]
    else:
        try:
            answer = json.loads(proc.stdout)
        except ValueError:
            error = "output is not JSON: %r" % proc.stdout[:200]
    return {"time": elapsed, "answer": answer, "error": error}


def cli_rep(seed, refs, spans_dir=None):
    """One pass through the tqft command mix, one process per command."""
    cache = OUT / "cli-cache.json"
    if cache.exists():
        cache.unlink()
    times, failures, span_files, speed = [], [], [], []
    for i, (op, args) in enumerate(queries.make_queries("cli", seed)):
        speed += [analysis.speed_sample() for _ in range(3)]
        spans = None if spans_dir is None else spans_dir / ("q%d.json" % i)
        result = cli_query(args["argv"], cache, spans=spans)
        times.append(result["time"])
        error = result["error"]
        if error is None:
            want = refs.get(queries.query_key(op, args))
            if want is None:
                error = "no reference answer"
            elif not queries.same_answer(result["answer"], want):
                error = "answer differs from the reference"
        failures.append(None if error is None else {
            "query": " ".join(args["argv"]), "layer": "cli", "error": error})
        if spans is not None and spans.exists():
            span_files.append(spans)
    return {"times": times, "failures": failures, "span_files": span_files, "speed": speed}


def setup_probe(workload, seed):
    """Set-up time of one process that stops before the first query, with
    speed samples taken next to it."""
    if workload != "cli":
        return worker_rep(workload, seed, "--setup-only")
    speed = [analysis.speed_sample() for _ in range(5)]
    start = time.perf_counter()
    proc = _python("-c", "import tqftrec.cli")
    if proc.returncode != 0:
        raise RuntimeError("import tqftrec.cli failed:\n%s" % proc.stderr[-2000:])
    return {"setup_s": time.perf_counter() - start, "speed": speed}


# -- a run ---------------------------------------------------------------------


def repetitions(workload, seconds):
    return max(MIN_REPS, round(seconds / REP_SECONDS[workload]))


def query_times(reps, factors=None):
    """Each query's median time over the repetitions (same seed, so the
    i-th query is the same in every repetition), each repetition's times
    first scaled by its factor."""
    factors = factors or [1.0] * len(reps)
    return [statistics.median(t * f for t, f in zip(ts, factors)) for ts in zip(*(rep["times"] for rep in reps))]


def summarize(reps, setups):
    """End-to-end metrics of the untraced repetitions, in reference seconds.

    The host of a shared virtual machine runs the same code up to twice as
    slow at times, in bursts of a second or so and in spells of minutes.
    Every process's times are scaled by its speed factor (a fixed loop
    timed between its queries, see analysis.speed_sample), which removes
    most of the spells.  ``wall_s`` sums each query's median scaled time
    over the repetitions, which removes most bursts; the percentiles are
    taken over every scaled query time of the run, R repetitions of N
    queries, so that each one rests on many samples rather than on the
    one or two queries nearest to it.  Raw values stay in the run record.
    """
    factors = [analysis.speed_factor(rep["speed"]) for rep in reps]
    setup_factor = analysis.speed_factor([x for p in setups for x in p["speed"]])
    typical = query_times(reps, factors)
    samples = [t * f for rep, f in zip(reps, factors) for t in rep["times"]]
    ptail, pct = analysis.tail(samples)
    raw = query_times(reps)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in setups) * setup_factor,
        "wall_s": sum(typical),
        "query_p50_ms": statistics.median(samples) * 1000,
        "query_ptail_ms": ptail * 1000,
        "ptail_percentile": pct,
        "queries": len(samples),
        "raw": {
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "wall_s": sum(raw),
            "query_p50_ms": statistics.median(raw) * 1000,
        },
        "speed_factors": factors,
        "setup_speed_factor": setup_factor,
        "rep_times": [rep["times"] for rep in reps],
        "rep_speed": [rep["speed"] for rep in reps],
        "setup_samples": setups,
    }


def traced_metrics(span_files):
    """Per-layer metrics of one traced repetition, from its span files."""
    groups, import_s = [], []
    for path in span_files:
        data = json.loads(Path(path).read_text())
        groups.append(data["spans"])
        if "import_s" in data:
            import_s.append(data["import_s"])
        Path(path).unlink()
    if span_files:
        Path(span_files[0]).parent.rmdir()
    metrics = analysis.span_metrics(analysis.merge_spans(groups))
    if import_s:
        metrics["cli.import_s"] = statistics.median(import_s)
    return metrics


def run_workload(workload, seed, seconds, trace):
    OUT.mkdir(parents=True, exist_ok=True)
    nreps = repetitions(workload, seconds)
    refs = json.loads((HERE / "refs" / "cli.json").read_text()) if workload == "cli" else None

    def one(spans_dir=None):
        if workload == "cli":
            return cli_rep(seed, refs, spans_dir)
        if spans_dir is None:
            return dict(worker_rep(workload, seed), span_files=[])
        spans = spans_dir / "spans.json"
        return dict(worker_rep(workload, seed, "--spans", str(spans)), span_files=[spans])

    if trace:
        reps = [one()]
        traced = []
        for i in range(max(1, (nreps - 1) // 2)):
            spans_dir = OUT / ("spans-%s-%d-%d" % (workload, seed, i))
            spans_dir.mkdir(exist_ok=True)
            traced.append(one(spans_dir))
        result = traced_summary(reps[0], traced)
    else:
        reps = [one() for _ in range(nreps)]
        traced = []
        setups = [rep for rep in reps if "setup_s" in rep]
        setups += [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES - len(setups))]
        result = summarize(reps, setups)
        if workload == "cli":
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        else:
            result["peak_rss_mb"] = statistics.median(rep["peak_rss_mb"] for rep in reps)
    result["facts"] = next((rep["facts"] for rep in reps + traced if "facts" in rep), None)
    failures = [f for rep in reps + traced for f in rep["failures"] if f is not None]
    attempted = sum(len(rep["failures"]) for rep in reps + traced)
    result.update(reps=len(reps), attempted=attempted, failed=len(failures),
                  error_rate=len(failures) / attempted, failures=failures[:20])
    return result


def traced_summary(untraced, traced):
    """Per-layer metrics: medians over the traced repetitions, plus the
    tracing overhead against the untraced repetition of the same run."""
    per_rep = [traced_metrics(rep["span_files"]) for rep in traced]
    layer = {key: statistics.median(m.get(key, 0) for m in per_rep) for key in set().union(*per_rep)}
    for rep in traced:  # wrong answers count against their layer
        for f in rep["failures"]:
            if f is not None:
                layer[f["layer"] + ".errors"] = layer.get(f["layer"] + ".errors", 0) + 1.0 / len(traced)

    def scaled_wall(reps):
        return sum(query_times(reps, [analysis.speed_factor(rep["speed"]) for rep in reps]))

    layer["trace.wall_s"] = sum(query_times(traced))
    layer["trace.overhead_s"] = scaled_wall(traced) - scaled_wall([untraced])
    layer["trace.unattributed_s"] = layer["trace.wall_s"] - layer["trace.in_spans_s"]
    return {"per_layer": layer, "traced_reps": len(traced), "queries": len(untraced["times"])}


def machine_facts():
    return _last_json(_python(str(HERE / "worker.py"), "facts"))


def per_layer_names():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def report(workload, seed, trace, result, facts):
    lines = ["perfbench %s seed=%d trace=%d reps=%d queries=%d" % (
        workload, seed, trace, result["reps"], result["queries"])]
    if trace:
        metrics = {name: {"value": float(result["per_layer"].get(name, 0)), "unit": unit}
                   for name, unit in per_layer_names()}
        lines.append("  traced repetitions: %d" % result["traced_reps"])
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        lines.append("  %-48s %14.6g %s" % (name, m["value"], m["unit"]))
    lines.append("  %-48s %14.6g %s" % ("error_rate", result["error_rate"], "1"))
    if not trace:
        lines.append("  query_ptail_ms is p%.2f of %d queries" % (result["ptail_percentile"], result["queries"]))
    for f in result["failures"]:
        lines.append("  FAILED [%s] %s: %s" % (f["layer"], f["query"], f["error"].strip().splitlines()[-1]))
    lines.append("  machine: " + json.dumps(facts, sort_keys=True))
    return lines, {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="tqftrec benchmark")
    parser.add_argument("--workload", choices=queries.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tqftrec" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no src/tqftrec under %s; run from the root of a checkout\n" % ROOT)
        return 2
    sys.path.insert(0, str(SRC))  # rational-function answers of cli queries are compared as MultiRatFun
    compileall.compile_dir(str(SRC), quiet=1)
    workloads = queries.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        facts = result.pop("facts") or machine_facts()
        lines, out = report(workload, args.seed, args.trace, result, facts)
        print("\n".join(lines), flush=True)
        record = OUT / ("%s-seed%d-trace%d.json" % (workload, args.seed, args.trace))
        record.write_text(json.dumps(dict(result, machine=facts), indent=1, sort_keys=True))
        summary["correct"] &= out["correct"]
        summary["attempted"] += out["attempted"]
        summary["failed"] += out["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        summary["metrics"].update({prefix + k: v for k, v in out["metrics"].items()})
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
