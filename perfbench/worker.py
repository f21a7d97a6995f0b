"""One workload process: set up, answer the query list, check the answers.

Started by run.py in a fresh interpreter for every repetition, so memo
caches start cold.  Prints one JSON line with the timings and the check
results.  Modes:

  worker.py run --workload W --seed S --t0 T [--spans PATH] [--setup-only]
  worker.py cli --spans PATH -- ARGV...     (one traced tqft call)
  worker.py facts                           (versions of the stack)
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(args):
    import queries
    from analysis import speed_sample

    tracer = None
    import tqftrec.cli  # noqa: F401  (imports every layer)

    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.query = -1  # set-up
    ctx = queries.Context(queries.SETUP_GROUPS[args.workload])
    if tracer is not None:
        tracer.algebra_names = {id(A): name for name, (_, _, A) in ctx.algebras.items()}
    setup_s = _now() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "speed": [speed_sample(args.workload) for _ in range(20)]}))
        return 0

    todo = queries.make_queries(args.workload, args.seed)
    times, answers, errors, speed = [], [], [], []
    for i, (op, qargs) in enumerate(todo):
        speed.append(speed_sample(args.workload))
        if tracer is not None:
            tracer.query = i
        start = time.perf_counter()
        try:
            answers.append(queries.OPS[op](ctx, qargs))
            errors.append(None)
        except Exception:
            answers.append(None)
            errors.append(traceback.format_exc(limit=3))
        times.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.query = None

    refs = json.loads((REFS / ("%s.json" % args.workload)).read_text())
    failures = [_check(queries, refs, op, qargs, answer, error)
                for (op, qargs), answer, error in zip(todo, answers, errors)]
    if tracer is not None:
        tracer.write(args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "times": times,
        "failures": failures,
        "speed": speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": machine_facts(),
    }))
    return 0


def _check(queries, refs, op, qargs, answer, error):
    """None for a right answer, else the failure and the layer it is charged to."""
    for part_op, part_args in queries.parts(op, qargs):
        if error is None:
            part = answer.pop(0) if op == "batch" else answer
            try:
                want = queries.expected_answer(part_op, part_args, refs)
            except KeyError:
                error = "no reference answer"
            else:
                if not queries.same_answer(part, want):
                    error = "answer differs from the reference"
        if error is not None:
            return {"query": queries.query_key(part_op, part_args), "layer": queries.OP_LAYER[part_op], "error": error}
    return None


def cli(args):
    """One tqft call through tqftrec.cli.main with the wrappers installed."""
    import contextlib
    import io

    from tracing import Tracer

    start = time.perf_counter()
    import tqftrec.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    tracer.query = 0
    with contextlib.redirect_stdout(out):
        code = tqftrec.cli.main(args.argv)
    tracer.query = None
    tracer.write(args.spans, import_s=import_s)
    sys.stdout.write(out.getvalue())
    return code


def machine_facts():
    """Versions and switches that change the numbers, as seen by a workload process."""
    import importlib.metadata
    import platform

    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    from tqftrec import cellgraph

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "numpy": version("numpy"),
        "numba_imports": bool(getattr(cellgraph, "_HAVE_NUMBA", False)),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def facts(args):
    print(json.dumps(machine_facts()))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    p.set_defaults(func=run)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(func=cli)
    sub.add_parser("facts").set_defaults(func=facts)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
