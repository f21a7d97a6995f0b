"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import analysis  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def test_tail_keeps_ten_samples_beyond():
    value, pct = analysis.tail(range(1, 101))
    assert (value, pct) == (90, 90.0)
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_tail_steps_below_ties():
    samples = [1] * 10 + [5] * 12
    value, pct = analysis.tail(samples)
    assert value == 1
    assert pct == pytest.approx(100 * 10 / 22)
    assert sum(1 for x in samples if x > value) >= 10


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        analysis.tail(range(10))
    assert analysis.tail(range(11)) == (0, 100 / 11)


def test_percentiles_pool_every_scaled_query_time():
    reps = [{"times": [0.1 * (i + 1) for i in range(12)], "speed": [analysis.SPEED_REF_S]},
            {"times": [0.2 * (i + 1) for i in range(12)], "speed": [2 * analysis.SPEED_REF_S]}]
    setups = [{"setup_s": 1.0, "speed": [analysis.SPEED_REF_S]}]
    out = run.summarize(reps, setups)
    # the second process ran at half speed, so its scaled times equal the first's
    assert out["queries"] == 24
    assert out["query_p50_ms"] == pytest.approx(650.0)
    assert out["query_ptail_ms"] == pytest.approx(700.0)  # 7th of 12, twice: 10 samples beyond
    assert out["wall_s"] == pytest.approx(sum(0.1 * (i + 1) for i in range(12)))


def test_degree_profiles_are_sorted_partitions_in_order():
    import itertools

    for total in range(1, 11):
        want = [list(d) for k in range(1, total + 1)
                for d in itertools.combinations_with_replacement(range(1, total + 1), k) if sum(d) == total]
        assert queries.degree_profiles(total) == want


def _span(name, layer, start, end, parent, tag=None, query=0):
    return [name, layer, tag, start, end, parent, query, 0, None]


def test_self_time_subtracts_nested_spans():
    spans = [
        _span("twisted_catalan", "amodel", 0.0, 10.0, -1),
        _span("omega_tqft", "frobenius", 1.0, 4.0, 0, tag="Z2"),
        _span("product", "frobenius", 2.0, 3.0, 1),
        _span("twisted_catalan", "amodel", 5.0, 7.0, 0),
        _span("orbifold_frobenius", "groups", 20.0, 21.0, -1, query=-1),  # set-up
    ]
    m = analysis.span_metrics(spans)
    assert m["amodel.self_s"] == 10 - 3 - 2 + 2
    assert m["frobenius.self_s"] == (3 - 1) + 1
    assert m["frobenius.omega_tqft.self_s"] == 2
    assert m["trace.in_spans_s"] == 10  # set-up spans are outside wall_s
    assert m["groups.orbifold_frobenius.busy_s"] == 1
    # nested calls of the same function or layer are not counted twice
    assert m["amodel.busy_s"] == 10
    assert m["amodel.twisted_catalan.busy_s"] == 10
    assert m["amodel.twisted_catalan.calls"] == 2
    assert m["frobenius.busy_s"] == 3
    assert m["frobenius.omega_tqft.Z2.busy_s"] == 3


def test_merge_spans_offsets_parents():
    a = [_span("main", "cli", 0, 2, -1), _span("emit", "cli", 1, 2, 0)]
    merged = analysis.merge_spans([a, copy.deepcopy(a)])
    assert [s[5] for s in merged] == [-1, 0, -1, 2]


def test_tracer_records_calls_through_module_aliases():
    from tracing import Tracer

    from tqftrec import groups, intersect

    tracer = Tracer()
    tracer.install()
    A = groups.orbifold_frobenius(groups.load_group("builtin:Z2"))
    tracer.algebra_names[id(A)] = "Z2"
    tracer.query = 0
    intersect.check_tauG(1, 1, (1,), A, [A.basis(0)])
    tracer.query = None
    names = [(s[1], s[0]) for s in tracer.spans]
    assert names[0] == ("intersect", "check_tauG")
    # check_tauG imports omega_tqft by name inside the call
    assert ("frobenius", "omega_tqft") in names
    omega = next(s for s in tracer.spans if s[0] == "omega_tqft")
    assert omega[2] == "Z2" and tracer.spans[omega[5]][0] == "check_tauG"


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert queries.make_queries(workload, 7) == queries.make_queries(workload, 7)
    keys = sorted(queries.query_key(op, a) for op, a in queries.make_queries(workload, 7))
    assert keys == sorted(queries.query_key(op, a) for op, a in queries.make_queries(workload, 8))


def test_seed_changes_order_and_vectors():
    a, b = queries.make_queries("recursions", 1), queries.make_queries("recursions", 2)
    assert a != b
    def vecs(qs):
        return [args["vecs"] for q in qs for op, args in queries.parts(*q) if op == "twisted_catalan_vec"]

    assert sorted(map(json.dumps, vecs(a))) != sorted(map(json.dumps, vecs(b)))


def test_cli_cache_write_precedes_read_back():
    for seed in range(20):
        qs = queries.make_queries("cli", seed)
        at = [i for i, (_, a) in enumerate(qs) if "pair" in a]
        assert [qs[i][1]["pair"] for i in at] == [0, 1] and at[1] == at[0] + 1


def test_cli_query_failing_exit_counts_as_failed(tmp_path):
    result = run.cli_query([], tmp_path / "c.json", command=["-c", "import sys; print('{}'); sys.exit(3)"])
    assert result["error"].startswith("exit code 3")


def test_cli_query_traceback_counts_as_failed(tmp_path):
    code = "import sys; sys.stderr.write('Traceback (most recent call last):\\n'); print('{}')"
    result = run.cli_query([], tmp_path / "c.json", command=["-c", code])
    assert result["error"].startswith("traceback on stderr")


def test_cli_query_success(tmp_path):
    result = run.cli_query([], tmp_path / "c.json", command=["-c", "print('{\"value\": \"2\"}')"])
    assert result["error"] is None and result["answer"] == {"value": "2"}


def test_rational_functions_compare_as_values():
    twice = {"vars": ["t1"], "num": [["2", [2]]], "den": [["2", [0]]]}
    once = {"vars": ["t1"], "num": [["1", [2]]], "den": [["1", [0]]]}
    other = {"vars": ["t1"], "num": [["1", [4]]], "den": [["1", [0]]]}
    assert queries.same_answer(twice, once)
    assert not queries.same_answer(other, once)


def test_corrupted_reference_is_caught(tmp_path, monkeypatch, capsys):
    refs = json.loads((BENCH / "refs" / "recursions.json").read_text())
    key = next(k for k in refs if k.startswith('twisted_catalan {"g":1,"group":"S3"'))
    refs[key][0] = str(queries.Fraction(refs[key][0]) + 1)
    (tmp_path / "recursions.json").write_text(json.dumps(refs))
    monkeypatch.setattr(worker, "REFS", tmp_path)
    worker.main(["run", "--workload", "recursions", "--seed", "3", "--t0", "0"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    failed = [f for f in out["failures"] if f is not None]
    # the basis answer and the decoration-vector answer built from it
    assert {f["layer"] for f in failed} == {"amodel"}
    assert key in {f["query"] for f in failed}
    assert len(failed) == 2
