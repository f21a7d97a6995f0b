"""Unit tests for the command line tool."""

import io
import json
import contextlib
import hashlib
import copy
import os
import pathlib
import resource
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqftrec import amodel, bmodel, cli, cutjoin, groups
from tqftrec.exact import MultiRatFun
from tqftrec.frobenius import omega_tqft

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def test_catalan_text_output():
    code, out = run_cli("catalan", "--g", "0", "--n", "1", "--mu", "6")
    assert code == 0
    assert out.strip() == "5"


def test_omega_both_methods_agree():
    code, out = run_cli(
        "--format", "json",
        "omega", "--group", "builtin:Z2", "--g", "1", "--n", "1",
        "--decor", "[1]", "--method", "both",
    )
    assert code == 0
    data = json.loads(out)
    assert data["formula"] == "2"
    assert data["brute"] == "2"
    assert data["match"] is True


def test_omega_single_decoration_covers_every_boundary():
    code, out = run_cli(
        "--format", "json",
        "omega", "--group", "builtin:S3", "--g", "1", "--n", "2",
        "--decor", "[(1 2)]", "--method", "both",
    )
    assert code == 0
    data = json.loads(out)
    assert data["decor"] == ["[(1 2)]", "[(1 2)]"]
    assert data["formula"] == data["brute"] == "18"
    assert data["match"] is True


def test_high_genus_omega_exits_3_within_a_second(capsys):
    start = time.perf_counter()
    assert run_cli("omega", "--group", "builtin:S3", "--g", "20000", "--n", "1") == (
        cli.EXIT_BUDGET, "")
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "budget exceeded: genus g=20000: e^g may need 120000-bit coefficients, more than 100000\n")
    # the gate bounds the size of e^g: over the trivial algebra e = 1 at every genus
    assert run_cli("omega", "--group", "builtin:trivial", "--g", "20000", "--n", "1") == (
        cli.EXIT_OK, "group: builtin:trivial\ng: 20000\nn: 1\ndecor: [1]\nformula: 1\n")


def test_omega_within_the_euler_power_budget_prints_its_full_value():
    code, out = run_cli("omega", "--group", "builtin:S3", "--g", "1500", "--n", "1")
    assert code == 0 and len(out) == 2386
    assert out.startswith("group: builtin:S3\ng: 1500\nn: 1\ndecor: [1]\nformula: 157935094946")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3ae3db0f14bda8f17094560fbb90f062b8f47246e29c6d7f20b66d54fb76f0bb")


def test_omega_past_the_int_string_limit_prints_its_full_value():
    # e^3000 over S3 has more digits than Python writes by default; Decimal
    # reads them back exactly, with no such limit
    cap = getattr(sys, "get_int_max_str_digits", int)()
    code, out = run_cli("--format", "json", "omega", "--group", "builtin:S3", "--g", "3000", "--n", "1")
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", int)() == cap  # restored once written
    text = json.loads(out)["formula"]
    A = groups.orbifold_frobenius(groups.load_group("builtin:S3"))
    want = omega_tqft(A, 3000, 1, [A.basis(0)])
    assert len(text) > 4300 and want.denominator == 1 and int(Decimal(text)) == want.numerator


def test_frobenius_prints_the_labels_of_its_own_load():
    for group, labels in (([], ["1"]), (["--group", "builtin:trivial"], ["[1]"]), ([], ["1"])):
        code, out = run_cli("--format", "json", "frobenius", *group)
        assert code == 0 and json.loads(out)["labels"] == labels, group


def test_group_info_json():
    code, out = run_cli("--format", "json", "group-info", "--group", "builtin:S3")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6
    assert len(data["classes"]) == 3


def test_byte_determinism():
    args = ("--format", "json", "frobenius", "--group", "builtin:Z3")
    _, first = run_cli(*args)
    _, second = run_cli(*args)
    assert first == second


def test_csv_has_header():
    code, out = run_cli("--format", "csv", "catalan", "--g", "0", "--n", "1", "--mu", "6")
    assert code == 0
    assert out.splitlines()[0].count(",") >= 1


def test_unknown_group_is_usage_error():
    code, _ = run_cli("group-info", "--group", "builtin:nosuch")
    assert code == cli.EXIT_USAGE


def test_bad_decoration_is_usage_error():
    code, _ = run_cli(
        "omega", "--group", "builtin:Z2", "--g", "0", "--n", "1",
        "--decor", "[nope]",
    )
    assert code == cli.EXIT_USAGE


def test_missing_argument_is_usage_error():
    code, _ = run_cli("catalan", "--g", "0", "--n", "1")
    assert code == cli.EXIT_USAGE


def test_negative_genus_is_usage_error_for_every_method(capsys):
    for method in ("brute", "formula", "both"):
        for g in ("-1", "-2"):
            code, out = run_cli("omega", "--group", "builtin:Z2", "--g", g, "--n", "1",
                                "--method", method)
            assert (code, out) == (cli.EXIT_USAGE, ""), (method, g)
            assert capsys.readouterr().err == "usage error: g must be non-negative\n"


def test_budget_exceeded_exit_code():
    # brute-force amplitude beyond the iteration budget
    import os

    old = os.environ.get("TQFT_BUDGET")
    os.environ["TQFT_BUDGET"] = "10"
    try:
        code, _ = run_cli(
            "omega", "--group", "builtin:Q8", "--g", "2", "--n", "3",
            "--decor", "[1]", "--method", "brute",
        )
    finally:
        if old is None:
            os.environ.pop("TQFT_BUDGET", None)
        else:
            os.environ["TQFT_BUDGET"] = old
    assert code == cli.EXIT_BUDGET


def test_decoration_vector_parsing():
    code, out = run_cli(
        "omega", "--group", "builtin:Z2", "--g", "1", "--n", "1",
        "--decor", "1/2,1/2",
    )
    assert code == 0
    # Omega_{1,1}(v) = (1/2) Omega(e_0) + (1/2) Omega(e_1) = 1
    assert "formula: 1" in out


def test_wgn_text_renders_rational_function():
    code, out = run_cli("wgn", "--g", "1", "--n", "1")
    assert code == 0
    assert "t1" in out


def test_wgn_z_frame_of_w04():
    code, out = run_cli("--format", "json", "wgn", "--g", "0", "--n", "4", "--coords", "z")
    assert code == 0
    assert json.loads(out)["function"]["vars"] == ["z1", "z2", "z3", "z4"]


def test_wgn_group_rows_are_the_converted_twisted_values():
    code, out = run_cli("--format", "json", "wgn", "--g", "0", "--n", "4",
                        "--group", "builtin:S3", "--coords", "z")
    assert code == 0
    rows = json.loads(out)["rows"]
    A = groups.orbifold_frobenius(groups.load_group("builtin:S3"))
    tw = bmodel.twisted_wgn(0, 4, A)
    keys = sorted(tw.values)
    assert len(rows) == len(keys) == 81
    nonzero = [i for i, idx in enumerate(keys) if not tw.values[idx].is_zero()]
    for i in (nonzero[0], nonzero[-1]):
        assert rows[i]["decor"] == [A.labels[j] for j in keys[i]]
        assert rows[i]["function"] == bmodel.convert_frame(tw.values[keys[i]], 4, "z").to_json()


def test_emit_renders_each_repeated_function_once(monkeypatch):
    args = cli._build_parser().parse_args(
        ["wgn", "--g", "0", "--n", "4", "--group", "builtin:S3", "--coords", "z"])
    report = cli.cmd_wgn(args)
    # the same rows with a function object each, which nothing can share
    fresh = dict(report, rows=[dict(row, function=copy.copy(row["function"]))
                               for row in report["rows"]])
    calls = []
    to_json = MultiRatFun.to_json
    monkeypatch.setattr(MultiRatFun, "to_json", lambda self: calls.append(id(self)) or to_json(self))
    out = cli.emit(report, "json")
    assert len(report["rows"]) == 81 and len(calls) == len(set(calls)) == 7
    assert out == cli.emit(fresh, "json")
    assert len(calls) == 7 + 81


def test_dessin_02_past_the_matching_oracle_budget():
    code, out = run_cli("dessin", "--g", "0", "--n", "2", "--mu", "9", "9")
    assert code == 0
    assert out.strip() == "4900/9"


def test_correlator_value():
    code, out = run_cli("correlator", "--g", "1", "--n", "1", "--k", "1")
    assert code == 0
    assert out.strip() == "1/24"


def test_twisted_correlator_value():
    code, out = run_cli(
        "correlator", "--g", "1", "--n", "1", "--k", "1",
        "--group", "builtin:Z2", "--decor", "[1]",
    )
    assert code == 0
    assert out.strip() == "1/12"


def test_verify_quick_passes():
    code, out = run_cli("--format", "json", "verify", "--level", "quick")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "catalan.json"
    code1, out1 = run_cli(
        "catalan", "--g", "1", "--n", "1", "--mu", "4", "--cache", str(cache)
    )
    assert code1 == 0 and cache.exists()
    capsys.readouterr()
    code2, out2 = run_cli(
        "catalan", "--g", "1", "--n", "1", "--mu", "4", "--cache", str(cache)
    )
    assert code2 == 0
    assert out1 == out2
    # the file it wrote passes every check on reading
    assert capsys.readouterr().err == ""


def test_edited_cache_cannot_change_the_answer(tmp_path):
    cache = tmp_path / "catalan.json"
    argv = ("catalan", "--g", "0", "--n", "1", "--mu", "4", "--cache", str(cache))
    assert run_cli(*argv) == (0, "2\n")
    data = json.loads(cache.read_text())
    for entry in data["entries"]:
        if entry["mu"] == [4]:
            entry["value"] = "999"
    cache.write_text(json.dumps(data))
    assert run_cli(*argv) == (0, "2\n")
    # the refused file was rewritten with the recomputed value
    rewritten = json.loads(cache.read_text())
    assert {"g": 0, "mu": [4], "decor": [0], "value": "2"} in rewritten["entries"]
    cache.write_text("{not json")
    assert run_cli(*argv) == (0, "2\n")
    # a zero denominator under a valid digest, and nesting too deep to parse
    body = json.loads(cache.read_text())
    del body["sha256"]
    body["entries"][-1]["value"] = "1/0"
    cache.write_text(json.dumps(dict(body, sha256=amodel._digest(body))))
    assert run_cli(*argv) == (0, "2\n")
    cache.write_text("[" * 100000)
    assert run_cli(*argv) == (0, "2\n")


def test_catalan_and_dessin_share_one_cache_file(tmp_path, capsys):
    # without --group both answer from the trivial algebra's one table
    cache = str(tmp_path / "shared.json")
    profile = ["--g", "1", "--n", "1", "--mu", "4", "--cache", cache]
    for command, out in (("catalan", "1\n"), ("dessin", "1/4\n"), ("catalan", "1\n")):
        assert run_cli(command, *profile) == (0, out)
        assert "ignoring cache file" not in capsys.readouterr().err, command


def test_cache_file_accepts_the_trivial_algebra_under_other_labels(tmp_path, capsys):
    # without --group the trivial algebra's label is 1, builtin:trivial's is [1];
    # each call runs on a cold registry, as a new process would
    cache = str(tmp_path / "trivial.json")
    argv = ["catalan", "--g", "1", "--n", "1", "--mu", "4", "--cache", cache]
    for group in ([], ["--group", "builtin:trivial"], []):
        cutjoin.shared.cache_clear()
        assert run_cli(*argv, *group) == (0, "1\n")
        assert "ignoring cache file" not in capsys.readouterr().err, group



def test_decor_without_group_is_a_trivial_algebra_coefficient():
    assert run_cli("catalan", "--g", "0", "--n", "1", "--mu", "4", "--decor", "2") == (0, "4\n")
    assert run_cli("correlator", "--g", "1", "--n", "1", "--k", "1", "--decor", "2") == (0, "1/12\n")


@pytest.mark.parametrize("group, out, entry", [
    ([], "5/3\n", "10"), (["--group", "builtin:Z2"], "10/3\n", "20"),
], ids=["scalar", "Z2"])
def test_dessin_cache_holds_the_answering_table(tmp_path, capsys, monkeypatch, group, out, entry):
    cache = tmp_path / "dessin.json"
    argv = ["dessin", "--g", "1", "--n", "1", "--mu", "6", "--cache", str(cache)] + group
    cutjoin.shared.cache_clear()
    assert run_cli(*argv) == (0, out)
    entries = json.loads(cache.read_text())["entries"]
    assert {"g": 1, "mu": [6], "decor": [0], "value": entry} in entries
    # read back into a cold table, the answer costs no child tensor
    cutjoin.shared.cache_clear()
    monkeypatch.setattr(cutjoin, "CUTJOIN_WORK_BUDGET", 0)
    capsys.readouterr()
    assert run_cli(*argv) == (0, out)
    assert capsys.readouterr().err == ""


def test_group_from_a_json_table_file(tmp_path, capsys):
    table = tmp_path / "z2.json"
    table.write_text(json.dumps({"order": 2, "table": [[0, 1], [1, 0]]}))
    for fmt in ("json", "text", "csv"):
        assert (run_cli("--format", fmt, "group-info", "--group", str(table))
                == run_cli("--format", fmt, "group-info", "--group", "builtin:Z2"))
    for text in ("{not json", "[" * 100000, "5", '{"order": 3, "table": [[0, 1], [1, 0]]}',
                 '{"table": [[0, 1], [0, 1]]}', '{"rows": []}'):
        table.write_text(text)
        capsys.readouterr()
        assert run_cli("group-info", "--group", str(table)) == (cli.EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith("usage error: group file %s: " % table), err
        assert "Traceback" not in err


def test_deep_input_is_a_budget_error():
    code, out = run_cli("catalan", "--g", "0", "--n", "1", "--mu", "3000")
    assert code == cli.EXIT_BUDGET
    assert out == ""


def test_wgn_budget_exits_3_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(bmodel, "WGN_WORK_BUDGET", 50)
    cutjoin.shared.cache_clear()
    assert cli.main(["wgn", "--g", "0", "--n", "5"]) == cli.EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("budget exceeded: w_{0,5}") and "Traceback" not in err
    assert cli.main(["wgn", "--g", "0", "--n", "6", "--group", "builtin:Z2"]) == cli.EXIT_BUDGET


def test_verify_names_the_exception(monkeypatch):
    def crashes(full):
        raise ZeroDivisionError("no inverse")

    suites = [("fine", lambda full: None), ("crashes", crashes)]
    monkeypatch.setattr(cli, "VERIFY_SUITES", suites)
    code, out = run_cli("--format", "json", "verify")
    assert code == cli.EXIT_INTERNAL
    assert json.loads(out)["rows"] == [
        {"suite": "fine", "result": "pass"},
        {"suite": "crashes", "result": "FAIL", "error": "ZeroDivisionError: no inverse"},
    ]
    code, out = run_cli("--format", "csv", "verify")
    assert out.splitlines() == [
        "suite,result,error", "fine,pass,", "crashes,FAIL,ZeroDivisionError: no inverse"
    ]


def test_verify_names_the_witness(monkeypatch):
    suites = [("fine", lambda full: None), ("wrong", lambda full: "catalan g=1 mu=(4,): 1 != 2")]
    monkeypatch.setattr(cli, "VERIFY_SUITES", suites)
    code, out = run_cli("--format", "json", "verify")
    assert code == cli.EXIT_INTERNAL
    assert json.loads(out)["rows"] == [
        {"suite": "fine", "result": "pass"},
        {"suite": "wrong", "result": "FAIL", "witness": "catalan g=1 mu=(4,): 1 != 2"},
    ]
    code, out = run_cli("--format", "csv", "verify")
    assert out.splitlines() == [
        "suite,result,witness", "fine,pass,", "wrong,FAIL,\"catalan g=1 mu=(4,): 1 != 2\""
    ]


def test_cutjoin_budget_exits_3_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(cutjoin, "CUTJOIN_WORK_BUDGET", 1000)
    cutjoin.shared.cache_clear()
    assert cli.main(["correlator", "--g", "6", "--n", "1", "--k", "16"]) == cli.EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("budget exceeded: profile g=6, k=[16]") and "Traceback" not in err
    assert cli.main(["catalan", "--g", "0", "--n", "1", "--mu", "200"]) == cli.EXIT_BUDGET
    # a request within the budget still answers, and counts only its own work
    assert run_cli("correlator", "--g", "2", "--n", "1", "--k", "4") == (0, "1/1152\n")
    assert run_cli("correlator", "--g", "3", "--n", "1", "--k", "7") == (0, "1/82944\n")


def test_cutjoin_budget_refuses_within_seconds_at_its_default(capsys):
    # at the default budget, a request past the gate is refused in about 4 s
    # on a 2-core host, as is the correlator's first refusal
    cutjoin.shared.cache_clear()
    start = time.perf_counter()
    code = cli.main(["catalan", "--g", "2", "--n", "11", "--mu", *["4"] * 11])
    assert code == cli.EXIT_BUDGET and time.perf_counter() - start < 30
    assert capsys.readouterr().err.startswith("budget exceeded: profile g=2, mu=[4, 4, 4")
    cutjoin.shared.cache_clear()


def _readme_commands():
    block = README.read_text().split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("tqft ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_examples_run(argv):
    code, out = run_cli(*argv)
    assert code == 0 and out


def test_counting_commands_never_load_sympy(tmp_path):
    # a fresh interpreter: sympy is loaded only by symbolic work, so the
    # counting commands and the JSON form of w_{g,n} run without it
    cache = str(tmp_path / "cache.json")
    commands = [
        ["catalan", "--g", "1", "--n", "2", "--mu", "4", "4"],
        ["catalan", "--g", "1", "--n", "1", "--mu", "6", "--group", "builtin:S3", "--decor", "[(1 2)]"],
        ["dessin", "--g", "1", "--n", "1", "--mu", "4"],
        ["correlator", "--g", "1", "--n", "1", "--k", "1", "--group", "builtin:Z2", "--decor", "[1]"],
        ["omega", "--group", "builtin:S3", "--g", "1", "--n", "2", "--decor", "[(1 2)]", "--method", "both"],
        ["group-info", "--group", "builtin:Q8"],
        ["--format", "json", "wgn", "--g", "1", "--n", "1", "--coords", "z"],
        ["catalan", "--g", "0", "--n", "2", "--mu", "4", "6", "--cache", cache],
        ["catalan", "--g", "0", "--n", "2", "--mu", "6", "4", "--cache", cache],
    ]
    script = (
        "import sys\n"
        "import tqftrec.cli\n"
        "for argv in %r:\n"
        "    assert tqftrec.cli.main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')\n"
        "assert not loaded, loaded[:5]\n" % (commands,)
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert os.path.exists(cache) and "ignoring cache" not in proc.stderr


@pytest.mark.parametrize("level", ["quick", "full"])
def test_verify_loads_no_sympy(level):
    # a fresh interpreter: the B-model checks compute in exact polynomial
    # fractions, so neither level imports sympy
    script = (
        "import contextlib, io, json, sys\n"
        "import tqftrec.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = tqftrec.cli.main(['--format', 'json', 'verify', '--level', %r])\n"
        "rows = json.loads(out.getvalue())['rows']\n"
        "assert code == 0 and len(rows) == 6, (code, rows)\n"
        "assert all(row['result'] == 'pass' for row in rows), rows\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')\n"
        "assert not loaded, loaded[:5]\n" % level
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_verify_fails_on_a_perturbed_w11(monkeypatch):
    real = bmodel.wgn
    terms = real(1, 1)._laurent()
    terms[min(terms)] += Fraction(1, 10**9)  # one Laurent coefficient
    wrong = MultiRatFun._from_laurent(terms, bmodel.tvars(1))
    monkeypatch.setattr(bmodel, "wgn", lambda *gn: wrong if gn == (1, 1) else real(*gn))
    code, out = run_cli("--format", "json", "verify", "--level", "quick")
    assert code == cli.EXIT_INTERNAL
    failed = [row for row in json.loads(out)["rows"] if row["result"] != "pass"]
    assert failed == [{"suite": "bmodel-invariants", "result": "FAIL",
                       "witness": "residue check (1,1) disagrees with the recursion"}]


def test_verify_names_w11_when_only_the_pinned_value_disagrees(monkeypatch):
    real = bmodel.wgn
    terms = real(1, 1)._laurent()
    terms[min(terms)] += Fraction(1, 10**9)
    wrong = MultiRatFun._from_laurent(terms, bmodel.tvars(1))
    monkeypatch.setattr(bmodel, "wgn", lambda *gn: wrong if gn == (1, 1) else real(*gn))
    monkeypatch.setattr(bmodel, "residue_check", lambda g, n: {"equal": True})
    code, out = run_cli("--format", "json", "verify", "--level", "quick")
    assert code == cli.EXIT_INTERNAL
    failed = [row for row in json.loads(out)["rows"] if row["result"] != "pass"]
    assert failed == [{"suite": "bmodel-invariants", "result": "FAIL",
                       "witness": "w11: %s != -(t1**2 - 1)**3/(128*t1**4)" % wrong}]


def _src_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _capped_group_info(group):
    """``tqft group-info`` in a process under a 60 s time limit and a 1 GB
    address-space cap."""
    return subprocess.run(
        [sys.executable, "-m", "tqftrec.cli", "group-info", "--group", group],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
        env=_src_env())


def test_overlapping_cycles_exit_2_in_a_capped_process():
    # "(1 2)(2 3)" is not a permutation; read as one it once made
    # group-info loop and grow without bound
    proc = _capped_group_info("(1 2)(2 3)")
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr[-2000:]
    assert proc.stderr == "usage error: point 2 repeats in '(1 2)(2 3)'; cycles must be disjoint\n"


def test_large_point_exits_2_in_a_capped_process():
    # the permutation was once sized by its largest point: MemoryError, exit 1
    proc = _capped_group_info("(1 3000000000)")
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr[-2000:]
    assert proc.stderr == ("usage error: point 3000000000 in '(1 3000000000)' "
                           "exceeds the largest degree %d\n" % groups.MAX_DEGREE)


def test_large_group_exits_3_within_seconds():
    # S6 from two generators once took 20 s in its table and associativity
    # check; the closure now stops at order 465, whose cube passes 10^8
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("TQFT_BUDGET", raising=False)
        start = time.perf_counter()
        proc = _capped_group_info("(1 2)\n(1 2 3 4 5 6)")
        assert time.perf_counter() - start < 10
        assert proc.returncode == cli.EXIT_BUDGET, proc.stderr[-2000:]
        assert proc.stderr.startswith("budget exceeded: group of order at least 465"), proc.stderr
        mp.setenv("TQFT_BUDGET", "215")
        assert run_cli("group-info", "--group", "(1 2)\n(1 2 3)")[0] == cli.EXIT_BUDGET
        mp.setenv("TQFT_BUDGET", "216")
        assert run_cli("group-info", "--group", "(1 2)\n(1 2 3)")[0] == cli.EXIT_OK


def test_deep_one_vertex_profile_exits_3_in_a_capped_process():
    # the cut triples of a degree-20000 boundary were once a list in every
    # frame of the descent: MemoryError under the cap, exit 1 with a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "tqftrec.cli", "catalan", "--g", "0", "--n", "1", "--mu", "20000"],
        capture_output=True, text=True, timeout=60, preexec_fn=_cap_address_space,
        env=_src_env())
    assert proc.returncode == cli.EXIT_BUDGET, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "budget exceeded: recursion too deep for profile g=0, mu=[20000]\n"


# -- argv fuzzing: every input ends in a documented exit code -----------------

def _mostly(valid, invalid):
    """Valid values three times in four, else invalid ones."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else invalid)


_INT = _mostly(st.integers(1, 4), st.integers(-12, 12)).map(str)
_GROUPS = _mostly(
    st.sampled_from(["builtin:trivial", "builtin:Z2", "builtin:Z3", "builtin:S3", "builtin:Q8"]),
    st.sampled_from(["builtin:nosuch", "Z5", "", "builtin:", "(1 2", "(1 2)(3", "(1 2 3)",
                     "(1 2)(2 3)", "(1 1)"]))
_DECORS = _mostly(
    st.sampled_from(["[1]", "[(1 2)]", "[(1 2 3)]", "[-1]", "[g1]", "1,0", "1/2,-1/3,2"]),
    st.sampled_from(["1/0,1", "a,b", "", "-3", "0", "[nope]", "1,2,3,4,5,6,7,8,9"]))
_FLAGS = {
    "group-info": ["--group"],
    "frobenius": ["--group"],
    "omega": ["--group", "--g", "--n", "--decor", "--method"],
    "catalan": ["--g", "--n", "--mu", "--group", "--decor"],
    "dessin": ["--g", "--n", "--mu", "--group", "--decor"],
    "wgn": ["--g", "--n", "--coords", "--group"],
    "correlator": ["--g", "--n", "--k", "--group", "--decor"],
}


@st.composite
def _argvs(draw):
    """A subcommand with most of its own flags, now and then a foreign one,
    and sometimes a --format, valid or not; list values mostly have one
    entry per boundary."""
    argv = []
    if draw(st.booleans()):
        argv += ["--format", draw(_mostly(st.sampled_from(["json", "csv", "text"]), st.just("xml")))]
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv.append(command)
    n = draw(_INT)
    size = int(n) if 0 <= int(n) <= 4 and draw(st.integers(0, 4)) else draw(st.integers(0, 4))
    values = {
        "--g": _INT.map(lambda x: [x]),
        "--n": st.just([n]),
        "--mu": st.lists(_INT, min_size=size, max_size=size),
        "--k": st.lists(_INT, min_size=size, max_size=size),
        "--group": _GROUPS.map(lambda x: [x]),
        "--decor": st.one_of(_DECORS.map(lambda x: [x]),
                             st.lists(_DECORS, min_size=size, max_size=size)),
        "--method": _mostly(st.sampled_from(["formula", "brute", "both"]), st.just("nope")).map(lambda x: [x]),
        "--coords": _mostly(st.sampled_from(["t", "x", "z"]), st.just("w")).map(lambda x: [x]),
    }
    flags = [f for f in _FLAGS[command] if draw(st.integers(0, 9))]
    if not draw(st.integers(0, 5)):
        flags.append(draw(st.sampled_from(sorted(values))))
    for flag in draw(st.permutations(flags)):
        vals = draw(values[flag])
        if flag == "--decor":  # a repeatable flag: one --decor per token
            argv += [x for v in vals for x in ("--decor", v)]
        else:
            argv += [flag] + vals
    return argv


@settings(max_examples=80, deadline=None)
@given(_argvs())
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    # small budgets make every budget stop quick; its exit code is the same
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cutjoin, "CUTJOIN_WORK_BUDGET", 20000)
        mp.setattr(bmodel, "WGN_WORK_BUDGET", 5000)
        mp.setenv("TQFT_BUDGET", "20000")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_BUDGET), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
