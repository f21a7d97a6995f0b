"""Tests of the check catalogue that ``tqft verify`` and the acceptance
criteria share."""

from tqftrec import verify

import catalogue

ROWS = ["frobenius-axioms", "omega-formula-vs-brute", "catalan-vs-enumeration",
        "lattice-vs-catalog", "bmodel-invariants", "correlator-identities"]


def test_every_check_yields_a_case_at_each_of_its_levels():
    for name, checks in verify.SUITES:
        for check in checks:
            assert check.levels and set(check.levels) <= {"quick", "full", "acceptance"}
            for level in check.levels:
                assert next(iter(check(level)), None) is not None, (name, check.__name__, level)
            for level in {"quick", "full", "acceptance"} - set(check.levels):
                assert list(check(level)) == [], (name, check.__name__, level)


def test_each_row_runs_its_pinned_number_of_cases():
    # the ranges of tqft verify, so that none shrinks unseen; at full the
    # catalan and lattice rows add their twisted factorizations.  Every case
    # passes, and no kind of case compares only zeros
    counts = {}
    for level in ("quick", "full"):
        counts[level] = []
        for name, checks in verify.SUITES:
            count, failures, zero_only = catalogue.run(checks, level)
            assert (failures, zero_only) == ([], []), (level, name)
            counts[level].append(count)
    assert [name for name, _ in verify.SUITES] == ROWS
    assert counts == {"quick": [6, 16, 7, 5, 3, 5],
                      "full": [7, 48, 635, 649, 802, 752]}


def test_the_lattice_table_meets_the_catalan_transfer_on_the_wide_range():
    # every profile up to 16 half-edges, n <= 7 and g <= 5 but (0,1): the
    # sum over the lattice table against the transfer's Catalan count
    count, failures, zero_only = catalogue.run([verify.lattice_transfer], "acceptance")
    assert (count, failures, zero_only) == (2458, [], [])
