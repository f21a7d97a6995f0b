"""Tests of the check catalogue that ``tqft verify`` and the acceptance
criteria share."""

from tqftrec import verify

ROWS = ["frobenius-axioms", "omega-formula-vs-brute", "catalan-vs-enumeration",
        "lattice-vs-catalog", "bmodel-invariants", "correlator-identities"]


def _tally(checks, level):
    """(the number of cases, the failing ones) of checks at a level."""
    count, failures = 0, []
    for check in checks:
        for case, got, want in check(level):
            count += 1
            if got != want:
                failures.append(case)
    return count, failures


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
    # catalan and lattice rows add their twisted factorizations
    counts = {level: [_tally(checks, level)[0] for _, checks in verify.SUITES]
              for level in ("quick", "full")}
    assert [name for name, _ in verify.SUITES] == ROWS
    assert counts == {"quick": [6, 16, 7, 5, 3, 5],
                      "full": [7, 48, 635, 609, 7, 752]}


def test_twisted_counts_factor_through_the_brute_amplitude():
    # the twisted Catalan and lattice counts are the scalar count times
    # Omega_{g,n} counted by homomorphisms, over Z3, whose classes [a] and
    # [a^2] are each other's inverses, and S3; the lattice's (0,2) base
    # carries the pairing, off the diagonal over Z3
    for check, pinned in ((verify.catalan_factorization, 624),
                          (verify.lattice_factorization, 600)):
        assert _tally([check], "full") == (pinned, []), check.__name__
