"""Running the check catalogue of ``tqftrec.verify`` in the tests, shared
by the acceptance criteria and the tests of ``tqft verify``'s rows."""


def run(checks, level):
    """(the number of cases, the failing ones as (case, got, want), the
    kinds of case that compare only zeros) of catalogue checks at a level.

    A case's kind is the first word of its label.  A predicate's case (want
    True) counts as nonzero; a kind whose every case has got == want == 0
    checks nothing, since a value the code fails to compute is often 0."""
    count, failures, nonzero = 0, [], {}
    for check in checks:
        for case, got, want in check(level):
            count += 1
            if got != want:
                failures.append((case, got, want))
            kind = case.split(None, 1)[0]
            nonzero[kind] = nonzero.get(kind) or want is True or got != 0 or want != 0
    return count, failures, sorted(kind for kind, seen in nonzero.items() if not seen)
