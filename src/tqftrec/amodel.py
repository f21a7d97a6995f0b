"""Counting recursions for decorated cell graphs.

Two families of counts, each a set of kernels for the cut-and-join engine
in ``tqftrec.cutjoin``; their scalar versions are the trivial-algebra case:

- ``catalan`` / ``twisted_catalan``: generalized Catalan numbers
  ``C_{g,n}(mu)``, the number of arrowed cell graphs with vertex degrees
  ``mu``, with a Frobenius-algebra decoration on each boundary;
  ``twisted_dessin`` divides them by the degrees.
- ``lattice_twisted``: the decorated lattice-point count ``N_{g,n}`` of
  metric ribbon graphs with integer edge lengths, weighted by the ways of
  cutting an integer length, over the one unstable base
  N_{0,2}(b1, b2) = delta_{b1,b2} / b1 times the pairing.

Both vanish on odd total degree.  The Catalan counts also vanish where
Euler's formula leaves no connected cell graph: below sum(mu) = 2(n - 1 +
2g), and on a degree 0 beside another vertex.  All values are exact
rationals.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .cutjoin import TRIVIAL, CutJoinTable, _int_form, shared
from .frobenius import AlgebraElement, FrobeniusAlgebra

Rational = Fraction

__all__ = [
    "CatalanTable",
    "LatticeTable",
    "catalan",
    "twisted_catalan",
    "twisted_dessin",
    "lattice_twisted",
]

CACHE_SCHEMA = 1


def _sha256():
    """The builtin SHA-256 constructor, which loads no OpenSSL: ``hashlib``
    imports ``_hashlib``, which costs a ``--cache`` process about 4 ms and
    3.4 MB, so ``hashlib`` is imported only where the interpreter has no
    builtin one."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def _digest(body: Mapping) -> str:
    """The SHA-256 hex digest of a cache body, dumped as canonical JSON;
    only cache files need it, so the hash module is imported on first use."""
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return _sha256()(text.encode()).hexdigest()


def _top_genus(mu: Sequence[int]) -> int:
    """The highest genus at which the Catalan count of mu can be nonzero,
    negative when there is none.  A connected cell graph with n vertices and
    E = sum(mu) / 2 edges has F >= 1 faces, so Euler's formula n - E + F =
    2 - 2g asks sum(mu) >= 2(n - 1 + 2g); the total degree is even, and a
    vertex of degree 0 is a whole graph, so it is connected only alone."""
    total, n = sum(mu), len(mu)
    if total % 2 or (n > 1 and 0 in mu):
        return -1
    return (total // 2 - n + 1) // 2


class CatalanTable(CutJoinTable):
    """Memoized generalized Catalan numbers decorated by an algebra.

    Over the trivial algebra, the default, the table holds the scalar
    counts ``C_{g,n}(mu)`` (``untwisted``); over any algebra, the decorated
    counts (``twisted``).
    """

    def _check(self, g, checked):
        ints, ordered, _, _ = checked
        if ordered[-1] < 0:
            raise ValueError("degrees must be non-negative, got %s" % list(ints))

    def _vanishes(self, g, mu):
        return g > _top_genus(mu)

    def _split_genera(self, g, mu1, mu2):
        return range(max(0, g - _top_genus(mu2)), min(g, _top_genus(mu1)) + 1)

    def _base_case(self, g, mu):
        # every other profile with a degree 0 vanishes
        return self._sparse(1, lambda i: self.algebra.counit[i]) if mu == (0,) else None

    def _joins(self, m1, mj, stable):
        return ((m1 + mj - 2, mj),)

    def _cuts(self, m1):
        return ((a, m1 - 2 - a, 1) for a in range(m1 - 1))

    # -- cache files ------------------------------------------------------

    def to_json(self) -> dict:
        """The memoized entries, with the schema version and algebra they
        belong to and a SHA-256 digest of it all."""
        body = {
            "schema": CACHE_SCHEMA,
            "algebra": self.algebra.to_json(),
            "entries": [
                {"g": g, "mu": list(mu), "decor": list(decor), "value": str(v)}
                for g, mu, decor, v in self.rows()
            ],
        }
        return dict(body, sha256=_digest(body))

    def load_json(self, data: Mapping) -> int:
        """Fill the table from a ``to_json`` dump; returns the entry count.

        Raises, and leaves the table untouched, unless the digest matches,
        the dump was written for this schema and for an algebra with the
        tensors of this one, under any labels, and every entry is well
        formed: its profile in decreasing order, and not one that vanishes,
        which a query answers with zero before it reads the memo.
        """
        body = dict(data)
        if body.pop("sha256", None) != _digest(body):
            raise ValueError("cache digest does not match its contents")
        written = body.get("algebra")  # its tensors, not its labels, must match this algebra's
        if body.get("schema") != CACHE_SCHEMA or not isinstance(written, dict) or (
                dict(written, labels=None) != dict(self.algebra.to_json(), labels=None)):
            raise ValueError("cache was written for another table")
        tensors = {}
        for e in body["entries"]:
            g, mu, idx = e["g"], tuple(e["mu"]), tuple(e["decor"])
            if not (
                isinstance(g, int) and g >= 0 and mu and len(idx) == len(mu)
                and all(isinstance(x, int) and x >= 0 for x in mu + idx)
                and max(idx) < self.algebra.dim and isinstance(e["value"], str)
                and list(mu) == sorted(mu, reverse=True) and not self._vanishes(g, mu)
            ):
                raise ValueError("malformed cache entry %r" % (e,))
            if value := Fraction(e["value"]):
                tensors.setdefault((g, mu), {})[idx] = value
        for key, tensor in tensors.items():
            self._tensors.setdefault(key, _int_form(tensor))
        return len(body["entries"])


def catalan(g: int, n: int, mu: Sequence[int]) -> Rational:
    """Number of connected arrowed cell graphs of genus g with degrees mu."""
    return shared(CatalanTable, TRIVIAL).untwisted(g, mu, n)


def twisted_catalan(
    g: int,
    n: int,
    mu: Sequence[int],
    algebra: FrobeniusAlgebra,
    vs: Sequence[AlgebraElement],
) -> Rational:
    """Decorated Catalan count; reduces to ``catalan`` for the trivial algebra."""
    return shared(CatalanTable, algebra).twisted(g, mu, vs, n)


def twisted_dessin(
    g: int,
    n: int,
    mu: Sequence[int],
    algebra: FrobeniusAlgebra,
    vs: Sequence[AlgebraElement],
) -> Rational:
    """Decorated dessin count: the Catalan count divided by the degrees.

    The unstable (0,2) case is the number of connected genus-zero
    two-vertex arrowed cell graphs with degrees (mu1, mu2), divided by
    mu1*mu2, times the pairing of the two decorations.  This matches the
    Laplace-transform normalization of the two-point function and is
    excluded from acceptance claims.
    """
    table = shared(CatalanTable, algebra)
    g, (ints, ordered, _, _) = table._validate(g, n, mu)
    if ordered[-1] < 1:
        raise ValueError("dessin counts need positive degrees, got %s" % list(ints))
    return table.twisted(g, ints, vs) / math.prod(ints)


# -- lattice-point recursion ----------------------------------------------


class LatticeTable(CutJoinTable):
    """Memoized decorated lattice-point counts driven by the cut recursion.

    The one unstable base is N_{0,2}(b1, b2) = delta_{b1,b2} / b1 times the
    pairing of the two decorations; the recursion never reaches (0,1).
    """

    def _vanishes(self, g, mu):
        return sum(mu) % 2 == 1

    def _split_genera(self, g, mu1, mu2):
        # a split term has no unstable half, (0,1) or (0,2): a half of genus
        # h with k slots needs 2h + k > 2, so h >= (4 - k) // 2
        if sum(mu1) % 2 or sum(mu2) % 2:
            return ()
        return range(max(0, (4 - len(mu1)) // 2), g - max(0, (4 - len(mu2)) // 2) + 1)

    def _check(self, g, checked):
        if (g, len(checked[0])) == (0, 1):
            raise ValueError("the lattice count has no (0,1) case")
        CatalanTable._check(self, g, checked)  # the Catalan counts' degrees

    def _base_case(self, g, mu):
        if 2 * g - 2 + len(mu) > 0:
            return None if any(mu) else {}
        b1, b2 = mu
        if b1 != b2 or b1 == 0:
            return {}
        return self._sparse(2, lambda i, j: Fraction(self.algebra.pairing[i][j], b1))

    def _joins(self, m1, mj, stable):
        # three cut ranges; the last two are empty unless one length is
        # longer, and are skipped when the child is the unstable (0,2)
        spans = ((m1 + mj, 1), (m1 - mj, 1), (mj - m1, -1)) if stable else ((m1 + mj, 1),)
        return (
            (q, Fraction(sign * q * (span - q), 2 * m1))
            for span, sign in spans
            for q in range(1, span)
        )

    def _cuts(self, m1):
        return (
            (q1, q2, Fraction(q1 * q2 * (m1 - q1 - q2), 2 * m1))
            for q1 in range(1, m1)
            for q2 in range(1, m1 - q1)
        )


def lattice_twisted(
    g: int,
    n: int,
    mu: Sequence[int],
    algebra: FrobeniusAlgebra,
    vs: Sequence[AlgebraElement],
) -> Rational:
    """Decorated lattice-point count of metric ribbon graphs."""
    return shared(LatticeTable, algebra).twisted(g, mu, vs, n)
