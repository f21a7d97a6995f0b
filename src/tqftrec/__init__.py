"""Exact-arithmetic topological recursion twisted by finite-group TQFT data.

Layers, from the bottom up:

- ``exact``: rationals and multivariate rational functions in canonical form.
- ``frobenius``: commutative Frobenius algebras and their surface amplitudes.
- ``groups``: finite groups and the class algebra with centralizer pairing,
  plus a raw tuple-counting oracle.
- ``cellgraph``: ribbon graphs, edge-contraction evaluation, enumeration
  oracles.
- ``amodel``: generalized Catalan / dessin counting recursions, twisted by
  algebra decorations.
- ``bmodel``: the differential recursion on the curve x = z + 1/z and the
  inverse-Laplace bridge back to the counts.
- ``intersect``: psi-class correlators via the DVV recursion and its twisted
  variant.
- ``verify``: the check catalogue, each checkable claim written once, which
  ``tqft verify`` and the acceptance criteria run at their own ranges.
- ``cli``: the ``tqft`` command-line front end.
"""

__version__ = "0.1.0"
