"""Finite groups, conjugacy data, and the class algebra of a group.

Groups are multiplication tables validated at load time, within a fixed
budget of table entries, GROUP_WORK_BUDGET.  The class algebra carries the
centralizer-weighted pairing; its surface amplitudes are cross-checked by
``omega_brute``, a raw tuple count of solutions of the
product-of-commutators equation, which shares no machinery with the
algebraic formula it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from typing import Mapping, Sequence, Union

from .exact import BudgetError, Rational, _as_int
from .frobenius import EULER_POWER_BITS, FrobeniusAlgebra

# the table lookups one ``omega_brute`` call may make
DEFAULT_BUDGET = 10 ** 8
# the largest point a permutation generator may name; a permutation is
# stored as a tuple over every point up to its largest
MAX_DEGREE = 1000
# the table entries one group load may fill and check (``_order_gate``): S6
# from any generators, at most 7 x 720^2, loads in 0.2 s on a 2-core host
GROUP_WORK_BUDGET = 4 * 10 ** 6


class GroupAxiomError(ValueError):
    """A multiplication table fails a group axiom.

    ``axiom`` is one of "closure", "identity", "inverses",
    "associativity"; ``witness`` holds offending element indices.
    """

    def __init__(self, axiom: str, witness=None):
        self.axiom = axiom
        self.witness = witness
        msg = f"not a group: {axiom} fails"
        if witness is not None:
            msg += f" at {witness}"
        super().__init__(msg)


class FiniteGroup:
    """A finite group given by its multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.
    Element 0 is the identity; ``names`` are display names with the
    identity always named "1".  The group axioms are checked at
    construction, associativity by Light's test on a generating set, and
    ``_order_gate`` charges the table and each generator before they are read.
    """

    def __init__(self, table: Sequence[Sequence[int]],
                 names: Sequence[str] | None = None,
                 description: str = "table"):
        n = len(table)
        _order_gate(n, 1)
        self.order = n
        self.table = tuple(tuple(map(_as_int, row)) for row in table)
        self.description = description
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise GroupAxiomError("closure", (i,))
            for j, x in enumerate(row):
                if not 0 <= x < n:
                    raise GroupAxiomError("closure", (i, j))
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise GroupAxiomError("identity", (i,))
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == 0 and self.table[j][i] == 0:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise GroupAxiomError("inverses", (i,))
        self.inverse = tuple(inv)
        # Light's test: (x s) y = x (s y) for all x, y and each s of a
        # generating set, each generator the first element outside the
        # closure of the identity under right multiplication by the ones
        # before.  If a and b pass, x (ab) = (xa) b and (ab) y = a (by), so
        # ab passes: every product of generators, that is every element,
        # passes.
        table = self.table
        gens, reached = [], {0}
        for x in range(n):
            if x not in reached:
                gens.append(x)
                _order_gate(n, len(gens) + 1)
                todo = list(reached)
                while todo:
                    row = table[todo.pop()]
                    for s in gens:
                        if row[s] not in reached:
                            reached.add(row[s])
                            todo.append(row[s])
        for s in gens:
            for x in range(n):
                row = table[x]
                xs = table[row[s]]
                for y, sy in enumerate(table[s]):
                    if row[sy] != xs[y]:
                        raise GroupAxiomError("associativity", (x, s, y))
        if names is None:
            names = ["1"] + [f"g{i}" for i in range(1, n)]
        if len(names) != n:
            raise ValueError("name count does not match order")
        self.names = tuple(str(x) for x in names)
        # genus -> g-fold commutator distribution, for g = 0 and the genera
        # ``_commutator_distribution`` was asked for
        self._commutator_dists = {0: (1,) + (0,) * (n - 1)}

    def conj(self, a: int, g: int) -> int:
        """g a g^-1."""
        return self.table[self.table[g][a]][self.inverse[g]]

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, {self.description})"


class ConjugacyData:
    def __init__(self, group: FiniteGroup):
        self.group = group
        n = group.order
        seen = [False] * n
        classes = []
        for a in range(n):
            if seen[a]:
                continue
            cl = sorted({group.conj(a, g) for g in range(n)})
            for x in cl:
                seen[x] = True
            classes.append(tuple(cl))
        classes.sort(key=lambda cl: cl[0])
        self.classes = tuple(classes)
        self.num_classes = len(classes)
        class_of = [None] * n
        for ci, cl in enumerate(classes):
            for x in cl:
                class_of[x] = ci
        self.class_of = tuple(class_of)
        cents = []
        for cl in classes:
            r = cl[0]
            c = sum(1 for g in range(n)
                    if group.table[g][r] == group.table[r][g])
            if c * len(cl) != n:
                raise AssertionError(
                    "centralizer-order times class size must equal the order")
            cents.append(c)
        self.centralizer_orders = tuple(cents)
        self.inverse_class = tuple(
            self.class_of[group.inverse[cl[0]]] for cl in classes
        )
        for ci, cj in enumerate(self.inverse_class):
            if self.inverse_class[cj] != ci:
                raise AssertionError("class inversion must be an involution")
        self.class_names = tuple(
            f"[{group.names[cl[0]]}]" for cl in classes
        )


# -- builtin groups -----------------------------------------------------------


def _cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["1"] + [f"g{i}" for i in range(1, n)]
    return FiniteGroup(table, names, description=f"Z{n}")


def _klein() -> FiniteGroup:
    # elements 1, a, b, ab with XOR composition on the index bits
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return FiniteGroup(table, ["1", "a", "b", "ab"], description="Z2xZ2")


def _perm_mul(p, q):
    """Composition acting left-to-right: (p*q)(x) = q(p(x))."""
    return tuple(q[p[x]] for x in range(len(p)))


def _cycle_notation(p) -> str:
    m = len(p)
    seen = [False] * m
    parts = []
    for s in range(m):
        if seen[s] or p[s] == s:
            seen[s] = True
            continue
        cyc = [s]
        seen[s] = True
        x = p[s]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "1"


def parse_cycles(line: str):
    """Parse disjoint-cycle notation like "(1 2 3)(4 5)" into a permutation
    tuple on 0-based points.  Points in the input are 1-based.

    Raises ValueError, naming the text, on an unclosed cycle, a point that
    is not an integer, and a point repeated within or across cycles: the
    cycles must be disjoint for the result to be a permutation.  A point
    beyond MAX_DEGREE raises ValueError naming the point."""
    line = line.strip()
    pts = set()
    cycles = []
    i = 0
    while i < len(line):
        if line[i] != "(":
            raise ValueError(f"bad cycle notation near {line[i:]!r}")
        j = line.find(")", i)
        if j < 0:
            raise ValueError(f"unclosed cycle in {line!r}")
        body = line[i + 1:j].replace(",", " ").split()
        try:
            cyc = [int(x) - 1 for x in body]
        except ValueError:
            raise ValueError(f"cycle points must be integers in {line!r}") from None
        if any(x < 0 for x in cyc):
            raise ValueError("points must be positive")
        for x in cyc:
            if x >= MAX_DEGREE:
                raise ValueError(
                    f"point {x + 1} in {line!r} exceeds the largest degree {MAX_DEGREE}")
            if x in pts:
                raise ValueError(f"point {x + 1} repeats in {line!r}; cycles must be disjoint")
            pts.add(x)
        cycles.append(cyc)
        i = j + 1
    p = list(range(max(pts) + 1 if pts else 1))
    for cyc in cycles:
        for k, x in enumerate(cyc):
            p[x] = cyc[(k + 1) % len(cyc)]
    return tuple(p)


def _order_gate(n: int, passes: int) -> None:
    """A group of order n costs n^2 table entries a pass: one pass fills
    its table, and Light's test checks one for each generator it picks, a
    few for a group, up to n for a table that is not one.  Refuse when the
    passes exceed GROUP_WORK_BUDGET."""
    if n * n * passes > GROUP_WORK_BUDGET:
        raise BudgetError(
            f"group of order at least {n}: {passes} passes over its table exceed "
            f"{GROUP_WORK_BUDGET} entries")


def group_from_permutations(lines: Sequence[str],
                            description: str = "permutations") -> FiniteGroup:
    """The group generated by permutations in disjoint-cycle notation, one
    per line; blank lines and lines starting with "#" are skipped.  The
    closure stops with BudgetError once the elements found could not pass
    the group's gate: their table and one generator of Light's test.  It
    takes order times generators products of permutations; the table is
    read off them by lookups."""
    gens = []
    degree = 0
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        p = parse_cycles(line)
        degree = max(degree, len(p))
        gens.append(p)
    if not gens:
        raise ValueError("no generators given")
    gens = [p + tuple(range(len(p), degree)) for p in gens]
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    # breadth first: element x times generator k is element right[x][k],
    # and each element after the identity is first found as parent times k
    right, found = [], []
    for x, e in enumerate(elems):  # elems grows while it is walked
        right.append([])
        for k, g in enumerate(gens):
            h = _perm_mul(e, g)
            if h not in index:
                index[h] = len(elems)
                elems.append(h)
                found.append((x, k))
                _order_gate(len(elems), 2)
            right[x].append(index[h])
    # x (parent g_k) = (x parent) g_k, the parent coming first
    table = []
    for x in range(len(elems)):
        row = [x]
        for parent, k in found:
            row.append(right[row[parent]][k])
        table.append(row)
    names = [_cycle_notation(p) for p in elems]
    return FiniteGroup(table, names, description=description)


def _s3() -> FiniteGroup:
    return group_from_permutations(["(1 2)", "(1 2 3)"], description="S3")


def _q8() -> FiniteGroup:
    # elements 1, -1, i, -i, j, -j, k, -k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # encode as (axis, sign): axis 0 = scalar, 1 = i, 2 = j, 3 = k
    def enc(idx):
        return idx // 2, 1 if idx % 2 == 0 else -1

    def dec(axis, sign):
        return axis * 2 + (0 if sign == 1 else 1)

    # quaternion axis products: ax1*ax2 -> (axis, sign)
    qmul = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    table = []
    for a in range(8):
        row = []
        ax1, s1 = enc(a)
        for b in range(8):
            ax2, s2 = enc(b)
            ax, s = qmul[(ax1, ax2)]
            row.append(dec(ax, s * s1 * s2))
        table.append(row)
    return FiniteGroup(table, names, description="Q8")


BUILTIN_GROUPS = {
    "trivial": lambda: FiniteGroup([[0]], ["1"], description="trivial"),
    "Z2": lambda: _cyclic(2),
    "Z3": lambda: _cyclic(3),
    "Z4": lambda: _cyclic(4),
    "Z2xZ2": _klein,
    "S3": _s3,
    "Q8": _q8,
}


def load_group(source: Union[str, Mapping, Sequence[str]]) -> FiniteGroup:
    """Load a group from a builtin name ("Z2" or "builtin:Z2"), a Cayley
    table mapping {"order": N, "table": [[...]]}, or permutation generator
    lines in disjoint-cycle notation.  A group whose table and checks would
    pass GROUP_WORK_BUDGET raises BudgetError."""
    if isinstance(source, Mapping):
        table = source["table"]
        if "order" in source and _as_int(source["order"]) != len(table):
            raise ValueError("declared order does not match table size")
        return FiniteGroup(table, description="table")
    if isinstance(source, str):
        name = source.strip()
        if name.startswith("builtin:"):
            name = name[len("builtin:"):]
        if name in BUILTIN_GROUPS:
            return BUILTIN_GROUPS[name]()
        if "(" in name:
            return group_from_permutations(name.splitlines())
        raise ValueError(
            f"unknown group source {source!r}; builtins: "
            f"{sorted(BUILTIN_GROUPS)}")
    return group_from_permutations(list(source))


def conjugacy(G: FiniteGroup) -> ConjugacyData:
    return ConjugacyData(G)


def orbifold_frobenius(G: FiniteGroup,
                       cd: ConjugacyData | None = None) -> FrobeniusAlgebra:
    """The class algebra of G with the centralizer-weighted pairing.

    Basis is indexed by conjugacy classes; the pairing couples a class to
    its inverse class with weight 1/|centralizer|, and the product sums
    |C(product)| / |G| over ordered pairs (a, b) from classes i and j.
    Conjugating a permutes class j, so every a in class i meets each class
    k equally often: the pairs are counted as integers from one
    representative a, times the size of class i."""
    if cd is None:
        cd = conjugacy(G)
    h = cd.num_classes
    N = G.order
    pairing = [
        [
            Fraction(1, cd.centralizer_orders[i])
            if cd.inverse_class[i] == j else Fraction(0)
            for j in range(h)
        ]
        for i in range(h)
    ]
    prod = []
    for cl in cd.classes:
        row = G.table[cl[0]]
        plane = []
        for cj in cd.classes:
            counts = [0] * h
            for b in cj:
                counts[cd.class_of[row[b]]] += 1
            plane.append([Fraction(len(cl) * n * cd.centralizer_orders[k], N)
                          for k, n in enumerate(counts)])
        prod.append(plane)
    return FrobeniusAlgebra(h, cd.class_names, prod, pairing)


def _convolve(G: FiniteGroup, p: tuple, q: tuple) -> tuple:
    """[z] -> the sum of p[x] q[y] over the x, y with x y = z."""
    out = [0] * G.order
    for x, c in enumerate(p):
        if c:
            for z, d in zip(G.table[x], q):
                out[z] += c * d
    return tuple(out)


def _commutator_distribution(G: FiniteGroup, g: int) -> tuple:
    """[x] -> the number of tuples (a_1, b_1, .., a_g, b_g) whose product of
    commutators is x: the g-fold convolution power of the single-commutator
    distribution, by square-and-multiply.  The group keeps the genera asked
    for, no power between; a genus whose counts, at most N^(2g), may need
    more than EULER_POWER_BITS bits, the bound of e^g, raises BudgetError:
    2 (N-1).bit_length() bits a genus, or 1 for the trivial group."""
    dists = G._commutator_dists
    dist = dists.get(g)
    if dist is None:
        bits = g * (2 * (G.order - 1).bit_length() or 1)
        if bits > EULER_POWER_BITS:
            raise BudgetError("genus g=%d: the counts may need %d bits, more than %d"
                              % (g, bits, EULER_POWER_BITS))
        comm = dists.get(1)
        if comm is None:
            mul, inv, comm = G.table, G.inverse, [0] * G.order
            for a, b in iproduct(range(G.order), repeat=2):
                comm[mul[mul[mul[a][b]][inv[a]]][inv[b]]] += 1
            comm = dists[1] = tuple(comm)
        dist = comm
        for bit in bin(g)[3:]:  # the binary digits of g after the leading 1
            dist = _convolve(G, dist, dist)
            if bit == "1":
                dist = _convolve(G, dist, comm)
        dists[g] = dist
    return dist


def omega_brute(G: FiniteGroup, g: int, class_indices: Sequence[int],
                cd: ConjugacyData | None = None) -> Rational:
    """Count tuples (a_1, b_1, .., a_g, b_g, s_1, .., s_n) with the product
    of commutators of the (a, b) pairs equal to the product of the s_j,
    each s_j running over the j-th requested conjugacy class; divide by
    the group order.  Pure table-lookup counting; a class index outside
    0..num_classes-1 raises ValueError.  BudgetError is raised past
    DEFAULT_BUDGET lookups, n * prod |c_j|, or past the genus gate of
    ``_commutator_distribution``."""
    if type(g) is not int:  # an int is what the rule reads it as
        g = _as_int(g)
    n = len(class_indices)
    if n < 1:
        raise ValueError("need at least one class index")
    if g < 0:
        raise ValueError("g must be non-negative")
    if cd is None:
        cd = conjugacy(G)
    h, classes, lookups = cd.num_classes, [], n
    for ci in class_indices:
        if type(ci) is not int:
            ci = _as_int(ci)
        if not 0 <= ci < h:
            raise ValueError(f"class index {ci} out of range 0..{h - 1}")
        cl = cd.classes[ci]
        classes.append(cl)
        lookups *= len(cl)
    if lookups > DEFAULT_BUDGET:
        raise BudgetError(
            f"{lookups} lookups over the classes exceed budget {DEFAULT_BUDGET}; "
            "reduce n or the class sizes")
    dist = _commutator_distribution(G, g)
    mul = G.table
    count = 0
    for sigmas in iproduct(*classes):
        p = 0
        for s in sigmas:
            p = mul[p][s]
        count += dist[p]
    return Fraction(count, G.order)
