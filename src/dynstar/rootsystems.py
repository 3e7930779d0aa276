"""Root systems of classical type with a concrete matrix-realized Chevalley
basis, computed in Python ints and QQ.

Everything here depends only on (family, rank) or on the integer tuples
passed in, never on a Context: root systems, structure tables and
coordinate maps are built once per process and shared read-only.

Roots are stored as integer coordinate tuples in the simple-root basis, and
the Euclidean roots as integer tuples in orthogonal coordinates.
``coordinates`` is the one change of basis, with one exact inverse per
basis: it places the Euclidean roots in the Bourbaki simple system, and
every root in each simple system that ``classify`` reads Levi sets from.
Structure constants are read off from explicit matrix models (traceless
matrices for type A, antidiagonal orthogonal/symplectic models for B, C, D),
then rescaled so that <E_alpha, E_{-alpha}> = 1 under the trace form. Root
vectors are kept as the sparse entries over QQ of their model matrices (one
or two each) and Cartan elements as integer diagonals; no dense matrix is
formed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from sympy.polys.domains import QQ, ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

Root = tuple[int, ...]

SUPPORTED_FAMILIES = ("A", "B", "C", "D")
MAX_RANK = 4


class RootSystemError(ValueError):
    pass


def _neg(a: Root) -> Root:
    return tuple(-x for x in a)


def _add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    roots: tuple[Root, ...]            # simple-root-basis coordinates
    simple: tuple[Root, ...]           # the unit vectors, in order
    positive: frozenset[Root]
    euclid: Mapping[Root, tuple[int, ...]] = field(compare=False, repr=False)
    rootset: frozenset[Root] = field(compare=False, repr=False)

    @property
    def negative(self) -> frozenset[Root]:
        return frozenset(_neg(a) for a in self.positive)

    def is_root(self, a: Root) -> bool:
        return tuple(a) in self.rootset

    def __str__(self) -> str:
        return f"{self.family}{self.rank} ({len(self.roots)} roots)"


def _euclid_roots(family: str, rank: int) -> tuple[list, list]:
    """Roots and Bourbaki simple roots in orthogonal e_i coordinates."""
    n = rank
    if family == "A":
        dim = n + 1
        e = lambda i: tuple(int(k == i) for k in range(dim))
        roots = [tuple(a - b for a, b in zip(e(i), e(j)))
                 for i in range(dim) for j in range(dim) if i != j]
        simple = [tuple(a - b for a, b in zip(e(i), e(i + 1))) for i in range(n)]
        return roots, simple
    e = lambda i: tuple(int(k == i) for k in range(n))
    pm = [1, -1]
    long_short = []
    for i, j in itertools.combinations(range(n), 2):
        for si in pm:
            for sj in pm:
                long_short.append(tuple(si * a + sj * b for a, b in zip(e(i), e(j))))
    if family == "B":
        roots = long_short + [tuple(s * a for a in e(i)) for i in range(n) for s in pm]
        simple = [_sub(e(i), e(i + 1)) for i in range(n - 1)] + [e(n - 1)]
    elif family == "C":
        roots = long_short + [tuple(2 * s * a for a in e(i)) for i in range(n) for s in pm]
        simple = [_sub(e(i), e(i + 1)) for i in range(n - 1)] + [
            tuple(2 * a for a in e(n - 1))]
    elif family == "D":
        roots = long_short
        simple = [_sub(e(i), e(i + 1)) for i in range(n - 1)] + [
            _add(e(n - 2), e(n - 1))]
    else:
        raise RootSystemError(f"unsupported family {family!r}")
    return roots, simple


def build_root_system(family: str, rank: int) -> RootSystem:
    """The root system of the given classical type and rank, built once per
    process and shared."""
    family = family.upper()
    if family not in SUPPORTED_FAMILIES:
        raise RootSystemError(f"unsupported family {family!r}; supported: A, B, C, D")
    lo = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
    if not (lo <= rank <= MAX_RANK):
        raise RootSystemError(f"rank {rank} out of range [{lo}, {MAX_RANK}] for {family}")
    return _root_system(family, rank)


@functools.cache
def _root_system(family: str, rank: int) -> RootSystem:
    eroots, esimple = _euclid_roots(family, rank)
    coords = coordinates(esimple, eroots)
    roots = tuple(sorted(coords.values()))
    euclid = MappingProxyType({c: r for r, c in coords.items()})
    positive = frozenset(c for c in roots if _is_positive(c))
    simple = tuple(coords[s] for s in esimple)
    rs = RootSystem(family, rank, roots, simple, positive, euclid, frozenset(roots))
    _validate(rs)
    return rs


def coordinates(basis: Sequence[Sequence],
                vectors: Iterable[Sequence]) -> Mapping[tuple, Root]:
    """Integer coordinates of each integer vector in ``basis``, keyed by the
    vector, as a shared read-only mapping.

    One exact inverse per basis, of the Gram matrix B B^T (basis vectors as
    rows), kept as an integer matrix over a common denominator, so the
    basis may live in more dimensions than it has vectors (type A's
    Euclidean roots lie in rank + 1 dimensions). Raises RootSystemError if
    the basis is dependent or a vector is not an integral combination of it.
    """
    return _coordinates(tuple(map(tuple, basis)), tuple(map(tuple, vectors)))


@functools.lru_cache(maxsize=512)      # above the 384 simple systems of B4, C4
def _coordinates(basis: tuple[tuple, ...],
                 vectors: tuple[tuple, ...]) -> Mapping[tuple, Root]:
    B, V = (DomainMatrix([[ZZ.convert(x) for x in v] for v in vs],
                         (len(vs), len(basis[0])), ZZ) for vs in (basis, vectors))
    try:
        gram_inv, den = (B * B.transpose()).inv_den()
    except DMNonInvertibleMatrixError:
        raise RootSystemError(f"basis {tuple(basis)} is linearly dependent") from None
    C = V * B.transpose() * gram_inv          # den times the coordinates
    out = {}
    for v, c, image, want in zip(vectors, C.to_list(), (C * B).to_list(),
                                 (V * den).to_list()):
        if image != want:
            raise RootSystemError(f"{v} is not in the span of the basis")
        if any(x % den for x in c):
            raise RootSystemError(f"{v} is not an integral combination of the basis")
        out[v] = tuple(int(x // den) for x in c)
    return MappingProxyType(out)


def _is_positive(c: Root) -> bool:
    for x in c:
        if x != 0:
            return x > 0
    return False


def _validate(rs: RootSystem) -> None:
    # R = R+ cup -R+ disjointly (so -R = R), with the right number of roots
    s, pos, neg = rs.rootset, rs.positive, rs.negative
    counts = {"A": rs.rank * (rs.rank + 1), "B": 2 * rs.rank ** 2,
              "C": 2 * rs.rank ** 2, "D": 2 * rs.rank * (rs.rank - 1)}
    if pos | neg != s or pos & neg or len(s) != counts[rs.family]:
        raise RootSystemError(f"{rs}: expected {counts[rs.family]} roots, "
                              "split into R+ and -R+")


# ---------------------------------------------------------------------------
# root-subset combinatorics (section on reductive / parabolic / Levi / Y sets)
# ---------------------------------------------------------------------------

def _as_rootset(rs: RootSystem, roots: Iterable[Root]) -> frozenset[Root]:
    out = set()
    for a in roots:
        t = tuple(a)
        if not rs.is_root(t):
            raise RootSystemError(f"{t} is not a root of {rs}")
        out.add(t)
    return frozenset(out)


def _sum_closed(rs: RootSystem, s: Iterable[Root]) -> bool:
    """True iff (S+S) cap R is contained in S."""
    return all(c in s for a in s for b in s if (c := _add(a, b)) in rs.rootset)


def check_reductive_subset(rs: RootSystem, U: Iterable[Root]) -> bool:
    """True iff (U+U) cap R is contained in U and -U = U."""
    u = _as_rootset(rs, U)
    return {_neg(a) for a in u} == u and _sum_closed(rs, u)


def check_parabolic(rs: RootSystem, P: Iterable[Root]) -> bool:
    """True iff P cup (-P) = R and (P+P) cap R is contained in P."""
    p = _as_rootset(rs, P)
    return p | {_neg(a) for a in p} == rs.rootset and _sum_closed(rs, p)


def positive_systems(rs: RootSystem) -> list[frozenset[Root]]:
    """All positive systems, breadth-first from ``rs.positive``: for a
    simple root a of P, s_a(P) is P with a replaced by -a, and W acts simply
    transitively on positive systems. Sorted by sign pattern on
    ``sorted(rs.positive)`` (1 where negated), the brute-force order."""
    seen = {frozenset(rs.positive)}
    queue = list(seen)
    for pos in queue:
        for a in simple_roots_of(rs, pos):
            flipped = pos - {a} | {_neg(a)}
            if flipped not in seen:
                seen.add(flipped)
                queue.append(flipped)
    ref = sorted(rs.positive)
    return sorted(seen, key=lambda pos: tuple(a not in pos for a in ref))


def simple_roots_of(rs: RootSystem, pos: frozenset[Root]) -> tuple[Root, ...]:
    """Indecomposable elements of a positive system."""
    simple = []
    for a in pos:
        if not any(_sub(a, b) in pos for b in pos if b != a):
            simple.append(a)
    return tuple(sorted(simple))


# ---------------------------------------------------------------------------
# Chevalley structure constants from matrix models
# ---------------------------------------------------------------------------

# a sparse m x m matrix: its nonzero entries over QQ, keyed by (row, column)
Sparse = dict[tuple[int, int], QQ.dtype]


@dataclass(frozen=True)
class StructureTable:
    """Exact structure data of the matrix-realized algebra, in ints and QQ,
    shared read-only: every mapping is a ``MappingProxyType``.

    c[(a, b)] is the constant in [E_a, E_b] = c E_{a+b};
    cartan[a] gives the H-basis coordinates of [E_a, E_{-a}];
    alpha_h[a][i] = a(H_i); gram_h is the trace-form Gram matrix on h, as
    integer rows. vectors[a] is the model matrix of E_a as sparse entries
    and diagonals[i] the integer diagonal of H_i.
    The normalization <E_a, E_{-a}> = 1 holds for every root.
    """

    system: RootSystem
    c: Mapping[tuple[Root, Root], QQ.dtype]
    cartan: Mapping[Root, tuple[QQ.dtype, ...]]
    alpha_h: Mapping[Root, tuple[int, ...]]
    gram_h: tuple[tuple[int, ...], ...]
    vectors: Mapping[Root, Mapping[tuple[int, int], QQ.dtype]]
    diagonals: tuple[tuple[int, ...], ...]


def _matrix_model(rs: RootSystem):
    """Return (dim m, form, Cartan diagonals, weight fn).

    The form M preserved by the model (X^T M + M X = 0) is antidiagonal:
    ``form[j]`` is M[j, m-1-j]; it is None for type A (traceless matrices).
    """
    n = rs.rank
    if rs.family == "A":
        m = n + 1
        cartan = [[(k == i) - (k == i + 1) for k in range(m)] for i in range(n)]
        # alpha(H_i) for alpha in e-coordinates
        return m, None, cartan, lambda euclid, i: euclid[i] - euclid[i + 1]
    m = 2 * n + 1 if rs.family == "B" else 2 * n
    form = [1 if rs.family != "C" or j < n else -1 for j in range(m)]
    cartan = [[(k == i) - (k == m - 1 - i) for k in range(m)] for i in range(n)]
    return m, form, cartan, lambda euclid, i: euclid[i]


def _null_vector(rows: list[list[QQ.dtype]], k: int) -> Optional[list[QQ.dtype]]:
    """The kernel of ``rows`` (k columns) scaled as sympy's nullspace scales
    it (free entry 1, pivot entries read off the reduced echelon form), or
    None unless the kernel is one-dimensional."""
    reduced, pivots = DomainMatrix(rows, (len(rows), k), QQ).rref()
    free = [c for c in range(k) if c not in pivots]
    if len(free) != 1:
        return None
    out = [QQ(int(c == free[0])) for c in range(k)]
    for c, r in zip(pivots, reduced.to_list()):
        out[c] = -r[free[0]]
    return out


def _commutator(x: Sparse, y: Sparse) -> Sparse:
    out: Sparse = {}
    for (i, j), u in x.items():
        for (k, l), v in y.items():
            if j == k:
                out[i, l] = out.get((i, l), 0) + u * v
            if l == i:
                out[k, j] = out.get((k, j), 0) - v * u
    return {p: v for p, v in out.items() if v}


def chevalley_constants(rs: RootSystem) -> StructureTable:
    """Root vectors and structure constants from the matrix model: the
    shared read-only table of the (family, rank) of ``rs``.

    Each root vector is kept as the sparse entries over QQ (one or two) of
    its matrix; the Cartan elements are integer diagonals.
    """
    return structure_table(rs.family, rs.rank)


@functools.cache
def structure_table(family: str, rank: int) -> StructureTable:
    """The shared table of :func:`chevalley_constants`, by (family, rank)."""
    rs = build_root_system(family, rank)
    n = rs.rank
    m, form, cartan, weight = _matrix_model(rs)
    alpha_h = {a: tuple(weight(rs.euclid[a], i) for i in range(n)) for a in rs.roots}
    by_weight: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for j, k in itertools.product(range(m), repeat=2):
        if j != k:
            by_weight.setdefault(tuple(H[j] - H[k] for H in cartan), []).append((j, k))

    evec: dict[Root, Sparse] = {}
    for a in rs.roots:
        # candidate positions (j,k) with matching ad-h weight
        positions = by_weight.get(alpha_h[a], [])
        if not positions:
            raise RootSystemError(f"no matrix positions for root {a}")
        if form is None and len(positions) != 1:
            raise RootSystemError(f"{len(positions)} matrix positions for root {a}")
        # solve X^T M + M X = 0 on the span of the candidate positions:
        # E_jk contributes form[j] at (k, m-1-j) and form[m-1-j] at (m-1-j, k)
        rows: dict[tuple[int, int], list[QQ.dtype]] = {}
        for col, (j, k) in enumerate(positions if form else ()):
            for p, v in (((k, m - 1 - j), form[j]), ((m - 1 - j, k), form[m - 1 - j])):
                rows.setdefault(p, [QQ(0)] * len(positions))[col] += v
        null = _null_vector([r for r in rows.values() if any(r)], len(positions))
        if null is None:
            raise RootSystemError(f"root space for {a} not one-dimensional")
        den = math.lcm(*(x.denominator for x in null))
        evec[a] = {p: x * den for p, x in zip(positions, null) if x}

    # normalization: keep E_a for positive a, rescale E_{-a}
    for a in sorted(rs.positive):
        ea, ena = evec[a], evec[_neg(a)]
        pair = sum(x * ena.get((k, j), 0) for (j, k), x in ea.items())
        if pair == 0:
            raise RootSystemError(f"degenerate pairing for {a}")
        evec[_neg(a)] = {p: x / pair for p, x in ena.items()}

    # verify weights once more: [H_i, X] = (d_j - d_k) X entrywise
    for a in rs.roots:
        for H, w in zip(cartan, alpha_h[a]):
            if any((H[j] - H[k]) * x != w * x for (j, k), x in evec[a].items()):
                raise RootSystemError(f"weight failure at {a}")

    c: dict[tuple[Root, Root], QQ.dtype] = {}
    cartan_coords: dict[Root, tuple[QQ.dtype, ...]] = {}
    for a in rs.roots:
        for b in rs.roots:
            comm = _commutator(evec[a], evec[b])
            s = _add(a, b)
            if s in rs.rootset:
                c[(a, b)] = _ratio(comm, evec[s], a, b)
            elif all(x == 0 for x in s):
                cartan_coords[a] = _h_coords(comm, cartan, rs.family)
            elif comm:
                raise RootSystemError(f"[E_{a}, E_{b}] not in root space")

    gram = tuple(tuple(sum(x * y for x, y in zip(Hi, Hj)) for Hj in cartan)
                 for Hi in cartan)
    frozen = MappingProxyType
    return StructureTable(
        rs, frozen(c), frozen(cartan_coords), frozen(alpha_h), gram,
        frozen({a: frozen(v) for a, v in evec.items()}),
        tuple(map(tuple, cartan)))


def _ratio(comm: Sparse, target: Sparse, a, b) -> QQ.dtype:
    if not target:
        raise RootSystemError("zero target root vector")
    p = min(target)                    # the first nonzero entry, row-major
    r = comm.get(p, 0) / target[p]
    if comm != {q: r * v for q, v in target.items() if r}:
        raise RootSystemError(f"[E_{a}, E_{b}] not proportional")
    return r


def _h_coords(diag: Sparse, cartan: list[list[int]], family: str):
    """Coordinates over QQ of a diagonal matrix in the cartan basis."""
    d = [diag.get((j, j), 0) for j in range(len(cartan[0]))]
    # type A: d has zero sum; coordinates are partial sums
    coords = list(itertools.accumulate(d[:len(cartan)])) if family == "A" \
        else d[:len(cartan)]
    check = {(j, j): v for j in range(len(d))
             if (v := sum(x * H[j] for x, H in zip(coords, cartan)))}
    if check != diag:
        raise RootSystemError("cartan decomposition failure")
    return tuple(QQ(x) for x in coords)


def root_name(a: Root) -> str:
    return "E(" + ",".join(str(x) for x in a) + ")"
