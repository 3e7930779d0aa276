"""Realized Lie algebras with an invariant form, and the rank-2/3 tensor
calculus on top of them: CYB (whole, or restricted to a marked
complement), Alt, the split Casimir and invariance checks. Brackets and
the form are over QQ and tensor coefficients in the field: tensor sums
take each bracket constant as the rational multiplier of a
:class:`~dynstar.scalars.FieldAccumulator`, and the structure checks sum
in a :class:`~dynstar.scalars.RationalAccumulator`.

The U-free realization of a shared structure table holds no Context; it
is checked once per (family, rank) and shared read-only. Each realization
adds its own Context and u, and checks u.
"""

from __future__ import annotations

import copy
import functools
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from . import rootsystems as rsys
from .rootsystems import Root, StructureTable, root_name, _neg
from .scalars import (Context, FieldAccumulator, FieldElement, LinearCombination,
                      RationalAccumulator)


class LieAlgebraError(ValueError):
    pass


class LieAlgebraData:
    """A finite-dimensional Lie algebra given by an ordered basis, a bracket
    table and a symmetric invariant form, optionally with a marked subalgebra
    u and u-invariant complement m.

    Structure constants and form entries are converted to QQ here, once:
    ints and QQ elements directly, anything else through ``ctx``; a
    non-rational entry raises LieAlgebraError naming it. Tensor coefficients
    over the algebra are FieldElements of ``ctx``. The bracket rows and the
    name index are read-only, so algebras may share them.
    """

    _EMPTY = MappingProxyType({})

    def __init__(
        self,
        ctx: Context,
        names: Sequence[str],
        brackets: Mapping[tuple[int, int], Mapping[int, object]],
        form: Sequence[Sequence[object]],
        u_indices: Optional[Sequence[int]] = None,
    ):
        self.ctx = ctx
        self.names = tuple(names)
        self.dim = len(self.names)
        self.index = MappingProxyType({n: i for i, n in enumerate(self.names)})
        n = self.names
        # store the full antisymmetric table; a pair given in both orders
        # must hold opposite rows, and [e_i, e_i] = 0 takes no entry
        tbl: dict[tuple[int, int], dict[int, object]] = {}
        for (i, j), row in brackets.items():
            if i == j:
                raise LieAlgebraError(
                    f"bracket table has an entry for [{n[i]}, {n[i]}]")
            row = {k: q for k, v in row.items() if (q := self._rational(
                v, f"structure constant of {n[k]} in [{n[i]}, {n[j]}]"))}
            if tbl.setdefault((i, j), row) != row:
                raise LieAlgebraError(
                    f"[{n[i]}, {n[j]}] and [{n[j]}, {n[i]}] are not opposite")
            tbl[(j, i)] = {k: -q for k, q in row.items()}
        self._brackets = MappingProxyType(
            {key: MappingProxyType(row) for key, row in tbl.items()})
        self.form = tuple(
            tuple(self._rational(x, f"form entry <{n[i]}, {n[j]}>")
                  for j, x in enumerate(row))
            for i, row in enumerate(form))
        self._validate_structure()
        self._mark_u(u_indices)
        # [form, its QQ inverse] once formed; copies share the list
        self._form_inverse: list = []

    def _mark_u(self, u_indices: Optional[Sequence[int]]) -> None:
        """Mark u and its complement m (or neither), and check them."""
        self.u_indices = self.m_indices = None
        if u_indices is None:
            return
        uset = set(u_indices)
        self.u_indices = tuple(u_indices)
        self.m_indices = tuple(i for i in range(self.dim) if i not in uset)
        mset = set(self.m_indices)
        for i in uset:
            for j in uset:
                if set(self.bracket(i, j)) - uset:
                    raise LieAlgebraError("u not a subalgebra")
            for j in mset:
                if set(self.bracket(i, j)) - mset:
                    raise LieAlgebraError("[u, m] not contained in m")

    def _rational(self, value, what: str):
        if isinstance(value, int) or QQ.of_type(value):
            return QQ(value)
        if (q := self.ctx(value).as_rational()) is None:
            raise LieAlgebraError(
                f"{what} is {self.ctx(value).to_string()}, not rational")
        return q

    # -- bracket -----------------------------------------------------------

    def bracket(self, i: int, j: int) -> Mapping[int, object]:
        """[e_i, e_j] as a read-only sparse coordinate vector over QQ."""
        return self._brackets.get((i, j), self._EMPTY)

    def form_inverse(self) -> tuple[tuple, ...]:
        """The inverse of the form over QQ, formed once and shared by the
        copies of this algebra that keep its form (every realization of a
        shared table). A degenerate form raises."""
        box = self._form_inverse
        if not box or box[0] is not self.form:
            d = self.dim
            try:
                inv = DomainMatrix([list(row) for row in self.form], (d, d), QQ).inv()
            except DMNonInvertibleMatrixError:
                raise LieAlgebraError("invariant form is degenerate") from None
            box[:] = [self.form, tuple(map(tuple, inv.to_list()))]
        return box[1]

    # -- validation --------------------------------------------------------

    def _validate_structure(self) -> None:
        d, form = self.dim, self.form
        if any(form[i][j] != form[j][i] for i in range(d) for j in range(i)):
            raise LieAlgebraError("form not symmetric")
        # Jacobi on the basis triples i < j < k in lexicographic order, summed
        # over QQ, skipping those whose three pairs all bracket to zero
        partners = [{j for j in range(d) if self.bracket(i, j)} for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                ks = (range(j + 1, d) if j in partners[i] else
                      sorted(k for k in partners[i] | partners[j] if k > j))
                for k in ks:
                    acc = RationalAccumulator()
                    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                        for t, q in self.bracket(b, c).items():
                            acc.add(q.numerator, q.denominator, self.bracket(a, t).items())
                    if not acc.is_zero():
                        raise LieAlgebraError(
                            f"Jacobi fails on ({self.names[i]}, {self.names[j]}, "
                            f"{self.names[k]})")
        # ad-invariance of the form: <[z,a],b> + <a,[z,b]> = 0, summed over
        # the nonzero form entries only. By symmetry each product
        # [z,a]_t <t,b> is the first term at (a,b) and the second at (b,a).
        nonzero = [{b: f for b, f in enumerate(row) if f} for row in form]
        for zi in range(d):
            acc = RationalAccumulator()
            for a in range(d):
                for t, q in self.bracket(zi, a).items():
                    acc.add(q.numerator, q.denominator, [
                        (k, f) for b, f in nonzero[t].items() for k in ((a, b), (b, a))])
            if not acc.is_zero():
                raise LieAlgebraError("form not ad-invariant")


def realize_lie_algebra(
    table: StructureTable,
    ctx: Context,
    U: Optional[Iterable[Root]] = None,
) -> LieAlgebraData:
    """Realize the algebra of a root-system structure table, optionally
    marking u = h + sum of root spaces over U.

    The U-free algebra of a shared table (the one ``chevalley_constants``
    returns) is built and checked once per (family, rank); any other table
    is built and checked on every call. Either way the caller gets a new
    algebra with its own ``ctx`` and u, and u is checked on every call.
    """
    rs = table.system
    if table is rsys.structure_table(rs.family, rs.rank):
        g = copy.copy(_shared_algebra(rs.family, rs.rank))
    else:
        g = _table_algebra(table, ctx)
    g.ctx = ctx
    u_indices = None
    if U is not None:
        uroots = {tuple(a) for a in U}
        u_indices = [*g.cartan_indices,
                     *(i for a, i in g.root_index.items() if a in uroots)]
    g._mark_u(u_indices)
    return g


@functools.cache
def _shared_algebra(family: str, rank: int) -> LieAlgebraData:
    # ctx-free: a shared table holds only ints and QQ elements
    return _table_algebra(rsys.structure_table(family, rank), None)


def _table_algebra(table: StructureTable, ctx: Optional[Context]) -> LieAlgebraData:
    """The U-free algebra of ``table``, checked."""
    rs = table.system
    n = rs.rank
    cartan_names = [f"H{i+1}" for i in range(n)]
    pos = sorted(rs.positive, key=lambda a: (sum(a), a))
    ordered_roots = pos + [_neg(a) for a in pos]
    names = cartan_names + [root_name(a) for a in ordered_roots]
    idx = {nm: i for i, nm in enumerate(names)}
    ridx = {a: idx[root_name(a)] for a in ordered_roots}

    # zero entries are dropped by LieAlgebraData
    brackets: dict[tuple[int, int], dict[int, object]] = {}
    for i in range(n):
        for a in ordered_roots:
            brackets[(i, ridx[a])] = {ridx[a]: table.alpha_h[a][i]}
    for a in ordered_roots:
        for b in ordered_roots:
            if ridx[a] >= ridx[b]:
                continue
            key = (ridx[a], ridx[b])
            s = tuple(x + y for x, y in zip(a, b))
            if all(x == 0 for x in s):
                brackets[key] = dict(enumerate(table.cartan[a]))
            elif (a, b) in table.c:
                brackets[key] = {ridx[s]: table.c[(a, b)]}

    dim = len(names)
    form = [[0] * dim for _ in range(dim)]
    for i in range(n):
        form[i][:n] = table.gram_h[i]
    for a in ordered_roots:
        form[ridx[a]][ridx[_neg(a)]] = 1

    g = LieAlgebraData(ctx, names, brackets, form)
    g.root_system = rs
    g.structure = table
    g.root_index = MappingProxyType(ridx)
    g.cartan_indices = tuple(range(n))
    return g


def sl2(ctx: Context) -> LieAlgebraData:
    """sl(2) with basis (y, h, x), trace form: <x,y> = 1, <h,h> = 2."""
    names = ("y", "h", "x")
    brackets = {
        (0, 1): {0: 2},         # [y, h] = 2y
        (0, 2): {1: -1},        # [y, x] = -h
        (1, 2): {2: 2},         # [h, x] = 2x
    }
    form = [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
    return LieAlgebraData(ctx, names, brackets, form)


# ---------------------------------------------------------------------------
# tensors
# ---------------------------------------------------------------------------

class _Tensor(LinearCombination):
    rank: int

    def __init__(self, algebra: LieAlgebraData,
                 coeffs: Optional[Mapping[tuple, FieldElement]] = None):
        self.algebra = algebra
        self.terms: dict[tuple, FieldElement] = {}
        for k, v in (coeffs or {}).items():
            v = algebra.ctx(v)
            if not v.is_zero():
                self.terms[tuple(k)] = v

    @property
    def ctx(self) -> Context:
        return self.algebra.ctx

    def _like(self, coeffs) -> "_Tensor":
        return type(self)(self.algebra, coeffs)

    def support(self) -> list[tuple]:
        return sorted(self.terms)

    def __repr__(self):
        entries = ", ".join(
            "(" + ",".join(self.algebra.names[i] for i in k) + f"): {v.to_string()}"
            for k, v in sorted(self.terms.items())
        )
        return f"{type(self).__name__}{{{entries}}}"


class Tensor2(_Tensor):
    rank = 2

    def transpose(self) -> "Tensor2":
        """The 21-flip."""
        return Tensor2(self.algebra, {(j, i): v for (i, j), v in self.terms.items()})

    def is_antisymmetric(self) -> bool:
        return (self + self.transpose()).is_zero()


class Tensor3(_Tensor):
    rank = 3


def build_casimir_tensor(g: LieAlgebraData) -> Tensor2:
    """The symmetric invariant tensor dual to the form (split Casimir),
    from the inverse of the form over QQ; only its field constants are
    built per call."""
    return Tensor2(g, {(i, j): g.ctx.constant(q)
                       for i, row in enumerate(g.form_inverse())
                       for j, q in enumerate(row) if q})


def cyb(r: Tensor2, within: Optional[set[int]] = None) -> Tensor3:
    """CYB(r) = [r12, r13] + [r12, r23] + [r13, r23].

    With ``within`` (a set of basis indices, such as m), only the terms
    whose three slots all lie in it are added. Each key is summed on its
    own, so that is CYB(r) restricted to within (x) within (x) within."""
    g = r.algebra
    acc = FieldAccumulator(g.ctx)
    items = list(r.terms.items())
    for (a, b), v1 in items:
        for (c, d), v2 in items:
            terms = [((k, b, d), q) for k, q in g.bracket(a, c).items()]  # [r12, r13]
            terms += [((a, k, d), q) for k, q in g.bracket(b, c).items()]  # [r12, r23]
            terms += [((a, c, k), q) for k, q in g.bracket(b, d).items()]  # [r13, r23]
            if within is not None:
                terms = [(key, q) for key, q in terms if within.issuperset(key)]
            if terms:
                acc.add(v1 * v2, terms)
    return Tensor3(g, acc.sums())


def alt(t: Tensor3) -> Tensor3:
    """Alt(t) = t^123 + t^231 + t^312 (sum of cyclic slot rotations)."""
    acc = FieldAccumulator(t.ctx)
    for (a, b, c), v in t.terms.items():
        acc.add(v, (((a, b, c), 1), ((c, a, b), 1), ((b, c, a), 1)))
    return Tensor3(t.algebra, acc.sums())


def check_invariance(t: _Tensor, generators: Iterable[int]) -> bool:
    """True iff ad_z applied across all slots sums to zero for each z."""
    g = t.algebra
    for zi in generators:
        acc = FieldAccumulator(g.ctx)
        for key, v in t.terms.items():
            acc.add(v, [(key[:slot] + (k,) + key[slot + 1:], q)
                        for slot in range(t.rank)
                        for k, q in g.bracket(zi, key[slot]).items()])
        if acc.sums():
            return False
    return True


def tensor2_from_names(g: LieAlgebraData, entries: Mapping[tuple[str, str], object]) -> Tensor2:
    return Tensor2(g, {(g.index[a], g.index[b]): g.ctx(v)
                       for (a, b), v in entries.items()})


def tensor_to_json(t: _Tensor) -> list[dict]:
    return [
        {"slots": [t.algebra.names[i] for i in k], "coeff": v.to_string()}
        for k, v in sorted(t.terms.items())
    ]
