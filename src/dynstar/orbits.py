"""Polynomial functions on SL(2) and the equivariant star-product on the
coadjoint orbit through (lam/2) h.

Functions are polynomials in the matrix entries g11, g12, g21, g22 kept in
normal form modulo the determinant relation: any monomial divisible by
g11*g22 is rewritten through g11*g22 -> g12*g21 + 1, which is confluent
because the relation is principal and the substitution lowers the g11
exponent. Products, vector fields and the public constructor each sum their
terms in one :class:`~dynstar.scalars.FieldAccumulator`, and every monomial
enters it through that one rewrite rule, with the binomial multiplicities
and the integer vector-field entries as rational multipliers. Sums and
scalings of normal forms are normal and are not rewritten again. The
vector-field tables are constant, read-only data, and a twist's PBW words
act on an operand through shared prefixes, each word once.

A star-product sums c_n (y^n . f1)(x^n . f2) from the y-tower of f1 and the
x-tower of f2 (f, D f, D^2 f, ... up to the last nonzero term). The
identity sweep runs over the context of a given U sl(2) and builds its
twist there; it forms the towers of its operands and the coefficient lists
c_n once, and decides each associativity triple from the one sum
(f_a*f_b)*f_c - f_a*(f_b*f_c) of both sides' tower products. Its
filtration ranks are taken over products of basis functions indexed by
multisets, with the factor lam of each basis function divided out, over
QQ, all from one echelon form.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from .enveloping import PBWAlgebra, UEAElement
from .scalars import (HBAR, LAM, Context, FieldAccumulator, FieldElement,
                      LinearCombination, terms_repr)

MATRIX_VARS = ("g11", "g12", "g21", "g22")
MExp = tuple[int, int, int, int]

# star_product gives up on a series longer than this
STAR_MAX_TERMS = 64
# filtration_dims checks the products of basis functions up to this degree
FILTRATION_DEGREE = 4


class OrbitError(ValueError):
    pass


def _det_rewrite(e: MExp) -> Sequence[tuple[MExp, int]]:
    """The normal form of the monomial ``e`` as (monomial, multiplicity)
    pairs: g11^a g22^d = g11^(a-k) g22^(d-k) (g12 g21 + 1)^k, k = min(a, d).
    Every normal form is built through this one rule."""
    a, b, c, d = e
    k = min(a, d)
    return [((a - k, b + i, c + i, d - k), math.comb(k, i))
            for i in range(k + 1)]


def _sum_of_products(ctx: Context, triples) -> "OrbitFunction":
    """sum c f g over the (c, f, g) of ``triples``, each product monomial
    entering the sum in normal form."""
    acc = FieldAccumulator(ctx)
    for c, f, g in triples:
        for e1, c1 in f.terms.items():
            c1 = c * c1
            for e2, c2 in g.terms.items():
                acc.add(c1 * c2, _det_rewrite(
                    (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])))
    return OrbitFunction._normal(ctx, acc.sums())


class OrbitFunction(LinearCombination):
    """A polynomial function on SL(2) in determinant normal form."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[MExp, FieldElement]):
        acc = FieldAccumulator(ctx)
        for e, v in terms.items():
            acc.add(v, _det_rewrite(e))
        self.ctx = ctx
        self.terms = acc.sums()

    @classmethod
    def _normal(cls, ctx: Context, terms: Mapping[MExp, FieldElement]
                ) -> "OrbitFunction":
        """Nonzero terms already in normal form (an accumulator's sums)."""
        f = cls.__new__(cls)
        f.ctx = ctx
        f.terms = terms
        return f

    def _like(self, terms) -> "OrbitFunction":
        # sums, scalings and coefficient maps of normal forms stay normal
        return OrbitFunction._normal(self.ctx, {e: v for e, v in terms.items() if v})

    @classmethod
    def constant(cls, ctx: Context, value) -> "OrbitFunction":
        return cls(ctx, {(0, 0, 0, 0): ctx(value)})

    def __mul__(self, other) -> "OrbitFunction":
        if not isinstance(other, OrbitFunction):
            return self.scale(other)
        return _sum_of_products(self.ctx, [(self.ctx.one(), self, other)])

    def to_json(self) -> list[dict]:
        return [
            {"exp": list(e), "coeff": v.to_string()}
            for e, v in sorted(self.terms.items())
        ]

    def __repr__(self) -> str:
        return terms_repr(self.ctx, (MATRIX_VARS,),
                          {(e,): v for e, v in self.terms.items()})


def orbit_function(ctx: Context, a: Union[str, Mapping[str, object]]
                   ) -> OrbitFunction:
    """The linear function f_a on the orbit through (lam/2) h:
    f_a(g) = (lam/2) trace(g h g^adj a), with g^adj the adjugate.

    ``a`` is a basis name or a mapping of sl(2) basis names to coefficients.
    """
    if isinstance(a, str):
        a = {a: 1}
    p = ctx(a.get("h", 0))
    q = ctx(a.get("x", 0))
    r = ctx(a.get("y", 0))
    lam = ctx.var(LAM)
    # trace(g h g^adj a)/2 = p (g11 g22 + g12 g21) - r g11 g12 + q g21 g22
    return OrbitFunction(ctx, {
        (1, 0, 0, 1): lam * p,
        (0, 1, 1, 0): lam * p,
        (1, 1, 0, 0): -lam * r,
        (0, 0, 1, 1): lam * q,
    })


_GEN_MATRICES: dict[str, tuple[tuple[int, int], tuple[int, int]]] = {
    "x": ((0, 1), (0, 0)),
    "y": ((0, 0), (1, 0)),
    "h": ((1, 0), (0, -1)),
}


def _vector_field(f: OrbitFunction, field) -> OrbitFunction:
    """Apply sum_pos field[pos] d/dg_pos, where field[pos] lists the
    (position j, integer c) of the terms c g_j of its coefficient."""
    acc = FieldAccumulator(f.ctx)
    for e, c in f.terms.items():
        terms = []
        for pos, entry in enumerate(field):
            p = e[pos]
            if not p:
                continue
            for j, q in entry:
                de = list(e)
                de[pos] -= 1
                de[j] += 1
                terms.extend((m, p * q * r) for m, r in _det_rewrite(tuple(de)))
        if terms:
            acc.add(c, terms)
    return OrbitFunction._normal(f.ctx, acc.sums())


def _product_coeffs(name: str, invariant: bool):
    """The entries of g v (the left-invariant field, ``invariant``) or of
    v g (the infinitesimal left translation, which commutes with every
    left-invariant operator) for the generator v: entry 2k+l, the
    coefficient of d/dg_{kl}, lists the (position, integer) of its terms."""
    v = _GEN_MATRICES[name]
    coeffs = []
    for k in range(2):
        for l in range(2):
            entry = []
            for m in range(2):
                pos, c = (2 * k + m, v[m][l]) if invariant else (2 * m + l, v[k][m])
                if c:
                    entry.append((pos, c))
            coeffs.append(tuple(entry))
    return tuple(coeffs)


# The vector-field tables by (generator, invariant), read-only: every
# derivative shares them.
_PRODUCT_COEFFS = MappingProxyType({
    (name, invariant): _product_coeffs(name, invariant)
    for name in _GEN_MATRICES for invariant in (True, False)})


def generator_derivative(f: OrbitFunction, name: str) -> OrbitFunction:
    """The left-invariant vector field of one sl(2) generator."""
    return _vector_field(f, _PRODUCT_COEFFS[name, True])


def group_action_derivative(f: OrbitFunction, name: str) -> OrbitFunction:
    """The generator of the left G-translation action on functions."""
    return _vector_field(f, _PRODUCT_COEFFS[name, False])


def _word_derivatives(order: Sequence[str], f: OrbitFunction):
    """The map from a PBW word (exponents over ``order``) to its action on
    f as a left-invariant differential operator, in which the rightmost
    generator acts first. Each word's derivative is formed once, from the
    word with its leftmost letter removed."""
    memo = {(0,) * len(order): f}

    def of(word: tuple[int, ...]) -> OrbitFunction:
        g = memo.get(word)
        if g is None:
            i = next(i for i, k in enumerate(word) if k)
            rest = word[:i] + (word[i] - 1,) + word[i + 1:]
            g = memo[word] = generator_derivative(of(rest), order[i])
        return g

    return of


def invariant_derivative(u: UEAElement, f: OrbitFunction) -> OrbitFunction:
    """Apply an enveloping-algebra element as a left-invariant differential
    operator: in each PBW word the rightmost generator acts first."""
    if not isinstance(u, UEAElement):
        raise OrbitError("expected a UEAElement")
    of = _word_derivatives(u.algebra.order, f)
    return sum((of(w).scale(c) for w, c in u.terms.items()),
               OrbitFunction(f.ctx, {}))


def is_h_invariant(f: OrbitFunction) -> bool:
    return generator_derivative(f, "h").is_zero()


def _tower(f: OrbitFunction, name: str) -> list[OrbitFunction]:
    """f, D f, D^2 f, ... up to the last nonzero term, with D the
    left-invariant field of the generator ``name``."""
    tower = [f]
    while True:
        d = generator_derivative(tower[-1], name)
        if d.is_zero():
            return tower
        if len(tower) > STAR_MAX_TERMS:
            raise OrbitError("star-product series did not terminate")
        tower.append(d)


def star_coefficients(ctx: Context, mode: str, count: int) -> list[FieldElement]:
    """c_0, ..., c_{count-1} with c_n = (-1)^n q^n / (n! lam (lam-q) ...
    (lam-(n-1)q)); q = 1 in mode "hbar_one" and q = hbar in mode "formal"."""
    if mode not in ("hbar_one", "formal"):
        raise OrbitError(f"unknown mode {mode!r}")
    lam = ctx.var(LAM)
    q = ctx.one() if mode == "hbar_one" else ctx.var(HBAR)
    coeffs = [ctx.one()]
    for n in range(1, count):
        coeffs.append(coeffs[-1] * (-q) / (ctx(n) * (lam - (n - 1) * q)))
    return coeffs


def _tower_terms(left: Sequence[OrbitFunction], right: Sequence[OrbitFunction],
                 coeffs: Sequence[FieldElement]) -> list:
    """The triples (c_n, L_n, R_n) over the n where both towers are
    nonzero: the star-product sums c_n L_n R_n."""
    n = min(len(left), len(right))
    if len(coeffs) < n:
        raise OrbitError(f"star-product series needs {n} coefficients")
    return list(zip(coeffs, left[:n], right[:n]))


def star_product(f1: OrbitFunction, f2: OrbitFunction,
                 mode: str = "hbar_one") -> OrbitFunction:
    """The orbit star-product sum_n c_n (y^n . f1)(x^n . f2) with the
    scalar coefficients c_n of :func:`star_coefficients`.

    On right-H-invariant inputs the h-dependent twist factors act by their
    value at h = 0, which collapses to these scalars; non-invariant inputs
    are rejected. ``mode`` is "hbar_one" (q = 1, lam symbolic so the
    finitely many poles never trigger) or "formal" (q = hbar symbolic; the
    series terminates, so the result is still exact).
    """
    if not (is_h_invariant(f1) and is_h_invariant(f2)):
        raise OrbitError("star-product inputs must be right-H-invariant")
    left, right = _tower(f1, "y"), _tower(f2, "x")
    coeffs = star_coefficients(f1.ctx, mode, min(len(left), len(right)))
    return _sum_of_products(f1.ctx, _tower_terms(left, right, coeffs))


def apply_twist_orders(J, f1: OrbitFunction, f2: OrbitFunction) -> list[OrbitFunction]:
    """Apply a TwistSeries as a bidifferential operator, order by order in
    the deformation parameter. No invariance assumption: the full expanded
    h-dependence acts. Each slot word acts on its operand once, however
    many terms and orders carry it."""
    d1 = _word_derivatives(J.slots[0].order, f1)
    d2 = _word_derivatives(J.slots[1].order, f2)
    return [_sum_of_products(f1.ctx, [(c, d1(e1), d2(e2))
                                      for (e1, e2), c in t.terms.items()])
            for t in J.orders]


def verify_orbit_identities(U: PBWAlgebra, twist_order: int = 3) -> dict:
    """Exact verification of the orbit-algebra identities, over the context
    of U sl(2), whose twist drives scalar_reduction.

    Checks, all in Q(lam):
      commutator      f_a * f_b - f_b * f_a = f_[a,b] on all basis pairs,
                      with the bracket of U's Lie algebra
      casimir         f_x*f_y + f_y*f_x + (1/2) f_h*f_h = lam(lam+2)/2
      associativity   on all triples of basis functions
      quasiclassical  first deformation order of the commutator is the
                      bivector (1/lam)(x (x) y - y (x) x)
      equivariance    left translations are derivations of the product
      scalar_reduction the full expanded twist operator agrees with the
                      scalar-coefficient product on invariant inputs
      degree_bound    the series on degree-d inputs stops at n = d
      filtration_dims products of basis functions of degree <= d span a
                      space of dimension (d+1)^2
    """
    ctx = U.ctx
    names = ("x", "y", "h")
    fb = {n: orbit_function(ctx, n) for n in names}
    lam = ctx.var(LAM)
    report: dict = {}

    def towers(f: OrbitFunction) -> tuple[list, list]:
        if not is_h_invariant(f):
            raise OrbitError("star operand is not right-H-invariant")
        return _tower(f, "y"), _tower(f, "x")

    # The towers of every star operand and the series coefficients are
    # formed once. The operands have degree <= 2, so (degree_bound) their
    # towers have at most 3 terms.
    tb = {a: towers(fb[a]) for a in names}
    coeffs = {mode: star_coefficients(ctx, mode, 3)
              for mode in ("hbar_one", "formal")}
    star, formal = ({(a, b): _sum_of_products(
                         ctx, _tower_terms(tb[a][0], tb[b][1], coeffs[mode]))
                     for a in names for b in names}
                    for mode in ("hbar_one", "formal"))
    ts = {k: towers(f) for k, f in star.items()}

    g = U.lie
    comm_fail = []
    for a, b in itertools.product(names, repeat=2):
        lhs = star[a, b] - star[b, a]
        rhs = sum((fb[g.names[k]].scale(c) for k, c in
                   g.bracket(g.index[a], g.index[b]).items()), OrbitFunction(ctx, {}))
        if not (lhs - rhs).is_zero():
            comm_fail.append((a, b))
    report["commutator"] = {"ok": not comm_fail, "failures": comm_fail}

    cas = star["x", "y"] + star["y", "x"] + star["h", "h"].scale(QQ(1, 2))
    cas_target = OrbitFunction.constant(ctx, lam * (lam + 2) / 2)
    report["casimir"] = {
        "ok": (cas - cas_target).is_zero(),
        "value": cas.to_json(),
    }

    # (f_a * f_b) * f_c - f_a * (f_b * f_c) as one sum of tower products,
    # the right side's with negated coefficients
    plus = coeffs["hbar_one"]
    minus = [-c for c in plus]
    assoc_fail = []
    for a, b, c in itertools.product(names, repeat=3):
        if not _sum_of_products(ctx, _tower_terms(ts[a, b][0], tb[c][1], plus)
                                + _tower_terms(tb[a][0], ts[b, c][1], minus)
                                ).is_zero():
            assoc_fail.append((a, b, c))
    report["associativity"] = {"ok": not assoc_fail, "failures": assoc_fail,
                               "test_set": "all basis triples"}

    qc_fail = []
    for a, b in itertools.product(names, repeat=2):
        comm = formal[a, b] - formal[b, a]
        # first order in the deformation parameter
        first = comm._like({
            e: v.series_expand(HBAR, 1)[1] for e, v in comm.terms.items()})
        biv = (generator_derivative(fb[a], "x") * generator_derivative(fb[b], "y")
               - generator_derivative(fb[a], "y") * generator_derivative(fb[b], "x")
               ).scale(1 / lam)
        if not (first - biv).is_zero():
            qc_fail.append((a, b))
    report["quasiclassical"] = {"ok": not qc_fail, "failures": qc_fail}

    equi_fail = []
    pairs = [("x", "y"), ("h", "h"), ("x", "h")]
    for v, (a, b) in itertools.product(names, pairs):
        f1, f2 = fb[a], fb[b]
        lhs = group_action_derivative(star[a, b], v)
        rhs = star_product(group_action_derivative(f1, v), f2) + \
            star_product(f1, group_action_derivative(f2, v))
        if not (lhs - rhs).is_zero():
            equi_fail.append((v, a, b))
    report["equivariance"] = {"ok": not equi_fail, "failures": equi_fail}

    # full expanded twist operator vs scalar coefficients, per order
    from .twist import abrr_twist
    J = abrr_twist(U, twist_order)
    red_fail = []
    for (a, b) in pairs:
        full = apply_twist_orders(J, fb[a], fb[b])
        series = {e: v.series_expand(HBAR, twist_order)
                  for e, v in formal[a, b].terms.items()}
        for k, fk in enumerate(full):
            want = fk._like({e: s[k] for e, s in series.items()})
            if not (fk - want).is_zero():
                red_fail.append((a, b, k))
    report["scalar_reduction"] = {"ok": not red_fail, "failures": red_fail,
                                  "orders": twist_order}

    report["degree_bound"] = {"ok": len(_tower(fb["x"] * fb["y"], "y")) == 3}

    # The product is commutative, so products over multisets of basis
    # functions span the filtration. Each basis function is lam times a
    # polynomial over QQ, so a product of d of them is lam^d, a unit, times
    # the product of those polynomials: the ranks are those of the
    # polynomial products, whose coefficients are in QQ.
    unscaled = [fb[n].scale(1 / lam) for n in names]
    layer = [(0, OrbitFunction.constant(ctx, 1))]   # (last factor, product)
    rows: list[dict] = []
    sizes = []      # the number of products of degree <= d
    for d in range(FILTRATION_DEGREE + 1):
        if d:
            layer = [(j, p * unscaled[j]) for i, p in layer
                     for j in range(i, len(names))]
        rows.extend({e: c.as_rational() for e, c in p.terms.items()}
                    for _, p in layer)
        sizes.append(len(rows))
    # One echelon form of the transposed matrix: its pivot columns are the
    # rows independent of the rows before them, so the rank of a prefix is
    # the number of pivots inside it.
    cols = list(dict.fromkeys(e for row in rows for e in row))
    _, pivots = DomainMatrix(
        [[row.get(e, QQ.zero) for row in rows] for e in cols],
        (len(cols), len(rows)), QQ).rref()
    dims = [sum(p < n for p in pivots) for n in sizes]
    expected = [(d + 1) ** 2 for d in range(FILTRATION_DEGREE + 1)]
    report["filtration_dims"] = {"ok": dims == expected, "dims": dims,
                                 "expected": expected}

    report["all_ok"] = all(
        v["ok"] for k, v in report.items() if isinstance(v, dict))
    return report
