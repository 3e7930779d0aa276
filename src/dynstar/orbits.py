"""Polynomial functions on SL(2) and the equivariant star-product on the
coadjoint orbit through (lam/2) h.

Functions are polynomials in the matrix entries g11, g12, g21, g22 kept in
normal form modulo the determinant relation: any monomial divisible by
g11*g22 is rewritten through g11*g22 -> g12*g21 + 1, which is confluent
because the relation is principal and the substitution lowers the g11
exponent. Products, that rewriting and the vector fields sum their terms in
a :class:`~dynstar.scalars.FieldAccumulator`, with the binomial
multiplicities and the integer vector-field entries as rational multipliers.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Union

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from .enveloping import PBWAlgebra, UEAElement
from .scalars import (HBAR, LAM, Context, FieldAccumulator, FieldElement,
                      LinearCombination)

MATRIX_VARS = ("g11", "g12", "g21", "g22")
MExp = tuple[int, int, int, int]

# star_product gives up on a series longer than this
STAR_MAX_TERMS = 64
# filtration_dims checks the products of basis functions up to this degree
FILTRATION_DEGREE = 4


class OrbitError(ValueError):
    pass


def _normalize(ctx: Context, terms: Mapping[MExp, FieldElement]) -> dict[MExp, FieldElement]:
    acc = FieldAccumulator(ctx)
    for (a, b, c, d), v in terms.items():
        # g11^a g22^d = g11^(a-k) g22^(d-k) (g12 g21 + 1)^k
        k = min(a, d)
        acc.add(v, [((a - k, b + i, c + i, d - k), math.comb(k, i))
                    for i in range(k + 1)])
    return {k: v for k, v in acc.sums().items() if v}


class OrbitFunction(LinearCombination):
    """A polynomial function on SL(2) in determinant normal form."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: Mapping[MExp, FieldElement]):
        self.ctx = ctx
        self.terms = _normalize(ctx, terms)

    def _like(self, terms) -> "OrbitFunction":
        return OrbitFunction(self.ctx, terms)

    @classmethod
    def constant(cls, ctx: Context, value) -> "OrbitFunction":
        return cls(ctx, {(0, 0, 0, 0): ctx(value)})

    @classmethod
    def coordinate(cls, ctx: Context, name: str) -> "OrbitFunction":
        i = MATRIX_VARS.index(name)
        e = [0, 0, 0, 0]
        e[i] = 1
        return cls(ctx, {tuple(e): ctx.one()})

    def __mul__(self, other) -> "OrbitFunction":
        if not isinstance(other, OrbitFunction):
            return self.scale(other)
        acc = FieldAccumulator(self.ctx)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                acc.add(c1 * c2, ((tuple(a + b for a, b in zip(e1, e2)), 1),))
        return OrbitFunction(self.ctx, acc.sums())

    def __rmul__(self, other) -> "OrbitFunction":
        if isinstance(other, OrbitFunction):
            return NotImplemented
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrbitFunction):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("OrbitFunction is unhashable")

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def evaluate_matrix(self, point: Mapping[str, object]) -> FieldElement:
        """Evaluate at explicit matrix entries (the caller is responsible
        for the point satisfying det = 1 if that matters)."""
        vals = [self.ctx(point[n]) for n in MATRIX_VARS]
        acc = self.ctx.zero()
        for e, c in self.terms.items():
            term = c
            for v, p in zip(vals, e):
                term = term * v ** p
            acc = acc + term
        return acc

    def to_json(self) -> list[dict]:
        return [
            {"exp": list(e), "coeff": v.to_string()}
            for e, v in sorted(self.terms.items())
        ]

    def __repr__(self) -> str:
        parts = []
        for e, v in sorted(self.terms.items()):
            mono = "*".join(
                f"{n}^{p}" if p > 1 else n
                for n, p in zip(MATRIX_VARS, e) if p > 0
            ) or "1"
            parts.append(f"({v.to_string()})*{mono}")
        return " + ".join(parts) or "0"


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


def _vector_field(f: OrbitFunction, coeff_of_dkl) -> OrbitFunction:
    """Apply sum_{kl} coeff(k,l) d/dg_{kl} where each coefficient maps
    monomials to integers."""
    acc = FieldAccumulator(f.ctx)
    for e, c in f.terms.items():
        for pos in range(4):
            if e[pos] == 0:
                continue
            de = list(e)
            de[pos] -= 1
            acc.add(c, [(tuple(a + b for a, b in zip(de, me)), e[pos] * mc)
                        for me, mc in coeff_of_dkl[pos].items()])
    return OrbitFunction(f.ctx, acc.sums())


def _product_coeffs(name: str, invariant: bool):
    """The entries of g v (the left-invariant field, ``invariant``) or of
    v g (the infinitesimal left translation, which commutes with every
    left-invariant operator) for the generator v, indexed by the flattened
    position 2k+l of g_{kl} in MATRIX_VARS."""
    v = _GEN_MATRICES[name]
    coeffs = []
    for k in range(2):
        for l in range(2):
            poly: dict[MExp, int] = {}
            for m in range(2):
                pos, c = (2 * k + m, v[m][l]) if invariant else (2 * m + l, v[k][m])
                if c:
                    poly[tuple(int(i == pos) for i in range(4))] = c
            coeffs.append(poly)
    return coeffs


def generator_derivative(f: OrbitFunction, name: str) -> OrbitFunction:
    """The left-invariant vector field of one sl(2) generator."""
    return _vector_field(f, _product_coeffs(name, True))


def group_action_derivative(f: OrbitFunction, name: str) -> OrbitFunction:
    """The generator of the left G-translation action on functions."""
    return _vector_field(f, _product_coeffs(name, False))


def invariant_derivative(u: Union[UEAElement, Mapping], f: OrbitFunction) -> OrbitFunction:
    """Apply an enveloping-algebra element as a left-invariant differential
    operator: in each PBW word the rightmost generator acts first."""
    ctx = f.ctx
    if isinstance(u, UEAElement):
        order = u.algebra.order
        items = list(u.terms.items())
    else:
        raise OrbitError("expected a UEAElement")
    out = OrbitFunction(ctx, {})
    for exp, c in items:
        g = f
        for i in range(len(order) - 1, -1, -1):
            for _ in range(exp[i]):
                g = generator_derivative(g, order[i])
        out = out + g.scale(c)
    return out


def is_h_invariant(f: OrbitFunction) -> bool:
    return generator_derivative(f, "h").is_zero()


def star_product(f1: OrbitFunction, f2: OrbitFunction,
                 mode: str = "hbar_one") -> OrbitFunction:
    """The orbit star-product sum_n c_n (y^n . f1)(x^n . f2) with scalar
    coefficients c_n = (-1)^n q^n / (n! lam (lam-q) ... (lam-(n-1)q)).

    On right-H-invariant inputs the h-dependent twist factors act by their
    value at h = 0, which collapses to these scalars; non-invariant inputs
    are rejected. ``mode`` is "hbar_one" (q = 1, lam symbolic so the
    finitely many poles never trigger) or "formal" (q = hbar symbolic; the
    series terminates, so the result is still exact).
    """
    ctx = f1.ctx
    if not is_h_invariant(f1) or not is_h_invariant(f2):
        raise OrbitError("star-product inputs must be right-H-invariant")
    if mode not in ("hbar_one", "formal"):
        raise OrbitError(f"unknown mode {mode!r}")
    lam = ctx.var(LAM)
    q = ctx.one() if mode == "hbar_one" else ctx.var(HBAR)
    out = f1 * f2
    left, right = f1, f2
    coeff = ctx.one()
    for n in range(1, STAR_MAX_TERMS + 1):
        left = generator_derivative(left, "y")
        right = generator_derivative(right, "x")
        if left.is_zero() or right.is_zero():
            return out
        coeff = coeff * (-q) / (ctx(n) * (lam - (n - 1) * q))
        out = out + (left * right).scale(coeff)
    raise OrbitError("star-product series did not terminate")


def apply_twist_orders(J, f1: OrbitFunction, f2: OrbitFunction) -> list[OrbitFunction]:
    """Apply a TwistSeries as a bidifferential operator, order by order in
    the deformation parameter. No invariance assumption: the full expanded
    h-dependence acts."""
    out = []
    for t in J.orders:
        acc = OrbitFunction(f1.ctx, {})
        for (e1, e2), c in t.terms.items():
            a1 = invariant_derivative(UEAElement(J.slots[0], {e1: f1.ctx.one()}), f1)
            a2 = invariant_derivative(UEAElement(J.slots[1], {e2: f1.ctx.one()}), f2)
            acc = acc + (a1 * a2).scale(c)
        out.append(acc)
    return out


def _basis_functions(ctx: Context) -> dict[str, OrbitFunction]:
    return {n: orbit_function(ctx, n) for n in ("x", "y", "h")}


def _span_rank(funcs: Sequence[OrbitFunction]) -> int:
    """Rank of the span. The pool members are lam-homogeneous of degree
    equal to their polynomial degree, so evaluating lam at 1 rescales each
    spanning vector and preserves the rank while keeping the matrix
    rational."""
    monos: dict[MExp, int] = {}
    rows = []
    for f in funcs:
        row = {}
        for e, c in f.terms.items():
            q = c.evaluate({LAM: 1}).as_rational()
            if q is None:
                raise OrbitError(
                    f"coefficient {c.to_string()} is not rational at lam = 1")
            row[monos.setdefault(e, len(monos))] = q
        rows.append(row)
    return DomainMatrix([[row.get(j, QQ.zero) for j in range(len(monos))]
                         for row in rows], (len(rows), len(monos)), QQ).rank()


def verify_orbit_identities(ctx: Context, twist_order: int = 3) -> dict:
    """Exact verification of the orbit-algebra identities.

    Checks, all in Q(lam):
      commutator      f_a * f_b - f_b * f_a = f_[a,b] on all basis pairs
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
    from .lie import sl2
    fb = _basis_functions(ctx)
    lam = ctx.var(LAM)
    report: dict = {}
    names = ("x", "y", "h")
    # the star-products of basis functions, in both modes, formed once
    star, formal = ({(a, b): star_product(fb[a], fb[b], mode)
                     for a in names for b in names}
                    for mode in ("hbar_one", "formal"))

    brackets = {
        ("h", "x"): {"x": 2}, ("x", "h"): {"x": -2},
        ("h", "y"): {"y": -2}, ("y", "h"): {"y": 2},
        ("x", "y"): {"h": 1}, ("y", "x"): {"h": -1},
        ("x", "x"): {}, ("y", "y"): {}, ("h", "h"): {},
    }
    comm_fail = []
    for (a, b), br in brackets.items():
        lhs = star[a, b] - star[b, a]
        rhs = OrbitFunction(ctx, {})
        for n, c in br.items():
            rhs = rhs + fb[n].scale(c)
        if not (lhs - rhs).is_zero():
            comm_fail.append((a, b))
    report["commutator"] = {"ok": not comm_fail, "failures": comm_fail}

    cas = star["x", "y"] + star["y", "x"] + star["h", "h"].scale(QQ(1, 2))
    cas_target = OrbitFunction.constant(ctx, lam * (lam + 2) / 2)
    report["casimir"] = {
        "ok": (cas - cas_target).is_zero(),
        "value": cas.to_json(),
    }

    assoc_fail = []
    for a in names:
        for b in names:
            for c in names:
                l = star_product(star[a, b], fb[c])
                r = star_product(fb[a], star[b, c])
                if not (l - r).is_zero():
                    assoc_fail.append((a, b, c))
    report["associativity"] = {"ok": not assoc_fail, "failures": assoc_fail,
                               "test_set": "all basis triples"}

    qc_fail = []
    for (a, b), br in brackets.items():
        comm = formal[a, b] - formal[b, a]
        # first order in the deformation parameter
        first = OrbitFunction(ctx, {
            e: v.series_expand(HBAR, 1)[1] for e, v in comm.terms.items()})
        biv = (generator_derivative(fb[a], "x") * generator_derivative(fb[b], "y")
               - generator_derivative(fb[a], "y") * generator_derivative(fb[b], "x")
               ).scale(1 / lam)
        if not (first - biv).is_zero():
            qc_fail.append((a, b))
    report["quasiclassical"] = {"ok": not qc_fail, "failures": qc_fail}

    equi_fail = []
    pairs = [("x", "y"), ("h", "h"), ("x", "h")]
    for v in names:
        for (a, b) in pairs:
            f1, f2 = fb[a], fb[b]
            lhs = group_action_derivative(star[a, b], v)
            rhs = star_product(group_action_derivative(f1, v), f2) + \
                star_product(f1, group_action_derivative(f2, v))
            if not (lhs - rhs).is_zero():
                equi_fail.append((v, a, b))
    report["equivariance"] = {"ok": not equi_fail, "failures": equi_fail}

    # full expanded twist operator vs scalar coefficients, per order
    from .twist import abrr_twist
    U = PBWAlgebra(sl2(ctx), order=("y", "h", "x"))
    J = abrr_twist(U, twist_order)
    red_fail = []
    for (a, b) in pairs:
        full = apply_twist_orders(J, fb[a], fb[b])
        scalar = formal[a, b]
        for k, fk in enumerate(full):
            want = OrbitFunction(ctx, {
                e: v.series_expand(HBAR, twist_order)[k]
                for e, v in scalar.terms.items()})
            if not (fk - want).is_zero():
                red_fail.append((a, b, k))
    report["scalar_reduction"] = {"ok": not red_fail, "failures": red_fail,
                                  "orders": twist_order}

    f_deg2 = fb["x"] * fb["y"]
    d2 = generator_derivative(generator_derivative(f_deg2, "y"), "y")
    d3 = generator_derivative(d2, "y")
    report["degree_bound"] = {"ok": (not d2.is_zero()) and d3.is_zero()}

    dims = []
    prods = {0: [OrbitFunction.constant(ctx, 1)]}
    for d in range(1, FILTRATION_DEGREE + 1):
        prods[d] = [p * fb[n] for p in prods[d - 1] for n in names]
    pool: list[OrbitFunction] = []
    dims_ok = True
    for d in range(FILTRATION_DEGREE + 1):
        pool.extend(prods[d])
        rank = _span_rank(pool)
        dims.append(rank)
        if rank != (d + 1) ** 2:
            dims_ok = False
    report["filtration_dims"] = {"ok": dims_ok, "dims": dims,
                                 "expected": [(d + 1) ** 2
                                              for d in range(FILTRATION_DEGREE + 1)]}

    report["all_ok"] = all(
        v["ok"] for k, v in report.items() if isinstance(v, dict))
    return report
