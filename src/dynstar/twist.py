"""Quantum dynamical twists as truncated formal series.

A twist is stored order by order in the deformation parameter ``hbar``:
order n is a tensor-square (or tensor-cube) enveloping-algebra element whose
coefficients are rational in the remaining parameters (the dynamical
variable ``lam`` and the t's) but free of ``hbar``. The closed-form twist
for sl(2) in the generators y, h, x, the dynamical-shift operation, the
defining cocycle identity and the classical limit all live here.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from sympy.polys.domains import QQ

from .enveloping import PBWAlgebra, TensorUEA, UEAElement
from .lie import Tensor2, Tensor3, alt, cyb
from .scalars import HBAR, LAM, Context, FieldAccumulator, FieldElement


class TwistError(ValueError):
    pass


class TwistSeries:
    """A truncated series sum_n hbar^n T_n of tensor enveloping elements.

    Coefficients of every order must be free of ``hbar`` (a declared context
    symbol), so truncation orders compose exactly under multiplication.
    """

    def __init__(self, slots: Sequence[PBWAlgebra], orders: Sequence[TensorUEA],
                 validate: bool = True):
        self.slots = tuple(slots)
        self.orders: list[TensorUEA] = list(orders)
        if not self.orders:
            raise TwistError("need at least the constant order")
        self.ctx.symbol(HBAR)
        for t in self.orders:
            if t.slots != self.slots:
                raise TwistError("order has wrong slot signature")
            if validate:
                for v in t.terms.values():
                    if v.depends_on(HBAR):
                        raise TwistError(
                            "order coefficient not free of the deformation symbol")

    @property
    def ctx(self) -> Context:
        return self.slots[0].ctx

    @property
    def truncation(self) -> int:
        return len(self.orders) - 1

    def order(self, n: int) -> TensorUEA:
        if n <= self.truncation:
            return self.orders[n]
        return TensorUEA(self.slots, {})

    def __mul__(self, other: "TwistSeries") -> "TwistSeries":
        if self.slots != other.slots:
            raise TwistError("series signature mismatch")
        N = min(self.truncation, other.truncation)
        out = []
        for r in range(N + 1):
            # one accumulator per order: fractions are formed once, at the end
            acc = FieldAccumulator(self.ctx)
            for p in range(r + 1):
                self.order(p).add_product(other.order(r - p), acc)
            out.append(TensorUEA(self.slots, acc.sums()))
        return TwistSeries(self.slots, out, validate=False)

    def __sub__(self, other: "TwistSeries") -> "TwistSeries":
        if self.slots != other.slots:
            raise TwistError("series signature mismatch")
        N = min(self.truncation, other.truncation)
        return TwistSeries(
            self.slots,
            [self.order(r) - other.order(r) for r in range(N + 1)],
            validate=False)

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.orders)

    def map_orders(self, f: Callable[[TensorUEA], TensorUEA]) -> "TwistSeries":
        mapped = [f(t) for t in self.orders]
        return TwistSeries(mapped[0].slots, mapped, validate=False)

    def starts_at_unit(self) -> bool:
        return (self.order(0) - TensorUEA.unit(self.slots)).is_zero()

    def to_json(self) -> dict:
        return {
            "deformation": HBAR,
            "truncation": self.truncation,
            "orders": [t.to_json() for t in self.orders],
        }


def _h_powers(alg: PBWAlgebra, shift: int, kmax: int) -> list[UEAElement]:
    """(h + shift)^k / lam^(k+1) for k = 0..kmax, as slot elements."""
    lam = alg.ctx.var(LAM)
    base = alg.gen("h") + alg.one().scale(shift)
    out = []
    acc = alg.one()
    for k in range(kmax + 1):
        out.append(acc.scale(lam ** (-(k + 1))))
        acc = acc * base
    return out


def abrr_twist(alg: PBWAlgebra, N: int) -> TwistSeries:
    """The closed-form dynamical twist for sl(2), truncated at order N.

    Term n is ((-1)^n / n!) hbar^n (y^n (x) x^n) with the resolvent product
    prod_{j<n} (lam - hbar(h+j))^(-1) acting on the right of the x slot.
    Expanding the resolvents in hbar spreads term n over orders n, n+1, ...;
    the product for n + 1 is the product for n times the factor j = n.
    """
    orders = [FieldAccumulator(alg.ctx) for _ in range(N + 1)]
    # hbar^m coefficients of the resolvent product, m = 0..N-n
    resolvent = [alg.one()] + [alg.zero()] * N
    for n in range(N + 1):
        pref = QQ((-1) ** n, math.factorial(n))
        left = alg.gen("y") ** n
        right_base = alg.gen("x") ** n
        for m, fm in enumerate(resolvent):
            right = right_base * fm
            for e1, c1 in left.terms.items():
                for e2, c2 in right.terms.items():
                    orders[n + m].add(c1 * c2, (((e1, e2), pref),))
        if n < N:
            factor = _h_powers(alg, n, N - n - 1)
            resolvent = [sum((resolvent[m - k] * factor[k] for k in range(m + 1)),
                             alg.zero()) for m in range(N - n)]
    return TwistSeries((alg, alg), [TensorUEA((alg, alg), t.sums())
                                    for t in orders], validate=False)


def check_h_invariance(J: TwistSeries) -> bool:
    """[h (x) 1 + 1 (x) h, J] = 0 at every order."""
    algs = J.slots
    total = TensorUEA(algs, {})
    for s in range(len(algs)):
        # the exponent vector of h in slot s, of 1 elsewhere
        key = tuple(next(iter(a.gen("h").terms)) if i == s else (0,) * a.ngens
                    for i, a in enumerate(algs))
        total = total + TensorUEA(algs, {key: J.ctx.one()})
    return all((total * t - t * total).is_zero() for t in J.orders)


def shift_twist(J: TwistSeries) -> TwistSeries:
    """J(lam - hbar h^(3)) acting in slots 1,2 of a tensor cube.

    Taylor expansion in the shift: coefficient c(lam) at order p contributes
    ((-1)^l / l!) d^l c/d lam^l at order p+l, with h^l placed in slot 3.
    """
    if len(J.slots) != 2:
        raise TwistError("shift applies to a two-slot twist")
    alg = J.slots[0]
    ctx = J.ctx
    N = J.truncation
    slots3 = (J.slots[0], J.slots[1], alg)
    h_i = alg.order.index("h")
    orders = [FieldAccumulator(ctx) for _ in range(N + 1)]
    for p in range(N + 1):
        for (e1, e2), c in J.order(p).terms.items():
            for l in range(N - p + 1):
                if l == 0:
                    d = c
                else:
                    d = d.differentiate(LAM)
                if d.is_zero():
                    break
                e3 = tuple(l if j == h_i else 0 for j in range(alg.ngens))
                orders[p + l].add(
                    d, (((e1, e2, e3), QQ((-1) ** l, math.factorial(l))),))
    return TwistSeries(slots3, [TensorUEA(slots3, t.sums()) for t in orders],
                       validate=False)


def cocycle_sides(J: TwistSeries, right12: TwistSeries
                  ) -> tuple[TwistSeries, TwistSeries]:
    """The two sides of a cocycle identity for a two-slot series J:
    (Delta (x) id)(J) * right12 and (id (x) Delta)(J) * J^{23}."""
    lhs = J.map_orders(lambda t: t.slot_coproduct(0)) * right12
    rhs = J.map_orders(lambda t: t.slot_coproduct(1)) * \
        J.map_orders(lambda t: t.insert_unit(0))
    return lhs, rhs


def cocycle_residual(J: TwistSeries, right12: TwistSeries) -> dict:
    """Order-by-order comparison of the two :func:`cocycle_sides`: the
    orders that fail and the residual at the first of them."""
    lhs, rhs = cocycle_sides(J, right12)
    diff = lhs - rhs
    failing = [r for r, t in enumerate(diff.orders) if not t.is_zero()]
    return {
        "checked_through": diff.truncation,
        "ok": not failing,
        "failing_orders": failing,
        "first_residual": (diff.order(failing[0]).to_json()
                           if failing else None),
    }


def counit_ok(J: TwistSeries) -> bool:
    """Both slot counits collapse the series to 1."""
    unit1 = TensorUEA.unit((J.slots[0],))
    for r, t in enumerate(J.orders):
        want = unit1 if r == 0 else TensorUEA((J.slots[0],), {})
        if any(not (t.slot_counit(s) - want).is_zero() for s in (0, 1)):
            return False
    return True


def check_dynamical_twist(J: TwistSeries) -> dict:
    """Verify the shifted cocycle identity through the truncation order.

    Left side: (Delta (x) id)(J) * J(lam - hbar h^(3))^{12}.
    Right side: (id (x) Delta)(J) * J^{23}.
    Returns per-order residual flags and the first failing order, if any.
    """
    if len(J.slots) != 2:
        raise TwistError("cocycle identity applies to a two-slot twist")
    return cocycle_residual(J, shift_twist(J))


def classical_limit_r(J: TwistSeries) -> Tensor2:
    """The classical dynamical r-matrix of a twist: r = j - j^21 where j is
    the first-order term, which must lie in g (x) g."""
    if len(J.slots) != 2:
        raise TwistError("classical limit applies to a two-slot twist")
    if not J.starts_at_unit():
        raise TwistError("twist must start at 1 (x) 1")
    alg = J.slots[0]
    j: dict[tuple, FieldElement] = {}
    for (e1, e2), c in J.order(1).terms.items():
        if sum(e1) != 1 or sum(e2) != 1:
            raise TwistError("first-order term does not lie in g (x) g")
        # distinct degree-one monomials are distinct basis elements
        j[alg._lie_index[e1.index(1)], alg._lie_index[e2.index(1)]] = c
    jt = Tensor2(alg.lie, j)
    return jt - jt.transpose()


def check_cdybe(r: Tensor2, couplings: Sequence[tuple[str, str]]) -> dict:
    """Classical dynamical Yang-Baxter residual:
    Alt(sum_i h_i (x) dr/dlam_i) + CYB(r), with Alt the cyclic-rotation sum.

    ``couplings`` pairs each Cartan basis name with its dynamical parameter.
    """
    g = r.algebra
    acc = FieldAccumulator(g.ctx)
    for cartan, var in couplings:
        hi = g.index[cartan]
        for (a, b), v in r.coeffs.items():
            acc.add(v.differentiate(var), (((hi, a, b), 1),))
    residual = alt(Tensor3(g, acc.sums())) + cyb(r)
    ok = residual.is_zero()
    from .lie import tensor_to_json
    return {"ok": ok, "residual": [] if ok else tensor_to_json(residual)}
