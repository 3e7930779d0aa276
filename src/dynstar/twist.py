"""Quantum dynamical twists as truncated power series in u = hbar/lam.

The sl(2) twist depends on hbar and the dynamical variable lam only through
u: each resolvent factor hbar/(lam - hbar(h+j)) is u/(1 - u(h+j)), and the
dynamical shift lam -> lam - hbar h^(3) is u -> u/(1 - u h^(3)). So a twist
is stored as one tensor-square (or tensor-cube) enveloping-algebra element
T_n over QQ per order, the series being sum_n u^n T_n, and products,
coproducts, the dynamical shift and every zero test run on the QQ tensors.
The field view (:meth:`TwistSeries.order`, hbar^n lam^-n T_n with the hbar^n
left to the order index) is the one place a twist's coefficients become
field elements; it is read (classical limit, orbit bidifferential operator)
and printed, never multiplied. A field coefficient enters a twist only
through :func:`homogeneous_coefficient`, which rejects anything but a
rational multiple of lam^-n at order n. A product goes key pair by key
pair over integer numerators and denominators, visiting only the pairs that
land inside the truncation. A cocycle identity is checked as one exact
difference: both sides' products are summed, with opposite signs, into one
RationalAccumulator per order; a PASS forms no fraction of either side. The
closed-form twist for sl(2) in the generators y, h, x, the dynamical-shift
operation, the defining cocycle identity and the classical limit all live
here.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from typing import Callable, Sequence

from sympy.polys.domains import QQ

from .enveloping import PBWAlgebra, TensorUEA, UEAElement, lean, multiply_keys
from .lie import Tensor2, Tensor3, alt, cyb
from .scalars import (HBAR, LAM, Context, FieldAccumulator, FieldElement,
                      RationalAccumulator)


class TwistError(ValueError):
    pass


def homogeneous_coefficient(c: FieldElement, n: int):
    """The entry check of one order-n coefficient: the q in QQ with
    c = q lam^-n. Anything else (another power of lam, hbar, a t or another
    denominator) raises, naming the order."""
    q = (c * c.context.var(LAM) ** n).as_rational()
    if q is None:
        raise TwistError(f"order {n} coefficient {c.to_string()} is not "
                         f"a rational multiple of {LAM}^-{n}")
    return q


class TwistSeries:
    """A truncated series sum_n u^n T_n in u = hbar/lam of tensor
    enveloping elements.

    ``coeffs[n]`` is the TensorUEA T_n over QQ. Every product, coproduct
    and zero test runs on them, and :meth:`order` and :attr:`orders` give
    the field view, which is only read and printed.
    """

    def __init__(self, slots: Sequence[PBWAlgebra], coeffs: Sequence[TensorUEA]):
        self.slots = tuple(slots)
        self.coeffs = list(coeffs)

    @property
    def ctx(self) -> Context:
        return self.slots[0].ctx

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def order(self, n: int) -> TensorUEA:
        """The hbar^n coefficient lam^-n T_n with field coefficients (zero
        past the truncation)."""
        t = self.coeffs[n] if n <= self.truncation else TensorUEA(self.slots, {})
        return t.scale(self.ctx.var(LAM) ** -n)

    @property
    def orders(self) -> list[TensorUEA]:
        return [self.order(n) for n in range(len(self.coeffs))]

    def _by_key(self, N: int) -> dict[tuple, list]:
        """Every tensor key of orders 0..N with its (order, numerator,
        denominator) entries, sorted by order."""
        rows: dict[tuple, list] = {}
        for n, t in enumerate(self.coeffs[:N + 1]):
            for k, q in t.terms.items():
                rows.setdefault(k, []).append((n, q.numerator, q.denominator))
        return rows

    def __mul__(self, other: "TwistSeries") -> "TwistSeries":
        """The product through the lower truncation (see :func:`_add_product`)."""
        N = min(self.truncation, other.truncation)
        sums = defaultdict(RationalAccumulator)
        _add_product(sums, self, other, N, 1)
        return summed_series(self.slots, sums, N)

    def differing_orders(self, other: "TwistSeries") -> list[int]:
        """The orders, through the lower truncation, at which the two series
        differ. Coefficients are nonzero and compared exactly, so equal
        orders have equal term maps."""
        if self.slots != other.slots:
            raise TwistError("series signature mismatch")
        return [r for r, (a, b) in enumerate(zip(self.coeffs, other.coeffs))
                if a.terms != b.terms]

    def map_orders(self, f: Callable[[TensorUEA], TensorUEA]) -> "TwistSeries":
        """Apply a QQ-linear map of tensors to every order."""
        return TwistSeries(f(TensorUEA(self.slots, {})).slots,
                           [f(t) for t in self.coeffs])

    def starts_at_unit(self) -> bool:
        return not self.differing_orders(_unit_series(self.slots, 0))

    def to_json(self) -> dict:
        return {
            "deformation": HBAR,
            "truncation": self.truncation,
            "orders": [t.to_json() for t in self.orders],
        }


def _unit_series(slots: Sequence[PBWAlgebra], N: int) -> TwistSeries:
    return TwistSeries(slots, [TensorUEA.unit(slots)]
                       + [TensorUEA(slots, {})] * N)


def _add_product(sums: dict, a: TwistSeries, b: TwistSeries, N: int,
                 sign: int) -> None:
    """Add sign * (a * b) through order N into sums[order], key pair by key
    pair: each pair of tensor keys is multiplied out once, and its
    coefficients that land at one order are summed as int pairs before one
    accumulator add. The right keys are bucketed by their lowest order, so
    a left key from order p visits only the buckets that can land at order
    N or below."""
    if a.slots != b.slots:
        raise TwistError("series signature mismatch")
    buckets: list[list] = [[] for _ in range(N + 1)]
    for k2, row2 in b._by_key(N).items():
        buckets[row2[0][0]].append((k2, row2))
    for k1, row1 in a._by_key(N).items():
        for bucket in buckets[:N + 1 - row1[0][0]]:
            for k2, row2 in bucket:
                pair: dict[int, list] = {}
                for p, n1, m1 in row1:
                    for q, n2, m2 in row2:
                        if p + q > N:
                            break
                        n, m = n1 * n2, m1 * m2
                        s = pair.setdefault(p + q, [0, m])
                        if s[1] == m:
                            s[0] += n
                        else:
                            s[0], s[1] = s[0] * m + n * s[1], s[1] * m
                terms = multiply_keys(a.slots, k1, k2)
                for r, (n, m) in pair.items():
                    if n:
                        sums[r].add(sign * n, m, terms)


def summed_series(slots: Sequence[PBWAlgebra], sums: dict, N: int) -> TwistSeries:
    """The series whose order n holds sums[n].sums() (zero if absent)."""
    return TwistSeries(slots, [TensorUEA(slots, sums[n].sums() if n in sums else {})
                               for n in range(N + 1)])


def _h_powers(alg: PBWAlgebra, shift: int, kmax: int) -> TwistSeries:
    """The one-slot series lam (lam - hbar(h + shift))^(-1)
    = sum_k u^k (h + shift)^k for k = 0..kmax."""
    one, e_h = (0,) * alg.ngens, next(iter(alg.gen("h").terms))
    base = UEAElement(alg, {e_h: 1, one: shift})
    power = alg.one()
    coeffs = []
    for k in range(kmax + 1):
        coeffs.append(TensorUEA((alg,), {(e,): q for e, q in power.terms.items()}))
        power = power * base
    return TwistSeries((alg,), coeffs)


def abrr_twist(alg: PBWAlgebra, N: int) -> TwistSeries:
    """The closed-form dynamical twist for sl(2), truncated at order N.

    Term n is ((-1)^n / n!) hbar^n (y^n (x) x^n) with the resolvent product
    prod_{j<n} (lam - hbar(h+j))^(-1) acting on the right of the x slot,
    that is ((-1)^n / n!) u^n (y^n (x) x^n) times prod_{j<n} of the
    :func:`_h_powers` factors. Expanding them in u spreads term n over
    orders n, n+1, ...; the product for n + 1 is the product for n times
    the factor j = n, and y^n, x^n are carried the same way. The resolvent
    product is a one-slot series, so its zero orders take no products.
    """
    slot = (alg,)
    y, x = (TensorUEA(slot, {(next(iter(alg.gen(g).terms)),): 1}) for g in "yx")
    yn = xn = TensorUEA.unit(slot)
    resolvent = _unit_series(slot, N)
    sums = defaultdict(RationalAccumulator)
    for n in range(N + 1):
        pref = QQ((-1) ** n, math.factorial(n))
        for m, fm in enumerate(resolvent.coeffs):
            right = (xn * fm).terms.items()
            for (e1,), c1 in yn.terms.items():
                c = c1 * pref
                sums[n + m].add(c.numerator, c.denominator,
                                [((e1, e2), c2) for (e2,), c2 in right])
        if n < N:
            resolvent = resolvent * _h_powers(alg, n, N - n - 1)
            yn, xn = yn * y, xn * x
    return summed_series((alg, alg), sums, N)


def check_h_invariance(J: TwistSeries) -> bool:
    """[h (x) 1 + 1 (x) h, J] = 0 at every order. Each generator g is an
    ad-h eigenvector, [h, g] = w g, so a PBW key has the total weight of
    its generators and the commutator vanishes exactly when every key of
    every order has weight zero (TwistError if some g is not one)."""
    weights = []
    for alg in J.slots:
        lie = alg.lie
        for i in map(lie.index.get, alg.order):
            row = lie.bracket(lie.index["h"], i)
            if set(row) - {i}:
                raise TwistError(f"{lie.names[i]} is not an ad-h eigenvector")
            weights.append(lean(row.get(i, 0)))
    return all(sum(map(operator.mul, sum(key, ()), weights)) == 0
               for t in J.coeffs for key in t.terms)


def shift_twist(J: TwistSeries) -> TwistSeries:
    """J(lam - hbar h^(3)) acting in slots 1,2 of a tensor cube.

    The shift takes u to u / (1 - u h^(3)), so u^p at order p > 0 becomes
    sum_l C(p+l-1, l) u^(p+l) with h^l placed in slot 3, and u^0 stays.
    """
    if len(J.slots) != 2:
        raise TwistError("shift applies to a two-slot twist")
    alg = J.slots[0]
    N = J.truncation
    slots3 = (J.slots[0], J.slots[1], alg)
    h_i = alg.order.index("h")
    sums = defaultdict(RationalAccumulator)
    for p, t in enumerate(J.coeffs):
        for l in range(N - p + 1 if p else 1):
            e3 = tuple(l if j == h_i else 0 for j in range(alg.ngens))
            sums[p + l].add(math.comb(p + l - 1, l) if p else 1, 1,
                            [((e1, e2, e3), c) for (e1, e2), c in t.terms.items()])
    return summed_series(slots3, sums, N)


def cocycle_residual(J: TwistSeries, right12: TwistSeries) -> dict:
    """A cocycle identity for a two-slot series J, through N, the lower
    truncation, as one difference: (Delta (x) id)(J) * right12 added with
    sign +1 and (id (x) Delta)(J) * J^{23} with sign -1 into one
    accumulator per order. The orders whose difference is not zero fail,
    and the field view of the first of them is the residual."""
    N = min(J.truncation, right12.truncation)
    diff = defaultdict(RationalAccumulator)
    _add_product(diff, J.map_orders(lambda t: t.slot_coproduct(0)), right12, N, 1)
    _add_product(diff, J.map_orders(lambda t: t.slot_coproduct(1)),
                 J.map_orders(lambda t: t.insert_unit(0)), N, -1)
    failing = sorted(n for n, acc in diff.items() if not acc.is_zero())
    first = None
    if failing:
        f = failing[0]
        first = summed_series(right12.slots, {f: diff[f]}, N).order(f).to_json()
    return {"checked_through": N, "ok": not failing,
            "failing_orders": failing, "first_residual": first}


def counit_ok(J: TwistSeries) -> bool:
    """Both slot counits collapse the series to 1."""
    counits = (J.map_orders(lambda t, s=s: t.slot_counit(s)) for s in (0, 1))
    return not any(c.differing_orders(_unit_series(c.slots, c.truncation))
                   for c in counits)


def check_dynamical_twist(J: TwistSeries) -> dict:
    """The shifted cocycle identity through the truncation order: the
    :func:`cocycle_residual` with J(lam - hbar h^(3))^{12} on the right of
    (Delta (x) id)(J)."""
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
        for (a, b), v in r.terms.items():
            acc.add(v.differentiate(var), (((hi, a, b), 1),))
    residual = alt(Tensor3(g, acc.sums())) + cyb(r)
    ok = residual.is_zero()
    from .lie import tensor_to_json
    return {"ok": ok, "residual": [] if ok else tensor_to_json(residual)}
