"""Collapsing a dynamical twist to an ordinary one.

When the Cartan line has a complementary subalgebra v, rewriting a dynamical
twist in adapted coordinates and discarding every monomial that touches the
Cartan generator produces a twist for Uv with no dynamical variable shift.
This module builds the adapted sl(2) splittings, performs the projection
over QQ (each slot monomial's image as :func:`change_generators` returns
it), states the closed form of the projected series (its scalar
denominators expanded in hbar over the field, each order's rational
multiple of lam^-n summed over QQ), and verifies the ordinary twist axioms
order by order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from sympy.polys.domains import QQ

from .enveloping import (PBWAlgebra, TensorUEA, UEAElement, change_generators,
                         project_drop_right)
from .lie import LieAlgebraData, sl2
from .orbits import star_coefficients
from .scalars import HBAR, Context, RationalAccumulator
from .twist import (TwistSeries, check_h_invariance, cocycle_residual,
                    counit_ok, homogeneous_coefficient, summed_series)


class ProjectionError(ValueError):
    pass


@dataclass
class SplittingData:
    """An adapted decomposition g = h (+) v for sl(2).

    ``algebra`` carries the (b, a, c) basis with v = span{b, a} and
    h = span{c}; ``order`` puts the v-generators first so that dropping
    trailing c-exponents is a projection along the left ideal Ug h.
    ``images`` holds the projected image of every slot monomial that
    :func:`project_twist` has met, kept over QQ as :func:`change_generators`
    returns it, keyed by (PBW order of the slot algebra, exponents). The
    image depends on nothing else, so twists over separately built
    algebras share one table, which the six orders of (y, h, x) and the
    degree cap bound.
    """
    ambient: LieAlgebraData
    algebra: LieAlgebraData
    pbw: PBWAlgebra
    to_split: dict      # sl(2) generator -> expansion in (b, a, c)
    from_split: dict    # (b, a, c) generator -> expansion in (y, h, x)
    v_names: tuple[str, str]
    h_name: str
    variant: str
    images: dict = field(default_factory=dict, repr=False, compare=False)

    def check(self) -> dict:
        """Bracket relations of the split basis and exactness of the
        decomposition (round-trip change of basis on the generators)."""
        idx = self.algebra.index
        b, a, c = (idx[self.v_names[0]], idx[self.v_names[1]], idx[self.h_name])

        rel = {
            "cb": self.algebra.bracket(c, b) == {b: 1, c: 1},
            "ca": self.algebra.bracket(c, a) == {c: 1, a: -1},
            "ba": self.algebra.bracket(b, a) == {a: 1, b: -1},
            "v_closed": all(
                set(self.algebra.bracket(i, j)) <= {b, a}
                for i in (b, a) for j in (b, a)),
        }
        amb = PBWAlgebra(self.ambient)
        ok_round = True
        for name in self.ambient.names:
            img = change_generators(amb.gen(name), self.pbw, self.to_split)
            back = change_generators(img, amb, self.from_split)
            ok_round = ok_round and (back - amb.gen(name)).is_zero()
        rel["round_trip"] = ok_round
        rel["all_ok"] = all(rel.values())
        return rel

    def validate(self) -> "SplittingData":
        """This splitting, once :meth:`check` passes; raises otherwise."""
        rel = self.check()
        if not rel["all_ok"]:
            raise ProjectionError(f"splitting self-check failed: {rel}")
        return self


def split_basis_sl2(ctx: Context, variant: str = "standard") -> SplittingData:
    """The adapted bases of sl(2).

    "standard": b = y + h/2, a = x - h/2, c = -h/2.
    "chevalley": the image of the standard splitting under x <-> y, h -> -h
    (an extra fixture; the complement is a different two-dimensional
    nonabelian subalgebra with the same bracket relations).
    """
    g = sl2(ctx)
    half = QQ(1, 2)
    br = {
        (0, 1): {1: 1, 0: -1},        # [b, a] = a - b
        (0, 2): {0: -1, 2: -1},       # [b, c] = -(b + c)
        (1, 2): {1: 1, 2: -1},        # [a, c] = a - c
    }
    form = [[half, half, -half], [half, half, half], [-half, half, half]]
    split = LieAlgebraData(ctx, ("b", "a", "c"), br, form)
    pbw = PBWAlgebra(split, order=("b", "a", "c"))
    if variant == "standard":
        to_split = {"y": {"b": 1, "c": 1}, "h": {"c": -2},
                    "x": {"a": 1, "c": -1}}
        from_split = {"b": {"y": 1, "h": half}, "a": {"x": 1, "h": -half},
                      "c": {"h": -half}}
    elif variant == "chevalley":
        to_split = {"x": {"b": 1, "c": 1}, "h": {"c": 2},
                    "y": {"a": 1, "c": -1}}
        from_split = {"b": {"x": 1, "h": -half}, "a": {"y": 1, "h": half},
                      "c": {"h": half}}
    else:
        raise ProjectionError(f"unknown splitting variant {variant!r}")
    return SplittingData(g, split, pbw, to_split, from_split,
                         ("b", "a"), "c", variant).validate()


@dataclass
class ProjectedTwist:
    """A twist series whose coefficients live in Uv (x) Uv."""
    series: TwistSeries
    splitting: SplittingData

    def __post_init__(self):
        hname = self.splitting.h_name
        alg = self.splitting.pbw
        hi = alg.order.index(hname)
        for key in (k for t in self.series.coeffs for k in t.terms):
            if any(e[hi] != 0 for e in key):
                raise ProjectionError("coefficient leaks outside Uv (x) Uv")


def _project_slots(t: TensorUEA, sp: SplittingData) -> TensorUEA:
    """Project every slot of a tensor over QQ, each slot monomial through
    its image in ``sp.images``."""
    def image(u: UEAElement) -> UEAElement:
        (e,) = u.terms
        key = (u.algebra.order, e)
        if key not in sp.images:
            sp.images[key] = project_drop_right(
                change_generators(u, sp.pbw, sp.to_split), (sp.h_name,))
        return sp.images[key]
    return t.map_slots(image)


def project_twist(J: TwistSeries, sp: SplittingData) -> ProjectedTwist:
    """Rewrite each slot of a twist over the ambient sl(2) in the adapted
    basis and drop every monomial with a positive Cartan exponent.

    The projection only produces a twist when the input commutes with the
    Cartan line, so that is checked first and violations are reported
    instead of silently projecting. The image of each slot monomial stays
    in ``sp.images`` for later projections.
    """
    if any(a.lie.names != sp.ambient.names for a in J.slots):
        raise ProjectionError("input slots are not over the ambient sl(2)")
    if not check_h_invariance(J):
        raise ProjectionError(
            "input twist is not Cartan-invariant; projection refused")
    return ProjectedTwist(J.map_orders(lambda t: _project_slots(t, sp)), sp)


def rising_factorial(alg: PBWAlgebra, name: str, n: int) -> UEAElement:
    """g (g+1) ... (g+n-1) for a generator g, over QQ."""
    one, e = (0,) * alg.ngens, next(iter(alg.gen(name).terms))
    out = alg.one()
    for i in range(n):
        out = out * UEAElement(alg, {e: 1, one: i})
    return out


def closed_form_jv(sp: SplittingData, N: int) -> ProjectedTwist:
    """The projected series in closed form, 1 + sum_n c_n v_n, with c_n the
    formal coefficient (-1)^n hbar^n / (n! lam (lam-hbar) ... (lam-(n-1)hbar))
    of :func:`~dynstar.orbits.star_coefficients` and v_n the pair of rising
    factorials in the two v-generators: first the one the ambient lowering
    generator y maps into (the first slot of the twist holds powers of y),
    then the other. Each c_n is expanded in hbar to the truncation order,
    and its hbar^r coefficient enters order r as the rational multiple of
    lam^-r that :func:`homogeneous_coefficient` reads off (else it raises)."""
    first = next(v for v in sp.v_names if v in sp.to_split["y"])
    second = next(v for v in sp.v_names if v != first)
    slots = (sp.pbw, sp.pbw)
    # one accumulator per order; order 0 is the unit
    sums = defaultdict(RationalAccumulator)
    sums[0].add(1, 1, [(((0,) * sp.pbw.ngens,) * 2, 1)])
    for n, c_n in enumerate(star_coefficients(sp.pbw.ctx, "formal", N + 1)[1:], 1):
        coeffs = c_n.series_expand(HBAR, N)
        v1, v2 = (rising_factorial(sp.pbw, g, n).terms for g in (first, second))
        pairs = [((e1, e2), c1 * c2) for e1, c1 in v1.items() for e2, c2 in v2.items()]
        for r in range(n, N + 1):
            c = homogeneous_coefficient(coeffs[r], r)
            sums[r].add(c.numerator, c.denominator, pairs)
    return ProjectedTwist(summed_series(slots, sums, N), sp)


def check_nondynamical_twist(Jv: ProjectedTwist) -> dict:
    """The ordinary twist axioms, order by order:
    (Delta (x) id)(J) J^{12} = (id (x) Delta)(J) J^{23}, and both counits
    collapse the series to 1.
    """
    J = Jv.series
    rep = cocycle_residual(J, J.map_orders(lambda t: t.insert_unit(2)))
    counit = counit_ok(J)
    return {**rep, "cocycle_ok": rep["ok"], "counit_ok": counit,
            "ok": rep["ok"] and counit}

