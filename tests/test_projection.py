import math

import pytest
from sympy.polys.domains import QQ

from dynstar import (PBWAlgebra, ProjectedTwist, ProjectionError, TensorUEA,
                     TwistSeries, UEAElement, abrr_twist, change_generators,
                     check_nondynamical_twist, closed_form_jv,
                     project_drop_right, project_twist, rising_factorial,
                     shift_twist, sl2, split_basis_sl2)
from dynstar.enveloping import lean
from dynstar.projection import _project_slots
from field_reference import doubled_order, field_series


def cocycle_sides(J, right12):
    """The two sides of a cocycle identity for a two-slot series J, as
    series products: (Delta (x) id)(J) * right12 and
    (id (x) Delta)(J) * J^{23}."""
    lhs = J.map_orders(lambda t: t.slot_coproduct(0)) * right12
    rhs = J.map_orders(lambda t: t.slot_coproduct(1)) * \
        J.map_orders(lambda t: t.insert_unit(0))
    return lhs, rhs


def check_projected_equation(J, sp, N=None):
    """The route through the dynamical equation: project both sides of the
    shifted cocycle identity of the ambient twist slotwise and compare with
    the ordinary-axiom sides of the projected twist.

    The slotwise projection of a product is not a priori the product of
    projections; equality here is exactly the cross-term vanishing that the
    Cartan-invariance of the input guarantees.
    """
    if N is not None and N < J.truncation:
        J = TwistSeries(J.slots, J.coeffs[:N + 1])
    Jv = project_twist(J, sp)
    lhs_full, rhs_full = cocycle_sides(J, shift_twist(J))
    lhs_proj = lhs_full.map_orders(lambda t: _project_slots(t, sp))
    rhs_proj = rhs_full.map_orders(lambda t: _project_slots(t, sp))

    V = Jv.series
    lhs_v, rhs_v = cocycle_sides(V, V.map_orders(lambda t: t.insert_unit(2)))

    bad_l = lhs_proj.differing_orders(lhs_v)
    bad_r = rhs_proj.differing_orders(rhs_v)
    return {
        "checked_through": min(lhs_proj.truncation, lhs_v.truncation),
        "lhs_ok": not bad_l, "rhs_ok": not bad_r,
        "ok": not (bad_l or bad_r),
        "failing_orders": sorted(set(bad_l) | set(bad_r)),
    }


def rising_factorial_projection(sp, n):
    """pi_v(y^n) two ways: brute-force straightening of (b+c)^n with the
    Cartan monomials dropped, against the closed rising factorial."""
    pbw = sp.pbw
    # b + c is the ambient lowering generator in the standard splitting
    brute = project_drop_right((pbw.gen("b") + pbw.gen("c")) ** n, (sp.h_name,))
    closed = rising_factorial(pbw, "b", n)
    return {"n": n, "brute": brute, "closed": closed,
            "equal": (brute - closed).is_zero()}


def check_cb_identity(sp, n):
    """c b^n = b ((b+1)^n - b^n) + (b+1)^n c in the split enveloping
    algebra."""
    pbw = sp.pbw
    b, c = pbw.gen("b"), pbw.gen("c")
    b1 = b + pbw.one()
    lhs = c * b ** n
    rhs = b * (b1 ** n - b ** n) + b1 ** n * c
    return (lhs - rhs).is_zero()


@pytest.fixture(scope="module")
def spl(ctx):
    return split_basis_sl2(ctx)


@pytest.fixture(scope="module")
def U(ctx):
    return PBWAlgebra(sl2(ctx), order=("y", "h", "x"))


@pytest.fixture(scope="module")
def J5(U):
    return abrr_twist(U, 5)


class TestSplitting:
    @pytest.mark.parametrize("variant", ["standard", "chevalley"])
    def test_self_check(self, ctx, variant):
        rel = split_basis_sl2(ctx, variant).check()
        assert rel["all_ok"], rel

    def test_unknown_variant(self, ctx):
        with pytest.raises(ProjectionError):
            split_basis_sl2(ctx, "opposite")

    def test_complement_is_nonabelian(self, spl):
        b = spl.algebra.index["b"]
        a = spl.algebra.index["a"]
        assert spl.algebra.bracket(b, a)


class TestClosedFormIngredients:
    @pytest.mark.parametrize("n", range(7))
    def test_rising_factorial_projection(self, spl, n):
        assert rising_factorial_projection(spl, n)["equal"]

    @pytest.mark.parametrize("n", range(7))
    def test_cb_identity(self, spl, n):
        assert check_cb_identity(spl, n)

    def test_rising_factorial_base_cases(self, spl):
        P = spl.pbw
        assert (rising_factorial(P, "b", 0) - P.one()).is_zero()
        assert (rising_factorial(P, "b", 2)
                - (P.gen("b") ** 2 + P.gen("b"))).is_zero()


class TestProjection:
    @pytest.mark.parametrize("variant", ["standard", "chevalley"])
    def test_matches_closed_form(self, ctx, J5, variant):
        spl = split_basis_sl2(ctx, variant)
        got = project_twist(J5, spl).series
        want = closed_form_jv(spl, 5).series
        assert not got.differing_orders(want)

    def test_split_input_refused(self, spl, J5):
        # only series over the ambient sl(2) are projected
        Jv = project_twist(J5, spl)
        with pytest.raises(ProjectionError, match="ambient"):
            project_twist(Jv.series, spl)

    def test_non_invariant_input_refused(self, ctx, spl, U):
        y = U.gen("y")
        e_y = next(iter(y.terms))
        e_1 = (0, 0, 0)
        bad = field_series((U, U), [
            TensorUEA.unit((U, U)),
            TensorUEA((U, U), {(e_y, e_1): 1 / ctx.var("lam")}),
        ])
        with pytest.raises(ProjectionError):
            project_twist(bad, spl)

    def test_leak_check(self, ctx, spl):
        P = spl.pbw
        c = P.gen("c")
        e_c = next(iter(c.terms))
        leaky = field_series((P, P), [
            TensorUEA.unit((P, P)),
            TensorUEA((P, P), {(e_c, (0, 0, 0)): 1 / ctx.var("lam")}),
        ])
        with pytest.raises(ProjectionError):
            ProjectedTwist(leaky, spl)


class TestOrdinaryAxioms:
    def test_cocycle_and_counit(self, spl):
        rep = check_nondynamical_twist(closed_form_jv(spl, 5))
        assert rep["checked_through"] == 5
        assert rep["cocycle_ok"], rep["failing_orders"]
        assert rep["counit_ok"]
        assert rep["ok"]

    def test_chevalley_variant(self, ctx):
        spl2 = split_basis_sl2(ctx, "chevalley")
        assert check_nondynamical_twist(closed_form_jv(spl2, 4))["ok"]

    def test_mutation_detected(self, spl):
        mutated = doubled_order(closed_form_jv(spl, 4).series, 1)
        rep = check_nondynamical_twist(ProjectedTwist(mutated, spl))
        assert not rep["ok"]
        assert rep["failing_orders"]
        assert rep["first_residual"]

    def test_projected_equation_route(self, spl, J5):
        rep = check_projected_equation(J5, spl, N=4)
        assert rep["checked_through"] == 4
        assert rep["ok"], rep["failing_orders"]


@pytest.mark.parametrize("route", ["project", "equation"])
def test_each_slot_monomial_changes_generators_once(monkeypatch, ctx, J5,
                                                    route):
    # a fresh splitting: the images of the module's one are already formed
    spl = split_basis_sl2(ctx)
    import dynstar.projection as projection
    seen = []
    inner = projection.change_generators

    def counted(u, target, expansion):
        (e,) = u.terms
        seen.append((u.algebra, e))
        return inner(u, target, expansion)

    monkeypatch.setattr(projection, "change_generators", counted)
    if route == "project":
        first = project_twist(J5, spl).series
    else:
        assert check_projected_equation(J5, spl, N=3)["ok"]
    assert seen
    assert len(seen) == len(set(seen))
    if route == "project":
        # the splitting keeps its images: a second projection converts none
        seen.clear()
        assert not project_twist(J5, spl).series.differing_orders(first)
        assert not seen


def test_slots_in_different_orders(ctx, spl, U, J5):
    # the same twist with its second slot in the PBW order (x, h, y): equal
    # exponent tuples name different monomials in the two slots
    V = PBWAlgebra(sl2(ctx), order=("x", "h", "y"))
    ident = {n: {n: 1} for n in U.order}
    slots = (U, V)
    orders = []
    for t in J5.orders:
        acc = TensorUEA(slots, {})
        for (e1, e2), c in t.terms.items():
            img = change_generators(UEAElement(U, {e2: 1}), V, ident)
            acc = acc + TensorUEA(slots, {(e1, f): c * d
                                          for f, d in img.terms.items()})
        orders.append(acc)
    mixed = field_series(slots, orders)
    got = project_twist(mixed, spl).series
    assert not got.differing_orders(project_twist(J5, spl).series)


def test_one_splitting_over_separately_built_algebras(ctx, J5):
    # the images are keyed by the slots' PBW order, not by their algebra
    # object, so a table shared by many twists stops growing
    spl = split_basis_sl2(ctx)
    first = project_twist(J5, spl).series
    formed = len(spl.images)
    for _ in range(2):
        J = abrr_twist(PBWAlgebra(sl2(ctx), order=("y", "h", "x")), 5)
        assert not project_twist(J, spl).series.differing_orders(first)
        assert len(spl.images) == formed


def test_built_series_hold_no_zero_coefficient(ctx, U):
    J7 = abrr_twist(U, 7)
    built = [J7, shift_twist(J7)] + [
        closed_form_jv(split_basis_sl2(ctx, v), 7).series
        for v in ("standard", "chevalley")]
    for J in built:
        for t in J.orders:
            assert all(not c.is_zero() for c in t.terms.values())


def test_series_serialization(spl):
    js = closed_form_jv(spl, 3).series.to_json()
    assert js["deformation"] == "hbar"
    assert js["truncation"] == 3
    assert len(js["orders"]) == 4


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, by inclusion-exclusion."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n
               for j in range(k + 1)) // math.factorial(k)


def test_stirling2_table():
    assert [stirling2(4, k) for k in range(5)] == [0, 1, 7, 6, 1]
    assert stirling2(0, 0) == 1


# the v-generator that y maps into, then the other one
LEADING = {"standard": ("b", "a"), "chevalley": ("a", "b")}


@pytest.mark.parametrize("scale", [None, {1: 2}, {2: 2}],
                         ids=["plain", "scale1", "scale2"])
@pytest.mark.parametrize("variant", ["standard", "chevalley"])
@pytest.mark.parametrize("N", range(8))
def test_closed_form_matches_stirling_oracle(ctx, variant, scale, N):
    """Order r of the closed form is lam^-r times
    sum_n (-1)^n / n! S(r-1, n-1) v_n: expanding
    1 / (lam (lam - hbar) ... (lam - (n-1) hbar)) in hbar gives the
    complete homogeneous sums of 0..n-1, and those are Stirling numbers
    of the second kind. No field series expansion is involved. With term
    n of the oracle scaled, the two differ at exactly the orders r >= n
    with S(r-1, n-1) nonzero: term 1 at order 1 alone, term 2 at every
    order from 2 on."""
    sp_ = split_basis_sl2(ctx, variant)
    slots = (sp_.pbw, sp_.pbw)
    rf = {(g, n): rising_factorial(sp_.pbw, g, n).terms
          for g in LEADING[variant] for n in range(1, N + 1)}
    first, second = LEADING[variant]
    coeffs = [TensorUEA.unit(slots)]
    for r in range(1, N + 1):
        terms = {}
        for n in range(1, r + 1):
            q = QQ((-1) ** n * stirling2(r - 1, n - 1) * (scale or {}).get(n, 1),
                   math.factorial(n))
            for e1, c1 in rf[first, n].items():
                for e2, c2 in rf[second, n].items():
                    k = (e1, e2)
                    terms[k] = terms.get(k, 0) + q * c1 * c2
        coeffs.append(TensorUEA(slots, {k: lean(q) for k, q in terms.items()}))
    got = closed_form_jv(sp_, N).series
    scaled = [r for r in range(N + 1) for n in (scale or {})
              if r >= n and stirling2(r - 1, n - 1)]
    assert got.differing_orders(TwistSeries(slots, coeffs)) == scaled
