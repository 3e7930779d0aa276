import pytest

from dynstar import (PBWAlgebra, ProjectedTwist, ProjectionError, TensorUEA,
                     TwistSeries, abrr_twist, change_generators,
                     check_cb_identity,
                     check_nondynamical_twist, check_projected_equation,
                     closed_form_jv, project_twist, rising_factorial,
                     rising_factorial_projection, shift_twist, sl2,
                     split_basis_sl2)


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
        assert (got - want).is_zero()

    def test_split_input_refused(self, spl, J5):
        # only series over the ambient sl(2) are projected
        Jv = project_twist(J5, spl)
        with pytest.raises(ProjectionError, match="ambient"):
            project_twist(Jv.series, spl)

    def test_non_invariant_input_refused(self, ctx, spl, U):
        y = U.gen("y")
        e_y = next(iter(y.terms))
        e_1 = (0, 0, 0)
        bad = TwistSeries((U, U), [
            TensorUEA.unit((U, U)),
            TensorUEA((U, U), {(e_y, e_1): ctx.one()}),
        ])
        with pytest.raises(ProjectionError):
            project_twist(bad, spl)

    def test_leak_check(self, ctx, spl):
        P = spl.pbw
        c = P.gen("c")
        e_c = next(iter(c.terms))
        leaky = TwistSeries((P, P), [
            TensorUEA.unit((P, P)),
            TensorUEA((P, P), {(e_c, (0, 0, 0)): ctx.one()}),
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
        rep = check_nondynamical_twist(
            closed_form_jv(spl, 4, term_scale={1: 2}))
        assert not rep["ok"]
        assert rep["failing_orders"]
        assert rep["first_residual"]

    def test_projected_equation_route(self, spl, J5):
        rep = check_projected_equation(J5, spl, N=4)
        assert rep["checked_through"] == 4
        assert rep["ok"], rep["failing_orders"]


@pytest.mark.parametrize("route", ["project", "equation"])
def test_each_slot_monomial_changes_generators_once(monkeypatch, spl, J5,
                                                    route):
    import dynstar.projection as projection
    seen = []
    inner = projection.change_generators

    def counted(u, target, expansion):
        (e,) = u.terms
        seen.append((u.algebra, e))
        return inner(u, target, expansion)

    monkeypatch.setattr(projection, "change_generators", counted)
    if route == "project":
        project_twist(J5, spl)
    else:
        assert check_projected_equation(J5, spl, N=3)["ok"]
    assert seen
    assert len(seen) == len(set(seen))


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
            img = change_generators(U.monomial(e2), V, ident)
            acc = acc + TensorUEA(slots, {(e1, f): c * d
                                          for f, d in img.terms.items()})
        orders.append(acc)
    mixed = TwistSeries(slots, orders)
    got = project_twist(mixed, spl).series
    assert (got - project_twist(J5, spl).series).is_zero()


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
