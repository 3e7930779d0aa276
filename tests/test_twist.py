import pytest

from dynstar import (PBWAlgebra, TensorUEA, TwistError, TwistSeries,
                     abrr_twist, check_cdybe, check_dynamical_twist,
                     check_h_invariance, classical_limit_r, shift_twist, sl2,
                     tensor2_from_names)
from dynstar.twist import abrr_factor_series


@pytest.fixture(scope="module")
def U(ctx):
    return PBWAlgebra(sl2(ctx), order=("y", "h", "x"))


@pytest.fixture(scope="module")
def J5(U):
    return abrr_twist(U, 5)


def tensor2(U, u, v):
    """u (x) v as a two-slot tensor."""
    out = TensorUEA((U, U), {})
    for e1, c1 in u.terms.items():
        for e2, c2 in v.terms.items():
            out = out + TensorUEA((U, U), {(e1, e2): c1 * c2})
    return out


def trivial(U):
    return TwistSeries((U, U), [TensorUEA.unit((U, U))])


class TestSeriesContainer:
    def test_requires_constant_order(self, U):
        with pytest.raises(TwistError):
            TwistSeries((U, U), [])

    def test_deformation_symbol_must_be_absent(self, U, ctx):
        y, x = U.gen("y"), U.gen("x")
        bad = tensor2(U, y.scale(ctx.var("hbar")), x)
        with pytest.raises(TwistError):
            TwistSeries((U, U), [TensorUEA.unit((U, U)), bad])

    def test_slot_signature_checked(self, U, ctx):
        wrong = TensorUEA((U, U, U), {})
        with pytest.raises(TwistError):
            TwistSeries((U, U), [wrong])

    def test_truncated_product(self, U, ctx):
        y, x = U.gen("y"), U.gen("x")
        A = tensor2(U, y, U.one())
        B = tensor2(U, U.one(), x)
        one = TensorUEA.unit((U, U))
        s = TwistSeries((U, U), [one, A]) * TwistSeries((U, U), [one, B])
        assert (s.order(1) - (A + B)).is_zero()
        assert s.truncation == 1


class TestClosedForm:
    def test_order_zero_is_unit(self, J5):
        assert J5.starts_at_unit()

    def test_order_one(self, J5, U, ctx):
        lam = ctx.var("lam")
        want = tensor2(U, U.gen("y"), U.gen("x")).scale(-1 / lam)
        assert (J5.order(1) - want).is_zero()

    def test_order_two(self, J5, U, ctx):
        lam = ctx.var("lam")
        y, h, x = U.gen("y"), U.gen("h"), U.gen("x")
        # q^2 collects the n=2 head and the first resolvent correction of n=1
        want = tensor2(U, y * y, x * x).scale(1 / (2 * lam ** 2)) \
            - tensor2(U, y, x * h).scale(1 / lam ** 2)
        assert (J5.order(2) - want).is_zero()

    def test_factor_series_matches_geometric(self, U, ctx):
        # a single factor (lam - q h)^(-1) expands as sum_k q^k h^k/lam^(k+1)
        lam = ctx.var("lam")
        h = U.gen("h")
        fs = abrr_factor_series(U, 1, 3)
        for k, fk in enumerate(fs):
            assert (fk - (h ** k).scale(lam ** (-(k + 1)))).is_zero()

    def test_h_invariance(self, J5):
        assert check_h_invariance(J5)

    def test_h_invariance_detects_breakage(self, J5, U, ctx):
        broken = TwistSeries(
            (U, U),
            [J5.order(0), J5.order(1) + tensor2(U, U.gen("y"), U.one())],
            validate=False)
        assert not check_h_invariance(broken)

    def test_counit_axiom_per_order(self, J5):
        for slot in (0, 1):
            for n in range(1, J5.truncation + 1):
                assert J5.order(n).slot_counit(slot).is_zero()


class TestShift:
    def test_taylor_term(self, U, ctx):
        # shifting q c(lam) y (x) x by lam -> lam - q h^(3) produces
        # -q^2 c'(lam) y (x) x (x) h
        lam = ctx.var("lam")
        y, x = U.gen("y"), U.gen("x")
        J = TwistSeries((U, U), [
            TensorUEA.unit((U, U)),
            tensor2(U, y, x).scale(1 / lam),
            TensorUEA((U, U), {}),
        ])
        sh = shift_twist(J)
        e_y = next(iter(U.gen("y").terms))
        e_x = next(iter(U.gen("x").terms))
        e_h = next(iter(U.gen("h").terms))
        got = sh.order(2).terms
        assert got == {(e_y, e_x, e_h): ctx("1/lam^2")} or \
            (got[(e_y, e_x, e_h)] - ctx("1/lam^2")).is_zero()

    def test_rejects_three_slots(self, J5):
        with pytest.raises(TwistError):
            shift_twist(shift_twist(J5))


class TestCocycle:
    def test_dynamical_twist_equation(self, J5):
        rep = check_dynamical_twist(J5)
        assert rep["checked_through"] == 5
        assert rep["ok"], rep["failing_orders"]

    def test_trivial_twist(self, U):
        rep = check_dynamical_twist(trivial(U))
        assert rep["ok"]

    def test_mutation_detected(self, J5, U, ctx):
        orders = list(J5.orders)
        orders[2] = orders[2] + tensor2(
            U, U.gen("y"), U.gen("x")).scale(ctx("1/lam"))
        broken = TwistSeries((U, U), orders, validate=False)
        rep = check_dynamical_twist(broken)
        assert not rep["ok"]
        assert rep["failing_orders"]
        assert min(rep["failing_orders"]) >= 2
        assert rep["first_residual"]


class TestClassicalLimit:
    def test_limit_is_standard_dynamical_r(self, J5, U, ctx):
        r = classical_limit_r(J5)
        want = tensor2_from_names(U.lie, {("x", "y"): ctx("1/lam"),
                                          ("y", "x"): ctx("-1/lam")})
        assert (r - want).is_zero()
        assert (r + r.transpose()).is_zero()

    def test_trivial_limit(self, U):
        assert classical_limit_r(trivial(U)).is_zero()

    def test_nonlinear_first_order_rejected(self, U, ctx):
        y, x = U.gen("y"), U.gen("x")
        J = TwistSeries((U, U),
                        [TensorUEA.unit((U, U)), tensor2(U, y * y, x)])
        with pytest.raises(TwistError):
            classical_limit_r(J)

    def test_limit_solves_cdybe(self, J5):
        rep = check_cdybe(classical_limit_r(J5), [("h", "lam")])
        assert rep["ok"]


def test_json_round_structure(J5):
    js = J5.to_json()
    assert js["deformation"] == "hbar"
    assert js["truncation"] == 5
    assert len(js["orders"]) == 6
