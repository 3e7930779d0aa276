import hashlib
import json
import math

import pytest

from dynstar import (PBWAlgebra, TensorUEA, TwistError, TwistSeries,
                     abrr_twist, check_cdybe, check_dynamical_twist,
                     check_h_invariance, classical_limit_r, shift_twist, sl2,
                     tensor2_from_names)
from dynstar import twist
from dynstar.twist import cocycle_residual, cocycle_sides


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
        fs = twist._h_powers(U, 0, 3)
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


# -- references: the series product and the slot coproduct as they were
# computed before each order was summed in one accumulator -----------------

def reference_series_mul(A, B):
    """Each order summed through LinearCombination additions."""
    out = []
    for r in range(min(A.truncation, B.truncation) + 1):
        acc = TensorUEA(A.slots, {})
        for p in range(r + 1):
            acc = acc + A.order(p) * B.order(r - p)
        out.append(acc)
    return TwistSeries(A.slots, out, validate=False)


def reference_splits(exp):
    """The coproduct of a PBW monomial, one exponent at a time."""
    n = len(exp)
    splits = [((0,) * n, (0,) * n, 1)]
    for i, e in enumerate(exp):
        if e == 0:
            continue
        new = []
        for (l, r, m) in splits:
            for a in range(e + 1):
                ll, rr = list(l), list(r)
                ll[i], rr[i] = a, e - a
                new.append((tuple(ll), tuple(rr), m * math.comb(e, a)))
        splits = new
    return splits


def reference_slot_coproduct(t, slot):
    """One coproduct per term, each multiplicity a field multiplication."""
    alg, ctx = t.slots[slot], t.ctx
    out = {}
    for k, v in t.terms.items():
        for l, r, m in reference_splits(k[slot]):
            nk = k[:slot] + (l, r) + k[slot + 1:]
            out[nk] = out.get(nk, ctx.zero()) + v * ctx(m)
    return TensorUEA(t.slots[:slot] + (alg, alg) + t.slots[slot + 1:], out)


def doubled_twist(U, N):
    """abrr_twist with its first order-2 coefficient doubled."""
    J = abrr_twist(U, N)
    orders = list(J.orders)
    terms = dict(orders[2].terms)
    key = min(terms)
    terms[key] = terms[key] * 2
    orders[2] = TensorUEA((U, U), terms)
    return TwistSeries((U, U), orders, validate=False)


def wrong_shift_twist(U, N, monkeypatch):
    """abrr_twist with the resolvent shifts j replaced by 2j."""
    real = twist._h_powers
    with monkeypatch.context() as m:
        m.setattr(twist, "_h_powers",
                  lambda alg, shift, kmax: real(alg, 2 * shift, kmax))
        return abrr_twist(U, N)


def series_equal(A, B):
    return A.slots == B.slots and A.truncation == B.truncation and all(
        (a - b).is_zero() for a, b in zip(A.orders, B.orders))


class TestAgainstReferences:
    @pytest.fixture(scope="class")
    def twists(self, U):
        return {"abrr": abrr_twist(U, 4), "doubled": doubled_twist(U, 4)}

    @pytest.mark.parametrize("name", ["abrr", "doubled"])
    def test_series_product(self, twists, name):
        J = twists[name]
        lhs12 = J.map_orders(lambda t: t.slot_coproduct(0))
        rhs12 = J.map_orders(lambda t: t.slot_coproduct(1))
        J23 = J.map_orders(lambda t: t.insert_unit(0))
        for A, B in ((J, J), (lhs12, shift_twist(J)), (rhs12, J23)):
            assert series_equal(A * B, reference_series_mul(A, B))
        lhs, rhs = cocycle_sides(J, shift_twist(J))
        assert series_equal(lhs, reference_series_mul(lhs12, shift_twist(J)))
        assert series_equal(rhs, reference_series_mul(rhs12, J23))

    @pytest.mark.parametrize("name", ["abrr", "doubled", "shifted"])
    def test_slot_coproduct(self, twists, name):
        J = shift_twist(twists["abrr"]) if name == "shifted" else twists[name]
        for t in J.orders:
            for slot in range(len(J.slots)):
                want = reference_slot_coproduct(t, slot)
                got = t.slot_coproduct(slot)
                assert got.slots == want.slots and (got - want).is_zero()

    def test_element_coproduct(self, U):
        u = (U.gen("y") + U.gen("h") * U.gen("x")) ** 3 + U.one().scale(2)
        unit = TensorUEA((U,), {(e,): c for e, c in u.terms.items()})
        want = reference_slot_coproduct(unit, 0)
        assert (u.coproduct() - want).is_zero()

    # sha256 of the sorted-key JSON of cocycle_residual(J, shift_twist(J)),
    # recorded before the per-order accumulator: checked_through,
    # failing_orders and first_residual must stay byte-identical
    @pytest.mark.parametrize("kind,failing,digest", [
        ("doubled", [3, 4],
         "1ac1820eea2b092afe84f8d747f900261fe2ac395967bad6e75b922b6dc8d9dd"),
        ("wrong_shift", [3, 4],
         "ca5567479da233b8d37a59a54a55c5308a83d060f91783b76733f6c6a73c0716"),
    ], ids=["doubled", "wrong_shift"])
    def test_mutated_residual_digest(self, U, monkeypatch, kind, failing, digest):
        J = doubled_twist(U, 4) if kind == "doubled" else \
            wrong_shift_twist(U, 4, monkeypatch)
        rep = cocycle_residual(J, shift_twist(J))
        assert rep["failing_orders"] == failing and rep["checked_through"] == 4
        text = json.dumps(rep, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
