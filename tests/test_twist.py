import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ

from dynstar import (LieAlgebraData, PBWAlgebra, TensorUEA, TwistError,
                     TwistSeries, abrr_twist, change_generators,
                     check_cdybe, check_dynamical_twist, check_h_invariance,
                     classical_limit_r,
                     closed_form_jv, project_drop_right, project_twist,
                     shift_twist, sl2, split_basis_sl2, tensor2_from_names)
from dynstar import twist
from dynstar.enveloping import lean
from dynstar.twist import cocycle_residual
from field_reference import (field_scaled, field_series, lifted,
                             reference_map_slots, reference_product,
                             reference_slot_coproduct)
from test_projection import check_projected_equation, cocycle_sides


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
    return field_series((U, U), [TensorUEA.unit((U, U))])


class TestSeriesContainer:
    def test_requires_constant_order(self, U):
        with pytest.raises(TwistError):
            field_series((U, U), [])

    def test_deformation_symbol_must_be_absent(self, U, ctx):
        y, x = U.gen("y"), U.gen("x")
        bad = tensor2(U, field_scaled(y, ctx.var("hbar")), x)
        with pytest.raises(TwistError):
            field_series((U, U), [TensorUEA.unit((U, U)), bad])

    @pytest.mark.parametrize("coeff", ["t1/lam", "1/(t1*lam)", "1/(lam - 1)"])
    def test_entry_check_rejects_non_laurent(self, U, ctx, coeff):
        bad = tensor2(U, U.gen("y"), U.gen("x")).scale(ctx(coeff))
        with pytest.raises(TwistError, match=r"order 1 coefficient .* is not "
                                             r"a rational multiple of lam\^-1"):
            field_series((U, U), [TensorUEA.unit((U, U)), bad])

    @pytest.mark.parametrize("coeff", ["1", "lam", "1/lam^2", "1/lam + 1/lam^2",
                                       "hbar/lam"])
    def test_entry_check_rejects_other_powers(self, U, ctx, coeff):
        # order 1 takes rational multiples of 1/lam only
        bad = tensor2(U, U.gen("y"), U.gen("x")).scale(ctx(coeff))
        with pytest.raises(TwistError, match=r"order 1 coefficient .* is not "
                                             r"a rational multiple of lam\^-1"):
            field_series((U, U), [TensorUEA.unit((U, U)), bad])

    @pytest.mark.parametrize("extra", [1, -1])
    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_entry_check_names_the_order(self, U, ctx, n, extra):
        # y (x) x at lam^(extra - n), one power off the order's lam^-n
        orders = abrr_twist(U, 3).orders
        orders[n] = orders[n] + tensor2(U, U.gen("y"), U.gen("x")).scale(
            ctx.var("lam") ** (extra - n))
        with pytest.raises(TwistError, match=f"order {n} coefficient"):
            field_series((U, U), orders)

    def test_entry_check_sees_through_a_common_factor(self, U, ctx):
        # (lam - 1) / (lam (lam - 1)), kept unreduced, is 1/lam
        lam = ctx.var("lam")
        c = (lam - 1) / (lam * (lam - 1))
        assert len(c.den) == 2
        y, x = U.gen("y"), U.gen("x")
        J = field_series((U, U), [TensorUEA.unit((U, U)), tensor2(U, y, x).scale(c)])
        assert J.coeffs[1] == tensor2(U, y, x)
        assert (J.order(1) - tensor2(U, y, x).scale(1 / lam)).is_zero()

    def test_differing_orders_sees_a_grade_on_one_side(self, U):
        # a key, and a whole nonzero order, that only one side holds
        J = abrr_twist(U, 3)
        K = perturbed_twist(U, 3)
        L = TwistSeries(J.slots, J.coeffs[:2] + [TensorUEA(J.slots, {})] + J.coeffs[3:])
        for other in (K, L):
            assert J.differing_orders(other) == other.differing_orders(J) == [2]
        assert not J.differing_orders(abrr_twist(U, 3))

    def test_slot_signature_checked(self, U, ctx):
        wrong = TensorUEA((U, U, U), {})
        with pytest.raises(TwistError):
            field_series((U, U), [wrong])

    def test_truncated_product(self, U, ctx):
        y, x = U.gen("y"), U.gen("x")
        A = tensor2(U, y, U.one()).scale(ctx("1/lam"))
        B = tensor2(U, U.one(), x).scale(ctx("2/lam"))
        one = TensorUEA.unit((U, U))
        s = field_series((U, U), [one, A]) * field_series((U, U), [one, B])
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
        # a single factor lam (lam - q h)^(-1) expands as sum_k q^k h^k/lam^k
        lam = ctx.var("lam")
        h = U.gen("h")
        fs = twist._h_powers(U, 0, 3)
        assert fs.slots == (U,) and fs.truncation == 3
        assert [t.terms for t in fs.coeffs] == [
            {(e,): c for e, c in (h ** k).terms.items()} for k in range(4)]
        for k in range(4):
            want = field_scaled(h ** k, lam ** -k).terms
            assert (fs.order(k) - TensorUEA((U,), {
                (e,): c for e, c in want.items()})).is_zero()

    def test_h_invariance(self, J5):
        assert check_h_invariance(J5)

    def test_h_invariance_detects_breakage(self, J5, U, ctx):
        broken = field_series(
            (U, U),
            [J5.order(0),
             J5.order(1) + tensor2(U, U.gen("y"), U.one()).scale(ctx("1/lam"))])
        assert not check_h_invariance(broken)

    @staticmethod
    def commutes_with_h(J):
        """The reference: [h (x) 1 + 1 (x) h, J] = 0, by PBW products."""
        h = next(iter(J.slots[0].gen("h").terms))
        one = (0,) * J.slots[0].ngens
        total = TensorUEA(J.slots, {(h, one): 1, (one, h): 1})
        return all((total * t).terms == (t * total).terms for t in J.coeffs)

    def test_h_invariance_against_commutator(self, J5, U, ctx):
        y, h, x, one = U.gen("y"), U.gen("h"), U.gen("x"), U.one()
        cases = [abrr_twist(U, n) for n in range(7)]
        # each extra term is added at lam^-order, where its order sits
        for extra, order in ((tensor2(U, y, one), 1), (tensor2(U, y, one), 0),
                             (tensor2(U, one, x * x), 2), (tensor2(U, y, x), 1),
                             (tensor2(U, h * y, x * h), 2)):
            orders = J5.orders
            orders[order] = orders[order] + extra.scale(ctx.var("lam") ** -order)
            cases.append(field_series((U, U), orders))
        verdicts = [check_h_invariance(J) for J in cases]
        assert verdicts == [self.commutes_with_h(J) for J in cases]
        assert verdicts == [True] * 7 + [False, False, False, True, True]

    def test_h_invariance_needs_ad_h_eigenvectors(self, ctx):
        # basis (y, h, u) with u = x + y: [h, u] = 2u - 4y
        g = LieAlgebraData(ctx, ("y", "h", "u"),
                           {(0, 1): {0: 2}, (0, 2): {1: -1}, (1, 2): {2: 2, 0: -4}},
                           [[0, 0, 1], [0, 2, 0], [1, 0, 2]])
        V = PBWAlgebra(g)
        with pytest.raises(TwistError, match="u is not an ad-h eigenvector"):
            check_h_invariance(field_series((V, V), [TensorUEA.unit((V, V))]))

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
        J = field_series((U, U), [
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

    @staticmethod
    def perturbed_report(J5, U, ctx, order):
        """The cocycle report of J5 with y (x) x added at order ``order``,
        at lam^-order, the one power of lam that order holds."""
        orders = list(J5.orders)
        orders[order] = orders[order] + tensor2(
            U, U.gen("y"), U.gen("x")).scale(ctx.var("lam") ** -order)
        return check_dynamical_twist(field_series((U, U), orders))

    def test_mutation_detected(self, J5, U, ctx):
        rep = self.perturbed_report(J5, U, ctx, 2)
        assert not rep["ok"]
        assert rep["failing_orders"] == [3, 4, 5]
        assert rep["first_residual"]

    def test_mutation_at_order_one_detected(self, J5, U, ctx):
        rep = self.perturbed_report(J5, U, ctx, 1)
        assert not rep["ok"]
        assert rep["failing_orders"] == [2, 3, 4, 5]
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
        J = field_series((U, U), [TensorUEA.unit((U, U)),
                                  tensor2(U, y * y, x).scale(ctx("1/lam"))])
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

def reference_orders_mul(a, b):
    """The product of two lists of field orders, each order summed through
    LinearCombination additions of field reference products."""
    out = []
    for r in range(min(len(a), len(b))):
        acc = TensorUEA(a[0].slots, {})
        for p in range(r + 1):
            acc = acc + TensorUEA(a[0].slots, reference_product(a[p], b[r - p]))
        out.append(acc)
    return out


def reference_series_mul(A, B):
    """Each order summed through LinearCombination additions."""
    return field_series(A.slots, reference_orders_mul(A.orders, B.orders))


def doubled_twist(U, N):
    """abrr_twist with its first order-2 coefficient doubled."""
    J = abrr_twist(U, N)
    orders = list(J.orders)
    terms = dict(orders[2].terms)
    key = min(terms)
    terms[key] = terms[key] * 2
    orders[2] = TensorUEA((U, U), terms)
    return field_series((U, U), orders)


def perturbed_twist(U, N, coeff="1/lam^2"):
    """abrr_twist with coeff * y (x) x added at order 2."""
    orders = abrr_twist(U, N).orders
    orders[2] = orders[2] + tensor2(U, U.gen("y"), U.gen("x")).scale(U.ctx(coeff))
    return field_series((U, U), orders)


def nonhomogeneous_twist(U, N):
    """abrr_twist with (1/lam) y (x) x added at order 2, where the twist
    holds lam^-2 only: the entry check refuses it."""
    return perturbed_twist(U, N, "1/lam")


def refuses_nonhomogeneous(U, N):
    """The nonhomogeneous twist of order N never reaches a cocycle check:
    the entry check names its order 2."""
    with pytest.raises(TwistError, match=r"order 2 coefficient .* is not"):
        nonhomogeneous_twist(U, N)
    return True


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
        for t in J.coeffs:
            for slot in range(len(J.slots)):
                want = reference_slot_coproduct(lifted(t), slot)
                got = t.slot_coproduct(slot)
                assert got.slots == want.slots and lifted(got).terms == want.terms

    def test_element_coproduct(self, U):
        u = (U.gen("y") + U.gen("h") * U.gen("x")) ** 3 + U.one().scale(2)
        unit = TensorUEA((U,), {(e,): c for e, c in u.terms.items()})
        want = reference_slot_coproduct(lifted(unit), 0)
        assert lifted(u.coproduct()).terms == want.terms

    # sha256 of the sorted-key JSON of cocycle_residual(J, shift_twist(J)),
    # recorded before the per-order accumulator (the perturbed one with the
    # lam-graded series, for the same input): checked_through,
    # failing_orders and first_residual must stay byte-identical
    @pytest.mark.parametrize("kind,failing,digest", [
        ("doubled", [3, 4],
         "1ac1820eea2b092afe84f8d747f900261fe2ac395967bad6e75b922b6dc8d9dd"),
        ("wrong_shift", [3, 4],
         "ca5567479da233b8d37a59a54a55c5308a83d060f91783b76733f6c6a73c0716"),
        ("perturbed", [3, 4],
         "8bc72d13097a72a42c1ad331a662b2efef9d6b6c39e3401ef8c2052a68f7ce17"),
        ("nonhomogeneous", None, None),
    ], ids=["doubled", "wrong_shift", "perturbed", "nonhomogeneous"])
    def test_mutated_residual_digest(self, U, monkeypatch, kind, failing, digest):
        if kind == "nonhomogeneous" and refuses_nonhomogeneous(U, 4):
            return
        J = {"doubled": lambda: doubled_twist(U, 4),
             "wrong_shift": lambda: wrong_shift_twist(U, 4, monkeypatch),
             "perturbed": lambda: perturbed_twist(U, 4)}[kind]()
        rep = cocycle_residual(J, shift_twist(J))
        assert rep["failing_orders"] == failing and rep["checked_through"] == 4
        text = json.dumps(rep, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- the QQ tower in u = hbar/lam, read back through the field view, against
# the same series summed over the field coefficient by coefficient ---------

def reference_abrr_orders(U, N):
    """The closed-form twist's orders: term n is ((-1)^n / n!) y^n (x) x^n
    times the resolvent product, whose hbar^m coefficients are multiplied
    out over the field one factor sum_k hbar^k (h + j)^k / lam^(k+1) at a
    time."""
    lam, h = U.ctx.var("lam"), U.gen("h")

    def mul(u, v):
        return U.zero()._like(reference_product(u, v))

    orders = [TensorUEA((U, U), {}) for _ in range(N + 1)]
    resolvent = [lifted(U.one())] + [U.zero()] * N
    for n in range(N + 1):
        pref = U.ctx((-1) ** n) / math.factorial(n)
        for m, fm in enumerate(resolvent[:N - n + 1]):
            orders[n + m] = orders[n + m] + tensor2(
                U, U.gen("y") ** n, mul(U.gen("x") ** n, fm)).scale(pref)
        if n < N:
            factor = [field_scaled((h + U.one().scale(n)) ** k, lam ** (-(k + 1)))
                      for k in range(N - n)]
            resolvent = [sum((mul(resolvent[m - k], factor[k]) for k in range(m + 1)),
                             U.zero()) for m in range(N - n)]
    return orders


def reference_shift(orders):
    """The field Taylor shift lam -> lam - hbar h^(3): a coefficient c at
    order p adds ((-1)^l / l!) d^l c / dlam^l at order p + l, with h^l in
    the third slot."""
    U = orders[0].slots[0]
    slots3 = orders[0].slots + (U,)
    e_h = next(iter(U.gen("h").terms))
    out = [TensorUEA(slots3, {}) for _ in orders]
    for p, t in enumerate(orders):
        for (e1, e2), c in t.terms.items():
            d = U.ctx(c)
            for l in range(len(orders) - p):
                e3 = tuple(l * x for x in e_h)
                out[p + l] = out[p + l] + TensorUEA(slots3, {
                    (e1, e2, e3): d * U.ctx((-1) ** l) / math.factorial(l)})
                d = d.differentiate("lam")
    return out


def reference_project(t, sp_):
    """A field tensor rewritten slotwise in the split basis, Cartan
    monomials dropped."""
    return reference_map_slots(t, lambda u: project_drop_right(
        change_generators(u, sp_.pbw, sp_.to_split), (sp_.h_name,)))


def reference_sides(orders, right12):
    """The two cocycle sides of a list of field orders."""
    lhs = reference_orders_mul([reference_slot_coproduct(t, 0) for t in orders],
                               right12)
    rhs = reference_orders_mul([reference_slot_coproduct(t, 1) for t in orders],
                               [t.insert_unit(0) for t in orders])
    return lhs, rhs


def orders_equal(a, b):
    return len(a) == len(b) and all(
        x.slots == y.slots and (x - y).is_zero() for x, y in zip(a, b))


TWISTS = {"abrr": abrr_twist, "doubled": doubled_twist,
          "perturbed": perturbed_twist}


class TestGradedAgainstField:
    @pytest.mark.parametrize("N", range(7))
    def test_twist_and_shift(self, U, N):
        J = abrr_twist(U, N)
        want = reference_abrr_orders(U, N)
        assert orders_equal(J.orders, want)
        assert orders_equal(shift_twist(J).orders, reference_shift(want))

    def test_mixed_lam_powers(self, U, ctx):
        # positive, zero and negative powers of lam in one order are refused
        lam = ctx.var("lam")
        y, h, x = U.gen("y"), U.gen("h"), U.gen("x")
        orders = [TensorUEA.unit((U, U)),
                  tensor2(U, y, x).scale(lam ** 2 + 1 + 1 / lam),
                  tensor2(U, y * h, x).scale(3 / lam ** 2 - lam)]
        with pytest.raises(TwistError, match="order 1 coefficient"):
            field_series((U, U), orders)
        orders[1] = tensor2(U, y, x).scale(1 / lam)
        with pytest.raises(TwistError, match="order 2 coefficient"):
            field_series((U, U), orders)

    def test_series_off_the_closed_form(self, U, ctx):
        # order n at lam^-n with terms the closed form lacks, and a zero order
        lam = ctx.var("lam")
        y, h, x = U.gen("y"), U.gen("h"), U.gen("x")
        orders = [TensorUEA.unit((U, U)).scale(3),
                  tensor2(U, y, x).scale(-1 / lam) + tensor2(U, h, h).scale(2 / lam),
                  tensor2(U, y * h, x).scale(3 / (2 * lam ** 2)),
                  TensorUEA((U, U), {})]
        J = field_series((U, U), orders)
        assert not J.coeffs[3].terms
        assert orders_equal(J.orders, orders)
        assert orders_equal(shift_twist(J).orders, reference_shift(orders))
        assert orders_equal((J * J).orders, reference_orders_mul(orders, orders))

    @pytest.mark.parametrize("name,N", [("abrr", 2), ("abrr", 4), ("abrr", 6),
                                        ("doubled", 4), ("perturbed", 4),
                                        ("nonhomogeneous", 4)])
    def test_cocycle_sides(self, U, name, N):
        if name == "nonhomogeneous" and refuses_nonhomogeneous(U, N):
            return
        J = TWISTS[name](U, N)
        lhs, rhs = cocycle_sides(J, shift_twist(J))
        want_l, want_r = reference_sides(J.orders, reference_shift(J.orders))
        assert orders_equal(lhs.orders, want_l)
        assert orders_equal(rhs.orders, want_r)

    @pytest.mark.parametrize("variant", ["standard", "chevalley"])
    @pytest.mark.parametrize("N", [1, 3, 6])
    def test_projection_and_closed_form(self, ctx, U, variant, N):
        sp_ = split_basis_sl2(ctx, variant)
        want = [reference_project(t, sp_) for t in reference_abrr_orders(U, N)]
        assert orders_equal(project_twist(abrr_twist(U, N), sp_).series.orders, want)
        assert orders_equal(closed_form_jv(sp_, N).series.orders, want)

    @pytest.mark.parametrize("variant", ["standard", "chevalley"])
    @pytest.mark.parametrize("name,N", [("abrr", 6), ("doubled", 4)])
    def test_projected_equation(self, ctx, U, variant, name, N):
        sp_ = split_basis_sl2(ctx, variant)
        J = TWISTS[name](U, N)
        f = J.orders
        sides = reference_sides(f, reference_shift(f))
        lhs, rhs = ([reference_project(t, sp_) for t in side] for side in sides)
        v = [reference_project(t, sp_) for t in f]
        lhs_v, rhs_v = reference_sides(v, [t.insert_unit(2) for t in v])
        bad_l = [r for r in range(N + 1) if not (lhs[r] - lhs_v[r]).is_zero()]
        bad_r = [r for r in range(N + 1) if not (rhs[r] - rhs_v[r]).is_zero()]
        assert check_projected_equation(J, sp_) == {
            "checked_through": N, "lhs_ok": not bad_l, "rhs_ok": not bad_r,
            "ok": not (bad_l or bad_r),
            "failing_orders": sorted(set(bad_l) | set(bad_r))}
        V = project_twist(J, sp_).series
        got_l, got_r = cocycle_sides(V, V.map_orders(lambda t: t.insert_unit(2)))
        assert orders_equal(got_l.orders, lhs_v)
        assert orders_equal(got_r.orders, rhs_v)


# -- the key-major series product against the order-major loop it replaced,
# on random rational series ----------------------------------------------

def order_major_mul(A, B):
    """A * B order by order: every order pair p + q = r through the lower
    truncation, every term pair, the slot normal forms multiplied out over
    QQ and summed in a plain dict. Returns each order's nonzero term map."""
    N = min(A.truncation, B.truncation)
    out = [{} for _ in range(N + 1)]
    for r in range(N + 1):
        for p in range(r + 1):
            for k1, c1 in A.coeffs[p].terms.items():
                for k2, c2 in B.coeffs[r - p].terms.items():
                    partial = [((), QQ(c1) * QQ(c2))]
                    for alg, e1, e2 in zip(A.slots, k1, k2):
                        nf = alg.multiply_monomials(e1, e2).items()
                        partial = [(key + (e,), c * q)
                                   for key, c in partial for e, q in nf]
                    for key, c in partial:
                        out[r][key] = out[r].get(key, 0) + c
    return [{k: lean(c) for k, c in t.items() if c} for t in out]


COEFFS = st.tuples(st.integers(-3, 3).filter(bool),
                   st.sampled_from([1, 2, 3, 4, 5, 6])).map(lambda nd: QQ(*nd))


@st.composite
def rational_series(draw, slots, pool, N, forced, start=0):
    """A series over ``slots`` of truncation N whose orders hold keys of
    ``pool``, may be empty, and are empty below order ``start``. pool[0] is
    forced in at order start and, where that is at most N, at order
    start + 2 with the two ``forced`` coefficients, so a key recurs at
    orders that are not adjacent, and the lowest order is start."""
    orders = [{} for _ in range(start)]
    for n in range(start, N + 1):
        orders.append(draw(st.dictionaries(st.sampled_from(pool), COEFFS,
                                           max_size=3)))
    for n, q in zip((start, start + 2), forced):
        if n > N:
            break
        orders[n][pool[0]] = orders[n].get(pool[0], 0) + q
    return TwistSeries(slots, [TensorUEA(slots, {k: lean(q) for k, q in t.items()})
                               for t in orders])


class TestKeyMajorProduct:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_order_major_loop(self, U, data):
        slots = (U,) * data.draw(st.integers(1, 3), label="slots")
        key = st.tuples(*[st.tuples(*[st.integers(0, 2)] * 3)] * len(slots))
        pool = data.draw(st.lists(key, min_size=2, max_size=4, unique=True),
                         label="pool")
        NA = data.draw(st.integers(2, 4), label="NA")
        NB = data.draw(st.integers(2, 4).filter(lambda n: n != NA), label="NB")
        # coprime denominators in one factor, a shared factor 2 in the other
        A = data.draw(rational_series(slots, pool, NA,
                                      (QQ(1, 2), QQ(-1, 3))), label="A")
        B = data.draw(rational_series(slots, pool, NB,
                                      (QQ(3, 4), QQ(5, 6))), label="B")
        for X, Y in ((A, B), (B, A), (A, A)):
            got = X * Y
            assert got.slots == slots
            assert got.truncation == min(X.truncation, Y.truncation)
            assert [t.terms for t in got.coeffs] == order_major_mul(X, Y)
            # rationals in lowest terms, ints when integral
            assert all(type(c) is int or c.denominator != 1
                       for t in got.coeffs for c in t.terms.values())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lowest_orders_across_the_truncation(self, U, data):
        # the right keys are bucketed by their lowest order: every pair of
        # lowest orders in 0..N, N = 0 included, against the order-major loop
        slots = (U,) * data.draw(st.integers(1, 2), label="slots")
        key = st.tuples(*[st.tuples(*[st.integers(0, 2)] * 3)] * len(slots))
        pool = data.draw(st.lists(key, min_size=2, max_size=4, unique=True),
                         label="pool")
        N = data.draw(st.integers(0, 4), label="N")
        sa, sb = (data.draw(st.integers(0, N), label=f"start {x}") for x in "AB")
        A = data.draw(rational_series(slots, pool, N, (QQ(1, 2), QQ(-1, 3)),
                                      start=sa), label="A")
        B = data.draw(rational_series(slots, pool, N, (QQ(3, 4), QQ(5, 6)),
                                      start=sb), label="B")
        for X, Y in ((A, B), (B, A)):
            assert [t.terms for t in (X * Y).coeffs] == order_major_mul(X, Y)

    @pytest.mark.parametrize("N", [0, 1, 4])
    def test_factor_only_at_order_N(self, U, N):
        # a factor whose only nonzero order is N meets only order 0
        (ey,), (eh,), (ex,) = (U.gen(g).terms for g in "yhx")
        slots = (U, U)
        top = TwistSeries(slots, [TensorUEA(slots, {})] * N + [TensorUEA(slots, {
            (ey, ex): QQ(1, 2), (eh, ey): -3})])
        J = abrr_twist(U, N)
        for X, Y in ((top, J), (J, top), (top, top)):
            got = [t.terms for t in (X * Y).coeffs]
            assert got == order_major_mul(X, Y)
            # top * top lands at order 2N, past the truncation unless N = 0
            assert not any(got[:N]) and bool(got[N]) == (X is not Y or N == 0)


# -- the fused cocycle difference against the two-sided comparison --------

def two_sided_residual(J, right12):
    """The cocycle residual from the two series products of
    :func:`cocycle_sides`: the orders at which they differ, and the field
    difference of the sides at the first of them."""
    lhs, rhs = cocycle_sides(J, right12)
    failing = lhs.differing_orders(rhs)
    return {
        "checked_through": min(lhs.truncation, rhs.truncation),
        "ok": not failing,
        "failing_orders": failing,
        "first_residual": ((lhs.order(failing[0]) - rhs.order(failing[0])).to_json()
                           if failing else None),
    }


def truncated(J, N):
    return TwistSeries(J.slots, J.coeffs[:N + 1])


class TestFusedResidual:
    @pytest.mark.parametrize("N", [0, 1, 2, 4, 6])
    @pytest.mark.parametrize("kind", ["abrr", "doubled", "wrong_shift",
                                      "perturbed", "nonhomogeneous"])
    def test_matches_two_sided(self, U, monkeypatch, kind, N):
        # each mutation sits at order 2: for N < 2 the twist is built at
        # order 2 and truncated to N
        M = max(N, 2)
        if kind == "nonhomogeneous" and refuses_nonhomogeneous(U, M):
            return
        J = truncated({"abrr": lambda: abrr_twist(U, M),
                       "doubled": lambda: doubled_twist(U, M),
                       "wrong_shift": lambda: wrong_shift_twist(U, M, monkeypatch),
                       "perturbed": lambda: perturbed_twist(U, M),
                       }[kind](), N)
        got = cocycle_residual(J, shift_twist(J))
        assert got == two_sided_residual(J, shift_twist(J))
        assert got["ok"] == (kind == "abrr" or N < 3)

    @pytest.mark.parametrize("variant", ["standard", "chevalley"])
    @pytest.mark.parametrize("name,N", [("abrr", 0), ("abrr", 3), ("abrr", 6),
                                        ("doubled", 4)])
    def test_projected_twist(self, ctx, U, variant, name, N):
        V = project_twist(TWISTS[name](U, N), split_basis_sl2(ctx, variant)).series
        right12 = V.map_orders(lambda t: t.insert_unit(2))
        got = cocycle_residual(V, right12)
        assert got == two_sided_residual(V, right12)
        assert got["ok"] == (name == "abrr")


class TestSlotCoproductKinds:
    def tensor(self, U, coeffs):
        (ey,), (eh,), (ex,) = (U.gen(g).terms for g in "yhx")
        sq = tuple(2 * a + b for a, b in zip(ey, eh))
        keys = [(sq, ex), (ey, tuple(a + b for a, b in zip(eh, ex))), (sq, sq)]
        return TensorUEA((U, U), dict(zip(keys, coeffs)))

    def test_integral_rational_coefficients_are_ints(self, U, ctx):
        # multiplicities 2 and 4 make some of 1/2, 3/4 integral
        t = self.tensor(U, [QQ(1, 2), QQ(3, 4), 5])
        for slot in (0, 1):
            got = t.slot_coproduct(slot)
            want = reference_slot_coproduct(lifted(t), slot)
            assert got.slots == want.slots and lifted(got).terms == want.terms
            kinds = {type(c) for c in got.terms.values()}
            assert all(type(c) is int or c.denominator != 1
                       for c in got.terms.values())
            assert int in kinds and kinds != {int}
