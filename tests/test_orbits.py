import itertools
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from dynstar import (LieAlgebraData, OrbitError, OrbitFunction, PBWAlgebra,
                     abrr_twist, generator_derivative, group_action_derivative,
                     invariant_derivative, is_h_invariant, orbit_function,
                     sl2, star_product, verify_orbit_identities)
from dynstar import orbits
from dynstar.orbits import MATRIX_VARS, STAR_MAX_TERMS, apply_twist_orders


def coordinate(ctx, name):
    """The matrix coordinate ``name`` of SL(2) as an orbit function."""
    e = [0, 0, 0, 0]
    e[MATRIX_VARS.index(name)] = 1
    return OrbitFunction(ctx, {tuple(e): ctx.one()})


@pytest.fixture(scope="module")
def U(ctx):
    return PBWAlgebra(sl2(ctx), order=("y", "h", "x"))


@pytest.fixture(scope="module")
def fb(ctx):
    return {n: orbit_function(ctx, n) for n in ("x", "y", "h")}


def evaluate_matrix(f, point):
    """f at explicit matrix entries (whether the point has det = 1 is the
    caller's concern)."""
    vals = [f.ctx(point[n]) for n in MATRIX_VARS]
    acc = f.ctx.zero()
    for e, c in f.terms.items():
        term = c
        for v, p in zip(vals, e):
            term = term * v ** p
        acc = acc + term
    return acc


def reference_star_product(f1, f2, mode="hbar_one"):
    """The star-product series as one loop: both derivatives and c_n are
    formed step by step until either side vanishes."""
    ctx = f1.ctx
    if not is_h_invariant(f1) or not is_h_invariant(f2):
        raise OrbitError("star-product inputs must be right-H-invariant")
    if mode not in ("hbar_one", "formal"):
        raise OrbitError(f"unknown mode {mode!r}")
    lam = ctx.var("lam")
    q = ctx.one() if mode == "hbar_one" else ctx.var("hbar")
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


class TestMomentFunctions:
    def test_values_at_identity(self, ctx, fb):
        lam = ctx.var("lam")
        pt = {"g11": 1, "g12": 0, "g21": 0, "g22": 1}
        assert evaluate_matrix(fb["h"], pt) == lam
        assert evaluate_matrix(fb["x"], pt).is_zero()
        assert evaluate_matrix(fb["y"], pt).is_zero()

    def test_explicit_monomials(self, ctx, fb):
        lam = ctx.var("lam")
        g = {n: coordinate(ctx, n)
             for n in ("g11", "g12", "g21", "g22")}
        assert fb["x"] == (g["g21"] * g["g22"]).scale(lam)
        assert fb["y"] == (g["g11"] * g["g12"]).scale(-lam)
        assert fb["h"] == ((g["g12"] * g["g21"]).scale(2 * lam)
                           + OrbitFunction.constant(ctx, lam))

    def test_linearity(self, ctx, fb):
        mixed = orbit_function(ctx, {"x": 2, "h": Fraction(1, 2)})
        want = fb["x"].scale(2) + fb["h"].scale(ctx("1/2"))
        assert mixed == want

    def test_determinant_normal_form(self, ctx):
        g11 = coordinate(ctx, "g11")
        g22 = coordinate(ctx, "g22")
        g12 = coordinate(ctx, "g12")
        g21 = coordinate(ctx, "g21")
        assert g11 * g22 == g12 * g21 + OrbitFunction.constant(ctx, 1)
        # a nontrivial rewrite: g11^2 g22 keeps one g11 factor
        prod = g11 * g11 * g22
        assert all(e[0] * e[3] == 0 for e in prod.terms)
        assert prod == g11 * (g12 * g21 + OrbitFunction.constant(ctx, 1))

    def test_right_h_invariance(self, fb):
        for f in fb.values():
            assert is_h_invariant(f)

    def test_second_derivatives_vanish(self, fb):
        for f in fb.values():
            for v in ("x", "y"):
                d2 = generator_derivative(generator_derivative(f, v), v)
                assert d2.is_zero()

    def test_non_invariant_coordinate(self, ctx):
        g11 = coordinate(ctx, "g11")
        assert not is_h_invariant(g11)


class TestDerivativeOperators:
    def test_left_invariant_is_representation(self, ctx, fb):
        # X_x X_y - X_y X_x = X_[x,y] = X_h on a generic polynomial
        f = fb["x"] * fb["h"] + fb["y"]
        lhs = generator_derivative(generator_derivative(f, "y"), "x") - \
            generator_derivative(generator_derivative(f, "x"), "y")
        assert lhs == generator_derivative(f, "h")

    def test_enveloping_word_order(self, ctx, fb):
        U = PBWAlgebra(sl2(ctx), order=("y", "h", "x"))
        f = fb["x"] * fb["y"]
        via_word = invariant_derivative(U.gen("x") * U.gen("y"), f)
        by_hand = generator_derivative(generator_derivative(f, "y"), "x")
        assert via_word == by_hand

    def test_translation_commutes_with_invariant_field(self, ctx, fb):
        f = fb["h"] * fb["x"]
        for v in ("x", "y", "h"):
            for w in ("x", "y", "h"):
                a = group_action_derivative(generator_derivative(f, w), v)
                b = generator_derivative(group_action_derivative(f, v), w)
                assert a == b


class TestStarProduct:
    def test_unital(self, ctx, fb):
        one = OrbitFunction.constant(ctx, 1)
        for f in fb.values():
            assert star_product(one, f) == f
            assert star_product(f, one) == f

    def test_bilinear(self, ctx, fb):
        s = star_product(fb["x"] + fb["h"].scale(3), fb["y"])
        assert s == star_product(fb["x"], fb["y"]) + \
            star_product(fb["h"], fb["y"]).scale(3)

    def test_first_correction(self, ctx, fb):
        # f_x * f_y = f_x f_y - (1/lam)(y.f_x)(x.f_y)
        lam = ctx.var("lam")
        got = star_product(fb["x"], fb["y"])
        corr = (generator_derivative(fb["x"], "y")
                * generator_derivative(fb["y"], "x")).scale(-1 / lam)
        assert got == fb["x"] * fb["y"] + corr

    def test_commutator_is_bracket(self, ctx, fb):
        comm = star_product(fb["x"], fb["y"]) - star_product(fb["y"], fb["x"])
        assert comm == fb["h"]

    def test_casimir_scalar(self, ctx, fb):
        lam = ctx.var("lam")
        cas = star_product(fb["x"], fb["y"]) + star_product(fb["y"], fb["x"]) \
            + star_product(fb["h"], fb["h"]).scale(ctx("1/2"))
        assert cas == OrbitFunction.constant(ctx, lam * (lam + 2) / 2)

    def test_non_invariant_rejected(self, ctx, fb):
        g11 = coordinate(ctx, "g11")
        with pytest.raises(OrbitError):
            star_product(g11, fb["x"])
        with pytest.raises(OrbitError):
            star_product(fb["x"], g11)

    def test_unknown_mode_rejected(self, fb):
        with pytest.raises(OrbitError):
            star_product(fb["x"], fb["y"], mode="classical")

    def test_formal_mode_specializes(self, ctx, fb):
        formal = star_product(fb["h"] * fb["h"], fb["y"], mode="formal")
        plain = star_product(fb["h"] * fb["h"], fb["y"])
        hbar = ctx.symbol("hbar")
        special = OrbitFunction(ctx, {
            e: ctx(v.expr.subs(hbar, 1)) for e, v in formal.terms.items()})
        assert special == plain

    def test_twist_operator_matches_scalar_product(self, ctx, fb):
        U = PBWAlgebra(sl2(ctx), order=("y", "h", "x"))
        J = abrr_twist(U, 2)
        full = apply_twist_orders(J, fb["x"], fb["y"])
        scalar = star_product(fb["x"], fb["y"], mode="formal")
        for k, fk in enumerate(full):
            want = OrbitFunction(ctx, {
                e: v.series_expand("hbar", 2)[k]
                for e, v in scalar.terms.items()})
            assert fk == want


class TestTowerProduct:
    # invariant operands of degree 2 and 3, as (left, right) builders
    PAIRS = {
        "xy_hh": (lambda fb: fb["x"] * fb["y"], lambda fb: fb["h"] * fb["h"]),
        "hh_xy": (lambda fb: fb["h"] * fb["h"], lambda fb: fb["x"] * fb["y"]),
        "hy_xxx": (lambda fb: fb["h"] * fb["y"],
                   lambda fb: (fb["x"] * fb["x"]) * fb["x"]),
        "xxx_hy": (lambda fb: (fb["x"] * fb["x"]) * fb["x"],
                   lambda fb: fb["h"] * fb["y"]),
        "yyh_xxh": (lambda fb: fb["y"] * fb["y"] * fb["h"],
                    lambda fb: fb["x"] * fb["x"] * fb["h"]),
    }

    @pytest.mark.parametrize("mode", ["hbar_one", "formal"])
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_matches_reference_loop(self, fb, mode, pair):
        f1, f2 = (build(fb) for build in self.PAIRS[pair])
        assert star_product(f1, f2, mode) == reference_star_product(f1, f2, mode)

    def test_non_invariant_degree_two_rejected(self, ctx, fb):
        g11 = coordinate(ctx, "g11")
        with pytest.raises(OrbitError):
            star_product(fb["x"] * fb["y"], g11 * fb["x"])

    def test_series_cap_is_loud(self, fb, monkeypatch):
        monkeypatch.setattr(orbits, "STAR_MAX_TERMS", 1)
        with pytest.raises(OrbitError, match="did not terminate"):
            star_product(fb["y"] * fb["y"], fb["x"] * fb["x"])

    def test_degree_two_associativity(self, fb):
        P, Q, R = fb["x"] * fb["y"], fb["h"] * fb["y"], fb["x"] * fb["x"]
        assert star_product(star_product(P, Q), R) == \
            star_product(P, star_product(Q, R))


# -- the normal-form invariant, against an unfused sympy reference ---------

G = sp.symbols("g11 g12 g21 g22")
GEN = {"x": [[0, 1], [0, 0]], "y": [[0, 0], [1, 0]], "h": [[1, 0], [0, -1]]}


def to_expr(f):
    return sp.Add(*[c.expr * sp.Mul(*[g ** p for g, p in zip(G, e)])
                    for e, c in f.terms.items()])


def from_expr(ctx, expr):
    """The public constructor applied to the raw terms of a polynomial in
    the matrix entries."""
    expr = sp.expand(expr)
    if expr == 0:
        return OrbitFunction(ctx, {})
    return OrbitFunction(ctx, {e: ctx(c) for e, c in sp.Poly(expr, *G).terms()})


def reference_field(f, name, invariant):
    """sum_kl M_kl d/dg_kl with M = g v (left-invariant) or v g (left
    translation), applied to the raw polynomial."""
    g, v = sp.Matrix(2, 2, G), sp.Matrix(GEN[name])
    m = g * v if invariant else v * g
    F = to_expr(f)
    return from_expr(f.ctx, sum(m[k, l] * sp.diff(F, g[k, l])
                                for k in range(2) for l in range(2)))


def reference_star(f1, f2):
    """sum_n c_n (y^n f1)(x^n f2) at hbar = 1, with raw products."""
    lam = f1.ctx.symbol("lam")
    out, coeff, left, right = 0, 1, f1, f2
    for n in range(1, STAR_MAX_TERMS):
        if left.is_zero() or right.is_zero():
            return from_expr(f1.ctx, out)
        out += coeff * to_expr(left) * to_expr(right)
        coeff = -coeff / (n * (lam - (n - 1)))
        left = reference_field(left, "y", True)
        right = reference_field(right, "x", True)
    raise OrbitError("reference series did not terminate")


def normal_forms(ctx):
    """Orbit functions with up to four terms in normal form."""
    lam = ctx.var("lam")
    coeffs = st.sampled_from([ctx(1), ctx(-3), ctx(Fraction(2, 5)), lam,
                              1 / lam, ctx.var("hbar"), lam / (lam + 1)])
    exps = st.tuples(*[st.integers(0, 2)] * 4).map(
        lambda e: e if not (e[0] and e[3]) else (0,) + e[1:])
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda t: OrbitFunction(ctx, t))


def invariant_operands(ctx):
    """Right-H-invariant functions: combinations of products of at most two
    moment functions."""
    fb = {n: to_expr(orbit_function(ctx, n)) for n in ("x", "y", "h")}
    words = st.lists(st.sampled_from(sorted(fb)), max_size=2)
    terms = st.lists(st.tuples(st.integers(-2, 2), words), min_size=1,
                     max_size=3)
    return terms.map(lambda ts: from_expr(ctx, sum(
        q * sp.Mul(*[fb[n] for n in w]) for q, w in ts)))


class TestNormalFormInvariant:
    @staticmethod
    def check(got, want):
        assert all(not (e[0] and e[3]) for e in got.terms)
        assert got.terms == want.terms

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_operations_match_unfused_reference(self, ctx, data):
        f = data.draw(normal_forms(ctx))
        g = data.draw(normal_forms(ctx))
        s = ctx.var("lam") - 2
        F, Gx = to_expr(f), to_expr(g)
        self.check(f * g, from_expr(ctx, F * Gx))
        self.check(f + g, from_expr(ctx, F + Gx))
        self.check(f - g, from_expr(ctx, F - Gx))
        self.check(f.scale(s), from_expr(ctx, s.expr * F))
        for name in ("x", "y", "h"):
            self.check(generator_derivative(f, name),
                       reference_field(f, name, True))
            self.check(group_action_derivative(f, name),
                       reference_field(f, name, False))

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_star_product_matches_unfused_reference(self, ctx, data):
        f1 = data.draw(invariant_operands(ctx))
        f2 = data.draw(invariant_operands(ctx))
        self.check(star_product(f1, f2), reference_star(f1, f2))

    def test_derivative_tables_are_read_only(self):
        table = orbits._PRODUCT_COEFFS
        with pytest.raises(TypeError):
            table["x", True] = table["y", True]
        with pytest.raises(TypeError):
            table["x", True][0] = ()
        with pytest.raises(TypeError):
            table["x", True][1][0] = (0, 1)


class TestMutationControls:
    def test_dropped_determinant_rewrite_fails_sweep(self, U, monkeypatch):
        monkeypatch.setattr(orbits, "_det_rewrite", lambda e: ((e, 1),))
        rep = verify_orbit_identities(U)
        failed = sorted(k for k, v in rep.items()
                        if isinstance(v, dict) and not v["ok"])
        assert failed == ["casimir", "commutator", "filtration_dims"]
        assert rep["filtration_dims"]["dims"] == [1, 4, 10, 20, 35]
        assert not rep["all_ok"]

    def test_commutator_reads_the_brackets_of_U(self, ctx):
        # sl(2) with every bracket doubled keeps the trace form invariant,
        # but the orbit product still carries the brackets of sl(2), so
        # f_a * f_b - f_b * f_a = f_[a,b] fails on every non-diagonal pair
        g = sl2(ctx)
        doubled = LieAlgebraData(ctx, g.names, {
            (i, j): {k: 2 * q for k, q in g.bracket(i, j).items()}
            for i in range(g.dim) for j in range(i + 1, g.dim)}, g.form)
        rep = verify_orbit_identities(PBWAlgebra(doubled, order=("y", "h", "x")))
        assert rep["commutator"] == {"ok": False, "failures": [
            (a, b) for a, b in itertools.product("xyh", repeat=2) if a != b]}
        assert not rep["all_ok"]

    @pytest.mark.parametrize("n", [1, 2])
    def test_doubled_coefficient_breaks_associativity(self, fb, monkeypatch, n):
        real = orbits.star_coefficients

        def doubled(ctx, mode, count):
            coeffs = real(ctx, mode, count)
            if n < count:
                coeffs[n] = coeffs[n] * 2
            return coeffs

        monkeypatch.setattr(orbits, "star_coefficients", doubled)
        P, Q, R = fb["x"] * fb["y"], fb["h"] * fb["y"], fb["x"] * fb["x"]
        assert star_product(star_product(P, Q), R) != \
            star_product(P, star_product(Q, R))


def test_verify_orbit_identities(U):
    rep = verify_orbit_identities(U)
    assert rep["all_ok"], {k: v for k, v in rep.items()
                           if isinstance(v, dict) and not v["ok"]}
    assert rep["filtration_dims"]["dims"] == [1, 4, 9, 16, 25]
