from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ

from dynstar import (Context, EnvelopingError, FieldElement, LieAlgebraData,
                     LieAlgebraError, PBWAlgebra, TensorUEA, UEAElement,
                     abrr_twist, change_generators, project_drop_right,
                     rising_factorial, sl2, split_basis_sl2)
from dynstar.enveloping import lean
from field_reference import lifted, reference_product, reference_slot_coproduct


def project_zero_part(u, lowering, raising):
    """The Cartan-middle projection: keep monomials with zero exponents on
    the lowering and raising generators. Requires order (lowering, cartan,
    raising)."""
    alg = u.algebra
    nl, nr = len(lowering), len(raising)
    if tuple(alg.order[:nl]) != tuple(lowering) or \
            tuple(alg.order[alg.ngens - nr:]) != tuple(raising):
        raise EnvelopingError(
            "order must place lowering generators first and raising last")
    drop = set(range(nl)) | set(range(alg.ngens - nr, alg.ngens))
    return UEAElement(alg, {e: c for e, c in u.terms.items()
                            if all(e[i] == 0 for i in drop)})


@pytest.fixture(scope="module")
def U(ctx):
    return PBWAlgebra(sl2(ctx), order=("y", "h", "x"))


def _gens(U):
    return U.gen("y"), U.gen("h"), U.gen("x")


class TestStraightening:
    def test_single_swap(self, U):
        y, h, x = _gens(U)
        assert x * y == y * x + h

    def test_h_past_x(self, U, ctx):
        y, h, x = _gens(U)
        assert x * h == h * x - 2 * x

    def test_casimir_central(self, U, ctx):
        y, h, x = _gens(U)
        c = y * x * 2 + h + QQ(1, 2) * (h * h)
        for g in (y, h, x):
            assert (c * g - g * c).is_zero()

    def test_degree_cap(self, ctx):
        small = PBWAlgebra(sl2(ctx), order=("y", "h", "x"), degree_cap=3)
        y = small.gen("y")
        with pytest.raises(EnvelopingError):
            y ** 4

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_associativity(self, data):
        ctx = Context(["lam"])
        U = PBWAlgebra(sl2(ctx), order=("y", "h", "x"), degree_cap=24)
        def element():
            return st.lists(
                st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 2), st.integers(-3, 3)),
                min_size=1, max_size=3,
            ).map(lambda ts: sum(
                (UEAElement(U, {(a, b, c): k}) for a, b, c, k in ts),
                U.zero()))
        a = data.draw(element())
        b = data.draw(element())
        c = data.draw(element())
        assert ((a * b) * c - a * (b * c)).is_zero()

    def test_order_affects_normal_form_not_algebra(self, ctx):
        # the same product straightened in two orders agrees after mapping
        U1 = PBWAlgebra(sl2(ctx), order=("y", "h", "x"))
        U2 = PBWAlgebra(sl2(ctx), order=("x", "h", "y"))
        ident = {n: {n: 1} for n in ("x", "y", "h")}
        p1 = U1.gen("x") * U1.gen("y") * U1.gen("h")
        p2 = U2.gen("x") * U2.gen("y") * U2.gen("h")
        assert (change_generators(p1, U2, ident) - p2).is_zero()


class TestHopfStructure:
    def test_coproduct_primitive(self, U):
        y = U.gen("y")
        d = y.coproduct()
        assert len(d.terms) == 2

    def test_coproduct_of_square(self, U):
        y = U.gen("y")
        d = (y * y).coproduct()
        got = {k: v for k, v in d.terms.items()}
        # y^2 (x) 1 + 2 y (x) y + 1 (x) y^2
        keys = sorted(got)
        assert [got[k] for k in keys] == [1, 2, 1]

    def test_coassociativity(self, U):
        y, h, x = _gens(U)
        el = y ** 2 * x + h * x
        d = el.coproduct()
        assert (d.slot_coproduct(0) - d.slot_coproduct(1)).is_zero()

    def test_coproduct_is_algebra_map(self, U):
        y, h, x = _gens(U)
        a = y * h
        b = x * x + h
        assert ((a * b).coproduct() - a.coproduct() * b.coproduct()).is_zero()

    def test_counit(self, U, ctx):
        y, h, x = _gens(U)
        el = U.one().scale(5) + y * x
        # the counit is the one-slot tensor's slot counit
        one_slot = TensorUEA((U,), {(e,): c for e, c in el.terms.items()})
        assert one_slot.slot_counit(0) == 5
        d = el.coproduct()
        for slot in (0, 1):
            collapsed = d.slot_counit(slot)
            assert set(k[0] for k in collapsed.terms) == set(el.terms)


class TestChangeOfGenerators:
    def test_round_trip(self, ctx, U):
        sp_ = split_basis_sl2(ctx)
        y, h, x = _gens(U)
        el = y * y * x + h
        img = change_generators(el, sp_.pbw, sp_.to_split)
        back = change_generators(img, U, sp_.from_split)
        assert (back - el).is_zero()

    def test_singular_change_rejected(self, ctx, U):
        bad = {"y": {"y": 1}, "h": {"y": 1}, "x": {"x": 1}}
        with pytest.raises(EnvelopingError):
            change_generators(U.gen("h"), U, bad)

    @pytest.mark.parametrize("kind", ["string", "field"])
    def test_entry_outside_qq_rejected(self, ctx, U, kind):
        # entries are read as QQ: a parameter is named, not coerced
        lam = "lam" if kind == "string" else ctx.var("lam")
        bad = {"y": {"y": 1}, "h": {"h": lam}, "x": {"x": 1}}
        with pytest.raises(EnvelopingError, match="lam.* of h at h is not in QQ"):
            change_generators(U.gen("y"), U, bad)


@pytest.mark.parametrize("build", [
    lambda ctx, U: UEAElement(U, {(0, 0, 1): ctx("lam")}),
    lambda ctx, U: U.gen("y").scale(ctx.var("lam")),
    lambda ctx, U: U.gen("y").scale("lam"),
    lambda ctx, U: ctx.var("lam") * U.gen("y"),
], ids=["field-term", "field-factor", "string-factor", "field-left-factor"])
def test_coefficient_outside_qq_rejected(ctx, U, build):
    # an element holds rationals: a field or string coefficient is named
    # where it enters, not met later by a product
    with pytest.raises(EnvelopingError, match="lam.* is not in QQ"):
        build(ctx, U)


class TestProjections:
    def test_drop_right_requires_trailing(self, U):
        with pytest.raises(EnvelopingError):
            project_drop_right(U.gen("y"), ("y",))

    def test_drop_right(self, ctx):
        sp_ = split_basis_sl2(ctx)
        P = sp_.pbw
        el = P.gen("b") * P.gen("b") + P.gen("b") * P.gen("c") + P.gen("c")
        out = project_drop_right(el, ("c",))
        assert (out - P.gen("b") * P.gen("b")).is_zero()

    def test_zero_part(self, U):
        y, h, x = _gens(U)
        el = h * h + y * x + h
        out = project_zero_part(el, ("y",), ("x",))
        assert (out - (h * h + h)).is_zero()

    def test_zero_part_order_guard(self, ctx):
        U2 = PBWAlgebra(sl2(ctx), order=("h", "y", "x"))
        with pytest.raises(EnvelopingError):
            project_zero_part(U2.gen("h"), ("y",), ("x",))


class TestTensor:
    def test_slotwise_product(self, U, ctx):
        y, h, x = _gens(U)
        t = TensorUEA((U, U), {(list(y.terms)[0], list(x.terms)[0]): 1})
        sq = t * t
        yy = y * y
        xx = x * x
        assert sq.terms == {(list(yy.terms)[0], list(xx.terms)[0]): 1}

    def test_insert_unit_and_counit_inverse(self, U, ctx):
        y, h, x = _gens(U)
        t = TensorUEA((U, U), {(list(y.terms)[0], list(x.terms)[0]): ctx.one()})
        t3 = t.insert_unit(1)
        assert len(t3.slots) == 3
        back = t3.slot_counit(1)
        assert (back - t).is_zero()

    def test_slot_coproduct_counit_consistency(self, U, ctx):
        y = U.gen("y")
        t = TensorUEA((U, U), {(list(y.terms)[0], list(y.terms)[0]): 1})
        expanded = t.slot_coproduct(0)
        assert (expanded.slot_counit(0) - t).is_zero()
        assert (expanded.slot_counit(1) - t).is_zero()

    def test_map_slots(self, ctx, U):
        sp_ = split_basis_sl2(ctx)
        y = U.gen("y")
        t = TensorUEA((U, U), {(list(y.terms)[0], list(y.terms)[0]): 1})
        mapped = t.map_slots(
            lambda u: change_generators(u, sp_.pbw, sp_.to_split))
        b, c = sp_.pbw.gen("b"), sp_.pbw.gen("c")
        want = (b + c)
        expect = TensorUEA((sp_.pbw, sp_.pbw), {})
        for e1, c1 in want.terms.items():
            for e2, c2 in want.terms.items():
                expect = expect + TensorUEA((sp_.pbw, sp_.pbw),
                                            {(e1, e2): c1 * c2})
        assert (mapped - expect).is_zero()


def scaled_sl2(ctx, s):
    """sl(2) in the basis (s y, h, x): [s y, x] = -s h."""
    z, one, two = ctx.zero(), ctx.one(), ctx(2)
    s = ctx(s)
    brackets = {(0, 1): {0: two}, (0, 2): {1: -s}, (1, 2): {2: two}}
    form = [[z, z, s], [z, two, z], [s, z, z]]
    return LieAlgebraData(ctx, ("y", "h", "x"), brackets, form)


def assert_same_terms(got, want):
    """A QQ product's coefficients (ints when integral) against a field
    reference's term map."""
    assert all(type(v) is int or v.denominator != 1 for v in got.terms.values())
    assert lifted(got).terms == want


class TestProductsAgainstReference:
    """Enveloping products against the slot-by-slot field reference on
    field lifts, with coefficients over several denominators, several of
    them on the same output key."""

    DENOMINATORS = [2, 3, 4, 6, 9, 35]

    @pytest.fixture(scope="class")
    def algebras(self, ctx):
        # integer constants, and half-integer ones in the scaled basis
        return [PBWAlgebra(sl2(ctx)),
                PBWAlgebra(scaled_sl2(ctx, Fraction(1, 2)), order=("x", "h", "y"))]

    def coefficients(self):
        fractions = st.tuples(st.integers(-7, 7).filter(bool),
                              st.sampled_from(self.DENOMINATORS))
        return st.one_of(st.integers(-3, 3).filter(bool),
                         fractions.map(lambda nd: lean(QQ(*nd))))

    def exponents(self, top):
        return st.tuples(*[st.integers(0, top)] * 3)

    def uea(self, alg):
        return st.dictionaries(self.exponents(2), self.coefficients(),
                               min_size=1, max_size=4).map(
            lambda terms: UEAElement(alg, terms))

    def tensor(self, alg, n):
        keys = st.tuples(*[self.exponents(1)] * n)
        return st.dictionaries(keys, self.coefficients(),
                               min_size=1, max_size=4).map(
            lambda terms: TensorUEA((alg,) * n, terms))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), which=st.integers(0, 1))
    def test_uea_product(self, algebras, data, which):
        alg = algebras[which]
        a, b = data.draw(self.uea(alg)), data.draw(self.uea(alg))
        assert_same_terms(a * b, reference_product(lifted(a), lifted(b)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), which=st.integers(0, 1), n=st.integers(2, 3))
    def test_tensor_product(self, algebras, data, which, n):
        alg = algebras[which]
        a, b = data.draw(self.tensor(alg, n)), data.draw(self.tensor(alg, n))
        assert_same_terms(a * b, reference_product(lifted(a), lifted(b)))

    def test_denominators_combine_on_one_key(self, ctx, U):
        # y*x and x*y both give y x; the h from x*y lands on its own key
        y, h, x = _gens(U)
        a = y.scale(QQ(1, 2)) + x.scale(QQ(1, 3)) + y.scale(QQ(1, 5))
        b = x.scale(QQ(3, 4)) + y.scale(QQ(1, 6))
        assert_same_terms(a * b, reference_product(lifted(a), lifted(b)))
        yx = next(iter((y * x).terms))
        # (1/2 + 1/5) 3/4 + 1/3 * 1/6, summed by hand
        assert (a * b).terms[yx] == QQ(209, 360)
        # denominators neither of which divides the other
        a = y.scale(QQ(1, 4)) + x.scale(QQ(1, 6))
        got = a * (x + y)
        assert_same_terms(got, reference_product(lifted(a), lifted(x + y)))
        assert got.terms[yx] == QQ(5, 12)

    def test_cancelling_terms_are_pruned(self, ctx, U):
        # (c x + c y)(x - y) = c (x^2 - h - y^2): the y x terms cancel
        y, h, x = _gens(U)
        c = QQ(2, 3)
        a = x.scale(c) + y.scale(c)
        got = a * (x - y)
        assert_same_terms(got, reference_product(lifted(a), lifted(x - y)))
        assert (got - (x * x - h - y * y).scale(c)).is_zero()
        assert len(got.terms) == 3
        # the same in the first slot of a tensor square
        (ex,), (ey,), one = x.terms, y.terms, (0, 0, 0)
        ta = TensorUEA((U, U), {(ex, one): c, (ey, one): c})
        tb = TensorUEA((U, U), {(ex, one): 1, (ey, one): -1})
        got = ta * tb
        assert_same_terms(got, reference_product(lifted(ta), lifted(tb)))
        assert len(got.terms) == 3


class TestRationalElements:
    """Elements and tensors over QQ serialize and take coproducts exactly as
    their field lifts do."""

    def test_twist_grade_json(self, U):
        J = abrr_twist(U, 3)
        assert not any(isinstance(v, FieldElement)
                       for t in J.coeffs for v in t.terms.values())
        for t in J.coeffs:
            assert t.to_json() == lifted(t).to_json()
            assert repr(t) == repr(lifted(t))

    def test_rising_factorial_json(self, U):
        r = rising_factorial(U, "h", 2)
        assert not any(isinstance(v, FieldElement) for v in r.terms.values())
        one_slot = TensorUEA((U,), {(e,): c for e, c in r.terms.items()})
        assert one_slot.to_json() == lifted(one_slot).to_json()

    def test_rising_factorial_coproduct(self, U):
        r = rising_factorial(U, "h", 2)
        one_slot = TensorUEA((U,), {(e,): c for e, c in r.terms.items()})
        d, want = r.coproduct(), reference_slot_coproduct(lifted(one_slot), 0)
        assert not any(isinstance(v, FieldElement) for v in d.terms.values())
        assert d == want and lifted(d).terms == want.terms


def test_irrational_structure_constant_rejected(ctx):
    # sl(2) in the basis (lam y, h, x) is a Lie algebra over the field, but
    # its structure constants are kept in QQ
    with pytest.raises(LieAlgebraError, match="not rational"):
        PBWAlgebra(scaled_sl2(ctx, "lam"))
