import fractions
import functools
import operator

import pytest
from hypothesis import given, settings, strategies as st

import sympy as sp
from sympy.polys.domains import QQ

from dynstar import (Context, ContextMismatchError, EnvelopingError, FieldElement,
                     OrbitFunction, PBWAlgebra, PoleError, Tensor2, TensorUEA,
                     UEAElement, sl2)
from dynstar.scalars import FieldAccumulator
from dynstar.verma import FiniteModule


@pytest.fixture(scope="module")
def c2():
    return Context(["lam", "hbar"])


def rationals():
    return st.fractions(min_value=-30, max_value=30, max_denominator=12)


def elements(ctx):
    """Small rational functions built from constants and the two variables."""
    base = st.one_of(
        rationals().map(ctx),
        st.just(ctx.var("lam")),
        st.just(ctx.var("hbar")),
    )

    def combine(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: p[0] + p[1]),
            st.tuples(children, children).map(lambda p: p[0] * p[1]),
            children.map(lambda a: -a),
        )

    return st.recursive(base, combine, max_leaves=6)


class TestFieldAxioms:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_axioms(self, data):
        ctx = Context(["lam", "hbar"])
        a = data.draw(elements(ctx))
        b = data.draw(elements(ctx))
        c = data.draw(elements(ctx))
        assert (a + b) == (b + a)
        assert (a * b) == (b * a)
        assert ((a + b) + c) == (a + (b + c))
        assert ((a * b) * c) == (a * (b * c))
        assert (a * (b + c)) == (a * b + a * c)
        assert (a + ctx.zero()) == a
        assert (a * ctx.one()) == a
        assert (a - a).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_multiplicative_inverse(self, data):
        ctx = Context(["lam", "hbar"])
        a = data.draw(elements(ctx))
        if a.is_zero():
            with pytest.raises(PoleError):
                ctx.one() / a
        else:
            assert (a / a) == 1
            assert (ctx.one() / a) * a == 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equality_is_cross_multiplication(self, data):
        ctx = Context(["lam", "hbar"])
        a = data.draw(elements(ctx))
        b = data.draw(elements(ctx))
        if not b.is_zero():
            # a/b == a/b even through unreduced representatives
            lam = ctx.var("lam")
            assert (a * (lam + 1)) / (b * (lam + 1)) == a / b


class TestCoercion:
    def test_string_parse_with_caret(self, c2):
        e = c2("lam^2 + 2*lam")
        assert e == c2.var("lam") * (c2.var("lam") + 2)

    def test_fraction_coercion(self, c2):
        assert c2(fractions.Fraction(3, 4)) * 4 == 3
        lam = c2.var("lam")
        assert c2(QQ(1, 2)) * 2 == 1 and lam * QQ(1, 2) == c2("lam/2")

    def test_unknown_symbol_rejected(self, c2):
        with pytest.raises(KeyError):
            c2("mu + 1")

    def test_context_mismatch(self, c2):
        other = Context(["lam", "hbar"])
        with pytest.raises(ContextMismatchError):
            c2(other.var("lam"))


class TestCalculus:
    def test_geometric_series_coefficients(self, c2):
        # 1/(lam - hbar) around hbar = 0: coefficients 1/lam^(k+1)
        lam, h = c2.var("lam"), c2.var("hbar")
        s = (1 / (lam - h)).series_expand("hbar", 2)
        assert s[0] == 1 / lam
        assert s[1] == 1 / lam ** 2
        assert s[2] == 1 / lam ** 3

    def test_quotient_rule(self, c2):
        lam, h = c2.var("lam"), c2.var("hbar")
        f = 1 / (lam * (lam - h))
        d = f.differentiate("lam")
        assert d == -(2 * lam - h) / (lam ** 2 * (lam - h) ** 2)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_leibniz_rule(self, data):
        ctx = Context(["lam", "hbar"])
        a = data.draw(elements(ctx))
        b = data.draw(elements(ctx))
        lhs = (a * b).differentiate("lam")
        rhs = a.differentiate("lam") * b + a * b.differentiate("lam")
        assert lhs == rhs

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=4))
    def test_series_resum_matches_truncation(self, data, order):
        ctx = Context(["lam", "hbar"])
        a = data.draw(elements(ctx))
        s = a.series_expand("hbar", order)
        h = ctx.var("hbar")
        # the truncation polynomial sum_k c_k hbar^k
        diff = a - sum((c * h ** k for k, c in enumerate(s)), ctx.zero())
        # the difference is divisible by hbar^(order+1)
        num = sp.fraction(diff.expr)[0]
        hs = ctx.symbol("hbar")
        if not diff.is_zero():
            assert sp.expand(num).subs(hs, 0) == 0 or order < 0
            q = num
            for _ in range(order + 1):
                q = sp.cancel(q / hs)
                assert sp.fraction(sp.together(q))[1].subs(hs, 0) != 0 or q == 0

    def test_series_pole_rejected(self, c2):
        with pytest.raises(PoleError):
            (1 / c2.var("hbar")).series_expand("hbar", 1)


class TestPrinting:
    def test_integer_coefficient_grammar(self, c2):
        lam = c2.var("lam")
        assert (lam * (lam + 2) / 2).to_string() == "(lam^2+2*lam)/(2)"
        assert (-lam / 2).to_string() == "(-lam)/(2)"
        assert c2(0).to_string() == "0"

    def test_roundtrip_through_string(self, c2):
        f = (c2.var("lam") + c2.var("hbar") / 3) / (c2.var("lam") ** 2 - 5)
        assert c2(f.to_string()) == f


def _canonical_forms(ctx, case):
    """One value built several ways: products with 1/den keep the pair
    unreduced, division reduces a one-term denominator at once."""
    lam, h = ctx.var("lam"), ctx.var("hbar")
    if case == "integer content":
        return [(2 * lam + 4 * h) * (1 / (6 * lam - 2 * h)),
                (lam + 2 * h) / (3 * lam - h),
                (lam * QQ(1, 2) + h) * (1 / (lam * QQ(3, 2) - h * QQ(1, 2)))]
    if case == "negative one-term denominator":
        return [lam / (-3 * h), -lam / (3 * h), (lam * QQ(-1, 3)) * (1 / h),
                (2 * lam) * (1 / (6 * h)) * -1]
    if case == "negative multi-term leading coefficient":
        return [1 / (h - lam), -1 / (lam - h), (-2 * h) * (1 / (2 * h * lam - 2 * h * h))]
    # a shared monomial factor
    return [(lam * h + h * h) * (1 / (h * lam)), (lam + h) / lam,
            (2 * lam * h * h + 2 * h ** 3) * (1 / (4 * lam * h * h)) * 2]


class TestCanonicalForm:
    """Equal values reduce to one integer pair: content and monomial gcd
    divided out, the denominator leading with a positive coefficient."""

    @pytest.mark.parametrize("case", [
        "integer content", "negative one-term denominator",
        "negative multi-term leading coefficient", "shared monomial factor"])
    def test_equal_values_share_one_pair(self, c2, case):
        forms = _canonical_forms(c2, case)
        first = forms[0]
        for f in forms[1:]:
            assert f == first and hash(f) == hash(first)
            assert f.to_string() == first.to_string()
            assert (f.num, f.den) == (first.num, first.den)

    def test_constants_are_rationals(self, c2):
        # the filtration ranks put these into a DomainMatrix over QQ
        for text, want in (("3", QQ(3)), ("3/2", QQ(3, 2)), ("-6/4", QQ(-3, 2))):
            got = c2(text).as_rational()
            assert QQ.of_type(got) and got == want
        assert QQ.of_type((c2.var("lam") / c2.var("lam") * 3).as_rational())
        assert c2.var("lam").as_rational() is None



# -- exactness against a sympy oracle ---------------------------------------
#
# Every element is drawn together with the sympy expression it was built
# from; the oracle canonicalizes that expression with sympy's cancel, as
# the expression-tree scalar core did, and the lazy num/den pairs must
# agree with it.

LAM, HBAR = sp.symbols("lam hbar")

# the CLI's context: declared order (lam first), name order (hbar first)
# and the order sympy's cancel sorts generators in (t1 first) all differ
CLI_NAMES = ["lam", "hbar", "t1", "t2", "t3", "t4"]


def scalar_operands():
    """(q, sympy value) for q an int or an element of QQ, zero included: an
    operand of * that is folded into the pair as integers."""
    q = st.one_of(st.integers(-4, 4),
                  rationals().map(lambda f: QQ(f.numerator, f.denominator)))
    return q.map(lambda q: (q, sp.Rational(int(q.numerator), int(q.denominator))))


def pairs(ctx):
    """(FieldElement, sympy expression) pairs of equal value, in all the
    context's symbols. Products include int and QQ operands on either side
    (a constant times a rational when the element is a constant)."""
    base = st.one_of(
        rationals().map(lambda q: (ctx(q), sp.Rational(q.numerator, q.denominator))),
        st.sampled_from(ctx.names).map(lambda n: (ctx.var(n), ctx.symbol(n))),
    )

    def combine(children):
        two = st.tuples(children, children)
        return st.one_of(
            two.map(lambda p: (p[0][0] + p[1][0], p[0][1] + p[1][1])),
            two.map(lambda p: (p[0][0] - p[1][0], p[0][1] - p[1][1])),
            two.map(lambda p: (p[0][0] * p[1][0], p[0][1] * p[1][1])),
            st.tuples(children, scalar_operands()).map(
                lambda p: (p[0][0] * p[1][0], p[0][1] * p[1][1])),
            st.tuples(scalar_operands(), children).map(
                lambda p: (p[0][0] * p[1][0], p[0][1] * p[1][1])),
            two.filter(lambda p: sp.cancel(p[1][1]) != 0).map(
                lambda p: (p[0][0] / p[1][0], p[0][1] / p[1][1])),
        )

    return st.recursive(base, combine, max_leaves=6)


def hidden_zeros(ctx):
    """Elements that are zero only after cancellation."""
    nonzero = pairs(ctx).filter(lambda p: sp.cancel(p[1]) != 0)

    def quotient(t):
        (a, _), (b, _), (c, _) = t
        return a / b - (a * c) / (b * c)

    def square(p):
        x = p[0]
        return (x + 1) ** 2 - x ** 2 - 2 * x - 1

    return st.one_of(st.tuples(pairs(ctx), nonzero, nonzero).map(quotient),
                     pairs(ctx).map(square))


def unit_fractions(ctx):
    """(FieldElement, sympy expression) pairs q * P / Q with P and Q sums
    of distinct monomials with coefficients +-1."""
    monomial = st.lists(st.sampled_from(ctx.names), max_size=3).map(
        lambda ns: tuple(sorted(ns)))
    signed = st.dictionaries(monomial, st.sampled_from([1, -1]),
                             min_size=1, max_size=4)

    def build(terms):
        f, e = ctx.zero(), sp.Integer(0)
        for names, sign in terms.items():
            t, x = ctx(sign), sp.Integer(sign)
            for n in names:
                t, x = t * ctx.var(n), x * ctx.symbol(n)
            f, e = f + t, e + x
        return f, e

    def fraction(t):
        (p, ep), (q, eq), c = t
        return ctx(c) * p / q, sp.Rational(c.numerator, c.denominator) * ep / eq

    return st.tuples(signed.map(build), signed.map(build).filter(
        lambda p: not p[0].is_zero()), rationals().filter(bool)).map(fraction)


def oracle_string(expr):
    """The report grammar, computed from sympy's canonical form."""
    canon = sp.cancel(sp.together(expr))
    num, den = sp.fraction(sp.together(canon))
    ncon, nprim = sp.expand(num).as_content_primitive()
    dcon, dprim = sp.expand(den).as_content_primitive()
    ratio = sp.Rational(ncon / dcon)
    num, den = nprim * ratio.p, dprim * ratio.q

    def fmt(e):
        return sp.sstr(sp.expand(e), order="grlex").replace("**", "^").replace(" ", "")

    return fmt(num) if den == 1 else f"({fmt(num)})/({fmt(den)})"


def oracle_zero(expr) -> bool:
    return sp.cancel(sp.together(expr)) == 0


class TestAgainstSympyOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_is_zero(self, data):
        ctx = Context(["lam", "hbar"])
        f, e = data.draw(pairs(ctx))
        assert f.is_zero() == oracle_zero(e)
        assert bool(f) == (not oracle_zero(e))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equality(self, data):
        ctx = Context(["lam", "hbar"])
        f, e = data.draw(pairs(ctx))
        g, d = data.draw(pairs(ctx))
        assert (f == g) == oracle_zero(e - d)
        assert f == f + (g - g)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_to_string(self, data):
        ctx = Context(CLI_NAMES)
        f, e = data.draw(pairs(ctx))
        assert f.to_string() == oracle_string(e)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_to_string_unit_coefficients(self, data):
        # sums of +-1 monomials over sums of +-1 monomials, times a
        # rational content: the printer drops unit coefficients and must
        # sign the denominator as sympy does
        ctx = Context(CLI_NAMES)
        f, e = data.draw(unit_fractions(ctx))
        assert f.to_string() == oracle_string(e)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(min_value=0, max_value=3))
    def test_series_expand(self, data, order):
        ctx = Context(["lam", "hbar"])
        f, e = data.draw(pairs(ctx))
        g = sp.cancel(sp.together(e))
        if sp.fraction(g)[1].subs(HBAR, 0) == 0:
            with pytest.raises(PoleError):
                f.series_expand("hbar", order)
            return
        got = f.series_expand("hbar", order)
        assert type(got) is list and len(got) == order + 1
        for k in range(order + 1):
            c = sp.cancel(g.subs(HBAR, 0))
            assert oracle_zero(got[k].expr - c)
            assert HBAR not in got[k].expr.free_symbols
            g = sp.cancel((g - c) / HBAR)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_differentiate(self, data):
        ctx = Context(["lam", "hbar"])
        f, e = data.draw(pairs(ctx))
        for var, sym in (("lam", LAM), ("hbar", HBAR)):
            assert oracle_zero(f.differentiate(var).expr - sp.diff(e, sym))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_hidden_zeros_are_zero(self, data):
        ctx = Context(["lam", "hbar"])
        z = data.draw(hidden_zeros(ctx))
        assert z.is_zero() and not z
        assert z == 0 and z.to_string() == "0"


@pytest.mark.parametrize("text", [
    "1/(lam-hbar)", "(lam+1)/(hbar-lam)", "(-lam/2+hbar)/(hbar*lam/3-7)",
    "(hbar-2*lam)/(3*hbar*lam-lam^2)", "3/7", "-lam/2", "lam^2*hbar/lam"])
def test_fixed_elements_against_oracle(c2, text):
    # denominators whose leading sign differs between the ring's order
    # (lam before hbar) and sympy's (hbar before lam)
    f = c2(text)
    g, h = c2(text) * (c2.var("lam") + 1), c2.var("lam") + 1
    e = sp.sympify(text.replace("^", "**"), locals={"lam": LAM, "hbar": HBAR})
    assert f.to_string() == (g / h).to_string() == oracle_string(e)
    assert f == g / h and f != f + 1 and (f != 0) == (not oracle_zero(e))
    assert c2(1) != c2(2) and c2("1/2") == fractions.Fraction(1, 2)


@pytest.mark.parametrize("text", [
    "0", "1", "-4", "3/7", "-6/4", "t3/6", "1/(2*t4)",
    "1/(lam-t1)", "(hbar+1)/(t2*lam-t1*hbar)", "(lam-hbar)/(hbar-t3)",
    "(t1-lam)/(-t2+hbar^2)", "-(2*t1+4*lam)/(6*hbar*t4-9*lam^2)",
    "(t1*t2-t3)/(lam*hbar-t4^2+1)"])
def test_cli_context_fixed_against_oracle(text):
    # the denominators' leading signs differ between the ring's order
    # (lam, hbar, t1, ...), the name order (hbar, lam, t1, ...) and the
    # generator order of sympy's cancel (t1, ..., hbar, lam)
    ctx = Context(CLI_NAMES)
    f = ctx(text)
    e = sp.sympify(text.replace("^", "**"), locals=dict(zip(ctx.names, ctx.symbols)))
    assert f.to_string() == oracle_string(e)
    assert (f * (ctx.var("t1") + 1) / (ctx.var("t1") + 1)).to_string() == f.to_string()


def accumulator_terms(ctx):
    """(key, c, q) triples for FieldAccumulator.add: c a polynomial over a
    constant, a monomial or a multi-term denominator, q an int or an
    element of QQ. Some terms are followed by their negation over another
    denominator, so their sums cancel across groups."""
    lam, t1 = ctx.var("lam"), ctx.var("t1")
    dens = [ctx.one(), lam ** 2 * t1, lam - t1,
            lam * ctx.var("hbar") - ctx.var("t2") + 1,
            3 * lam ** 2, 2 * lam - 4 * t1, ctx(-6) * t1]
    monomial = st.lists(st.sampled_from(ctx.names), max_size=2).map(
        lambda ns: functools.reduce(operator.mul, map(ctx.var, ns), ctx.one()))
    poly = st.lists(st.tuples(rationals(), monomial), min_size=1, max_size=3).map(
        lambda ts: sum((ctx(q) * m for q, m in ts), ctx.zero()))
    coeff = st.tuples(poly, st.sampled_from(dens)).map(lambda t: t[0] / t[1])
    q = st.one_of(st.integers(-3, 3),
                  rationals().map(lambda f: QQ(f.numerator, f.denominator)))
    disguise = st.sampled_from([None, t1, lam - t1, lam ** 2 + ctx.var("t3")])

    def expand(t):
        key, c, q, d = t
        return [(key, c, q)] if d is None else [(key, c, q), (key, c * d / d, -q)]

    term = st.tuples(st.integers(0, 3), coeff, q, disguise).map(expand)
    return st.lists(term, max_size=8).map(lambda ts: [x for t in ts for x in t])


class TestFieldAccumulator:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sums_against_naive_keyed_sum(self, data):
        ctx = Context(CLI_NAMES)
        terms = data.draw(accumulator_terms(ctx))
        acc = FieldAccumulator(ctx)
        naive = {}
        for key, c, q in terms:
            acc.add(c, [(key, q)])
            naive[key] = naive.get(key, ctx.zero()) + c * ctx.constant(QQ(q))
        got = acc.sums()
        assert set(got) == {k for k, v in naive.items() if v}
        for key, want in naive.items():
            assert got.get(key, ctx.zero()) == want

    def test_many_keys_in_one_add(self, c2):
        acc = FieldAccumulator(c2)
        lam = c2.var("lam")
        acc.add(1 / lam, [("a", 2), ("b", QQ(-1, 3)), ("a", 1)])
        acc.add(c2.var("hbar"), [("b", 1)])
        assert acc.sums() == {"a": 3 / lam, "b": c2("hbar - 1/(3*lam)")}

    def test_cancellation_across_denominators_drops_the_key(self, c2):
        lam, hbar = c2.var("lam"), c2.var("hbar")
        acc = FieldAccumulator(c2)
        acc.add(1 / lam, [("k", 1)])
        acc.add(hbar / (lam * hbar), [("k", -1)])     # lam*hbar is kept
        acc.add((lam - 1) / ((lam - 1) * (hbar + 2)), [("m", QQ(1, 2))])
        acc.add(1 / (hbar + 2), [("m", QQ(-1, 2))])
        assert acc.sums() == {}


class TestExactPruning:
    """Containers drop coefficients that vanish only after cancellation."""

    @pytest.fixture
    def z(self, ctx):
        lam = ctx.var("lam")
        a, b, c = lam + ctx.var("hbar"), lam - 1, lam + 2
        zero = a / b - (a * c) / (b * c)
        assert zero.is_zero()
        return zero

    def test_structural_zero_example(self, ctx):
        # a sympy expression tree does not see this zero structurally
        assert (LAM + 1) ** 2 - LAM ** 2 - 2 * LAM - 1 != 0
        lam = ctx.var("lam")
        assert ((lam + 1) ** 2 - lam ** 2 - 2 * lam - 1).is_zero()

    def test_enveloping(self, ctx, z):
        U = PBWAlgebra(sl2(ctx))
        assert UEAElement(U, {(1, 0, 0): z}).terms == {}
        assert TensorUEA((U, U), {((1, 0, 0), (0, 0, 1)): z}).terms == {}

    def test_lie_tensor(self, ctx, z):
        assert Tensor2(sl2(ctx), {(0, 2): z}).terms == {}

    def test_orbit_function(self, ctx, z):
        assert OrbitFunction(ctx, {(0, 1, 0, 0): z}).terms == {}
        assert OrbitFunction(ctx, {(1, 0, 0, 1): z}).terms == {}

    def test_module_action(self, ctx, z):
        assert FiniteModule(ctx, 2).act("y", {0: z}) == {}


def _two_forms(kind, ctx):
    """One value of a sparse container built two different ways."""
    lam = ctx.var("lam")
    U = PBWAlgebra(sl2(ctx), order=("y", "h", "x"))
    y, h, x = (U.gen(g) for g in ("y", "h", "x"))
    (ey,), (ex,) = y.terms, x.terms
    if kind == "UEAElement":
        return x * y, y * x + h
    if kind == "TensorUEA":
        rational = TensorUEA((U, U), {(ey, ex): 1, (ex, ey): QQ(1, 2)})
        return rational, TensorUEA((U, U), {(ey, ex): ctx.one(), (ex, ey): ctx("1/2")})
    if kind == "Tensor2":
        g = sl2(ctx)
        return Tensor2(g, {(0, 2): lam}), Tensor2(g, {(0, 2): lam + 1}) - Tensor2(g, {(0, 2): 1})
    # g11 g22 is g12 g21 + 1 on SL(2)
    return (OrbitFunction(ctx, {(1, 0, 0, 1): lam}),
            OrbitFunction(ctx, {(0, 1, 1, 0): lam, (0, 0, 0, 0): lam}))


class TestContainerProtocol:
    """Every sparse container follows the one protocol of LinearCombination."""

    @pytest.mark.parametrize("kind", ["UEAElement", "TensorUEA", "Tensor2",
                                      "OrbitFunction"])
    def test_value_equality_no_hash_reflected_scaling(self, c2, kind):
        a, b = _two_forms(kind, c2)
        assert a is not b and a == b and not a != b
        assert a != a + a and a != object()
        for c in (a, b):
            with pytest.raises(TypeError):
                hash(c)
        assert 2 * a == a.scale(2) and QQ(1, 2) * a == a.scale(QQ(1, 2))
        if kind != "UEAElement":    # enveloping elements hold rationals only
            assert c2.var("lam") * a == a.scale(c2.var("lam"))

    def _rational(self, c2):
        U = PBWAlgebra(sl2(c2), order=("y", "h", "x"))
        (ey,), (ex,) = U.gen("y").terms, U.gen("x").terms
        return (UEAElement(U, {ey: 1, ex: QQ(-2, 3)}),
                TensorUEA((U, U), {(ey, ex): 3, (ex, ey): QQ(1, 2)}))

    @pytest.mark.parametrize("s", [2, -1, QQ(3, 4)], ids=["2", "-1", "3/4"])
    def test_rational_factor_keeps_rational_coefficients(self, c2, s):
        for c in self._rational(c2):
            scaled = s * c
            assert all(isinstance(v, (int, QQ.dtype)) for v in scaled.terms.values())
            assert scaled.terms == {k: s * v for k, v in c.terms.items()}

    @pytest.mark.parametrize("s", ["1/lam", "lam", "lam + hbar"])
    def test_field_factor_lifts_into_the_field(self, c2, s):
        # a FieldElement factor multiplies every coefficient of a tensor in
        # the field; an enveloping element holds rationals and rejects it
        f = c2(s)
        u, c = self._rational(c2)
        for scaled in (c.scale(f), f * c):
            assert all(isinstance(v, FieldElement) for v in scaled.terms.values())
            assert scaled.terms == {k: f * c2(v) for k, v in c.terms.items()}
        for scale in (u.scale, lambda f: f * u):
            with pytest.raises(EnvelopingError, match="is not in QQ"):
                scale(f)
