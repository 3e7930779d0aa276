"""Exact arithmetic in Q(p1, ..., pk): rational functions in named formal
parameters over the rationals.

A :class:`FieldElement` is a numerator/denominator pair of sparse integer
polynomials (``sympy.polys.rings.PolyElement`` over ZZ) in the one
``PolyRing`` of its :class:`Context`, so every coefficient operation is an
int operation; a constant q is the pair (q.numerator, q.denominator).
Addition, subtraction and multiplication take no gcd: they cross-multiply,
with fast paths for constants, for equal denominators and for one-term
denominators, which keep a positive integer coefficient and combine over
the lcm of their monomials and of their integers. An int or QQ operand of
``*`` is folded into the pair as integers. A fraction is zero exactly when
its numerator is, and equality cross-multiplies. Content is removed only
where a canonical pair is needed (printing, hashing, ``expr``,
differentiation and series expansion), by the monomial and integer gcd for
a one-term denominator and else by ``PolyElement.cancel`` over ZZ. Reports
are printed straight from the reduced pair, with the content, sign and
term order that sympy's ``cancel`` and printer give.

Every sparse container is a :class:`LinearCombination` with one coefficient
kind: field elements of one shared :class:`Context` (Lie tensors, orbit
functions, Verma vectors), so that every identity on them is a zero test in
this field, or rationals (enveloping elements, twist orders; a twist's field
view is the one place theirs become field elements). Keyed sums go
through :class:`RationalAccumulator`, the one keyed-sum kernel, or through
:class:`FieldAccumulator`, a family of kernels; both give nonzero sums.
Operators take only a FieldElement, an int or an element of QQ: calling a
:class:`Context` is the one parser of outside input.
"""

from __future__ import annotations

import fractions
import functools
import math
import operator
import re
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

import sympy as sp
from sympy.polys.domains import QQ, ZZ
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement, PolyRing

# the named symbols of the base field: the dynamical variable and the
# deformation parameter
LAM, HBAR = "lam", "hbar"

# a plain ASCII integer or fraction, turned into a constant without the parser
_RATIONAL_LITERAL = re.compile(r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?")


class ContextMismatchError(ValueError):
    """Raised when elements from different parameter contexts are mixed."""


class PoleError(ZeroDivisionError):
    """Raised when an operation hits a pole (vanishing denominator)."""


class Context:
    """A fixed, ordered list of formal parameters.

    Elements created through the same context are interoperable; mixing
    elements from distinct contexts raises :class:`ContextMismatchError`.
    """

    def __init__(self, names: Sequence[str]):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        self.names: tuple[str, ...] = tuple(names)
        self.symbols: tuple[sp.Symbol, ...] = tuple(
            sp.Symbol(n, commutative=True) for n in self.names
        )
        self._by_name = dict(zip(self.names, self.symbols))
        # printing signs by lex order over the generators sorted as sympy's
        # cancel sorts them (t1 before hbar), and orders terms by name
        self._sign_gens = tuple(map(self.symbols.index, _sort_gens(self.symbols)))
        self._print_gens = tuple(sorted(range(len(names)), key=self.names.__getitem__))
        self.ring = PolyRing(self.symbols, ZZ, lex)
        self._one_poly = self.ring.one     # the denominator of every polynomial
        self._zero = FieldElement(self, self.ring.zero, self._one_poly)
        self._one = FieldElement(self, self.ring.one, self._one_poly)
        self._constants = {(0, 1): self._zero, (1, 1): self._one}  # (n, d) -> n/d

    def symbol(self, name: str) -> sp.Symbol:
        if name not in self._by_name:
            raise KeyError(f"unknown parameter {name!r}; declared: {self.names}")
        return self._by_name[name]

    def index(self, name: str) -> int:
        """The position of a declared parameter among the ring generators."""
        return self.symbols.index(self.symbol(name))

    def var(self, name: str) -> "FieldElement":
        return FieldElement(self, self.ring.gens[self.index(name)], self._one_poly)

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def constant(self, q) -> "FieldElement":
        """The pair (q.numerator, q.denominator) of an int or element q of QQ."""
        n, d = q.numerator, q.denominator
        f = self._constants.get((n, d))
        if f is None:
            zm = self.ring.zero_monom
            f = self._constants[n, d] = _frac(self, self.ring.dtype([(zm, n)]),
                                              self.ring.dtype([(zm, d)]))
        return f

    def __call__(self, value) -> "FieldElement":
        """Coerce ints, elements of QQ, Fractions, strings (with `^` powers)
        or sympy expressions into a FieldElement of this context."""
        if isinstance(value, FieldElement):
            if value.context is not self:
                raise ContextMismatchError("element belongs to a different context")
            return value
        if isinstance(value, (int, QQ.dtype)):
            return self.constant(value)
        if isinstance(value, (fractions.Fraction, sp.Rational)):
            return self.constant(QQ(int(value.numerator), int(value.denominator)))
        if isinstance(value, sp.Expr):
            expr = value
        elif isinstance(value, str):
            if _RATIONAL_LITERAL.fullmatch(value):
                try:
                    return self.constant(QQ(*map(int, value.split("/"))))
                except ValueError:  # past int()'s digit limit: the parser decides
                    pass
            try:
                expr = sp.sympify(value.replace("^", "**"),
                                  locals=dict(self._by_name))
            except (sp.SympifyError, AttributeError):
                raise TypeError(f"cannot parse {value!r}") from None
        else:
            raise TypeError(f"cannot coerce {value!r} into a field element")
        bad = expr.free_symbols - set(self.symbols)
        if bad:
            raise KeyError(f"undeclared parameters {sorted(map(str, bad))}")
        try:    # through QQ, which also reads a float literal exactly
            (cn, num), (cd, den) = (
                self.ring.clone(domain=QQ).from_expr(x).clear_denoms()
                for x in sp.fraction(sp.cancel(sp.together(expr))))
        except ValueError:
            raise TypeError(f"{value!r} is not a rational function") from None
        return _frac(self, num.set_ring(self.ring) * cd, den.set_ring(self.ring) * cn)

    def __repr__(self) -> str:
        return f"Context({list(self.names)})"


def _frac(ctx: Context, num: PolyElement, den: PolyElement) -> "FieldElement":
    """A FieldElement from any pair with den != 0. A one-term denominator
    shares only a monomial and an integer with num: the pair is divided by
    both, signed so that its coefficient is positive, and so reduced."""
    if not num:
        return ctx._zero
    if len(den) > 1:
        return FieldElement(ctx, num, den)
    ring, ((m, c),) = ctx.ring, den.items()
    k = math.gcd(c, *num.itercoeffs()) * (1 if c > 0 else -1)
    g = functools.reduce(ring.monomial_gcd, num.itermonoms(), m) if any(m) else m
    if k != 1 or any(g):
        num = ring.dtype([(ring.monomial_ldiv(t, g), a // k) for t, a in num.items()])
        m, c = ring.monomial_ldiv(m, g), c // k
    f = FieldElement(ctx, num, ctx._one_poly if c == 1 and not any(m)
                     else ring.dtype([(m, c)]))
    if c != 1 and not any(m) and num.is_ground:
        f._const = QQ(num.LC, c)
    f._reduced = True
    return f


class FieldElement:
    """An exact rational function over Q in the context's parameters.

    ``num`` and ``den`` are integer polynomials of the context's ring, not
    always coprime; a one-term ``den`` has a positive coefficient.
    :meth:`_reduce` cancels them in place to the canonical pair (coprime,
    ``den`` leading positive). ``_const`` is the value of a constant, an
    int when integral and else in QQ, or None.
    """

    __slots__ = ("context", "num", "den", "_const", "_reduced")

    def __init__(self, context: Context, num: PolyElement, den: PolyElement):
        self.context = context
        self.num = num
        self.den = den
        self._reduced = den is context._one_poly
        self._const = None
        if self._reduced and len(num) <= 1:
            self._const = num.get(context.ring.zero_monom) if num else 0

    # -- canonical form ----------------------------------------------------

    def _reduce(self) -> None:
        if not self._reduced:
            num, den = self.num, self.den
            if len(den) > 1:
                num, den = num.cancel(den)
            red = _frac(self.context, num, den)
            self.num, self.den, self._const = red.num, red.den, red._const
            self._reduced = True

    @property
    def expr(self) -> sp.Expr:
        self._reduce()
        if self._const is not None:
            return QQ.to_sympy(QQ(self._const))
        # on a coprime pair the tuple form gives the canonical P, Q of
        # cancel(P/Q) without its signsimp and factor_terms passes
        _, num, den = sp.cancel((self.num.as_expr(), self.den.as_expr()))
        return num / den

    def as_rational(self):
        """The value in QQ of a constant, else None."""
        if self._const is None and not self._reduced:
            self._reduce()
        return None if self._const is None else QQ(self._const)

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == self.den

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other) -> "FieldElement | None":
        """An int, an element of QQ or a FieldElement as one of this
        context (another context raises); None for any other type."""
        if type(other) is FieldElement and other.context is self.context:
            return other
        if isinstance(other, (FieldElement, int, QQ.dtype)):
            return self.context(other)
        return None

    def _combine(self, other, op) -> "FieldElement":
        """op(self, other) for op one of the polynomial + and -."""
        o = self._operand(other)
        if o is None:
            return NotImplemented
        ctx = self.context
        if self._const is not None and o._const is not None:
            return ctx.constant(op(self._const, o._const))
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if len(d1) == 1 and len(d2) == 1:
            # c1*m1 and c2*m2: bring both over lcm(c1, c2)*lcm(m1, m2)
            ((m1, c1),), ((m2, c2),) = d1.items(), d2.items()
            if m1 != m2 or c1 != c2:
                ring = ctx.ring
                m, c = ring.monomial_lcm(m1, m2), math.lcm(c1, c2)
                if m != m1 or c != c1:
                    n1 = n1.mul_term((ring.monomial_ldiv(m, m1), c // c1))
                    d1 = d2 if m == m2 and c == c2 else ring.dtype([(m, c)])
                if m != m2 or c != c2:
                    n2 = n2.mul_term((ring.monomial_ldiv(m, m2), c // c2))
        elif d1 != d2:
            n1, n2, d1 = n1 * d2, n2 * d1, d1 * d2
        num = op(n1, n2)
        return FieldElement(ctx, num, d1) if num else ctx._zero

    def __add__(self, other) -> "FieldElement":
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        return self._combine(other, operator.sub)

    def __rsub__(self, other) -> "FieldElement":
        o = self._operand(other)
        return NotImplemented if o is None else o._combine(self, operator.sub)

    def _scaled(self, q) -> "FieldElement":
        """self * q for q an int or in QQ, folded into the pair as integers."""
        if self._const is not None:
            return self.context.constant(self._const * q)
        n, d = q.numerator, q.denominator
        return FieldElement(self.context, self.num if n == 1 else self.num.mul_ground(n),
                            self.den if d == 1 else self.den.mul_ground(d))

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, (int, QQ.dtype)):
            return self._scaled(other)
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if o._const is not None:    # a rational factor scales the other
            return self._scaled(o._const)
        if self._const is not None:
            return o._scaled(self._const)
        one = self.context._one_poly
        # products of one-term denominators stay one-term and positive
        den = o.den if self.den is one else \
            self.den if o.den is one else self.den * o.den
        return FieldElement(self.context, self.num * o.num, den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FieldElement":
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise PoleError("division by zero field element")
        return _frac(self.context, self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other) -> "FieldElement":
        o = self._operand(other)
        return NotImplemented if o is None else o / self

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.context, -self.num, self.den)

    def __pow__(self, n: int) -> "FieldElement":
        n = int(n)
        if n == 0:
            return self.context._one
        if n > 0:
            return _frac(self.context, self.num ** n, self.den ** n)
        if not self.num:
            raise PoleError("negative power of zero")
        return _frac(self.context, self.den ** -n, self.num ** -n)

    def __eq__(self, other: object) -> bool:
        o = self._operand(other)
        if o is None:
            return NotImplemented
        if self._const is not None and o._const is not None:
            return self._const == o._const
        if self.den == o.den:
            return self.num == o.num
        return self.num * o.den == o.num * self.den

    def __hash__(self) -> int:
        self._reduce()
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: str) -> "FieldElement":
        """Exact partial derivative with respect to a declared parameter."""
        x = self.context.index(var)
        self._reduce()
        num, den = self.num, self.den
        dden = den.diff(x)
        if not dden:
            return _frac(self.context, num.diff(x), den)
        return _frac(self.context, num.diff(x) * den - num * dden, den * den)

    def series_expand(self, var: str, order: int) -> list["FieldElement"]:
        """Truncated power-series expansion around var = 0: the list of
        c_0..c_order with self = sum c_k var^k mod var^(order+1).

        Requires no pole at var = 0. With num = sum n_k var^k and
        den = sum d_k var^k, c_k = p_k / d_0^(k+1) where
        p_k = n_k d_0^k - sum_{j=1..k} d_j p_{k-j} d_0^(j-1). The c_k are
        free of var: the n_k and d_k are coefficients in var.
        """
        if order < 0:
            raise ValueError("order must be >= 0")
        ctx = self.context
        i = ctx.index(var)
        self._reduce()
        n, d = _coefficients_in(self.num, i), _coefficients_in(self.den, i)
        zero = ctx.ring.zero
        d0 = d.get(0, zero)
        if not d0:
            raise PoleError(f"pole at {var} = 0; cannot expand")
        if len(d) == 1:
            return [_frac(ctx, n.get(k, zero), d0) for k in range(order + 1)]
        powers, p = [ctx._one_poly], []
        for k in range(order + 1):
            powers.append(powers[-1] * d0)
            acc = n.get(k, zero) * powers[k]
            for j in range(1, k + 1):
                if j in d and p[k - j]:
                    acc = acc - d[j] * p[k - j] * powers[j - 1]
            p.append(acc)
        return [_frac(ctx, pk, powers[k + 1]) for k, pk in enumerate(p)]

    # -- printing ----------------------------------------------------------

    def to_string(self) -> str:
        """Serialize in the report grammar: integer coefficients, `^` powers,
        explicit `*`, parenthesized numerator/denominator.

        Printed from the reduced pair, signed so that the denominator leads
        with a positive coefficient in the generator order of sympy's
        ``cancel``, and ordered as the context says.
        """
        if not self.num:
            return "0"
        self._reduce()
        ctx = self.context
        num, den = list(self.num.items()), list(self.den.items())
        _, lead = max(den, key=lambda t: [t[0][i] for i in ctx._sign_gens])
        if lead < 0:
            num, den = [(m, -c) for m, c in num], [(m, -c) for m, c in den]
        if den == [(ctx.ring.zero_monom, 1)]:
            return _terms_string(ctx, num)
        return f"({_terms_string(ctx, num)})/({_terms_string(ctx, den)})"

    def __repr__(self) -> str:
        return f"FieldElement({self.to_string()})"


def _coefficients_in(p: PolyElement, i: int) -> dict[int, PolyElement]:
    """The coefficients of p as a polynomial in generator i."""
    terms: dict[int, list] = {}
    for monom, coeff in p.items():
        terms.setdefault(monom[i], []).append(
            (monom[:i] + (0,) + monom[i + 1:], coeff))
    return {k: p.ring.dtype(t) for k, t in terms.items()}


def _terms_string(ctx: Context, terms: list[tuple[tuple, int]]) -> str:
    """Integer-coefficient terms in descending grlex, signs joined with no
    spaces and unit coefficients dropped."""
    gens = ctx._print_gens
    out = []
    for m, c in sorted(terms, reverse=True,
                       key=lambda t: (sum(t[0]), [t[0][i] for i in gens])):
        factors = [ctx.names[i] if m[i] == 1 else f"{ctx.names[i]}^{m[i]}"
                   for i in gens if m[i]]
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        out.append(("-" if c < 0 else "+") + "*".join(factors))
    return "".join(out).removeprefix("+")


class RationalAccumulator:
    """Keyed sums of products (num / den) * q with num, den ints and q
    rational: the one keyed-sum kernel. Every key holds an integer
    numerator over one common denominator, the lcm of the denominators
    added so far, so adding a term is one int product and one int
    addition; a new denominator rescales the numerators once, and
    :meth:`sums` reduces one fraction per key."""

    __slots__ = ("_sums", "_den")

    def __init__(self):
        self._sums: dict = {}
        self._den = 1

    def _cover(self, den: int) -> None:
        """Make the common denominator a multiple of den, which it is not."""
        factor = den // math.gcd(self._den, den)
        self._den *= factor
        for key in self._sums:
            self._sums[key] *= factor

    def add(self, num: int, den: int, terms: Iterable[tuple[object, object]]) -> None:
        """Add (num / den) * q at key for every (key, q) of ``terms``."""
        # the test before each call: most adds bring no new denominator
        if self._den % den:
            self._cover(den)
        c = num * (self._den // den)
        sums = self._sums
        for key, q in terms:
            if q.denominator != 1:
                if self._den % (den * q.denominator):
                    self._cover(den * q.denominator)
                    c = num * (self._den // den)
                n = c // q.denominator * q.numerator
            else:
                n = c * q.numerator
            sums[key] = sums.get(key, 0) + n

    def is_zero(self) -> bool:
        """Whether every sum is zero, read off the numerators."""
        return not any(self._sums.values())

    def sums(self) -> dict:
        """The nonzero sums by key, ints when integral."""
        d = self._den
        return {key: n // d if n % d == 0 else QQ.dtype(n, d)
                for key, n in self._sums.items() if n}


class FieldAccumulator:
    """Keyed sums of products c * q, with c a FieldElement and q a rational
    (an int or an element of QQ): one :class:`RationalAccumulator` per
    (key, denominator of c), summing the integer coefficients of c's
    numerator by monomial, so adding c * q takes no field operation. A
    one-term denominator is grouped by its monomial, its coefficient
    joining the denominator of q. :meth:`sums` adds up a key's fractions
    only at the end."""

    __slots__ = ("context", "_groups")

    def __init__(self, context: Context):
        self.context = context
        self._groups: dict = defaultdict(RationalAccumulator)

    def add(self, c: FieldElement, terms: Iterable[tuple[object, object]]) -> None:
        """Add c * q at key for every (key, q) of ``terms``."""
        den = c.den
        (dkey, unit), = den.items() if len(den) == 1 else ((den, 1),)
        num = c.num.items()
        groups = self._groups
        for key, q in terms:
            groups[key, dkey].add(q.numerator, unit * q.denominator, num)

    def sums(self) -> dict:
        """The nonzero sums by key."""
        ring = self.context.ring
        out = {}
        for (key, dkey), group in self._groups.items():
            acc = {m: a for m, a in group._sums.items() if a}
            if acc:
                f = _frac(self.context, ring.dtype(acc), ring.dtype([(dkey, group._den)])
                          if type(dkey) is tuple else dkey.mul_ground(group._den))
                if key not in out:
                    out[key] = f
                elif s := out[key] + f:     # only here can terms cancel
                    out[key] = s
                else:
                    del out[key]
        return out


def terms_repr(ctx: Context, names: Sequence[Sequence[str]], terms: Mapping) -> str:
    """(coefficient)*monomial(x)monomial... for every term, keys holding one
    exponent vector per slot over that slot's generator ``names``."""
    parts = []
    for k, c in sorted(terms.items()):
        monos = ("*".join(f"{g}^{x}" if x > 1 else g
                          for g, x in zip(gens, e) if x > 0) or "1"
                 for gens, e in zip(names, k))
        parts.append(f"({ctx(c).to_string()})*" + "(x)".join(monos))
    return " + ".join(parts) or "0"


class LinearCombination:
    """A sparse linear combination: ``terms`` maps keys to nonzero
    coefficients of one kind, FieldElements or rationals (ints or elements
    of QQ) as the subclass keeps them. Subclass constructors drop zero
    coefficients and nothing writes into ``terms`` afterwards. Subclasses
    give ``_like(terms)`` (an element of the same space) and may check
    operands in ``_check`` and factors of ``scale`` in ``_check_factor``;
    they inherit the protocol: equality by value, no hash,
    ``s * c == c.scale(s)``."""

    __slots__ = ()
    __hash__ = None

    def _check(self, other: "LinearCombination") -> None:
        pass

    def _check_factor(self, s) -> None:
        pass

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return self._like(out)

    def __sub__(self, other):
        # one pass: only the terms of other that self lacks are negated
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] - v if k in out else -v
        return self._like(out)

    def scale(self, s):
        """s times self, coefficient by coefficient."""
        self._check_factor(s)
        return self._like({k: s * v for k, v in self.terms.items()})

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self - other).is_zero()
