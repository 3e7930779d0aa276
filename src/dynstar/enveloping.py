"""Poincare-Birkhoff-Witt normal forms for universal enveloping algebras.

Elements are stored as maps from exponent vectors (in a fixed generator
order) to rational coefficients, ints when integral; building or scaling an
element with any other coefficient raises. Multiplication straightens words
by recursive adjacent swaps against the bracket table, with memoized word
normal forms. The bracket table is read over QQ, as ``LieAlgebraData``
keeps it, and so is every normal form. Elements and tensors share one
product, :func:`_product`, which touches the coefficients once per pair of
terms and sums the rational expansions in the keyed-sum kernel of
``scalars``, :class:`~dynstar.scalars.RationalAccumulator`; a word's normal
form is summed there too. :func:`multiply_keys` multiplies out one
pair of tensor keys, so a series product can expand each key pair once.
Coproducts (an element's is the one-slot tensor coproduct) write binomial
splits with integer multiplicities. Field coefficients appear only in a
twist's field view (``TwistSeries.order``), which is read and printed
through the field but never multiplied.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Optional, Sequence

from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from .lie import LieAlgebraData
from .scalars import Context, LinearCombination, RationalAccumulator, terms_repr

Exp = tuple[int, ...]


class EnvelopingError(ValueError):
    pass


class DegreeCapError(EnvelopingError):
    """A word longer than the degree cap: a limit on the input, not a fault."""


def lean(q):
    """A rational as an int when it is integral (cheaper to multiply)."""
    return q.numerator if q.denominator == 1 else q


def _product(a: LinearCombination, b: LinearCombination,
             expand: Callable[[object, object], Iterable]) -> LinearCombination:
    """a * b for two elements of one space: sum c1 c2 expand(k1, k2) over
    the term pairs, where ``expand`` gives the product of two basis keys as
    (key, rational) pairs, summed in one :class:`RationalAccumulator`."""
    a._check(b)
    acc = RationalAccumulator()
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            c = c1 * c2
            acc.add(c.numerator, c.denominator, expand(k1, k2))
    return a._like(acc.sums())


def _binomial_splits(exp: Exp) -> list[tuple[Exp, Exp, int]]:
    """The coproduct of a PBW monomial with primitive generators: every
    (left, right, multiplicity) with left + right = exp, the multiplicity
    a product of binomial coefficients."""
    splits = [((), (), 1)]
    for e in exp:
        splits = [(l + (a,), r + (e - a,), m * math.comb(e, a))
                  for l, r, m in splits for a in range(e + 1)]
    return splits


class PBWAlgebra:
    """The enveloping algebra of a realized Lie algebra with a fixed
    generator order (a permutation of the algebra's basis)."""

    def __init__(self, lie: LieAlgebraData, order: Optional[Sequence[str]] = None,
                 degree_cap: int = 16):
        self.lie = lie
        self.ctx = lie.ctx
        self.order = tuple(order) if order is not None else lie.names
        if sorted(self.order) != sorted(lie.names):
            raise EnvelopingError("order must be a permutation of the basis")
        self.ngens = len(self.order)
        # generator index (in PBW order) -> underlying Lie basis index
        self._lie_index = tuple(lie.index[n] for n in self.order)
        self.degree_cap = degree_cap
        # normal forms over QQ, of words and of monomial pairs
        self._word_memo: dict[tuple[int, ...], dict[Exp, object]] = {}
        self._mul_memo: dict[tuple[Exp, Exp], dict[Exp, object]] = {}
        # bracket in PBW-order indices
        back = {li: gi for gi, li in enumerate(self._lie_index)}
        self._bracket: dict[tuple[int, int], dict[int, object]] = {}
        for p in range(self.ngens):
            for q in range(self.ngens):
                row = lie.bracket(self._lie_index[p], self._lie_index[q])
                self._bracket[(p, q)] = {back[k]: c for k, c in row.items()}

    # -- element constructors ---------------------------------------------

    def zero(self) -> "UEAElement":
        return UEAElement(self, {})

    def one(self) -> "UEAElement":
        return UEAElement(self, {(0,) * self.ngens: 1})

    def gen(self, name: str) -> "UEAElement":
        i = self.order.index(name)
        e = [0] * self.ngens
        e[i] = 1
        return UEAElement(self, {tuple(e): 1})

    # -- straightening -----------------------------------------------------

    def _exp_to_word(self, exp: Exp) -> tuple[int, ...]:
        w: list[int] = []
        for i, e in enumerate(exp):
            w.extend([i] * e)
        return tuple(w)

    def word_normal_form(self, word: tuple[int, ...]) -> dict[Exp, object]:
        """The PBW normal form of a word of generator indices: rational
        coefficients (ints when integral), none of them zero."""
        if len(word) > self.degree_cap:
            raise DegreeCapError(
                f"word length {len(word)} exceeds degree cap {self.degree_cap}")
        memo = self._word_memo
        if word in memo:
            return memo[word]
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                p, q = word[i], word[i + 1]
                acc = RationalAccumulator()
                swapped = word[:i] + (q, p) + word[i + 2:]
                acc.add(1, 1, self.word_normal_form(swapped).items())
                for k, c in self._bracket[(p, q)].items():
                    sub = word[:i] + (k,) + word[i + 2:]
                    acc.add(c.numerator, c.denominator, self.word_normal_form(sub).items())
                return memo.setdefault(word, acc.sums())
        exp = tuple(word.count(g) for g in range(self.ngens))
        res = {exp: 1}
        memo[word] = res
        return res

    def multiply_monomials(self, e1: Exp, e2: Exp) -> dict[Exp, object]:
        """The normal form of the product of two PBW monomials, over QQ."""
        key = (e1, e2)
        nf = self._mul_memo.get(key)
        if nf is None:
            nf = self._mul_memo[key] = self.word_normal_form(
                self._exp_to_word(e1) + self._exp_to_word(e2))
        return nf


class UEAElement(LinearCombination):
    """An enveloping-algebra element in PBW normal form over QQ."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: PBWAlgebra, terms: Mapping[Exp, object]):
        self.algebra = algebra
        self.terms = {k: v for k, v in terms.items() if v}
        for v in self.terms.values():
            self._check_factor(v)

    def _like(self, terms) -> "UEAElement":
        # sums and products of checked elements hold rationals: no check
        out = UEAElement.__new__(UEAElement)
        out.algebra, out.terms = self.algebra, {k: v for k, v in terms.items() if v}
        return out

    def _check_factor(self, s) -> None:
        if not isinstance(s, (int, QQ.dtype)):
            raise EnvelopingError(f"coefficient {s!r} is not in QQ")

    def _check(self, other: "UEAElement") -> None:
        if other.algebra is not self.algebra:
            raise EnvelopingError("elements from different algebras/orders")

    def __mul__(self, other) -> "UEAElement":
        if not isinstance(other, UEAElement):
            return self.scale(other)
        alg = self.algebra
        return _product(self, other,
                        lambda e1, e2: alg.multiply_monomials(e1, e2).items())

    def __pow__(self, n: int) -> "UEAElement":
        if n < 0:
            raise EnvelopingError("negative powers are not defined")
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def coproduct(self) -> "TensorUEA":
        """Standard coproduct: generators primitive, extended
        multiplicatively; the one-slot :meth:`TensorUEA.slot_coproduct`."""
        return TensorUEA((self.algebra,), {
            (e,): c for e, c in self.terms.items()}).slot_coproduct(0)

    def __repr__(self) -> str:
        return terms_repr(self.algebra.ctx, (self.algebra.order,),
                          {(k,): v for k, v in self.terms.items()})


def change_generators(u: UEAElement, target: PBWAlgebra,
                      expansion: Mapping[str, Mapping[str, object]]) -> UEAElement:
    """Rewrite u in a new generator order/basis.

    ``expansion`` maps each old generator name to its linear expansion in the
    target generators, every entry an int or an element of QQ. The change
    matrix must be invertible; the result is the image under the induced
    algebra isomorphism, each monomial's image multiplied out over QQ and
    then scaled by its coefficient.
    """
    old = u.algebra
    rows = [[expansion[name].get(g, 0) for g in target.order] for name in old.order]
    for name, row in zip(old.order, rows):
        for g, q in zip(target.order, row):
            if not isinstance(q, (int, QQ.dtype)):
                raise EnvelopingError(
                    f"change-of-basis entry {q!r} of {name} at {g} is not in QQ")
    rows = [[QQ(q) for q in row] for row in rows]
    if len(rows) != len(target.order) or \
            not DomainMatrix(rows, (len(rows), len(rows)), QQ).det():
        raise EnvelopingError("singular change-of-basis matrix")
    images = {name: UEAElement(target, {
        tuple(1 if i == j else 0 for i in range(target.ngens)): lean(q)
        for j, q in enumerate(row) if q}) for name, row in zip(old.order, rows)}
    out = target.zero()
    for exp, c in u.terms.items():
        acc = target.one()
        for i, e in enumerate(exp):
            for _ in range(e):
                acc = acc * images[old.order[i]]
        out = out + acc.scale(c)
    return out


def project_drop_right(u: UEAElement, ideal_gens: Sequence[str]) -> UEAElement:
    """Projection onto the span of monomials free of ``ideal_gens``, along
    the left ideal they generate. Requires those generators to occupy the
    rightmost positions of the PBW order."""
    alg = u.algebra
    k = len(ideal_gens)
    if tuple(alg.order[-k:]) != tuple(ideal_gens):
        raise EnvelopingError(
            f"ideal generators {ideal_gens} must be rightmost in {alg.order}")
    cut = alg.ngens - k
    return UEAElement(alg, {e: c for e, c in u.terms.items()
                            if all(x == 0 for x in e[cut:])})


def multiply_keys(slots: Sequence[PBWAlgebra], k1: tuple, k2: tuple) -> list:
    """The slot-wise product of two tensor keys as (key, rational) pairs:
    the slot normal forms multiplied out over QQ."""
    partial = [((), 1)]
    for alg, e1, e2 in zip(slots, k1, k2):
        nf = alg.multiply_monomials(e1, e2).items()
        partial = [(key + (e,), q * r) for key, q in partial for e, r in nf]
    return partial


class TensorUEA(LinearCombination):
    """A tensor power of enveloping algebras: maps from tuples of exponent
    vectors (one per slot) to rational coefficients (field ones only in a
    twist's field view)."""

    __slots__ = ("slots", "terms")

    def __init__(self, slots: Sequence[PBWAlgebra],
                 terms: Mapping[tuple, object]):
        self.slots = tuple(slots)
        self.terms = {k: v for k, v in terms.items() if v}

    @property
    def ctx(self) -> Context:
        return self.slots[0].ctx

    @classmethod
    def unit(cls, slots: Sequence[PBWAlgebra]) -> "TensorUEA":
        """1 (x) ... (x) 1 over QQ."""
        return cls(slots, {tuple((0,) * a.ngens for a in slots): 1})

    def _like(self, terms) -> "TensorUEA":
        return TensorUEA(self.slots, terms)

    def _check(self, other: "TensorUEA") -> None:
        if self.slots != other.slots:
            raise EnvelopingError("tensor slot mismatch")

    def __mul__(self, other) -> "TensorUEA":
        """Slot-wise product."""
        if not isinstance(other, TensorUEA):
            return self.scale(other)
        slots = self.slots
        return _product(self, other, lambda k1, k2: multiply_keys(slots, k1, k2))

    def slot_counit(self, slot: int) -> "TensorUEA | object":
        """Apply the counit in one slot (drop it). The kept keys all hold
        the unit monomial in that slot, so dropping it merges no keys."""
        zero_exp = (0,) * self.slots[slot].ngens
        out = {k[:slot] + k[slot + 1:]: v for k, v in self.terms.items()
               if k[slot] == zero_exp}
        if len(self.slots) == 1:
            return out.get((), 0)
        return TensorUEA(self.slots[:slot] + self.slots[slot + 1:], out)

    def slot_coproduct(self, slot: int) -> "TensorUEA":
        """Apply the coproduct in one slot (split it into two). The splits
        of each distinct slot monomial are computed once per call. A split
        key gives back its term's key (the two halves add up to the slot
        exponent), so every split is written straight into the result as
        the coefficient times its integer multiplicity."""
        alg = self.slots[slot]
        splits: dict[Exp, list] = {}
        out = {}
        for k, v in self.terms.items():
            e = k[slot]
            if e not in splits:
                splits[e] = _binomial_splits(e)
            head, tail = k[:slot], k[slot + 1:]
            for l, r, m in splits[e]:
                out[head + (l, r) + tail] = lean(v * m)
        return TensorUEA(self.slots[:slot] + (alg, alg) + self.slots[slot + 1:], out)

    def insert_unit(self, position: int) -> "TensorUEA":
        """Insert a unit slot of the first slot's algebra at the given
        position."""
        alg = self.slots[0]
        zero_exp = (0,) * alg.ngens
        new_slots = self.slots[:position] + (alg,) + self.slots[position:]
        return TensorUEA(new_slots, {
            k[:position] + (zero_exp,) + k[position:]: v
            for k, v in self.terms.items()
        })

    def map_slots(self, f) -> "TensorUEA":
        """Apply an element-wise map (UEAElement -> UEAElement, possibly into
        another algebra) independently in every slot: each term's slot images
        multiplied out over QQ and summed like a product's expansions."""
        slots = tuple(f(alg.one()).algebra for alg in self.slots)
        acc = RationalAccumulator()
        for k, v in self.terms.items():
            partial = [((), 1)]
            for alg, e in zip(self.slots, k):
                image = f(UEAElement(alg, {e: 1})).terms.items()
                partial = [(key + (e2,), q * r) for key, q in partial for e2, r in image]
            acc.add(v.numerator, v.denominator, partial)
        return TensorUEA(slots, acc.sums())

    def to_json(self) -> list[dict]:
        return [
            {"slots": [list(e) for e in k], "coeff": self.ctx(v).to_string()}
            for k, v in sorted(self.terms.items())
        ]

    def __repr__(self) -> str:
        return terms_repr(self.ctx, [a.order for a in self.slots], self.terms)
