"""Field references for the enveloping layer and the twist series.

The library multiplies enveloping elements over QQ only. The references
here redo its products, coproducts and slot maps term by term with field
arithmetic on every partial coefficient, so the tests call them on field
lifts (:func:`lifted`, :func:`field_scaled`) and check the QQ pipeline
against code that shares none of its accumulators. :func:`field_series`
builds a twist from field orders through the Laurent entry check, for the
mutation controls.
"""

import math
from fractions import Fraction

from dynstar import TensorUEA, TwistError, TwistSeries, UEAElement
from dynstar.enveloping import lean
from dynstar.twist import laurent_grades


def lifted(c):
    """The same element (UEAElement or TensorUEA) with its coefficients in
    the field."""
    ctx = c.algebra.ctx if isinstance(c, UEAElement) else c.ctx
    return c._like({k: ctx(v) for k, v in c.terms.items()})


def field_scaled(u, s):
    """u (a UEAElement or TensorUEA) with every coefficient multiplied by
    the field element s. The library's enveloping elements hold rationals
    and reject a field factor; the references build such elements here."""
    return u._like({k: s * v for k, v in u.terms.items()})


def reference_product(a, b):
    """The term map of a * b (two UEAElements or two TensorUEAs), term by
    term and slot by slot with field arithmetic on every partial
    coefficient."""
    tensor = isinstance(a, TensorUEA)
    slots = a.slots if tensor else (a.algebra,)
    ctx = slots[0].ctx
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            partial = [((), ctx(c1) * ctx(c2))]
            for alg, e1, e2 in zip(slots, *((k1, k2) if tensor
                                             else ((k1,), (k2,)))):
                nf = alg.multiply_monomials(e1, e2)
                partial = [(key + (e,),
                            cc * ctx(Fraction(q.numerator, q.denominator)))
                           for key, cc in partial for e, q in nf.items()]
            for key, cc in partial:
                key = key if tensor else key[0]
                out[key] = out.get(key, ctx.zero()) + cc
    return {k: v for k, v in out.items() if not v.is_zero()}


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
            out[nk] = out.get(nk, ctx.zero()) + ctx(v) * ctx(m)
    return TensorUEA(t.slots[:slot] + (alg, alg) + t.slots[slot + 1:], out)


def reference_map_slots(t, f):
    """A tensor with the element-wise map f applied in every slot, each
    term's slot images multiplied out with field arithmetic."""
    ctx = t.ctx
    slots = tuple(f(alg.one()).algebra for alg in t.slots)
    out = {}
    for k, c in t.terms.items():
        partial = [((), ctx(c))]
        for alg, e in zip(t.slots, k):
            partial = [(key + (e2,), cc * ctx(q)) for key, cc in partial
                       for e2, q in f(UEAElement(alg, {e: 1})).terms.items()]
        for key, cc in partial:
            out[key] = out.get(key, ctx.zero()) + cc
    return TensorUEA(slots, out)


def grades(t, n):
    """A tensor t of order n as {d: T_d} over QQ with t = sum_d lam^d T_d,
    every coefficient coerced into the field and through
    :func:`~dynstar.twist.laurent_grades`."""
    split = {}
    for k, c in t.terms.items():
        for d, q in laurent_grades(t.ctx(c), n).items():
            split.setdefault(d, {})[k] = lean(q)
    return {d: TensorUEA(t.slots, terms) for d, terms in split.items()}


def field_series(slots, orders):
    """The twist series with the given field orders, each through the
    entry check of :func:`grades`."""
    slots = tuple(slots)
    if not orders:
        raise TwistError("need at least the constant order")
    if any(t.slots != slots for t in orders):
        raise TwistError("order has wrong slot signature")
    return TwistSeries(slots, [grades(t, n) for n, t in enumerate(orders)])


def doubled_order(J, n):
    """J with its order n doubled. Term n = 1 of the projected closed form,
    -hbar/lam v_1, lies wholly at order 1, so doubling order 1 doubles that
    term."""
    return TwistSeries(J.slots, [{d: t.scale(2) for d, t in g.items()} if r == n
                                 else g for r, g in enumerate(J.grades)])
