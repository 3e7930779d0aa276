"""Verma modules for sl(2) over Q(lam) and the intertwiner oracle.

The universal twist is characterized by how compositions of intertwiners
M -> M (x) V act on highest-weight expectation values. This module builds
that composition from first principles (truncated Verma module, solved
highest-weight systems) and compares it with the closed-form twist series,
giving a check that shares no code path with the series construction.
Vectors are plain dicts; every sum of them goes through one
:class:`~dynstar.scalars.FieldAccumulator`, with signs, binomials and
(-1)^n/n! as rational multipliers. The Verma module and the finite modules
form their h and x action tables once, at construction, and the oracle
checks the sl(2) relations on all three tables, entry by entry, before it
uses them; a solved intertwiner is checked depth by depth.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from sympy.polys.domains import QQ

from .scalars import LAM, Context, FieldAccumulator, FieldElement

Vec = dict[int, FieldElement]


class VermaError(ValueError):
    pass


def _signed_sum(ctx: Context, parts) -> dict:
    """The sum of q v over the (q, v) parts, with q rational and v a sparse
    vector; zero entries are dropped."""
    acc = FieldAccumulator(ctx)
    for q, v in parts:
        for k, c in v.items():
            acc.add(c, ((k, q),))
    return acc.sums()


class _HighestWeightModule:
    """sl(2) on a highest-weight module of weight ``hw`` with basis
    u_0..u_top, u_k = y^k u_0, through action tables formed once:
    h u_k = h[k] u_k with h[k] = hw - 2k, x u_k = x[k-1] u_{k-1} with
    x[k-1] = k(hw - k + 1), and y u_k = u_{k+1} with y u_top dropped. The
    relations hold exactly on u_0..u_{exact-1}."""

    def __init__(self, ctx: Context, hw: FieldElement | int, top: int,
                 exact: int):
        self.ctx = ctx
        self.top = top
        self.exact = exact
        self.h = tuple(ctx(hw - 2 * k) for k in range(top + 1))
        self.x = tuple(ctx(k * (hw - k + 1)) for k in range(1, top + 1))

    def act(self, gen: str, v: Vec) -> Vec:
        if gen == "h":
            out = {k: c * self.h[k] for k, c in v.items()}
        elif gen == "x":
            out = {k - 1: c * self.x[k - 1] for k, c in v.items() if k > 0}
        elif gen == "y":
            out = {k + 1: c for k, c in v.items() if k < self.top}
        else:
            raise VermaError(f"unknown generator {gen!r}")
        return {k: c for k, c in out.items() if not c.is_zero()}

    def check_relations(self) -> bool:
        """[h,x] = 2x, [h,y] = -2y, [x,y] = h on every u_k with k < exact,
        read off the tables: on u_k they leave x[k-1](h[k-1] - h[k] - 2),
        h[k+1] - h[k] + 2 (for k < top) and x[k] - x[k-1] - h[k], with
        entries past either end of a table equal to 0."""
        h, zero = self.h, self.ctx.zero()
        x = (zero, *self.x, zero)       # x[k-1] is x[k] here
        return not any((k and x[k] * (h[k - 1] - h[k] - 2))
                       or (k < self.top and h[k + 1] - h[k] + 2)
                       or x[k + 1] - x[k] - h[k] for k in range(self.exact))


class VermaData(_HighestWeightModule):
    """Truncated Verma module of highest weight lam: basis m_0..m_K with
    m_k = y^k applied to the highest-weight vector."""

    def __init__(self, ctx: Context, K: int):
        if K < 0:
            raise VermaError("depth cutoff must be >= 0")
        self.K = K
        self.lam = ctx.var(LAM)
        # y m_K is cut off, so the relations hold on m_0..m_{K-1}
        super().__init__(ctx, self.lam, K, K)


class FiniteModule(_HighestWeightModule):
    """The (m+1)-dimensional irreducible sl(2)-module of highest weight m,
    with basis v_0..v_m, v_j = y^j v_0."""

    def __init__(self, ctx: Context, m: int):
        if m < 0:
            raise VermaError("highest weight must be >= 0")
        self.m = m
        self.dim = m + 1
        # y v_m = 0 holds in the module, so the relations hold on every v_j
        super().__init__(ctx, m, m, m + 1)

    def weight(self, j: int) -> int:
        return self.m - 2 * j

    def resolvent(self, v: Vec, lam: FieldElement, shift: int) -> Vec:
        """(lam - (h + shift))^(-1) applied spectrally, weight by weight."""
        return {j: c / (lam - (self.weight(j) + shift)) for j, c in v.items()}


class Intertwiner:
    """A solved g-map M(lam) -> M(lam) (x) V recorded by its value on the
    highest-weight vector: sum_k m_k (x) component[k]."""

    def __init__(self, verma: VermaData, module: FiniteModule,
                 components: Mapping[int, Vec]):
        self.verma = verma
        self.module = module
        self.components: dict[int, Vec] = {}
        for k, v in components.items():
            if v := {j: c for j, c in v.items() if not c.is_zero()}:
                self.components[k] = v

    @property
    def expectation(self) -> Vec:
        return dict(self.components.get(0, {}))

    def is_highest_weight(self) -> bool:
        """x annihilates the image sum_k m_k (x) w_k of the highest-weight
        vector, and h acts on it by lam: at each depth k the m_k-components
        x_M[k] w_{k+1} + x w_k and (h_M[k] - lam) w_k + h w_k vanish."""
        verma, module, w = self.verma, self.module, self.components
        for k in set(w) | {k - 1 for k in w if k}:
            wk, hk = w.get(k, {}), verma.h[k] - verma.lam
            if _signed_sum(verma.ctx, (
                    (1, {j: verma.x[k] * c for j, c in w.get(k + 1, {}).items()}),
                    (1, module.act("x", wk)))) or _signed_sum(verma.ctx, (
                    (1, {j: hk * c for j, c in wk.items()}),
                    (1, module.act("h", wk)))):
                return False
        return True


def build_verma(ctx: Context, K: int) -> VermaData:
    v = VermaData(ctx, K)
    if not v.check_relations():
        raise VermaError("action tables violate the sl(2) relations")
    return v


def solve_intertwiner(verma: VermaData, module: FiniteModule,
                      v0: Vec) -> Intertwiner:
    """The unique g-map with expectation v0 in the zero-weight space.

    The highest-weight condition x (sum m_k (x) w_k) = 0 is triangular in
    the depth: (k+1)(lam - k) w_{k+1} = -x w_k, and w_k lies in the weight
    space 2k, so the recursion stops inside the module.
    """
    ctx = verma.ctx
    v0 = {j: ctx(c) for j, c in v0.items()}
    for j in v0:
        if module.weight(j) != 0:
            raise VermaError("expectation must lie in the zero-weight space")
    comps: dict[int, Vec] = {0: v0}
    k = 0
    cur = v0
    while cur:
        denom = ctx(k + 1) * (verma.lam - k)
        if denom.is_zero():
            raise VermaError("singular recursion step (non-generic weight)")
        s = -1 / denom
        cur = {j: s * c for j, c in module.act("x", cur).items()}
        k += 1
        if k > verma.K:
            raise VermaError("depth cutoff too small for this module")
        if cur:
            comps[k] = cur
    phi = Intertwiner(verma, module, comps)
    if not phi.is_highest_weight():
        raise VermaError("solved map fails the highest-weight check")
    return phi


def _pair_vec(a: Vec, b: Vec) -> dict[tuple[int, int], FieldElement]:
    return {(i, j): c1 * c2 for i, c1 in a.items() for j, c2 in b.items()}


def twist_action_on_pair(ctx: Context, V: FiniteModule, W: FiniteModule,
                         u_phi: Vec, u_psi: Vec,
                         term_scale: Optional[Mapping[int, object]] = None
                         ) -> dict[tuple[int, int], FieldElement]:
    """The closed-form twist evaluated in V (x) W at the deformation value 1:
    sum_n ((-1)^n/n!) (y^n u_phi) (x) (x^n R_{n-1} ... R_0 u_psi) with
    R_j = (lam - (h+j))^(-1) applied spectrally.

    ``term_scale`` multiplies individual terms (mutation controls).
    """
    lam = ctx.var(LAM)
    parts = []
    n = 0
    while True:
        left = dict(u_phi)
        for _ in range(n):
            left = V.act("y", left)
        # rightmost factor acts first: resolvents, then the raisings
        right = dict(u_psi)
        for j in range(n):
            right = W.resolvent(right, lam, j)
        for _ in range(n):
            right = W.act("x", right)
        if not left or not right:
            break
        if term_scale and n in term_scale:
            left = {i: ctx(term_scale[n]) * c for i, c in left.items()}
        parts.append((QQ((-1) ** n, math.factorial(n)), _pair_vec(left, right)))
        n += 1
    return _signed_sum(ctx, parts)


def compose_and_extract(ctx: Context, V: FiniteModule, W: FiniteModule,
                        v0: Vec, w0: Vec,
                        term_scale: Optional[Mapping[int, object]] = None) -> dict:
    """Oracle run: the leading coefficient of the composed intertwiner
    against the twist applied to the pair of expectation values.

    Composition side: psi: M -> M (x) W, then phi (x) id lands in
    M (x) V (x) W; the coefficient of the highest-weight vector in the first
    slot is read off. Twist side: the closed-form series acts in V (x) W.
    Returns the exact difference in Q(lam).
    """
    for M in (V, W):
        if not M.check_relations():
            raise VermaError(f"the action tables of V({M.m}) violate the "
                             "sl(2) relations")
    depth = V.dim + W.dim
    verma = build_verma(ctx, depth)
    phi = solve_intertwiner(verma, V, v0)
    psi = solve_intertwiner(verma, W, w0)

    parts = []
    for k, wk in psi.components.items():
        # phi(m_k) = Delta(y^k) phi(highest vector); the coefficient of the
        # highest vector keeps only the pure second-slot part of the
        # coproduct on the depth-0 layer: y^k on phi's expectation.
        vpart = phi.expectation
        for _ in range(k):
            vpart = V.act("y", vpart)
        parts.append((1, _pair_vec(vpart, wk)))
    composed = _signed_sum(ctx, parts)

    twisted = twist_action_on_pair(ctx, V, W, phi.expectation,
                                   psi.expectation, term_scale)
    diff = _signed_sum(ctx, ((1, composed), (-1, twisted)))
    return {
        "V": V.m, "W": W.m, "depth": depth,
        "composed": {str(k): v.to_string() for k, v in sorted(composed.items())},
        "twisted": {str(k): v.to_string() for k, v in sorted(twisted.items())},
        "difference_terms": {str(k): v.to_string() for k, v in sorted(diff.items())},
        "status": "match" if not diff else "mismatch",
    }
