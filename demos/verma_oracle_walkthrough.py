"""
Checking the twist against intertwiner compositions
===================================================

An independent oracle for the closed-form twist: compose two solved
highest-weight maps M -> M (x) V and read the leading coefficient of the
composition. The twist evaluated on the pair of expectation values must
reproduce it exactly in Q(lam). Nothing here touches the series
construction, so a match is meaningful evidence rather than a tautology.
"""

import sympy as sp

from dynstar import (Context, FiniteModule, build_verma, compose_and_extract,
                     solve_intertwiner)

ctx = Context(["lam"])


def pole_locations(phi):
    """Integer roots of all component denominators; the closed-form series
    predicts poles only at nonnegative integer shifts of lam."""
    lam = ctx.symbol("lam")
    return {int(r) for comp in phi.components.values() for c in comp.values()
            for r in sp.roots(sp.Poly(sp.factor(sp.fraction(c.expr)[1]), lam), filter="Z")}


# %%
# A truncated Verma module with highest weight lam and the 3-dimensional
# (adjoint) module. The intertwiner with a given zero-weight expectation
# value is solved from a triangular recursion.
verma = build_verma(ctx, 8)
# The Casimir c = xy + yx + h^2/2 acts on m_k by x[k] + x[k-1] + h[k]^2/2,
# read off the action tables: one value on every m_k of the truncation.
x = (ctx.zero(), *verma.x)      # x[k-1] is x[k] here
print("Casimir acts by", *{(x[k + 1] + x[k] + verma.h[k] ** 2 / 2).to_string()
                           for k in range(verma.K)})

V = FiniteModule(ctx, 2)
phi = solve_intertwiner(verma, V, {1: 1})
for k, comp in sorted(phi.components.items()):
    pretty = {j: c.to_string() for j, c in comp.items()}
    print(f"  depth {k}: {pretty}")
print("highest-weight property:", phi.is_highest_weight())
print("denominator poles at lam in", sorted(pole_locations(phi)))

# %%
# The oracle run on the adjoint pair and on a mixed pair with the
# 5-dimensional module. "match" means the exact difference is zero.
for mw in (2, 4):
    W = FiniteModule(ctx, mw)
    rep = compose_and_extract(ctx, V, W, {1: 1}, {mw // 2: 1})
    print(f"(V2, V{mw}): {rep['status']}; composed coefficients "
          f"{rep['composed']}")

# %%
# Sensitivity control: doubling the first twist term must break the match,
# otherwise the comparison would be vacuous.
mutated = compose_and_extract(ctx, V, V, {1: 1}, {1: 1}, term_scale={1: 2})
print("mutated control:", mutated["status"])
print("residual terms:", mutated["difference_terms"])
