"""
Classifying coefficient families on a rank-2 root system
========================================================

A walk through the classification pipeline: pick a root system, a Levi
subset of simple roots and a reductive subset U, build the unique
coefficient family attached to that data, and verify every defining
condition with exact rational arithmetic. At the end we recover the
defining data back from the coefficients alone and build the associated
Lagrangian subalgebra of g x g.
"""

from dynstar import (Context, build_coefficients, build_lagrangian,
                     build_root_system, check_coefficient_conditions,
                     check_in_M_Omega, chevalley_constants,
                     coefficients_to_tensor, make_spec, realize_lie_algebra,
                     recover_classification)

# %%
# The base field is Q(lam, hbar, t1, t2): every coefficient below is an
# exact rational function, never a float.
ctx = Context(["lam", "hbar", "t1", "t2"])

rs = build_root_system("A", 2)
print(f"A2 has {len(rs.roots)} roots; simple system {rs.simple}")

# %%
# Fixture: Levi subset {alpha1}, reductive subset U = {+-alpha1}. On U the
# parameters are forced to 1, so the family is entirely numeric.
spec = make_spec(rs, ctx, delta=[(1, 0)], U=[(1, 0), (-1, 0)])
fam = build_coefficients(spec)
for a in sorted(rs.roots):
    print(f"  x_{a} = {fam[a].to_string()}")

report = check_coefficient_conditions(fam)
print("conditions all hold:", report["all_ok"])

# %%
# The same data in tensor form. check_in_M_Omega is an independent oracle:
# it re-derives quasi-unitarity, u-invariance and the quotient Yang-Baxter
# equation directly from the structure constants.
g = realize_lie_algebra(chevalley_constants(rs), ctx, U=spec.U)
b = coefficients_to_tensor(fam, g)
print("tensor lies in M_Omega:", check_in_M_Omega(b))

# %%
# The converse direction: from the bare coefficients, enumerate every
# (simple system, Levi subset, parameter) witness that reproduces them.
witnesses = recover_classification(fam, ctx)
print(f"recovered {len(witnesses)} witness(es); Levi subsets:",
      [w["delta"] for w in witnesses])

# %%
# Finally the geometric face of the same family: a Lagrangian subalgebra
# of g x g of dimension dim g whose diagonal intersection is exactly u.
lag, rep = build_lagrangian(spec, g)
print(f"Lagrangian: dim {rep['dim']} (= dim g: {rep['dim_g']}), "
      f"isotropic {rep['isotropic']}, closed {rep['bracket_closed']}, "
      f"diagonal intersection dim {rep['diag_intersection_dim']}")
