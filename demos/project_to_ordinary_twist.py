"""
Collapsing the dynamical twist to an ordinary one
=================================================

When sl(2) splits as the Cartan line plus a complementary two-dimensional
subalgebra v = span{b, a}, rewriting the dynamical twist in the adapted
basis and discarding every monomial that touches the Cartan generator
yields an ordinary (non-dynamical) twist for Uv. The lowering powers y^n
project to rising factorials b(b+1)...(b+n-1), which gives the projected
series in closed form; this demo verifies both routes against each other
and checks the ordinary twist axioms order by order.
"""

from dynstar import (Context, PBWAlgebra, abrr_twist, check_nondynamical_twist,
                     closed_form_jv, project_drop_right, project_twist,
                     rising_factorial, sl2, split_basis_sl2)

ctx = Context(["lam", "hbar"])
spl = split_basis_sl2(ctx)

# %%
# The adapted basis: b = y + h/2, a = x - h/2, c = -h/2, with v = span{b, a}
# a nonabelian subalgebra and c spanning the Cartan line.
print("splitting self-check:", spl.check())

# %%
# The combinatorial heart: projecting y^n = (b + c)^n along trailing-c
# monomials gives exactly the rising factorial in b, because
# c b^n = b ((b+1)^n - b^n) + (b+1)^n c moves every c to the right.
P = spl.pbw
b, c = P.gen("b"), P.gen("c")
for n in range(5):
    brute = project_drop_right((b + c) ** n, ("c",))
    print(f"  n = {n}: brute force equals b(b+1)...(b+n-1):",
          (brute - rising_factorial(P, "b", n)).is_zero())
b1 = b + P.one()
print("c b^n straightening identity, n <= 6:",
      all((c * b ** n - b * (b1 ** n - b ** n) - b1 ** n * c).is_zero()
          for n in range(7)))

# %%
# Project the order-4 dynamical twist slotwise and compare with the closed
# form; then run the ordinary cocycle and counit axioms on the result.
U = PBWAlgebra(sl2(ctx), order=("y", "h", "x"))
J = abrr_twist(U, 4)
Jv = project_twist(J, spl)
cf = closed_form_jv(spl, 4)
print("projection matches closed form:",
      not Jv.series.differing_orders(cf.series))

axioms = check_nondynamical_twist(Jv)
print(f"ordinary twist axioms through order {axioms['checked_through']}:",
      axioms["ok"])

# %%
# The second splitting variant exercises the same machinery on a different
# complementary subalgebra.
spl2 = split_basis_sl2(ctx, "chevalley")
Jv2 = project_twist(J, spl2)
print("chevalley variant passes too:",
      check_nondynamical_twist(Jv2)["ok"])
