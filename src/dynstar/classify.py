"""Classification machinery for quasi-unitary solutions of the classical
dynamical Yang-Baxter equation on reductive quotients of classical Lie
algebras.

Coefficient families x_alpha are built from (Pi, Delta, U, t-parameters),
with the hyperbolic cotangent encoded rationally: the parameter t_alpha
stands for exp(2 alpha(h)), so x_alpha = (t_alpha + 1) / (2 (t_alpha - 1))
on the Levi part. Every verification below is an exact rational identity,
checked once and on its support: each symmetric condition once per root
set, CYB mod u formed only on m (x) m (x) m, and the Lagrangian subalgebra
on basis indices, each basis vector one index of g with a coefficient per
slot: isotropy where the form pairs two indices, closure entry by entry
of the QQ bracket rows.
Root systems, tables, coordinate maps and U-free realizations are shared
per process; each spec, its t table, its u and every check are per verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from sympy.polys.domains import QQ

from . import rootsystems as rsys
from .rootsystems import Root, RootSystem, _add, _neg, _sub
from .lie import (
    LieAlgebraData, Tensor2, build_casimir_tensor, check_invariance, cyb,
)
from .scalars import Context, FieldElement


class SpecError(ValueError):
    pass


class QuasiUnitarityError(ValueError):
    """The candidate tensor is not of the form Omega/2 + antisymmetric."""


@dataclass
class DynrSpec:
    """Classification data: a simple system, a Levi subset Delta, a reductive
    U inside the Levi root set N, and the exponential Cartan parameters."""

    system: RootSystem
    simple: tuple[Root, ...]
    positive: frozenset[Root]
    delta: tuple[Root, ...]
    U: frozenset[Root]
    t: dict[Root, FieldElement]        # per delta in Delta
    ctx: Context
    # every root's coordinates in ``simple`` (shared, read-only)
    coords: Mapping[Root, Root] = field(init=False, repr=False)
    # t_alpha for every root alpha of N, filled once from the simple t's
    t_table: dict[Root, FieldElement] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rs = self.system
        for d in self.delta:
            if d not in self.simple:
                raise SpecError(f"{d} not in the chosen simple system")
        self.coords = rsys.coordinates(self.simple, rs.roots)
        if not rsys.check_reductive_subset(rs, self.U):
            raise SpecError("U is not reductive")
        N = self.levi_roots()
        if not self.U <= N:
            raise SpecError("U not contained in the Levi set N")
        one = self.ctx.one()
        for d in self.delta:
            td = self.t.get(d)
            if td is None:
                raise SpecError(f"missing t-parameter for {d}")
            if d in self.U and not (td - one).is_zero():
                raise SpecError(f"t must be 1 on U (violated at {d})")
            if td.is_zero():
                # t_d stands for exp(2 d(h)), so t_{-d} = 1/t_d must exist
                raise SpecError(f"t-parameter is zero at {d}")
        # t_alpha multiplicative over N: up the positive roots of N by
        # height, t_a = t_{a-d} t_d for a root a - d, and t_{-a} = 1/t_a
        pos = sorted((a for a in N if min(self.coords[a]) >= 0),
                     key=lambda a: sum(self.coords[a]))
        table = self.t_table = {}
        for a in pos:
            if a in self.delta:
                table[a] = self.t[a]
            else:
                d = next(d for d in self.delta if _sub(a, d) in table)
                table[a] = table[_sub(a, d)] * self.t[d]
            table[_neg(a)] = table[a] ** -1
        # t_{-a} = 1/t_a and U = -U: the positive roots decide both signs
        for a in pos:
            ta = table[a]
            if a in self.U:
                if not (ta - one).is_zero():
                    raise SpecError(f"t_alpha must be 1 on U (violated at {a})")
            elif (ta - one).is_zero():
                raise SpecError(f"t_alpha = 1 at {a} outside U (coth pole)")

    def levi_roots(self) -> frozenset[Root]:
        """N = (span Delta) cap R, computed in the chosen simple system."""
        return _levi_of(self.coords, self.simple, self.delta)

    def t_of(self, a: Root) -> FieldElement:
        """t_alpha from the table over N; SpecError for a root outside N."""
        ta = self.t_table.get(tuple(a))
        if ta is None:
            raise SpecError(f"{a} is not a root of the Levi set N")
        return ta


def make_spec(
    rs: RootSystem,
    ctx: Context,
    delta: Sequence[Root],
    U: Iterable[Root],
    t: Optional[Mapping[Root, object]] = None,
) -> DynrSpec:
    """Convenience constructor in the standard simple system.

    Missing t-parameters default to 1 on U and to the context symbols
    t1, t2, ... (by simple-root index) elsewhere. A t-parameter for a root
    outside Delta raises SpecError.
    """
    delta = tuple(tuple(d) for d in delta)
    Uset = frozenset(tuple(a) for a in U)
    t = t or {}
    for r in t:
        if r not in delta:
            raise SpecError(f"t-parameter given for {r}, which is not in Delta")
    tmap: dict[Root, FieldElement] = {}
    for d in delta:
        if d not in rs.simple:
            raise SpecError(f"{d} not in the standard simple system")
        if d in t:
            tmap[d] = ctx(t[d])
        elif d in Uset:
            tmap[d] = ctx.one()
        else:
            tmap[d] = ctx.var(f"t{rs.simple.index(d) + 1}")
    return DynrSpec(rs, rs.simple, rs.positive, delta, Uset, tmap, ctx)


@dataclass
class CoefficientFamily:
    system: RootSystem
    U: frozenset[Root]
    x: dict[Root, FieldElement]

    def __getitem__(self, a: Root) -> FieldElement:
        return self.x[tuple(a)]


def build_coefficients(spec: DynrSpec) -> CoefficientFamily:
    """x_alpha = 0 on U, (1/2)(t+1)/(t-1) on the Levi part outside U,
    +-1/2 outside the Levi set."""
    ctx = spec.ctx
    half = ctx(QQ(1, 2))
    N = spec.levi_roots()
    x: dict[Root, FieldElement] = {}
    for a in spec.system.roots:
        if a in spec.U:
            x[a] = ctx.zero()
        elif a in N:
            t = spec.t_of(a)
            if (t - 1).is_zero():
                raise SpecError(f"coth pole: t_alpha = 1 at {a}")
            x[a] = half * (t + 1) / (t - 1)
        elif a in spec.positive:
            x[a] = half
        else:
            x[a] = -half
    return CoefficientFamily(spec.system, spec.U, x)


def _first_violation(bad: Iterable) -> dict:
    first = next(iter(bad), None)
    return {"ok": first is None, "witness": [] if first is None else [first]}


def check_coefficient_conditions(fam: CoefficientFamily) -> dict:
    """Exact verification of the four coefficient conditions; reports the
    first violating root/triple per condition.

    The pair and triple conditions are symmetric, and 2 alpha is never a
    root, so each root set is checked once, as a < b (< c): the first one
    that fails is the first failing ordered pair of the full scan."""
    rs = fam.system
    Uset = fam.U
    restset = rs.rootset - Uset
    rest = sorted(restset)
    pairs = [(a, b, _neg(_add(a, b)))
             for i, a in enumerate(rest) for b in rest[i + 1:]]
    report = {}
    report["vanishes_on_u"] = _first_violation(
        a for a in sorted(Uset) if not fam[a].is_zero())
    # once per pair {a, -a}, at the member first in the sorted rs.roots
    report["odd"] = _first_violation(
        a for a in rs.roots
        if a < _neg(a) and not (fam[_neg(a)] + fam[a]).is_zero())
    report["pair_sum_on_u"] = _first_violation(
        (a, b, c) for a, b, c in pairs
        if c in Uset and not (fam[a] + fam[b]).is_zero())
    report["triple_product"] = _first_violation(
        (a, b, c) for a, b, c in pairs if c > b and c in restset and not (
            fam[a] * fam[b] + fam[b] * fam[c] + fam[c] * fam[a] + QQ(1, 4)
        ).is_zero())

    report["all_ok"] = all(report[k]["ok"] for k in
                           ("vanishes_on_u", "odd", "pair_sum_on_u",
                            "triple_product"))
    return report


def check_shift_form(fam: CoefficientFamily) -> bool:
    """The equivalent form of the pair condition: x_{alpha+beta} = x_alpha
    whenever alpha lies outside U, beta in U and alpha+beta is a root."""
    rs = fam.system
    for a in rs.rootset - fam.U:
        for b in fam.U:
            s = _add(a, b)
            if s in rs.rootset and not (fam[s] - fam[a]).is_zero():
                return False
    return True


def coefficients_to_tensor(fam: CoefficientFamily, g: LieAlgebraData) -> Tensor2:
    """r = sum x_alpha E_alpha (x) E_{-alpha} + Omega/2 in the realized
    algebra; satisfies r + r^21 = Omega by construction."""
    return build_casimir_tensor(g).scale(QQ(1, 2)) + Tensor2(g, {
        (g.root_index[a], g.root_index[_neg(a)]): xa for a, xa in fam.x.items()})


def check_in_M_Omega(b: Tensor2, g: Optional[LieAlgebraData] = None) -> bool:
    """Tensor-level membership test: b = Omega/2 + B with B antisymmetric,
    supported on m (x) m and u-invariant, and CYB(b) = 0 in the quotient.

    Raises QuasiUnitarityError if b + b^21 != Omega (distinct from a False
    verdict)."""
    g = g or b.algebra
    omega = build_casimir_tensor(g)
    if not (b + b.transpose() - omega).is_zero():
        raise QuasiUnitarityError("b + b^21 != Omega")
    B = b - omega.scale(QQ(1, 2))
    if not B.is_antisymmetric():
        return False
    mset = set(g.m_indices)
    if any(not (i in mset and j in mset) for (i, j) in B.support()):
        return False
    if not check_invariance(B, g.u_indices):
        return False
    return cyb(b, within=mset).is_zero()


def recover_classification(fam: CoefficientFamily, ctx: Context) -> list[dict]:
    """Recover all (Pi, Delta, t) witnesses generating the family.

    P = {alpha : x_alpha != -1/2} must be parabolic. A positive system R+
    inside P gives P = R+ cup N with N = P cap -P and Delta its simple roots
    in N (Bourbaki, Lie Groups and Lie Algebras, VI.1.7, Prop. 20): one
    candidate per R+, decided by the rebuilt family. t = 1 + 2/(2x - 1)
    shares no factor with den(x); (2x + 1)/(2x - 1) keeps one uncancelled.
    """
    rs = fam.system
    P = frozenset(a for a in rs.roots if not (fam[a] + QQ(1, 2)).is_zero())
    if not rsys.check_parabolic(rs, P):
        raise SpecError("P = {x_alpha != -1/2} is not parabolic; family invalid")
    N = P & {_neg(a) for a in P}
    witnesses = []
    for pos in rsys.positive_systems(rs) if fam.U <= N else ():
        if not pos <= P:
            continue
        simple = rsys.simple_roots_of(rs, pos)
        delta = tuple(s for s in simple if s in N)
        if any(d not in fam.U and (2 * fam[d] - 1).is_zero() for d in delta):
            continue
        t = {d: ctx.one() if d in fam.U else 1 + 2 / (2 * fam[d] - 1)
             for d in delta}
        spec = DynrSpec(rs, simple, pos, delta, fam.U, t, ctx)
        rebuilt = build_coefficients(spec)
        if all((rebuilt[a] - fam[a]).is_zero() for a in rs.roots):
            witnesses.append({"simple": simple, "delta": delta, "t": t,
                              "spec": spec})
    if not witnesses:
        raise SpecError("no witness found (family invalid)")
    return witnesses


def _levi_of(coords: Mapping[Root, Root], simple: Sequence[Root],
             delta: Sequence[Root]) -> frozenset[Root]:
    """The roots whose coordinates in ``simple`` vanish outside ``delta``;
    ``coords`` maps each root to its coordinates in ``simple``."""
    outside = [i for i, s in enumerate(simple) if s not in delta]
    return frozenset(r for r, c in coords.items()
                     if all(c[i] == 0 for i in outside))


# ---------------------------------------------------------------------------
# the Lagrangian subalgebra of g x g
# ---------------------------------------------------------------------------

@dataclass
class LagrangianData:
    """l = {(x, y) in p_- x p_+ : theta(x_n) = y_n} in g x g, n = h + the
    root spaces of N. Each basis vector (a e_i, b e_i) sits at one basis
    index i of g in both slots and is kept as the triple (i, a, b):
    (i, 1, theta_i) on n, (i, 1, 0) at E_{-gamma} and (i, 0, 1) at E_gamma,
    gamma in R+ \\ N."""

    algebra: LieAlgebraData
    basis: list[tuple[int, FieldElement, FieldElement]]
    theta: dict[int, FieldElement]    # eigenvalue of theta on each n-basis index
    minus_free: tuple[int, ...]       # E_{-gamma}, gamma in R+ \ N
    plus_free: tuple[int, ...]        # E_{gamma}, gamma in R+ \ N

    def is_isotropic(self) -> bool:
        """<(x, y), (x', y')> = <x, x'> - <y, y'> vanishes on every basis
        pair; on (i, a, b), (j, c, d) it is <e_i, e_j>(ac - bd), read only
        where the form pairs i with j."""
        form = self.algebra.form
        return all(_times(a, c) == _times(b, d)
                   for k, (i, a, b) in enumerate(self.basis)
                   for j, c, d in self.basis[k:] if form[i][j])

    def is_bracket_closed(self) -> bool:
        """The bracket of (i, a, b) and (j, c, d) is (ac r, bd r) for the QQ
        row r = [e_i, e_j]. It lies in l when, at each index s of r,
        theta_s ac = bd if s is in n, and otherwise ac = 0 unless s is in
        minus_free and bd = 0 unless s is in plus_free."""
        g, theta = self.algebra, self.theta
        for k, (i, a, b) in enumerate(self.basis):
            for j, c, d in self.basis[k + 1:]:
                if not (row := g.bracket(i, j)):
                    continue
                ac, bd = _times(a, c), _times(b, d)
                for s in row:
                    if s in theta:
                        if _times(theta[s], ac) != bd:
                            return False
                    elif ((ac and s not in self.minus_free)
                          or (bd and s not in self.plus_free)):
                        return False
        return True


def _times(x: FieldElement, y: FieldElement) -> FieldElement:
    """x y; a zero factor is returned as it is, with no field operation."""
    return x and y and x * y


def build_lagrangian(spec: DynrSpec, g: LieAlgebraData) -> tuple[LagrangianData, dict]:
    """Basis and verification report for the Lagrangian subalgebra of g x g
    attached to the classification data."""
    one, zero = spec.ctx.one(), spec.ctx.zero()
    N = spec.levi_roots()
    theta = {i: one for i in g.cartan_indices} | {
        g.root_index[a]: spec.t_of(a) for a in sorted(N)}
    y_pos = sorted(spec.positive - N)
    minus_free = tuple(g.root_index[_neg(a)] for a in y_pos)
    plus_free = tuple(g.root_index[a] for a in y_pos)
    basis = ([(i, one, th) for i, th in theta.items()]
             + [(i, one, zero) for i in minus_free]
             + [(i, zero, one) for i in plus_free])
    lag = LagrangianData(g, basis, theta, minus_free, plus_free)

    # intersection with the diagonal: fixed vectors of theta inside n
    fixed = sum(1 for th in theta.values() if (th - one).is_zero())
    dim_u = len(g.cartan_indices) + len(spec.U)
    report = {"dim": len(basis), "dim_g": g.dim, "dim_ok": len(basis) == g.dim,
              "isotropic": lag.is_isotropic(),
              "bracket_closed": lag.is_bracket_closed(),
              "diag_intersection_dim": fixed, "dim_u": dim_u,
              "diag_is_u": fixed == dim_u}
    report["all_ok"] = all(report[k] for k in (
        "dim_ok", "isotropic", "bracket_closed", "diag_is_u"))
    return lag, report
