import copy
import dataclasses
import functools
import itertools

import pytest
import sympy as sp
from sympy.polys.domains import QQ

from dynstar import (CoefficientFamily, Context, DynrSpec,
                     QuasiUnitarityError, SpecError, build_casimir_tensor, build_coefficients,
                     build_lagrangian, build_root_system,
                     check_coefficient_conditions, check_in_M_Omega,
                     check_shift_form, chevalley_constants,
                     coefficients_to_tensor, make_spec, positive_systems,
                     realize_lie_algebra, recover_classification,
                     simple_roots_of)
from dynstar.classify import _levi_of
from dynstar.lie import Tensor2, Tensor3, cyb
from dynstar.rootsystems import check_parabolic, coordinates


def recover_b_from_initial(pi_e, rho):
    """b = Omega/2 + pi_e + (m-projection of Lambda = rho - Omega/2)."""
    g = pi_e.algebra
    omega = build_casimir_tensor(g)
    if not (rho + rho.transpose() - omega).is_zero():
        raise QuasiUnitarityError("rho + rho^21 != Omega")
    if not pi_e.is_antisymmetric():
        raise QuasiUnitarityError("initial bivector not antisymmetric")
    mset = set(g.m_indices)
    if any(not (i in mset and j in mset) for (i, j) in pi_e.support()):
        raise QuasiUnitarityError("initial bivector not supported on m (x) m")
    lam = rho - omega.scale(QQ(1, 2))
    proj = Tensor2(g, {k: v for k, v in lam.terms.items()
                       if all(i in mset for i in k)})
    return omega.scale(QQ(1, 2)) + pi_e + proj


def _fixture(ctx, family, rank, delta, U, t=None):
    rs = build_root_system(family, rank)
    table = chevalley_constants(rs)
    spec = make_spec(rs, ctx, delta, U, t=t)
    return spec, table


FIXTURES = {
    "a2_u": ("A", 2, [(1, 0)], [(1, 0), (-1, 0)], None),
    "a2_generic": ("A", 2, [(1, 0)], [], None),
    "a3_mixed": ("A", 3, [(1, 0, 0), (0, 0, 1)], [(1, 0, 0), (-1, 0, 0)], None),
    "b2_generic": ("B", 2, [(1, 0)], [], None),
}


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def fixture(request, ctx):
    fam, rank, delta, U, t = FIXTURES[request.param]
    spec, table = _fixture(ctx, fam, rank, delta, U, t)
    return request.param, spec, table


class TestConditions:
    def test_all_conditions_hold(self, fixture):
        name, spec, table = fixture
        fam = build_coefficients(spec)
        rep = check_coefficient_conditions(fam)
        assert rep["all_ok"], (name, rep)

    def test_shift_form(self, fixture):
        name, spec, table = fixture
        assert check_shift_form(build_coefficients(spec))

    def test_known_values_a2_u(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [(1, 0), (-1, 0)])
        fam = build_coefficients(spec)
        # zero on U, +-1/2 outside the Levi set
        assert fam[(1, 0)].is_zero()
        assert fam[(0, 1)] == ctx("1/2")
        assert fam[(-1, -1)] == ctx("-1/2")

    def test_generic_coth_value(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [])
        fam = build_coefficients(spec)
        t1 = ctx.var("t1")
        assert fam[(1, 0)] == (t1 + 1) / (2 * (t1 - 1))
        assert fam[(-1, 0)] == -(t1 + 1) / (2 * (t1 - 1))

    def test_mutation_breaks_triple(self, ctx):
        # U empty, so triples avoiding U exist and constrain the family
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [])
        fam = build_coefficients(spec)
        fam.x[(0, 1)] = fam.x[(0, 1)] + 1
        fam.x[(0, -1)] = fam.x[(0, -1)] - 1
        rep = check_coefficient_conditions(fam)
        assert not rep["all_ok"]
        assert not rep["triple_product"]["ok"]
        assert rep["triple_product"]["witness"]

    def test_mutation_breaks_oddness(self, ctx):
        spec, table = _fixture(ctx, "B", 2, [(1, 0)], [])
        fam = build_coefficients(spec)
        fam.x[(1, 0)] = -fam.x[(1, 0)]
        rep = check_coefficient_conditions(fam)
        assert not rep["odd"]["ok"]

    def test_oddness_witness_is_first_member_of_the_pair(self, ctx):
        # only the pair {(1, 1), (-1, -1)} breaks oddness; the changed root
        # (1, 1) comes after (-1, -1) in rs.roots, which is the witness
        spec, table = _fixture(ctx, "B", 2, [(1, 0)], [])
        fam = build_coefficients(spec)
        fam.x[(1, 1)] = fam.x[(1, 1)] + 1
        assert fam.system.roots.index((-1, -1)) < fam.system.roots.index((1, 1))
        rep = check_coefficient_conditions(fam)
        assert rep["odd"] == {"ok": False, "witness": [(-1, -1)]}

    def test_t_outside_delta_rejected(self, ctx):
        rs = build_root_system("A", 2)
        with pytest.raises(SpecError, match=r"\(0, 1\).*not in Delta"):
            make_spec(rs, ctx, [(1, 0)], [], t={(1, 0): 3, (0, 1): 3})
        assert make_spec(rs, ctx, [(1, 0)], [], t={(1, 0): 3}).t_of((1, 0)) == 3

    def test_t_equal_one_outside_u_rejected(self, ctx):
        with pytest.raises(SpecError):
            _fixture(ctx, "A", 2, [(1, 0)], [], t={(1, 0): 1})

    def test_zero_t_rejected(self, ctx):
        # t_alpha = exp(2 alpha(h)) is invertible; the error names the root
        rs = build_root_system("A", 3)
        with pytest.raises(SpecError, match=r"zero at \(0, 0, 1\)"):
            make_spec(rs, ctx, [(1, 0, 0), (0, 0, 1)], [],
                      t={(1, 0, 0): 2, (0, 0, 1): 0})


class TestTensorOracle:
    def test_membership(self, fixture):
        name, spec, table = fixture
        fam = build_coefficients(spec)
        g = realize_lie_algebra(table, spec.ctx, U=spec.U)
        b = coefficients_to_tensor(fam, g)
        assert check_in_M_Omega(b), name

    def test_quasi_unitarity_distinct_error(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [(1, 0), (-1, 0)])
        fam = build_coefficients(spec)
        g = realize_lie_algebra(table, ctx, U=spec.U)
        b = coefficients_to_tensor(fam, g)
        broken = Tensor2(g, dict(b.terms))
        i = g.root_index[(0, 1)]
        j = g.root_index[(0, -1)]
        broken.terms[(i, j)] = broken.terms[(i, j)] + 1
        with pytest.raises(QuasiUnitarityError):
            check_in_M_Omega(broken)

    def test_cyb_failure_detected(self, ctx):
        # antisymmetric m (x) m perturbation that keeps quasi-unitarity but
        # breaks the quotient CYB equation
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [(1, 0), (-1, 0)])
        fam = build_coefficients(spec)
        fam.x[(0, 1)] = fam.x[(0, 1)] + 1
        fam.x[(0, -1)] = fam.x[(0, -1)] - 1
        g = realize_lie_algebra(table, ctx, U=spec.U)
        b = coefficients_to_tensor(fam, g)
        assert check_in_M_Omega(b) is False

    def test_recover_b_from_initial(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [(1, 0), (-1, 0)])
        fam = build_coefficients(spec)
        g = realize_lie_algebra(table, ctx, U=spec.U)
        b = coefficients_to_tensor(fam, g)
        # b is quasi-unitary and supported on m (x) m away from Omega/2, so
        # it serves as rho with vanishing initial bivector
        assert (recover_b_from_initial(Tensor2(g, {}), b) - b).is_zero()
        with pytest.raises(QuasiUnitarityError):
            recover_b_from_initial(Tensor2(g, {}), b.scale(2))


class TestRecovery:
    def test_round_trip(self, fixture):
        name, spec, table = fixture
        fam = build_coefficients(spec)
        wits = recover_classification(fam, spec.ctx)
        assert wits
        for w in wits:
            rebuilt = build_coefficients(w["spec"])
            assert all((rebuilt[a] - fam[a]).is_zero()
                       for a in spec.system.roots)

    def test_original_choice_among_witnesses(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [(1, 0), (-1, 0)])
        fam = build_coefficients(spec)
        wits = recover_classification(fam, ctx)
        assert any(set(w["delta"]) == {(1, 0)} and
                   set(w["simple"]) == set(spec.simple) for w in wits)

    def test_invalid_family_rejected(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [(1, 0), (-1, 0)])
        fam = build_coefficients(spec)
        for a in fam.x:
            fam.x[a] = ctx("1/3")
        with pytest.raises(SpecError):
            recover_classification(fam, ctx)


def reference_recover(fam, ctx):
    """The subset search recovery used to run: every Delta in the simple
    roots of every positive system, kept when R+ cup N = P and U lies in
    N, with t inverted as (2x + 1)/(2x - 1)."""
    rs = fam.system
    P = frozenset(a for a in rs.roots if not (fam[a] + QQ(1, 2)).is_zero())
    if not check_parabolic(rs, P):
        raise SpecError("P = {x_alpha != -1/2} is not parabolic; family invalid")
    witnesses = []
    for pos in positive_systems(rs):
        simple = simple_roots_of(rs, pos)
        coords = coordinates(simple, rs.roots)
        for k in range(len(simple) + 1):
            for delta in itertools.combinations(simple, k):
                N = _levi_of(coords, simple, delta)
                if pos | N != P or not fam.U <= N:
                    continue
                t = {}
                for d in delta:
                    if d in fam.U:
                        t[d] = ctx.one()
                    elif (denom := 2 * fam[d] - 1).is_zero():
                        break
                    else:
                        t[d] = (2 * fam[d] + 1) / denom
                else:
                    spec = DynrSpec(rs, simple, pos, delta, fam.U, t, ctx)
                    rebuilt = build_coefficients(spec)
                    if all((rebuilt[a] - fam[a]).is_zero() for a in rs.roots):
                        witnesses.append({"simple": simple, "delta": delta,
                                          "t": t, "spec": spec})
    if not witnesses:
        raise SpecError("no witness found (family invalid)")
    return witnesses


def _witness_key(witnesses):
    return [(w["simple"], w["delta"],
             [(d, v.to_string()) for d, v in w["t"].items()])
            for w in witnesses]


def _valid_specs(ctx, family, rank):
    """Every spec ``make_spec`` accepts with U = +-S for a subset S of Delta
    and symbolic t."""
    rs = build_root_system(family, rank)
    for k in range(rank + 1):
        for delta in itertools.combinations(rs.simple, k):
            for j in range(k + 1):
                for S in itertools.combinations(delta, j):
                    U = list(S) + [tuple(-c for c in a) for a in S]
                    try:
                        yield make_spec(rs, ctx, delta, U)
                    except SpecError:
                        pass


def _assert_same_witnesses(fam, ctx):
    assert _witness_key(recover_classification(fam, ctx)) == \
        _witness_key(reference_recover(fam, ctx))


# The B3/C3 specs with Delta of all three simple roots, by the simple roots
# in U, that the reference sweep covers. The reference search takes about
# 17 s over every valid B3/C3 spec, 14 s of it on full Delta.
RANK3_FULL_DELTA = {("B", (2,)), ("B", (1, 3)), ("C", ())}


class TestRecoveryAgainstReference:
    @pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2),
                                             ("A", 3), ("D", 3)])
    def test_every_valid_spec(self, ctx, family, rank):
        specs = list(_valid_specs(ctx, family, rank))
        assert specs
        for spec in specs:
            _assert_same_witnesses(build_coefficients(spec), ctx)

    @pytest.mark.parametrize("family", ["B", "C"])
    def test_rank3_specs(self, ctx, family):
        # every spec with a smaller Delta, and the full-Delta sample above
        count = 0
        for spec in _valid_specs(ctx, family, 3):
            on_u = tuple(i + 1 for i, s in enumerate(spec.simple) if s in spec.U)
            if len(spec.delta) < 3 or (family, on_u) in RANK3_FULL_DELTA:
                _assert_same_witnesses(build_coefficients(spec), ctx)
                count += 1
        assert count == {"B": 19, "C": 18}[family]

    @pytest.mark.parametrize("family,rank", [("B", 3), ("A", 3)])
    def test_non_standard_simple_system(self, ctx, family, rank):
        # a family written in another positive system's simple roots
        rs = build_root_system(family, rank)
        pos = positive_systems(rs)[-2]
        simple = simple_roots_of(rs, pos)
        assert set(simple) != set(rs.simple)
        delta = simple[:2]
        U = frozenset({delta[1], tuple(-c for c in delta[1])})
        t = {delta[0]: ctx.var("t1"), delta[1]: ctx.one()}
        spec = DynrSpec(rs, simple, pos, delta, U, t, ctx)
        fam = build_coefficients(spec)
        _assert_same_witnesses(fam, ctx)
        wits = recover_classification(fam, ctx)
        assert (simple, delta) in [(w["simple"], w["delta"]) for w in wits]

    def test_invalid_families_raise_the_same_error(self, ctx):
        rs = build_root_system("A", 3)
        spec = make_spec(rs, ctx, [rs.simple[0]], [])
        not_parabolic = build_coefficients(spec)
        for a in rs.roots:
            not_parabolic.x[a] = ctx("-1/2")
        u_outside_n = build_coefficients(spec)
        u_outside_n.U = frozenset({rs.simple[2], tuple(-c for c in rs.simple[2])})
        # x = 1/2 on both roots of N, where no t can give it
        half_on_n = build_coefficients(spec)
        for a in (rs.simple[0], tuple(-c for c in rs.simple[0])):
            half_on_n.x[a] = ctx("1/2")
        # P and N as for the spec, but x = 1/3 where every rebuild gives 1/2
        off_levi = build_coefficients(spec)
        off_levi.x[rs.simple[1]] = ctx("1/3")
        for fam, message in ((not_parabolic, "is not parabolic"),
                             (u_outside_n, "no witness found"),
                             (half_on_n, "no witness found"),
                             (off_levi, "no witness found")):
            for recover in (recover_classification, reference_recover):
                with pytest.raises(SpecError, match=message):
                    recover(fam, ctx)


@functools.lru_cache(maxsize=None)
def _solved(basis, v):
    """Coordinates of v in basis by sympy's linear solver: an oracle that
    shares no code with ``rootsystems.coordinates``."""
    return tuple(sp.Matrix([list(b) for b in basis]).T.solve(sp.Matrix(list(v))))


SWEEP = [(f, r) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
         for r in range(lo, 4)]


class TestLeviRoutine:
    @pytest.mark.parametrize("family,rank", SWEEP,
                             ids=[f"{f}{r}" for f, r in SWEEP])
    def test_sweep_matches_solve_oracle(self, ctx, family, rank):
        # every positive system and every Delta in its simple roots
        rs = build_root_system(family, rank)
        for pos in positive_systems(rs):
            simple = simple_roots_of(rs, pos)
            coords = coordinates(simple, rs.roots)
            for k in range(rank + 1):
                for delta in itertools.combinations(simple, k):
                    N = frozenset(r for r in rs.roots if all(
                        c == 0 for c, s in zip(_solved(simple, r), simple)
                        if s not in delta))
                    assert _levi_of(coords, simple, delta) == N
                    t = {d: ctx.var(f"t{simple.index(d) + 1}") for d in delta}
                    spec = DynrSpec(rs, simple, pos, delta, frozenset(), t, ctx)
                    assert spec.levi_roots() == N
                    for a in N:
                        want = ctx.one()
                        for c, d in zip(_solved(delta, a), delta):
                            want = want * t[d] ** int(c)
                        assert spec.t_of(a) == want

    def test_t_of_outside_levi_set_rejected(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [])
        assert spec.t_of((-1, 0)) == 1 / ctx.var("t1")
        for a in [(0, 1), (1, 1), (2, 0)]:   # roots outside N, a non-root
            with pytest.raises(SpecError):
                spec.t_of(a)


class TestLagrangian:
    def test_a2_report(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [(1, 0), (-1, 0)])
        g = realize_lie_algebra(table, ctx, U=spec.U)
        lag, rep = build_lagrangian(spec, g)
        assert rep["dim"] == 8 == rep["dim_g"]
        assert rep["isotropic"]
        assert rep["bracket_closed"]
        assert rep["diag_intersection_dim"] == 4 == rep["dim_u"]
        assert rep["all_ok"]

    def test_generic_t_diagonal_intersection_shrinks(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [])
        g = realize_lie_algebra(table, ctx, U=spec.U)
        lag, rep = build_lagrangian(spec, g)
        assert rep["isotropic"] and rep["bracket_closed"]
        # only the Cartan is fixed by theta when t is generic
        assert rep["diag_intersection_dim"] == 2

    def test_membership_criterion(self, ctx):
        spec, table = _fixture(ctx, "A", 2, [(1, 0)], [(1, 0), (-1, 0)])
        g = realize_lie_algebra(table, ctx, U=spec.U)
        lag, rep = build_lagrangian(spec, g)
        one, zero = ctx.one(), ctx.zero()
        assert sorted(i for i, _, _ in lag.basis) == list(range(g.dim))
        for i, a, b in lag.basis:
            assert reference_contains(lag, ({i: a}, {i: b}))
            if i in lag.theta:
                assert (a, b) == (one, lag.theta[i])
            else:
                assert (a, b) == ((one, zero) if i in lag.minus_free
                                  else (zero, one))
        # (E_{(1,1)}, 0) lies outside l, and l with it is not isotropic
        i = g.root_index[(1, 1)]
        assert not reference_contains(lag, ({i: one}, {}))
        bigger = dataclasses.replace(lag, basis=lag.basis + [(i, one, zero)])
        assert not bigger.is_isotropic()


# Each check below skips work whose answer is known: CYB is formed on
# m (x) m (x) m only, the symmetric conditions visit each root set once, and
# membership compares only the n-indices that occur. The references here
# do the full work.

CTX4 = Context(["t1", "t2", "t3", "t4"])

# (family, rank, Delta and its part in U as simple-root indices)
SPECS = [("A", 3, (0, 1), (0,)), ("B", 3, (1, 2), (1,)),
         ("C", 3, (0, 2), (2,)), ("D", 4, (0, 2, 3), (2,))]


def _indexed_spec(family, rank, delta, in_u):
    rs = build_root_system(family, rank)
    U = [r for i in in_u for r in (rs.simple[i], tuple(-c for c in rs.simple[i]))]
    spec = make_spec(rs, CTX4, [rs.simple[i] for i in delta], U)
    return spec, chevalley_constants(rs)


def reference_conditions(fam):
    """The four conditions by a full scan over ordered pairs of roots."""
    rs, Uset = fam.system, fam.U
    rest = sorted(rs.rootset - Uset)
    neg = lambda a: tuple(-c for c in a)
    bad = {"vanishes_on_u": [a for a in sorted(Uset) if not fam[a].is_zero()],
           "odd": [a for a in rs.roots if not (fam[neg(a)] + fam[a]).is_zero()],
           "pair_sum_on_u": [], "triple_product": []}
    for a in rest:
        for b in rest:
            c = neg(tuple(x + y for x, y in zip(a, b)))
            if c in Uset and not (fam[a] + fam[b]).is_zero():
                bad["pair_sum_on_u"].append((a, b, c))
            if c in rest and not (fam[a] * fam[b] + fam[b] * fam[c]
                                  + fam[c] * fam[a] + QQ(1, 4)).is_zero():
                bad["triple_product"].append((a, b, c))
    report = {k: {"ok": not v, "witness": v[:1]} for k, v in bad.items()}
    report["all_ok"] = not any(bad.values())
    return report, bad


def reference_contains(lag, v):
    """Membership of the vector pair v = (v0, v1): v0 in p_-, v1 in p_+, and
    theta v0[i] = v1[i] at every n-index."""
    z = lag.algebra.ctx.zero()
    if any(i not in lag.theta and i not in lag.minus_free and not a.is_zero()
           for i, a in v[0].items()):
        return False
    if any(i not in lag.theta and i not in lag.plus_free and not a.is_zero()
           for i, a in v[1].items()):
        return False
    return all((lag.theta[i] * v[0].get(i, z) - v[1].get(i, z)).is_zero()
               for i in lag.theta)


def reference_lagrangian(lag):
    """(isotropic, bracket_closed) by the full scan over pairs of basis
    vectors, each a pair of coordinate vectors, with the form and the
    brackets formed from ``g.form`` and ``g.bracket``."""
    g = lag.algebra
    z = g.ctx.zero()

    def form(x, y):
        return sum((a * b * g.form[i][j] for i, a in x.items()
                    for j, b in y.items()), z)

    def bracket(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                for s, q in g.bracket(i, j).items():
                    out[s] = out.get(s, z) + a * b * q
        return out

    vecs = [({i: a}, {i: b}) for i, a, b in lag.basis]
    pairs = [(v, w) for k, v in enumerate(vecs) for w in vecs[k:]]
    isotropic = all((form(v[0], w[0]) - form(v[1], w[1])).is_zero()
                    for v, w in pairs)
    closed = all(reference_contains(lag, (bracket(v[0], w[0]),
                                          bracket(v[1], w[1])))
                 for v, w in pairs)
    return isotropic, closed


def _with_theta_changed(spec, a):
    """The spec with t_a doubled in its table, and t_{-a} kept."""
    mutated = copy.copy(spec)
    mutated.t_table = {**spec.t_table, a: spec.t_table[a] * 2}
    return mutated


def _with_gamma_flipped(spec, c):
    """The spec with c, a root of R+ \\ N, replaced by -c in R+."""
    mutated = copy.copy(spec)
    mutated.positive = (spec.positive - {c}) | {tuple(-x for x in c)}
    return mutated


class TestShortcutsAgainstReferences:
    @pytest.mark.parametrize("family,rank,delta,in_u", SPECS,
                             ids=[f"{f}{r}" for f, r, *_ in SPECS])
    def test_cyb_on_m_equals_reduction(self, family, rank, delta, in_u):
        spec, table = _indexed_spec(family, rank, delta, in_u)
        g = realize_lie_algebra(table, CTX4, U=spec.U)
        b = coefficients_to_tensor(build_coefficients(spec), g)
        a = min(spec.levi_roots() - spec.U)
        key = (g.root_index[a], g.root_index[tuple(-c for c in a)])
        changed = Tensor2(g, {**b.terms, key: b.terms[key] + 1})
        mset = set(g.m_indices)
        for r in (b, changed):
            full = cyb(r)
            # the image of CYB(r) in the quotient by u, slot-wise
            reduced = Tensor3(g, {k: v for k, v in full.terms.items()
                                  if mset.issuperset(k)})
            assert cyb(r, within=mset).terms.keys() == reduced.terms.keys()
            assert cyb(r, within=mset) == reduced
            assert cyb(r, within=set(range(g.dim))) == full
        assert cyb(b, within=mset).is_zero()
        assert not cyb(changed, within=mset).is_zero()

    def test_conditions_match_the_ordered_pair_scan(self, ctx):
        checked = multiple = 0
        for family, rank in (("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3)):
            rs = build_root_system(family, rank)
            s0 = rs.simple[0]
            for U in ([], [s0, tuple(-c for c in s0)]):
                fam = build_coefficients(make_spec(rs, ctx, [s0], U))
                pos = sorted(rs.positive)
                changes = [{}] + [{a: 1} for a in rs.roots] + \
                    [{a: 1, tuple(-c for c in a): -1} for a in pos] + \
                    [{a: 1, b: 1} for a, b in zip(pos, pos[1:])]
                for change in changes:
                    x = dict(fam.x)
                    for a, d in change.items():
                        x[a] = x[a] + d
                    mutated = CoefficientFamily(rs, fam.U, x)
                    want, bad = reference_conditions(mutated)
                    assert check_coefficient_conditions(mutated) == want, \
                        (family, rank, U, change)
                    checked += not want["all_ok"]
                    multiple += any(len(v) > 2 for v in bad.values())
        assert checked > 200 and multiple > 100

    @pytest.mark.parametrize("family,rank,delta,in_u", SPECS,
                             ids=[f"{f}{r}" for f, r, *_ in SPECS])
    def test_report_matches_the_vector_scan(self, family, rank, delta, in_u):
        spec, table = _indexed_spec(family, rank, delta, in_u)
        g = realize_lie_algebra(table, CTX4, U=spec.U)
        N = spec.levi_roots()
        cases = [spec] + \
            [_with_theta_changed(spec, a) for a in sorted(N - spec.U)] + \
            [_with_gamma_flipped(spec, c) for c in sorted(spec.positive - N)]
        seen = set()
        for s in cases:
            lag, rep = build_lagrangian(s, g)
            got = (rep["isotropic"], rep["bracket_closed"])
            assert got == reference_lagrangian(lag)
            seen.add(got)
        assert {True, False} == {iso for iso, _ in seen} \
            == {closed for _, closed in seen}

    @pytest.mark.parametrize("family,rank,delta,in_u", SPECS[:3],
                             ids=[f"{f}{r}" for f, r, *_ in SPECS[:3]])
    def test_changed_theta_eigenvalue_fails(self, family, rank, delta, in_u):
        spec, table = _indexed_spec(family, rank, delta, in_u)
        g = realize_lie_algebra(table, CTX4, U=spec.U)
        assert build_lagrangian(spec, g)[1]["all_ok"]
        for a in sorted(spec.levi_roots()):
            rep = build_lagrangian(_with_theta_changed(spec, a), g)[1]
            assert not rep["bracket_closed"] and not rep["isotropic"], a
            assert not rep["all_ok"]
