import pytest
import sympy as sp

from dynstar import (FiniteModule, Intertwiner, VermaData, VermaError,
                     build_verma, compose_and_extract, solve_intertwiner,
                     twist_action_on_pair)
from dynstar import cli
from dynstar import verma as verma_mod
from dynstar.scalars import LAM


def pole_locations(phi: Intertwiner) -> set[int]:
    """Integer roots of all component denominators; the closed-form series
    predicts poles only at nonnegative integer shifts of lam."""
    lam = phi.verma.ctx.symbol(LAM)
    roots: set[int] = set()
    for v in phi.components.values():
        for c in v.values():
            den = sp.factor(sp.fraction(c.expr)[1])
            poly = sp.Poly(den, lam)
            for r in sp.roots(poly, filter="Z"):
                roots.add(int(r))
    return roots


@pytest.fixture(scope="module")
def verma(ctx):
    return build_verma(ctx, 6)


@pytest.fixture(scope="module")
def V2(ctx):
    return FiniteModule(ctx, 2)


@pytest.fixture(scope="module")
def V4(ctx):
    return FiniteModule(ctx, 4)


class TestVermaModule:
    def test_relations(self, verma):
        assert verma.check_relations()

    def test_lowering_raising(self, verma, ctx):
        lam = ctx.var("lam")
        m1 = verma.act("y", {0: ctx.one()})
        assert list(m1) == [1]
        back = verma.act("x", m1)
        assert (back[0] - lam).is_zero()

    def test_weights(self, verma, ctx):
        lam = ctx.var("lam")
        hv = verma.act("h", {3: ctx.one()})
        assert (hv[3] - (lam - 6)).is_zero()

    def test_casimir_scalar(self, verma, ctx):
        # c = xy + yx + h^2/2 acts on m_k by x[k] + x[k-1] + h[k]^2/2
        lam = ctx.var("lam")
        x = (ctx.zero(), *verma.x)      # x[k-1] is x[k] here
        for k in range(verma.K):
            assert x[k + 1] + x[k] + verma.h[k] ** 2 / 2 == lam * (lam + 2) / 2

    def test_depth_cutoff(self, ctx):
        # y m_K lies past the truncation and is dropped
        v = VermaData(ctx, 1)
        assert v.act("y", {0: ctx.one()}) == {1: ctx.one()}
        assert v.act("y", {1: ctx.one()}) == {}
        with pytest.raises(VermaError):
            VermaData(ctx, -1)


def corrupt(module, table, i):
    """Add 1 to entry i of the module's h or x table."""
    t = getattr(module, table)
    setattr(module, table, t[:i] + (t[i] + 1,) + t[i + 1:])


class TestActionTableControls:
    # K = 6: h holds h m_0..h m_6 and x holds the coefficients of x m_1..x m_6
    @pytest.mark.parametrize("table,i", [("h", i) for i in range(7)]
                             + [("x", i) for i in range(6)])
    def test_corrupted_verma_entry_fails_build(self, ctx, monkeypatch,
                                               table, i):
        class Corrupted(VermaData):
            def __init__(self, ctx, K):
                super().__init__(ctx, K)
                corrupt(self, table, i)

        monkeypatch.setattr(verma_mod, "VermaData", Corrupted)
        with pytest.raises(VermaError, match="relations"):
            build_verma(ctx, 6)

    # v = w = 4: the x table holds the coefficients of x v_1..x v_4
    @pytest.mark.parametrize("side", ["V", "W"])
    @pytest.mark.parametrize("i", range(4))
    def test_corrupted_module_entry_fails_oracle(self, ctx, side, i):
        V, W = FiniteModule(ctx, 4), FiniteModule(ctx, 4)
        corrupt(V if side == "V" else W, "x", i)
        try:
            rep = compose_and_extract(ctx, V, W, {2: 1}, {2: 1})
        except VermaError:
            return
        assert rep["status"] == "mismatch"

    # v = 4: h holds h v_0..h v_4 and x the coefficients of x v_1..x v_4
    @pytest.mark.parametrize("table,i", [("h", i) for i in range(5)]
                             + [("x", i) for i in range(4)])
    def test_corrupted_module_entry_fails_relations(self, ctx, table, i):
        V = FiniteModule(ctx, 4)
        corrupt(V, table, i)
        assert not V.check_relations()

    # V4 from v_2 has components at depths 0, 1 and 2
    @pytest.mark.parametrize("depth", range(3))
    def test_corrupted_component_fails_highest_weight(self, verma, V4, ctx,
                                                      depth):
        phi = solve_intertwiner(verma, V4, {2: 1})
        assert set(phi.components) == {0, 1, 2}
        bad = dict(phi.components)
        bad[depth] = {j: c + 1 for j, c in bad[depth].items()}
        assert not Intertwiner(verma, V4, bad).is_highest_weight()

    # m_0 (x) v_0: x kills v_0, so only the h - lam component (weight 2)
    # sees it. m_1 (x) v_0: it passes at depth 1 and fails only at the
    # empty depth 0 below it, through x m_1 = lam m_0.
    @pytest.mark.parametrize("components", [{0: {0: 1}}, {1: {0: 1}}])
    def test_misplaced_component_fails_highest_weight(self, verma, V2, ctx,
                                                      components):
        comps = {k: {j: ctx(c) for j, c in v.items()}
                 for k, v in components.items()}
        assert not Intertwiner(verma, V2, comps).is_highest_weight()

    def test_checks_run_on_every_verdict(self, monkeypatch):
        calls = {"check_relations": 0, "is_highest_weight": 0}
        for cls, name in ((verma_mod._HighestWeightModule, "check_relations"),
                          (Intertwiner, "is_highest_weight")):
            def counted(self, real=getattr(cls, name), name=name):
                calls[name] += 1
                return real(self)
            monkeypatch.setattr(cls, name, counted)
        for _ in range(2):
            assert cli.run(["verma-oracle", "--v", "4", "--w", "4",
                            "--canonical"]) == 0
        # the Verma module, V and W, and phi and psi, on each verdict
        assert calls == {"check_relations": 6, "is_highest_weight": 4}


class TestFiniteModule:
    def test_check_relations(self, V4):
        assert V4.check_relations()

    def test_relations_on_basis(self, V4, ctx):
        for j in range(V4.dim):
            v = {j: ctx.one()}
            comm = {}
            xy = V4.act("x", V4.act("y", v))
            yx = V4.act("y", V4.act("x", v))
            for k in set(xy) | set(yx):
                comm[k] = xy.get(k, ctx.zero()) - yx.get(k, ctx.zero())
            hv = V4.act("h", v)
            assert all((comm.get(k, ctx.zero()) - hv.get(k, ctx.zero())).is_zero()
                       for k in set(comm) | set(hv))
        # the relations also hold with a phantom v_{m+1}; y must kill v_m
        assert V4.act("y", {V4.m: ctx.one()}) == {}

    def test_resolvent_inverts_shifted_weight(self, V4, ctx):
        lam = ctx.var("lam")
        v = {0: ctx.one(), 2: ctx(3)}
        r = V4.resolvent(v, lam, 1)
        # (lam - h - 1) resolvent v = v
        recov = {}
        for j, c in r.items():
            recov[j] = c * (lam - V4.weight(j) - 1)
        assert all((recov[j] - v.get(j, ctx.zero())).is_zero() for j in recov)


class TestIntertwiner:
    def test_frozen_components_v2(self, verma, V2, ctx):
        lam = ctx.var("lam")
        phi = solve_intertwiner(verma, V2, {1: 1})
        assert set(phi.components) == {0, 1}
        assert (phi.components[0][1] - 1).is_zero()
        assert (phi.components[1][0] + 2 / lam).is_zero()

    def test_expectation_round_trip(self, verma, V4, ctx):
        phi = solve_intertwiner(verma, V4, {2: 1})
        assert list(phi.expectation) == [2]
        assert (phi.expectation[2] - 1).is_zero()

    def test_highest_weight_property(self, verma, V4):
        phi = solve_intertwiner(verma, V4, {2: 1})
        assert phi.is_highest_weight()

    def test_corrupted_components_fail(self, verma, V2, ctx):
        phi = solve_intertwiner(verma, V2, {1: 1})
        bad = dict(phi.components)
        bad[1] = {0: ctx.one()}
        assert not Intertwiner(verma, V2, bad).is_highest_weight()

    def test_trivial_module(self, verma, ctx):
        phi = solve_intertwiner(verma, FiniteModule(ctx, 0), {0: 1})
        assert set(phi.components) == {0}

    def test_nonzero_weight_rejected(self, verma, V2):
        with pytest.raises(VermaError):
            solve_intertwiner(verma, V2, {0: 1})

    def test_depth_too_small(self, ctx, V4):
        shallow = build_verma(ctx, 1)
        with pytest.raises(VermaError):
            solve_intertwiner(shallow, V4, {2: 1})

    def test_pole_locations(self, verma, V2, V4):
        assert pole_locations(solve_intertwiner(verma, V2, {1: 1})) == {0}
        assert pole_locations(solve_intertwiner(verma, V4, {2: 1})) == {0, 1}


class TestOracle:
    @pytest.mark.parametrize("mv,mw", [(2, 2), (2, 4), (4, 2)])
    def test_composition_matches_twist(self, ctx, mv, mw):
        V = FiniteModule(ctx, mv)
        W = FiniteModule(ctx, mw)
        rep = compose_and_extract(ctx, V, W, {mv // 2: 1}, {mw // 2: 1})
        assert rep["status"] == "match", rep["difference_terms"]
        assert rep["composed"]

    def test_mutated_twist_mismatch(self, ctx, V2):
        rep = compose_and_extract(ctx, V2, V2, {1: 1}, {1: 1},
                                  term_scale={1: 2})
        assert rep["status"] == "mismatch"
        assert rep["difference_terms"]

    def test_twist_action_leading_term(self, ctx, V2):
        pairs = twist_action_on_pair(ctx, V2, V2, {1: ctx.one()},
                                     {1: ctx.one()})
        assert ((pairs[(1, 1)]) - 1).is_zero()
        # the n = 1 term: -(y v_1) (x) (x (lam - h)^(-1) v_1) = -(2/lam) v_2 (x) v_0
        lam = ctx.var("lam")
        assert (pairs[(2, 0)] + 2 / lam).is_zero()
