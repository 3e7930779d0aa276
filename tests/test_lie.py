import dataclasses
import itertools
import re
from types import MappingProxyType

import pytest
import sympy as sp
from sympy.polys.domains import QQ

from dynstar import (Context, LieAlgebraData, LieAlgebraError, Tensor2,
                     Tensor3, alt, build_casimir_tensor, build_root_system,
                     check_invariance, chevalley_constants, cyb,
                     realize_lie_algebra, sl2, tensor2_from_names,
                     tensor_to_json)
from dynstar import lie, rootsystems

# every (family, rank) the root-system layer builds
CLASSICAL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                   ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4)]


@pytest.fixture(scope="module")
def g2(ctx):
    return sl2(ctx)


@pytest.fixture(scope="module")
def a2(ctx):
    rs = build_root_system("A", 2)
    table = chevalley_constants(rs)
    return realize_lie_algebra(table, ctx, U=[(1, 0), (-1, 0)])


class TestAlgebraData:
    def test_sl2_brackets(self, g2):
        # [h, x] = 2x, [h, y] = -2y, [x, y] = h in the (y, h, x) order
        assert g2.bracket(1, 2) == {2: g2.ctx(2)}
        assert g2.bracket(2, 1) == {2: g2.ctx(-2)}
        assert g2.bracket(0, 2) == {1: g2.ctx(-1)}

    def test_jacobi_enforced(self, ctx):
        one = ctx.one()
        z = ctx.zero()
        # a bracket table violating Jacobi is rejected
        bad = {(0, 1): {2: one}, (0, 2): {0: one}, (1, 2): {1: one}}
        form = [[z, z, one], [z, one, z], [one, z, z]]
        with pytest.raises(LieAlgebraError):
            LieAlgebraData(ctx, ("a", "b", "c"), bad, form)

    def test_jacobi_sees_a_triple_with_one_nonzero_pair(self, ctx):
        # [a, b] = c and [c, d] = e: of the pairs in (a, b, d) only [a, b]
        # is nonzero, and the Jacobiator is [d, c] = -e
        with pytest.raises(LieAlgebraError, match=r"Jacobi fails on \(a, b, d\)"):
            LieAlgebraData(ctx, "abcde", {(0, 1): {2: 1}, (2, 3): {4: 1}},
                           [[0] * 5 for _ in range(5)])

    def test_jacobi_failure_names_the_first_triple(self, ctx):
        # realized B3 with [E(1,2,2), E(0,-1,-1)] doubled: the check must
        # name the first failing triple of a loop over all basis triples.
        # That triple's first pair brackets to zero, and a later third
        # element fails with the same first two.
        g = realize_lie_algebra(chevalley_constants(build_root_system("B", 3)), ctx)
        brackets = {(i, j): g.bracket(i, j)
                    for i in range(g.dim) for j in range(i + 1, g.dim)}
        key = (g.root_index[(1, 2, 2)], g.root_index[(0, -1, -1)])
        brackets[key] = {k: 2 * q for k, q in brackets[key].items()}

        def bracket(i, j):
            if i < j:
                return brackets[(i, j)]
            return {k: -q for k, q in brackets.get((j, i), {}).items()}

        def jacobiator(i, j, k):
            out = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for t, q in bracket(b, c).items():
                    for s, q2 in bracket(a, t).items():
                        out[s] = out.get(s, 0) + q * q2
            return {s: q for s, q in out.items() if q}

        first = next(t for t in itertools.combinations(range(g.dim), 3)
                     if jacobiator(*t))
        names = ", ".join(g.names[i] for i in first)
        with pytest.raises(LieAlgebraError,
                           match=re.escape(f"Jacobi fails on ({names})")):
            LieAlgebraData(ctx, g.names, brackets, g.form)

    def test_form_invariance_enforced(self, ctx):
        one, two = ctx.one(), ctx(2)
        z = ctx.zero()
        brackets = {(0, 1): {0: two}, (0, 2): {1: -one}, (1, 2): {2: two}}
        bad_form = [[one, z, z], [z, two, z], [z, z, one]]
        with pytest.raises(LieAlgebraError):
            LieAlgebraData(ctx, ("y", "h", "x"), brackets, bad_form)

    def test_form_symmetry_enforced(self, ctx):
        # every form on an abelian algebra is invariant, so only the
        # symmetry check rejects this one
        with pytest.raises(LieAlgebraError, match="form not symmetric"):
            LieAlgebraData(ctx, ("a", "b"), {}, [[1, 1], [0, 1]])

    def test_diagonal_bracket_key_rejected(self, ctx):
        # a table claiming [a, a] = b
        with pytest.raises(LieAlgebraError, match=r"entry for \[a, a\]"):
            LieAlgebraData(ctx, ("a", "b"), {(0, 0): {1: 1}}, [[1, 0], [0, 1]])

    def test_pair_in_both_orders_must_be_opposite(self, ctx):
        # sl(2) in the basis (y, h, x) with [y, x] = -h also given as
        # [x, y], and its trace form
        form = [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
        brackets = {(0, 1): {0: 2}, (1, 2): {2: 2}, (0, 2): {1: -1}}
        with pytest.raises(LieAlgebraError, match="not opposite"):
            LieAlgebraData(ctx, ("y", "h", "x"), {**brackets, (2, 0): {1: -1}}, form)
        g = LieAlgebraData(ctx, ("y", "h", "x"), {**brackets, (2, 0): {1: 1}}, form)
        assert g.bracket(0, 2) == {1: -1} and g.bracket(2, 0) == {1: 1}

    @staticmethod
    def _a2_with_form(ctx, edit):
        """Rebuild realized A2 from its bracket table and a copy of its form
        changed by ``edit``."""
        g = realize_lie_algebra(chevalley_constants(build_root_system("A", 2)), ctx)
        brackets = {(i, j): g.bracket(i, j)
                    for i in range(g.dim) for j in range(i + 1, g.dim)}
        form = [list(row) for row in g.form]
        edit(g, form)
        return LieAlgebraData(ctx, g.names, brackets, form)

    def test_form_invariance_enforced_on_root_pairing(self, ctx):
        def edit(g, form):
            i, j = g.root_index[(1, 1)], g.root_index[(-1, -1)]
            form[i][j] = form[j][i] = form[i][j] * 2

        with pytest.raises(LieAlgebraError, match="not ad-invariant"):
            self._a2_with_form(ctx, edit)

    def test_form_invariance_enforced_on_cartan_entry(self, ctx):
        def edit(g, form):
            form[0][1] = form[1][0] = ctx.zero()

        with pytest.raises(LieAlgebraError, match="not ad-invariant"):
            self._a2_with_form(ctx, edit)

    def test_unchanged_form_is_accepted(self, ctx):
        assert self._a2_with_form(ctx, lambda g, form: None).dim == 8

    def test_u_must_be_subalgebra(self, ctx):
        rs = build_root_system("A", 2)
        table = chevalley_constants(rs)
        with pytest.raises(LieAlgebraError):
            # a single root space without its negative is not reductive here:
            # u = h + g_alpha is a subalgebra, but h + g_alpha + g_{-beta}
            # with alpha+(-beta) outside is not closed
            realize_lie_algebra(table, ctx, U=[(1, 0), (-1, -1)])

    def test_non_rational_structure_constant_rejected(self, ctx):
        brackets = {(0, 1): {0: 2}, (0, 2): {1: "-lam"}, (1, 2): {2: 2}}
        form = [[0, 0, 1], [0, 2, 0], [1, 0, 0]]
        with pytest.raises(LieAlgebraError, match=r"structure constant of h "
                           r"in \[y, x\] is -lam, not rational"):
            LieAlgebraData(ctx, ("y", "h", "x"), brackets, form)

    def test_non_rational_form_entry_rejected(self, ctx):
        brackets = {(0, 1): {0: 2}, (0, 2): {1: -1}, (1, 2): {2: 2}}
        form = [[0, 0, 1], [0, "2*hbar", 0], [1, 0, 0]]
        with pytest.raises(LieAlgebraError,
                           match="form entry <h, h> is 2[*]hbar, not rational"):
            LieAlgebraData(ctx, ("y", "h", "x"), brackets, form)

    @pytest.mark.parametrize("with_u", [False, True], ids=["plain", "U"])
    @pytest.mark.parametrize("family,rank", CLASSICAL_TYPES,
                             ids=[f"{f}{r}" for f, r in CLASSICAL_TYPES])
    def test_constants_are_rationals(self, ctx, family, rank, with_u):
        rs = build_root_system(family, rank)
        U = [rs.simple[0], tuple(-c for c in rs.simple[0])] if with_u else None
        g = realize_lie_algebra(chevalley_constants(rs), ctx, U=U)
        values = [q for i in range(g.dim) for j in range(g.dim)
                  for q in g.bracket(i, j).values()]
        assert values and all(QQ.of_type(q) and q for q in values)
        assert all(QQ.of_type(q) for row in g.form for q in row)

    def test_realized_a2_dimensions(self, a2):
        assert a2.dim == 8
        assert len(a2.cartan_indices) == 2
        assert set(a2.u_indices) == {0, 1, a2.root_index[(1, 0)],
                                     a2.root_index[(-1, 0)]}


def _fresh_table(rs):
    """A copy of the shared table of ``rs``: equal data, another object, so
    ``realize_lie_algebra`` builds and checks its algebra without the
    per-process memo."""
    return dataclasses.replace(chevalley_constants(rs))


def _layout(g):
    """Everything a realization exposes, as plain data."""
    return (g.names, g.dim, g.form, g.cartan_indices, dict(g.root_index),
            g.u_indices, g.m_indices,
            {(i, j): dict(g.bracket(i, j))
             for i in range(g.dim) for j in range(g.dim) if g.bracket(i, j)})


def _memo_sizes():
    return [f.cache_info().currsize for f in (
        lie._shared_algebra, rootsystems.structure_table,
        rootsystems._root_system, rootsystems._coordinates)]


class TestSharedRealization:
    """One checked U-free algebra per (family, rank) is shared by every
    realization of the process; each call gets its own ctx and u."""

    @pytest.mark.parametrize("with_u", [False, True], ids=["plain", "U"])
    @pytest.mark.parametrize("family,rank", CLASSICAL_TYPES,
                             ids=[f"{f}{r}" for f, r in CLASSICAL_TYPES])
    def test_memo_matches_a_fresh_build(self, ctx, family, rank, with_u):
        rs = build_root_system(family, rank)
        U = [rs.simple[-1], tuple(-c for c in rs.simple[-1])] if with_u else None
        shared = realize_lie_algebra(chevalley_constants(rs), ctx, U=U)
        again = realize_lie_algebra(chevalley_constants(rs), ctx, U=U)
        fresh = realize_lie_algebra(_fresh_table(rs), ctx, U=U)
        assert shared is not again and shared.structure is again.structure
        assert _layout(shared) == _layout(again) == _layout(fresh)
        assert (shared.u_indices is None) == (not with_u)

    def test_u_is_marked_and_checked_on_every_call(self, ctx):
        table = chevalley_constants(build_root_system("A", 3))
        g1 = realize_lie_algebra(table, ctx, U=[(1, 0, 0), (-1, 0, 0)])
        g2 = realize_lie_algebra(table, ctx, U=[(0, 1, 1), (0, -1, -1)])
        before = _memo_sizes()
        with pytest.raises(LieAlgebraError, match="u not a subalgebra"):
            # h + g_{a1} + g_{a2}: [E_a1, E_a2] = E_{a1+a2} leaves u
            realize_lie_algebra(table, ctx, U=[(1, 0, 0), (0, 1, 0)])
        assert _memo_sizes() == before
        assert g1.u_indices == (0, 1, 2, g1.root_index[(1, 0, 0)],
                                g1.root_index[(-1, 0, 0)])
        assert g2.u_indices == (0, 1, 2, g2.root_index[(0, 1, 1)],
                                g2.root_index[(0, -1, -1)])
        for g in (g1, g2):
            assert set(g.m_indices) == set(range(g.dim)) - set(g.u_indices)
        assert realize_lie_algebra(table, ctx).u_indices is None

    def test_each_context_keeps_its_own_and_no_memo_grows(self):
        table = chevalley_constants(build_root_system("B", 2))
        U = [(1, 0), (-1, 0)]
        realize_lie_algebra(table, Context(["lam"]), U=U)
        before = _memo_sizes()
        contexts = [Context(["lam", f"s{i}"]) for i in range(4)]
        algebras = [realize_lie_algebra(table, c, U=U) for c in contexts]
        assert _memo_sizes() == before
        for c, g in zip(contexts, algebras):
            assert g.ctx is c
            assert build_casimir_tensor(g).ctx is c
        # the shared algebra holds no Context at all
        assert lie._shared_algebra("B", 2).ctx is None

    def test_corrupted_table_fails_after_the_memo_is_warm(self, ctx):
        rs = build_root_system("B", 3)
        table = chevalley_constants(rs)
        realize_lie_algebra(table, ctx)
        key = ((1, 2, 2), (0, -1, -1))
        bad = dataclasses.replace(table, c=MappingProxyType(
            {**table.c, key: 2 * table.c[key]}))
        for _ in range(2):
            with pytest.raises(LieAlgebraError, match="Jacobi fails"):
                realize_lie_algebra(bad, ctx)
        assert realize_lie_algebra(table, ctx).dim == 21

    def test_shared_data_is_read_only(self, ctx):
        rs = build_root_system("A", 2)
        g = realize_lie_algebra(chevalley_constants(rs), ctx, U=[(1, 0), (-1, 0)])
        i, j = g.root_index[(1, 0)], g.root_index[(0, 1)]
        for mapping, key in ((g.bracket(i, j), 0), (g.bracket(0, 1), 0),
                             (g.index, "H9"), (g.root_index, (9, 9))):
            with pytest.raises(TypeError):
                mapping[key] = 1
        with pytest.raises(TypeError):
            g.form[0][0] = 5
        # rebinding an attribute of one algebra does not reach the next
        g.u_indices, g.m_indices = (), tuple(range(g.dim))
        g.names = ()
        h = realize_lie_algebra(chevalley_constants(rs), ctx, U=[(1, 0), (-1, 0)])
        assert len(h.u_indices) == 4 and len(h.names) == 8


class TestCasimir:
    def test_sl2_casimir(self, g2, ctx):
        om = build_casimir_tensor(g2)
        want = tensor2_from_names(g2, {
            ("x", "y"): 1, ("y", "x"): 1, ("h", "h"): ctx("1/2")})
        assert (om - want).is_zero()
        assert (om - om.transpose()).is_zero()
        assert check_invariance(om, range(g2.dim))

    def test_a2_casimir_invariant_and_split(self, a2):
        om = build_casimir_tensor(a2)
        assert check_invariance(om, range(a2.dim))
        uset = set(a2.u_indices)
        for (i, j) in om.support():
            assert (i in uset) == (j in uset)

    def test_degenerate_form_rejected(self, ctx):
        z = ctx.zero()
        with pytest.raises(LieAlgebraError, match="invariant form is degenerate"):
            LieAlgebraData(ctx, ("a", "b"), {}, [[z, z], [z, z]])

    def test_non_rational_form_rejected(self, ctx):
        z, lam = ctx.zero(), ctx.var("lam")
        with pytest.raises(LieAlgebraError, match="not rational"):
            g = LieAlgebraData(ctx, ("a", "b"), {}, [[lam, z], [z, lam]])
            build_casimir_tensor(g)

    @pytest.mark.parametrize("with_u", [False, True], ids=["plain", "U"])
    @pytest.mark.parametrize("family,rank", CLASSICAL_TYPES,
                             ids=[f"{f}{r}" for f, r in CLASSICAL_TYPES])
    def test_matches_dense_inverse(self, ctx, family, rank, with_u):
        # oracle: the dense sympy inverse of the form, as the split
        # Casimir was built before it was inverted over QQ
        rs = build_root_system(family, rank)
        U = [rs.simple[0], tuple(-c for c in rs.simple[0])] if with_u else None
        g = realize_lie_algebra(chevalley_constants(rs), ctx, U=U)
        inv = sp.Matrix(g.dim, g.dim, lambda i, j: QQ.to_sympy(g.form[i][j])).inv()
        want = Tensor2(g, {(i, j): ctx(inv[i, j]) for i in range(g.dim)
                           for j in range(g.dim) if inv[i, j] != 0})
        om = build_casimir_tensor(g)
        assert om.terms == want.terms
        assert all(c.as_rational() is not None for c in om.terms.values())


class TestTensorOps:
    def test_transpose_and_symmetry(self, g2, ctx):
        t = tensor2_from_names(g2, {("x", "y"): 1, ("y", "x"): -1})
        assert t.is_antisymmetric()
        assert not (t - t.transpose()).is_zero()
        assert (t.transpose() + t).is_zero()

    def test_cyb_of_zero(self, g2):
        assert cyb(Tensor2(g2, {})).is_zero()

    def test_alt_is_cyclic_sum(self, g2, ctx):
        t = Tensor3(g2, {(0, 1, 2): ctx.one()})
        a = alt(t)
        assert a.terms == {(0, 1, 2): 1, (2, 0, 1): 1, (1, 2, 0): 1}


class TestCDYBEConvention:
    def test_u_lambda_solves_cdybe(self, g2, ctx):
        # Alt(h (x) dr/dlam) + CYB(r) = 0 for r = (x(x)y - y(x)x)/lam
        from dynstar import check_cdybe
        r = tensor2_from_names(g2, {("x", "y"): ctx("1/lam"),
                                    ("y", "x"): ctx("-1/lam")})
        rep = check_cdybe(r, [("h", "lam")])
        assert rep["ok"]

    def test_constant_candidate_fails(self, g2, ctx):
        from dynstar import check_cdybe
        r = tensor2_from_names(g2, {("x", "y"): ctx("1/2"),
                                    ("y", "x"): ctx("-1/2")})
        rep = check_cdybe(r, [("h", "lam")])
        assert not rep["ok"]
        assert rep["residual"]


def test_tensor_json_roundtrip(g2, ctx):
    t = tensor2_from_names(g2, {("x", "y"): ctx("1/lam")})
    js = tensor_to_json(t)
    assert js == [{"slots": ["x", "y"], "coeff": "(1)/(lam)"}]
