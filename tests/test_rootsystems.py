import itertools

import pytest
import sympy as sp

from dynstar import (DynrSpec, RootSystemError, SpecError, build_root_system,
                     check_parabolic, check_reductive_subset,
                     chevalley_constants, make_spec, positive_systems,
                     simple_roots_of, y_set_properties)
from dynstar.classify import _levi_of
from dynstar.rootsystems import coordinates

ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20,
    ("B", 2): 8, ("B", 3): 18, ("B", 4): 32,
    ("C", 2): 8, ("C", 3): 18, ("C", 4): 32,
    ("D", 3): 12, ("D", 4): 24,
}


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_root_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.roots) == ROOT_COUNTS[(family, rank)]
    assert len(rs.positive) * 2 == len(rs.roots)
    assert len(rs.simple) == rank


def test_unsupported_systems_rejected():
    with pytest.raises(RootSystemError):
        build_root_system("E", 6)
    with pytest.raises(RootSystemError):
        build_root_system("A", 5)
    with pytest.raises(RootSystemError):
        build_root_system("D", 2)


def test_inner_product_normalization():
    # long roots have squared length 2 in every family
    for family, rank in (("A", 2), ("B", 2), ("C", 2), ("D", 3)):
        rs = build_root_system(family, rank)
        lengths = {rs.inner(a, a) for a in rs.roots}
        assert sp.Integer(2) in lengths
        assert max(lengths) == 2


def test_b2_lengths():
    rs = build_root_system("B", 2)
    lengths = sorted({rs.inner(a, a) for a in rs.roots})
    assert lengths == [1, 2]


def test_simple_roots_are_unit_vectors():
    rs = build_root_system("A", 3)
    assert rs.simple == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # every positive root is a nonnegative combination
    assert all(all(c >= 0 for c in a) for a in rs.positive)


class TestCoordinates:
    def test_type_a_euclidean_basis(self):
        # three-dimensional vectors in a basis of two: the Gram inverse
        basis = [(1, -1, 0), (0, 1, -1)]
        assert coordinates(basis, [(1, 0, -1), (0, -1, 1)]) == {
            (1, 0, -1): (1, 1), (0, -1, 1): (0, -1)}

    def test_non_integral_vector_rejected(self):
        with pytest.raises(RootSystemError, match="integral"):
            coordinates([(2, 0), (0, 1)], [(1, 0)])

    def test_vector_outside_span_rejected(self):
        with pytest.raises(RootSystemError, match="span"):
            coordinates([(1, 0, 0)], [(0, 1, 0)])

    def test_dependent_basis_rejected(self):
        with pytest.raises(RootSystemError, match="dependent"):
            coordinates([(1, 1), (2, 2)], [(1, 1)])


class TestSubsets:
    def test_levi_is_reductive(self, ctx):
        rs = build_root_system("A", 3)
        spec = make_spec(chevalley_constants(rs), ctx, [(1, 0, 0), (0, 0, 1)], [])
        N = spec.levi_roots()
        assert N == {(1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1)}
        assert check_reductive_subset(rs, N)

    def test_empty_levi(self):
        rs = build_root_system("B", 2)
        assert _levi_of(coordinates(rs.simple, rs.roots), rs.simple, ()) == frozenset()

    def test_non_reductive_subset(self):
        rs = build_root_system("A", 2)
        # a single root without its negative
        assert not check_reductive_subset(rs, [(1, 0)])

    def test_non_simple_delta_rejected(self, ctx):
        rs = build_root_system("A", 2)
        with pytest.raises(SpecError):
            DynrSpec(rs, rs.simple, rs.positive, ((1, 1),), frozenset(),
                     {(1, 1): ctx.var("t1")}, ctx)
        # without a t-value for it, before any DynrSpec is built
        with pytest.raises(SpecError):
            make_spec(chevalley_constants(rs), ctx, [(1, 1)], [])

    def test_parabolic(self):
        rs = build_root_system("A", 2)
        P = set(rs.positive) | {(-1, 0), (1, 0)}
        assert check_parabolic(rs, P)
        assert not check_parabolic(rs, rs.positive - {(1, 1)})

    def test_y_set_properties(self):
        rs = build_root_system("A", 2)
        P = set(rs.positive) | {(-1, 0), (1, 0)}
        rep = y_set_properties(rs, P)
        assert rep["all_hold"]
        assert set(rep["Y"]) == {(0, -1), (-1, -1)}
        with pytest.raises(RootSystemError):
            y_set_properties(rs, rs.positive - {(1, 1)})


class TestPositiveSystems:
    def test_a2_count_is_weyl_order(self):
        rs = build_root_system("A", 2)
        systems = positive_systems(rs)
        assert len(systems) == 6
        assert frozenset(rs.positive) in systems

    def test_b2_count_is_weyl_order(self):
        rs = build_root_system("B", 2)
        assert len(positive_systems(rs)) == 8

    def test_simple_roots_recovered(self):
        rs = build_root_system("A", 2)
        assert simple_roots_of(rs, frozenset(rs.positive)) == tuple(sorted(rs.simple))
        # every positive system has exactly rank indecomposables
        for pos in positive_systems(rs):
            assert len(simple_roots_of(rs, pos)) == 2


class TestChevalleyConstants:
    @pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
    def test_normalization(self, family, rank):
        from dynstar.rootsystems import root_name
        rs = build_root_system(family, rank)
        table = chevalley_constants(rs)
        for a in rs.roots:
            na = tuple(-c for c in a)
            Ea = table.matrices[root_name(a)]
            Ena = table.matrices[root_name(na)]
            assert sp.trace(Ea * Ena) == 1

    def test_a2_constants_against_matrices(self):
        from dynstar.rootsystems import root_name
        rs = build_root_system("A", 2)
        table = chevalley_constants(rs)
        for a, b in itertools.product(rs.roots, rs.roots):
            s = tuple(x + y for x, y in zip(a, b))
            if not rs.is_root(s):
                continue
            Ea, Eb = table.matrices[root_name(a)], table.matrices[root_name(b)]
            comm = Ea * Eb - Eb * Ea
            assert comm == table.constant(a, b) * table.matrices[root_name(s)]

    def test_cartan_pairing(self):
        # with <E_a, E_{-a}> = 1, the coroot [E_a, E_{-a}] pairs against
        # every Cartan generator by the root value: G @ cartan[a] = alpha(H)
        for family, rank in (("A", 2), ("B", 2)):
            rs = build_root_system(family, rank)
            table = chevalley_constants(rs)
            for a in rs.positive:
                coords = sp.Matrix(list(table.cartan[a]))
                vals = table.gram_h * coords
                for i in range(rs.rank):
                    assert sp.simplify(vals[i] - table.alpha_h[a][i]) == 0
