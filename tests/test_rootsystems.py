import dataclasses
import itertools
import operator

import pytest
import sympy as sp
from sympy.polys.domains import QQ

from dynstar import (DynrSpec, RootSystemError, SpecError, build_root_system,
                     check_parabolic, check_reductive_subset,
                     chevalley_constants, make_spec, positive_systems,
                     simple_roots_of)
from dynstar.classify import _levi_of
from dynstar.rootsystems import (_add, _as_rootset, _h_coords, _matrix_model,
                                 _neg, _ratio, _sub, _sum_closed, coordinates,
                                 root_name)

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


def inner(rs, a, b):
    """<a,b> normalized so long roots have squared length 2."""
    maxlen = max(sum(x * x for x in e) for e in rs.euclid.values())
    return QQ(2, maxlen) * sum(x * y for x, y in zip(rs.euclid[a], rs.euclid[b]))


def test_inner_product_normalization():
    # long roots have squared length 2 in every family
    for family, rank in (("A", 2), ("B", 2), ("C", 2), ("D", 3)):
        rs = build_root_system(family, rank)
        lengths = {inner(rs, a, a) for a in rs.roots}
        assert 2 in lengths
        assert max(lengths) == 2


def test_b2_lengths():
    rs = build_root_system("B", 2)
    lengths = sorted({inner(rs, a, a) for a in rs.roots})
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
        # a failure is not memoized: it raises again
        with pytest.raises(RootSystemError, match="dependent"):
            coordinates([(1, 1), (2, 2)], [(1, 1)])

    def test_shared_map_is_read_only(self):
        rs = build_root_system("B", 2)
        coords = coordinates(rs.simple, rs.roots)
        # lists and tuples of the same vectors share one map
        assert coordinates([list(s) for s in rs.simple], list(rs.roots)) is coords
        with pytest.raises(TypeError):
            coords[(1, 0)] = (5, 5)
        assert coordinates(rs.simple, rs.roots)[(1, 0)] == (1, 0)


class TestBuiltOncePerProcess:
    """Root systems and structure tables are shared by every caller of the
    process, so none of them may be written into."""

    def test_one_object_per_family_and_rank(self):
        assert build_root_system("c", 3) is build_root_system("C", 3)
        rs = build_root_system("D", 4)
        assert chevalley_constants(rs) is chevalley_constants(build_root_system("D", 4))
        assert chevalley_constants(rs).system is rs

    def test_shared_data_is_read_only(self):
        rs = build_root_system("A", 2)
        table = chevalley_constants(rs)
        a, b = (1, 0), (0, 1)
        writes = [(rs.euclid, a, (0, 0, 0)), (table.c, (a, b), QQ(5)),
                  (table.cartan, a, (QQ(0), QQ(0))), (table.alpha_h, a, (0, 0)),
                  (table.vectors[a], (0, 1), QQ(5)), (table.vectors, a, {}),
                  (table.diagonals[0], 0, 5), (table.gram_h[0], 0, 5)]
        for target, key, value in writes:
            with pytest.raises(TypeError):
                operator.setitem(target, key, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.c = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            rs.roots = ()
        assert chevalley_constants(build_root_system("A", 2)).c[(a, b)] == table.c[(a, b)]


def y_set_properties(rs, P):
    """Check the three closure properties of Y = R \\ P for parabolic P."""
    p = _as_rootset(rs, P)
    if not check_parabolic(rs, p):
        raise RootSystemError("P is not parabolic")
    y = rs.rootset - p
    a_ok = not ({_neg(a) for a in y} & y)
    b_ok = _sum_closed(rs, y)
    c_ok = all(_sub(a, b) in y for a in y for b in p
               if _sub(a, b) in rs.rootset)
    return {
        "Y": sorted(y),
        "antisymmetric_disjoint": a_ok,
        "sum_closed": b_ok,
        "difference_closed": c_ok,
        "all_hold": a_ok and b_ok and c_ok,
    }


class TestSubsets:
    def test_levi_is_reductive(self, ctx):
        rs = build_root_system("A", 3)
        spec = make_spec(rs, ctx, [(1, 0, 0), (0, 0, 1)], [])
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
            make_spec(rs, ctx, [(1, 1)], [])

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


def _positive_systems_brute_force(rs):
    """All additively closed positive systems, by brute force over the sign
    choices on each opposite pair of roots (the reference enumeration)."""
    pairs = sorted(rs.positive)
    cands = (frozenset(a if s == 1 else _neg(a) for a, s in zip(pairs, signs))
             for signs in itertools.product((1, -1), repeat=len(pairs)))
    return [c for c in cands if _sum_closed(rs, c)]


class TestPositiveSystems:
    @pytest.mark.parametrize("family,rank", [
        ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
        ("D", 3), ("D", 4)])
    def test_flips_match_brute_force_in_order(self, family, rank):
        rs = build_root_system(family, rank)
        assert positive_systems(rs) == _positive_systems_brute_force(rs)

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


def _dense_matrix_model(rs):
    """Return (dim, membership matrix condition, cartan matrices, weight fn)."""
    n = rs.rank
    if rs.family == "A":
        m = n + 1
        cartan = [sp.zeros(m, m) for _ in range(n)]
        for i in range(n):
            cartan[i][i, i] = 1
            cartan[i][i + 1, i + 1] = -1
        return m, None, cartan, lambda euclid, i: euclid[i] - euclid[i + 1]
    if rs.family in ("B", "D"):
        m = 2 * n + 1 if rs.family == "B" else 2 * n
        M = sp.Matrix(m, m, lambda i, j: sp.Integer(1 if i + j == m - 1 else 0))
    else:  # C
        m = 2 * n
        M = sp.zeros(m, m)
        for i in range(m):
            M[i, m - 1 - i] = sp.Integer(1 if i < n else -1)
    cartan = [sp.zeros(m, m) for _ in range(n)]
    for i in range(n):
        cartan[i][i, i] = 1
        cartan[i][m - 1 - i, m - 1 - i] = -1
    return m, M, cartan, lambda euclid, i: euclid[i]


def _dense_chevalley_constants(rs):
    """The structure table's fields from dense sympy matrices: nullspaces of
    the stacked X^T M + M X constraints and every commutator as a full
    matrix product (the reference for the sparse kernel). "matrices" maps
    each basis name to its dense model matrix."""
    n = rs.rank
    m, M, cartan, weight = _dense_matrix_model(rs)
    evec = {}
    for a in rs.roots:
        w = [weight(rs.euclid[a], i) for i in range(n)]
        positions = [(j, k) for j in range(m) for k in range(m) if j != k and
                     [cartan[i][j, j] - cartan[i][k, k] for i in range(n)] == w]
        assert positions
        if M is None:
            assert len(positions) == 1
            X = sp.zeros(m, m)
            X[positions[0]] = 1
        else:
            cons = []
            for (j, k) in positions:
                E = sp.zeros(m, m)
                E[j, k] = 1
                cons.append(E.T * M + M * E)
            stacked = ([c[p, q] for c in cons] for p in range(m) for q in range(m))
            rows = [row for row in stacked if any(x != 0 for x in row)]
            null = (sp.Matrix(rows).nullspace() if rows
                    else [sp.Matrix([1] * len(positions))])
            assert len(null) == 1
            den = sp.lcm([sp.fraction(sp.Rational(x))[1] for x in null[0]])
            X = sp.zeros(m, m)
            for (j, k), cx in zip(positions, null[0]):
                X[j, k] = sp.Rational(cx) * den
        evec[a] = X
    for a in sorted(rs.positive):
        evec[_neg(a)] = evec[_neg(a)] / (evec[a] * evec[_neg(a)]).trace()
    for a in rs.roots:
        for i in range(n):
            comm = cartan[i] * evec[a] - evec[a] * cartan[i]
            assert comm == weight(rs.euclid[a], i) * evec[a]
    c, cartan_coords = {}, {}
    for a in rs.roots:
        for b in rs.roots:
            comm = evec[a] * evec[b] - evec[b] * evec[a]
            s = _add(a, b)
            if rs.is_root(s):
                target = evec[s]
                p = next(p for p in itertools.product(range(m), repeat=2)
                         if target[p] != 0)
                c[(a, b)] = sp.Rational(comm[p], target[p])
                assert comm == c[(a, b)] * target
            elif all(x == 0 for x in s):
                d = [comm[i, i] for i in range(m)]
                coords = (list(itertools.accumulate(d[:n])) if rs.family == "A"
                          else d[:n])
                assert comm == sum((x * H for x, H in zip(coords, cartan)),
                                   sp.zeros(m, m))
                cartan_coords[a] = tuple(sp.Rational(x) for x in coords)
            else:
                assert comm.is_zero_matrix
    alpha_h = {a: tuple(weight(rs.euclid[a], i) for i in range(n))
               for a in rs.roots}
    gram = sp.Matrix(n, n, lambda i, j: (cartan[i] * cartan[j]).trace())
    names = {f"H{i+1}": cartan[i] for i in range(n)}
    names.update((root_name(a), evec[a]) for a in rs.roots)
    return {"c": c, "cartan": cartan_coords, "alpha_h": alpha_h,
            "gram_h": gram, "matrices": names}


def _densify(table, sparse):
    """The dense sympy matrix of a sparse model matrix of ``table``."""
    m = len(table.diagonals[0])
    out = sp.zeros(m, m)
    for p, v in sparse.items():
        out[p] = QQ.to_sympy(v)
    return out


def _dense_matrices(table):
    """Basis name -> dense model matrix, from the table's sparse data."""
    names = {f"H{i+1}": _densify(table, {(j, j): QQ(h) for j, h in enumerate(H) if h})
             for i, H in enumerate(table.diagonals)}
    names.update((root_name(a), _densify(table, v))
                 for a, v in table.vectors.items())
    return names


class TestChevalleyConstants:
    @pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
    def test_sparse_kernel_matches_dense_oracle(self, family, rank):
        rs = build_root_system(family, rank)
        got, want = chevalley_constants(rs), _dense_chevalley_constants(rs)
        assert got.c == want["c"]
        assert got.cartan == want["cartan"]
        assert got.alpha_h == want["alpha_h"]
        assert sp.Matrix(got.gram_h) == want["gram_h"]
        assert _dense_matrices(got) == want["matrices"]
        # the table holds only ints and QQ elements
        assert all(QQ.of_type(q) for q in got.c.values())
        assert all(QQ.of_type(q) for row in got.cartan.values() for q in row)
        assert all(type(x) is int for row in got.alpha_h.values() for x in row)
        assert all(type(x) is int for row in got.gram_h for x in row)
        assert all(QQ.of_type(q) for v in got.vectors.values() for q in v.values())
        assert all(type(x) is int for H in got.diagonals for x in H)

    def test_non_proportional_bracket_rejected(self):
        target = {(0, 1): QQ(1), (2, 3): QQ(2)}
        assert _ratio({(0, 1): QQ(3), (2, 3): QQ(6)}, target, (1,), (1,)) == 3
        with pytest.raises(RootSystemError, match="not proportional"):
            _ratio({(0, 1): QQ(3), (2, 3): QQ(3)}, target, (1,), (1,))

    @pytest.mark.parametrize("family,diag", [
        ("B", {(0, 0): 1, (4, 4): 1}),       # mirror entry with the wrong sign
        ("B", {(0, 0): 1}),                  # mirror entry missing
        ("B", {(2, 2): 1}),                  # nonzero middle entry
        ("B", {(0, 0): 1, (4, 4): -1, (0, 1): 1}),   # off the diagonal
        ("C", {(1, 1): 1, (2, 2): 1}),
        ("A", {(0, 0): 1, (1, 1): 1}),       # nonzero trace
    ])
    def test_cartan_decomposition_rejected(self, family, diag):
        _, _, cartan, _ = _matrix_model(build_root_system(family, 2))
        with pytest.raises(RootSystemError, match="cartan decomposition"):
            _h_coords(diag, cartan, family)

    def test_cartan_decomposition(self):
        _, _, cartan, _ = _matrix_model(build_root_system("B", 2))
        assert _h_coords({(0, 0): 1, (4, 4): -1, (1, 1): 2, (3, 3): -2},
                         cartan, "B") == (1, 2)
        _, _, cartan, _ = _matrix_model(build_root_system("A", 2))
        assert _h_coords({(0, 0): 1, (2, 2): -1}, cartan, "A") == (1, 1)

    @pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
    def test_normalization(self, family, rank):
        rs = build_root_system(family, rank)
        table = chevalley_constants(rs)
        for a in rs.roots:
            na = tuple(-c for c in a)
            Ea = _densify(table, table.vectors[a])
            Ena = _densify(table, table.vectors[na])
            assert sp.trace(Ea * Ena) == 1

    def test_a2_constants_against_matrices(self):
        rs = build_root_system("A", 2)
        table = chevalley_constants(rs)
        mats = _dense_matrices(table)
        for a, b in itertools.product(rs.roots, rs.roots):
            s = tuple(x + y for x, y in zip(a, b))
            if not rs.is_root(s):
                continue
            Ea, Eb = mats[root_name(a)], mats[root_name(b)]
            comm = Ea * Eb - Eb * Ea
            assert comm == QQ.to_sympy(table.c[(a, b)]) * mats[root_name(s)]

    def test_cartan_pairing(self):
        # with <E_a, E_{-a}> = 1, the coroot [E_a, E_{-a}] pairs against
        # every Cartan generator by the root value: G @ cartan[a] = alpha(H)
        for family, rank in (("A", 2), ("B", 2)):
            rs = build_root_system(family, rank)
            table = chevalley_constants(rs)
            for a in rs.positive:
                coords = sp.Matrix([QQ.to_sympy(x) for x in table.cartan[a]])
                vals = sp.Matrix(table.gram_h) * coords
                for i in range(rs.rank):
                    assert sp.simplify(vals[i] - table.alpha_h[a][i]) == 0
