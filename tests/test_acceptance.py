"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion so a plain pytest -s
run doubles as a human-readable report. Every check is exact symbolic
arithmetic; there are no tolerances anywhere.
"""

import time

import pytest

from dynstar import (Context, FiniteModule, OrbitFunction, PBWAlgebra,
                     ProjectedTwist, abrr_twist, build_coefficients, build_lagrangian,
                     build_root_system, check_cdybe,
                     check_coefficient_conditions, check_dynamical_twist,
                     check_in_M_Omega, check_nondynamical_twist,
                     chevalley_constants, classical_limit_r, closed_form_jv,
                     coefficients_to_tensor, compose_and_extract, make_spec,
                     orbit_function, project_twist, realize_lie_algebra,
                     recover_classification, split_basis_sl2, star_product,
                     tensor2_from_names)
from dynstar.twist import counit_ok as _counit_ok
from field_reference import doubled_order, field_series
from test_projection import check_cb_identity, rising_factorial_projection

FIXTURES = [
    ("A2 levi a1, U = pm a1, t = 1", "A", 2, [(1, 0)], [(1, 0), (-1, 0)]),
    ("A2 levi a1, U empty, t generic", "A", 2, [(1, 0)], []),
    ("A3 levi a1 a3, U = pm a1, t generic", "A", 3,
     [(1, 0, 0), (0, 0, 1)], [(1, 0, 0), (-1, 0, 0)]),
    ("B2 levi a1, U empty, t generic", "B", 2, [(1, 0)], []),
]


def _report(n: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {n}: {status}{suffix}")
    assert ok, f"criterion {n} failed{suffix}"


def _fixture_specs(ctx):
    out = []
    for label, fam, rank, delta, U in FIXTURES:
        rs = build_root_system(fam, rank)
        table = chevalley_constants(rs)
        out.append((label, make_spec(rs, ctx, delta, U), table))
    return out


@pytest.fixture(scope="module")
def actx():
    return Context(["lam", "hbar", "t1", "t2", "t3"])


@pytest.fixture(scope="module")
def J5(actx):
    U = PBWAlgebra(sl2_alg(actx), order=("y", "h", "x"))
    return abrr_twist(U, 5)


def sl2_alg(ctx):
    from dynstar import sl2
    return sl2(ctx)


def test_criterion_1_classification_soundness(actx):
    ok = True
    details = []
    for label, spec, table in _fixture_specs(actx):
        t0 = time.monotonic()
        fam = build_coefficients(spec)
        rep = check_coefficient_conditions(fam)
        g = realize_lie_algebra(table, actx, U=spec.U)
        member = check_in_M_Omega(coefficients_to_tensor(fam, g), g)
        dt = time.monotonic() - t0
        this_ok = rep["all_ok"] and member and dt < 60
        ok = ok and this_ok
        details.append(f"{label}: {dt:.1f}s")
    _report(1, ok, "; ".join(details))


def test_criterion_2_recovery_round_trip(actx):
    ok = True
    for label, spec, table in _fixture_specs(actx):
        fam = build_coefficients(spec)
        wits = recover_classification(fam, actx)
        if not wits:
            ok = False
            continue
        for w in wits:
            rebuilt = build_coefficients(w["spec"])
            if not all((rebuilt[a] - fam[a]).is_zero()
                       for a in spec.system.roots):
                ok = False
    _report(2, ok)


def test_criterion_3_lagrangian(actx):
    label, spec, table = _fixture_specs(actx)[0]
    g = realize_lie_algebra(table, actx, U=spec.U)
    lag, rep = build_lagrangian(spec, g)
    ok = (rep["dim"] == 8 == rep["dim_g"] and rep["isotropic"]
          and rep["bracket_closed"]
          and rep["diag_intersection_dim"] == 4 == rep["dim_u"]
          and rep["all_ok"])
    _report(3, ok, f"dim {rep['dim']}, diagonal intersection "
                   f"{rep['diag_intersection_dim']}")


def test_criterion_4_dynamical_twist_equation(J5):
    t0 = time.monotonic()
    rep = check_dynamical_twist(J5)
    counits = _counit_ok(J5)
    dt = time.monotonic() - t0
    ok = rep["ok"] and rep["checked_through"] == 5 and counits and dt < 120
    _report(4, ok, f"orders 0..5 in {dt:.1f}s")


def test_criterion_5_classical_limit(actx, J5):
    r = classical_limit_r(J5)
    want = tensor2_from_names(sl2_alg(actx), {("x", "y"): actx("1/lam"),
                                              ("y", "x"): actx("-1/lam")})
    limit_ok = (r - want).is_zero()
    cdybe_ok = check_cdybe(r, [("h", "lam")])["ok"]
    _report(5, limit_ok and cdybe_ok)


def test_criterion_6_star_product_identities(actx):
    ctx = actx
    lam = ctx.var("lam")
    fb = {n: orbit_function(ctx, n) for n in ("x", "y", "h")}
    ok = True

    # product values on all nine basis pairs against the direct series
    from dynstar import generator_derivative
    for a in fb:
        for b in fb:
            direct = fb[a] * fb[b]
            got = star_product(fb[a], fb[b])
            n, coeff, left, right = 0, ctx.one(), fb[a], fb[b]
            expect = direct
            while True:
                left = generator_derivative(left, "y")
                right = generator_derivative(right, "x")
                if left.is_zero() or right.is_zero():
                    break
                coeff = coeff * ctx(-1) / (ctx(n + 1) * (lam - n))
                expect = expect + (left * right).scale(coeff)
                n += 1
            ok = ok and got == expect

    brackets = {("x", "y"): {"h": 1}, ("y", "x"): {"h": -1},
                ("h", "x"): {"x": 2}, ("x", "h"): {"x": -2},
                ("h", "y"): {"y": -2}, ("y", "h"): {"y": 2}}
    for (a, b), br in brackets.items():
        comm = star_product(fb[a], fb[b]) - star_product(fb[b], fb[a])
        rhs = OrbitFunction(ctx, {})
        for name, c in br.items():
            rhs = rhs + fb[name].scale(c)
        ok = ok and comm == rhs

    cas = star_product(fb["x"], fb["y"]) + star_product(fb["y"], fb["x"]) \
        + star_product(fb["h"], fb["h"]).scale(ctx("1/2"))
    ok = ok and cas == OrbitFunction.constant(ctx, lam * (lam + 2) / 2)

    pool = [fb["x"], fb["y"], fb["h"], fb["x"] * fb["y"], fb["h"] * fb["h"]]
    for a in pool:
        for b in pool:
            for c in pool:
                lhs = star_product(star_product(a, b), c)
                rhs = star_product(a, star_product(b, c))
                if not (lhs - rhs).is_zero():
                    ok = False
    _report(6, ok, "9 pairs, commutators, Casimir, 125 triples")


def test_criterion_7_verma_oracle(actx):
    V2 = FiniteModule(actx, 2)
    V4 = FiniteModule(actx, 4)
    adj = compose_and_extract(actx, V2, V2, {1: 1}, {1: 1})
    mixed = compose_and_extract(actx, V2, V4, {1: 1}, {2: 1})
    mutated = compose_and_extract(actx, V2, V2, {1: 1}, {1: 1},
                                  term_scale={1: 2})
    ok = (adj["status"] == "match" and mixed["status"] == "match"
          and mutated["status"] == "mismatch")
    _report(7, ok, "adjoint/adjoint, adjoint/V4, mutated control")


def test_criterion_8_twist_projection(actx, J5):
    spl = split_basis_sl2(actx)
    ok = all(rising_factorial_projection(spl, n)["equal"] for n in range(7))
    ok = ok and all(check_cb_identity(spl, n) for n in range(7))
    Jv = project_twist(J5, spl)
    cf = closed_form_jv(spl, 5)
    ok = ok and not Jv.series.differing_orders(cf.series)
    rep = check_nondynamical_twist(Jv)
    ok = ok and rep["ok"] and rep["checked_through"] == 5
    _report(8, ok, "rising factorials, cb^n, closed form, axioms to order 5")


def test_criterion_9_mutation_sensitivity(actx):
    ok = True

    # conditions verifier: break the triple-product constraint
    label, spec, table = _fixture_specs(actx)[1]
    fam = build_coefficients(spec)
    fam.x[(0, 1)] = fam.x[(0, 1)] + 1
    fam.x[(0, -1)] = fam.x[(0, -1)] - 1
    ok = ok and not check_coefficient_conditions(fam)["all_ok"]

    # dynamical twist equation: corrupt one order
    from dynstar import TensorUEA
    U = PBWAlgebra(sl2_alg(actx), order=("y", "h", "x"))
    J = abrr_twist(U, 3)
    y_exp = next(iter(U.gen("y").terms))
    x_exp = next(iter(U.gen("x").terms))
    orders = list(J.orders)
    orders[2] = orders[2] + TensorUEA(
        (U, U), {(y_exp, x_exp): actx("1/lam^2")})
    ok = ok and not check_dynamical_twist(
        field_series((U, U), orders))["ok"]

    # ordinary twist equation: doubled first term, which lies at order 1
    spl = split_basis_sl2(actx)
    mutated = doubled_order(closed_form_jv(spl, 3).series, 1)
    ok = ok and not check_nondynamical_twist(ProjectedTwist(mutated, spl))["ok"]

    # oracle: scaled first term
    V2 = FiniteModule(actx, 2)
    mutated = compose_and_extract(actx, V2, V2, {1: 1}, {1: 1},
                                  term_scale={1: 2})
    ok = ok and mutated["status"] == "mismatch"

    _report(9, ok, "all four verifiers flag perturbed inputs")


def test_criterion_10_excluded_content_note():
    note = ("excluded as not desk-verifiable: the full moduli-space "
            "bijection, infinite-dimensional module statements, and "
            "quantum-group material beyond the finite checks above; "
            "criteria 1-8 are their finite shadows")
    _report(10, True, note)
