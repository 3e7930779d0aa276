"""Batch command-line front-end.

Each subcommand wraps one verification pipeline and emits a deterministic
JSON report. Exit status: 0 when every requested check passes, 1 when a
check fails (the report carries the residuals), 2 on malformed input and
3 on an internal error (one ``internal error:`` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Optional, Sequence

from . import classify as cls
from . import rootsystems as rsys
from .enveloping import DegreeCapError, PBWAlgebra
from .lie import realize_lie_algebra, sl2, tensor2_from_names, tensor_to_json
from .scalars import HBAR, LAM, Context, PoleError
from .twist import (abrr_twist, check_cdybe, check_dynamical_twist,
                    check_h_invariance, classical_limit_r, counit_ok)


class SchemaError(ValueError):
    pass


# the highest twist order the star identity sweep supports
STAR_MAX_ORDER = 3


# Built on first use and shared by every verdict of the process: one context
# per rank, U sl(2) with its normal-form memos (bounded by its degree cap)
# and one splitting per variant with its projected monomial images.
@functools.cache
def _context(rank: int) -> Context:
    return Context([LAM, HBAR] + [f"t{i}" for i in range(1, rank + 1)])


@functools.cache
def _sl2_pbw() -> PBWAlgebra:
    return PBWAlgebra(sl2(_context(4)), order=("y", "h", "x"))


@functools.cache
def _splitting(variant: str):
    from .projection import split_basis_sl2
    return split_basis_sl2(_context(4), variant)


def _parse_simple_token(tok: str, rank: int) -> tuple[int, ...]:
    tok = tok.strip()
    if not (tok.startswith("a") and tok[1:].isdigit()):
        raise SchemaError(f"bad simple-root token {tok!r} (expected aK)")
    k = int(tok[1:])
    if not 1 <= k <= rank:
        raise SchemaError(f"simple-root index out of range in {tok!r}")
    return tuple(1 if i == k - 1 else 0 for i in range(rank))


def _distinct(roots: list, s: str) -> list:
    if len(set(roots)) != len(roots):
        raise SchemaError(f"repeated token in {s!r}")
    return roots


def _parse_delta(s: Optional[str], rank: int) -> list[tuple[int, ...]]:
    if not s or s.lower() == "none":
        return []
    return _distinct([_parse_simple_token(t, rank) for t in s.split(",")], s)


def _parse_u(s: Optional[str], rank: int) -> list[tuple[int, ...]]:
    if not s or s.lower() == "none":
        return []
    out = []
    for tok in s.split(","):
        tok = tok.strip()
        if not tok.startswith("pm-"):
            raise SchemaError(f"bad U token {tok!r} (expected pm-aK)")
        r = _parse_simple_token(tok[3:], rank)
        out.append(r)
        out.append(tuple(-c for c in r))
    return _distinct(out, s)


def _parse_t(s: Optional[str], rank: int, ctx: Context) -> dict:
    if not s:
        return {}
    out = {}
    items = s.split(",")
    for item in items:
        if "=" not in item:
            raise SchemaError(f"bad t binding {item!r} (expected aK=expr)")
        key, val = item.split("=", 1)
        try:
            out[_parse_simple_token(key, rank)] = ctx(val)
        except (TypeError, KeyError) as e:
            # KeyError: the value names an undeclared parameter
            raise SchemaError(f"bad t value in {item!r}: {e}") from None
    if len(out) < len(items):
        raise SchemaError(f"repeated token in {s!r}")
    return out


def _spec_from_args(args) -> tuple[cls.DynrSpec, Context]:
    family = args.type.upper()
    rank = args.rank
    if family not in ("A", "B", "C", "D"):
        raise SchemaError(f"unknown family {args.type!r}")
    rs = rsys.build_root_system(family, rank)
    ctx = _context(rank)
    delta = _parse_delta(args.delta, rank)
    U = _parse_u(args.u, rank)
    t = _parse_t(getattr(args, "t", None), rank, ctx)
    return cls.make_spec(rs, ctx, delta, U, t=t or None), ctx


def _at_least(args, name: str, low: int) -> int:
    value = getattr(args, name)
    if value < low:
        raise SchemaError(f"{args.command} --{name} must be at least {low}, "
                          f"got {value}")
    return value


def _root_str(a) -> str:
    return "(" + ",".join(str(c) for c in a) + ")"


def cmd_classify(args) -> dict:
    spec, ctx = _spec_from_args(args)
    fam = cls.build_coefficients(spec)
    report = cls.check_coefficient_conditions(fam)
    report["shift_form"] = cls.check_shift_form(fam)
    return {
        "coefficients": {_root_str(a): fam[a].to_string()
                         for a in sorted(spec.system.roots)},
        "conditions": _jsonable(report),
        "ok": report["all_ok"] and report["shift_form"],
    }


def cmd_verify_rmatrix(args) -> dict:
    spec, ctx = _spec_from_args(args)
    fam = cls.build_coefficients(spec)
    g = realize_lie_algebra(rsys.chevalley_constants(spec.system), ctx, U=spec.U)
    b = cls.coefficients_to_tensor(fam, g)
    try:
        member = cls.check_in_M_Omega(b, g)
        quasi_unitary = True
    except cls.QuasiUnitarityError:
        member, quasi_unitary = False, False
    recovered = cls.recover_classification(fam, ctx) if args.recover else []
    witnesses = [{
        "simple": [_root_str(a) for a in w["simple"]],
        "delta": [_root_str(a) for a in w["delta"]],
        "t": {_root_str(k): v.to_string() for k, v in w["t"].items()},
    } for w in recovered]
    return {
        "quasi_unitary": quasi_unitary,
        "in_M_Omega": member,
        "tensor": tensor_to_json(b),
        "witnesses": witnesses,
        "ok": quasi_unitary and member,
    }


def cmd_lagrangian(args) -> dict:
    spec, ctx = _spec_from_args(args)
    g = realize_lie_algebra(rsys.chevalley_constants(spec.system), ctx, U=spec.U)
    lag, report = cls.build_lagrangian(spec, g)
    report = dict(report)
    report["ok"] = report.pop("all_ok")
    return report


def cmd_abrr_check(args) -> dict:
    J = abrr_twist(_sl2_pbw(), _at_least(args, "order", 0))
    h_invariant = check_h_invariance(J)
    rep = check_dynamical_twist(J)
    counit = counit_ok(J)
    return {
        "order": args.order,
        "cocycle": rep,
        "counit_ok": counit,
        "h_invariant": h_invariant,
        "ok": rep["ok"] and counit and h_invariant,
    }


def cmd_cdybe_check(args) -> dict:
    U = _sl2_pbw()
    J = abrr_twist(U, _at_least(args, "order", 1))
    r = classical_limit_r(J)
    inv = 1 / U.ctx.var(LAM)
    expected = tensor2_from_names(U.lie, {("x", "y"): inv, ("y", "x"): -inv})
    limit_ok = (r - expected).is_zero()
    rep = check_cdybe(r, [("h", LAM)])
    return {
        "r": tensor_to_json(r),
        "classical_limit_is_u_lambda": limit_ok,
        "cdybe": rep,
        "ok": limit_ok and rep["ok"],
    }


def cmd_star(args) -> dict:
    from .orbits import verify_orbit_identities
    if not 0 <= args.order <= STAR_MAX_ORDER:
        raise SchemaError(f"star --order must lie in 0..{STAR_MAX_ORDER}, "
                          f"got {args.order}")
    rep = verify_orbit_identities(_sl2_pbw(), twist_order=args.order)
    if args.identity != "all":
        return {"identity": args.identity, **rep[args.identity]}
    rep["ok"] = rep.pop("all_ok")
    return rep


def cmd_verma_oracle(args) -> dict:
    from .verma import FiniteModule, compose_and_extract
    ctx = _context(4)
    for name in ("v", "w"):
        _at_least(args, name, 0)
    if args.v % 2 or args.w % 2:
        raise SchemaError("module highest weights must be even "
                          "(odd ones have no zero-weight vector)")
    V = FiniteModule(ctx, args.v)
    W = FiniteModule(ctx, args.w)
    v0 = {args.v // 2: ctx.one()}
    w0 = {args.w // 2: ctx.one()}
    scale = {1: 2} if args.mutate else None
    rep = compose_and_extract(ctx, V, W, v0, w0, term_scale=scale)
    rep["mutated"] = bool(args.mutate)
    rep["ok"] = rep["status"] == "match"
    return rep


def cmd_project_twist(args) -> dict:
    from .projection import (check_nondynamical_twist, closed_form_jv,
                             project_twist)
    # the cached splitting still passes its self-check on every verdict
    sp_ = _splitting(args.variant).validate()
    J = abrr_twist(_sl2_pbw(), _at_least(args, "order", 0))
    Jv = project_twist(J, sp_)
    cf = closed_form_jv(sp_, args.order)
    closed_match = not Jv.series.differing_orders(cf.series)
    rep = check_nondynamical_twist(Jv)
    return {
        "order": args.order,
        "variant": args.variant,
        "series": Jv.series.to_json(),
        "matches_closed_form": closed_match,
        "axioms": rep,
        "ok": closed_match and rep["ok"],
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


_COMMANDS = {
    "classify": cmd_classify,
    "verify-rmatrix": cmd_verify_rmatrix,
    "lagrangian": cmd_lagrangian,
    "abrr-check": cmd_abrr_check,
    "cdybe-check": cmd_cdybe_check,
    "star": cmd_star,
    "verma-oracle": cmd_verma_oracle,
    "project-twist": cmd_project_twist,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    :func:`run` in the process (parsing leaves no state in it)."""
    p = argparse.ArgumentParser(
        prog="dynstar",
        description="Exact verification of dynamical r-matrix, twist and "
                    "star-product identities.")
    p.add_argument("--job", help="JSON job file; its fields override flags")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--json-out", help="write the report to this path")
        sp.add_argument("--canonical", action="store_true",
                        help="omit timing for byte-identical reports")

    def rootargs(sp):
        sp.add_argument("--type", required=True, help="root-system family A|B|C|D")
        sp.add_argument("--rank", type=int, required=True)
        sp.add_argument("--delta", help="Levi simple roots, e.g. a1,a3")
        sp.add_argument("--u", help="reductive subset, e.g. pm-a1 (or none)")
        sp.add_argument("--t", help="t bindings, e.g. a1=t1,a3=2")

    sp = sub.add_parser("classify", help="coefficient family and conditions")
    rootargs(sp); common(sp)

    sp = sub.add_parser("verify-rmatrix", help="tensor-level membership check")
    rootargs(sp)
    sp.add_argument("--recover", action="store_true",
                    help="also run the converse recovery")
    common(sp)

    sp = sub.add_parser("lagrangian", help="Lagrangian subalgebra report")
    rootargs(sp); common(sp)

    sp = sub.add_parser("abrr-check", help="dynamical twist equation")
    sp.add_argument("--order", type=int, default=4)
    common(sp)

    sp = sub.add_parser("cdybe-check", help="classical limit and CDYBE")
    sp.add_argument("--order", type=int, default=4)
    common(sp)

    sp = sub.add_parser("star", help="orbit star-product identities")
    sp.add_argument("--order", type=int, default=3)
    sp.add_argument("--identity", default="all",
                    choices=["all", "commutator", "casimir", "associativity",
                             "quasiclassical", "equivariance",
                             "scalar_reduction", "degree_bound",
                             "filtration_dims"])
    common(sp)

    sp = sub.add_parser("verma-oracle", help="intertwiner composition oracle")
    sp.add_argument("--v", type=int, default=2, help="highest weight of V")
    sp.add_argument("--w", type=int, default=2, help="highest weight of W")
    sp.add_argument("--mutate", action="store_true",
                    help="double the first twist term (sensitivity control)")
    common(sp)

    sp = sub.add_parser("project-twist", help="projection to an ordinary twist")
    sp.add_argument("--order", type=int, default=4)
    sp.add_argument("--variant", default="standard",
                    choices=["standard", "chevalley"])
    common(sp)
    return p


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.job:
        try:
            with open(args.job) as fh:
                job = json.load(fh)
            if not isinstance(job, dict):
                raise ValueError("not a JSON object")
        except (OSError, ValueError) as e:    # JSONDecodeError is a ValueError
            print(f"error: cannot read job file: {e}", file=sys.stderr)
            return 2
        merged = [job.pop("command", args.command)]
        if merged[0] is None:
            print("error: job file missing command", file=sys.stderr)
            return 2
        if not isinstance(merged[0], str):
            print("error: job file command must be a string", file=sys.stderr)
            return 2
        for k, v in job.items():
            flag = "--" + k.replace("_", "-")
            if isinstance(v, bool):
                if v:
                    merged.append(flag)
            else:
                merged.extend([flag, str(v)])
        args = parser.parse_args(merged)
    if not args.command:
        parser.print_help()
        return 2
    t0 = time.monotonic()
    try:
        report = _COMMANDS[args.command](args)
    except (SchemaError, rsys.RootSystemError, cls.SpecError, PoleError, DegreeCapError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # a fault of the program, not of the input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    report = {"command": args.command, **_jsonable(report)}
    if not getattr(args, "canonical", False):
        report["elapsed_seconds"] = round(time.monotonic() - t0, 3)
    text = json.dumps(report, indent=2, sort_keys=True)
    status = "PASS" if report.get("ok") else "FAIL"
    print(f"{args.command}: {status}")
    print(text)
    if getattr(args, "json_out", None):
        try:
            with open(args.json_out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return 2
    return 0 if report.get("ok") else 1


def main() -> None:
    sys.exit(run())
