"""Layer tracing from outside the program.

The benchmark wraps public functions of ``dynstar`` in place. A wrapper of
kind ``span`` records one span per call: name, start, end, parent span and
verdict id. A wrapper of kind ``count`` aggregates call count and self
time in place instead, to keep memory bounded; it is used for the per-call
scalar operations (hundreds of thousands of calls per pass) and for PBW
word straightening (about 80 000 recursive calls per pass of twist-tower).
Spans stay in memory until the run ends.

Self time is a call's duration minus the time covered by its child calls.
A span's children are the spans whose parent it is, plus the counted calls
made directly inside it, whose total time the span carries as ``counted``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

MARK = "__perfbench_group__"


@dataclass(frozen=True)
class Group:
    """One layer metric group: the functions it wraps and how."""

    name: str
    targets: tuple[str, ...]     # "module:attr" or "module:Class.method"
    kind: str = "span"           # "span" or "count"


GROUPS = (
    Group("scalars.arith", tuple(
        f"scalars:FieldElement.{m}" for m in (
            "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
            "__rtruediv__", "__neg__", "__pow__")), "count"),
    Group("scalars.zero_test", tuple(
        f"scalars:FieldElement.{m}" for m in (
            "is_zero", "is_one", "__eq__", "__bool__")), "count"),
    Group("scalars.series", ("scalars:FieldElement.series_expand",), "count"),
    Group("scalars.diff", ("scalars:FieldElement.differentiate",), "count"),
    Group("scalars.to_string", ("scalars:FieldElement.to_string",), "count"),
    Group("enveloping.tensor_mul", ("enveloping:TensorUEA.__mul__",)),
    Group("enveloping.uea_mul", ("enveloping:UEAElement.__mul__",)),
    Group("enveloping.normal_form", ("enveloping:PBWAlgebra.word_normal_form",),
          "count"),
    Group("enveloping.coproduct", ("enveloping:UEAElement.coproduct",
                                   "enveloping:TensorUEA.slot_coproduct")),
    Group("enveloping.change_generators", ("enveloping:change_generators",)),
    Group("twist.series_mul", ("twist:TwistSeries.__mul__",)),
    Group("twist.build", ("twist:abrr_twist",)),
    Group("twist.shift", ("twist:shift_twist",)),
    Group("twist.cocycle", ("twist:check_dynamical_twist",)),
    Group("twist.cdybe", ("twist:check_cdybe", "twist:classical_limit_r")),
    Group("projection.project", ("projection:project_twist",)),
    Group("projection.closed_form", ("projection:closed_form_jv",)),
    Group("projection.axioms", ("projection:check_nondynamical_twist",)),
    Group("classify.recover", ("classify:recover_classification",)),
    Group("classify.levi_roots", ("classify:DynrSpec.levi_roots",
                                  "classify:_levi_of")),
    Group("classify.build", ("classify:build_coefficients",)),
    Group("classify.conditions", ("classify:check_coefficient_conditions",
                                  "classify:check_shift_form")),
    Group("classify.membership", ("classify:check_in_M_Omega",)),
    Group("classify.lagrangian", ("classify:build_lagrangian",)),
    Group("rootsystems.positive_systems", ("rootsystems:positive_systems",)),
    Group("rootsystems.chevalley", ("rootsystems:chevalley_constants",)),
    Group("lie.realize", ("lie:realize_lie_algebra",)),
    Group("lie.cyb", ("lie:cyb",)),
    Group("lie.casimir", ("lie:build_casimir_tensor",)),
    Group("orbits.star_product", ("orbits:star_product",)),
    Group("orbits.derivative", ("orbits:generator_derivative",
                                "orbits:group_action_derivative",
                                "orbits:invariant_derivative")),
    Group("orbits.identities", ("orbits:verify_orbit_identities",)),
    Group("verma.build", ("verma:build_verma",)),
    Group("verma.solve", ("verma:solve_intertwiner",)),
    Group("verma.twist_action", ("verma:twist_action_on_pair",)),
    Group("cli.run", ("cli:run",)),
    Group("cli.cmd", tuple(f"cli:cmd_{c}" for c in (
        "classify", "verify_rmatrix", "lagrangian", "abrr_check",
        "cdybe_check", "star", "verma_oracle", "project_twist"))),
)


class TraceError(RuntimeError):
    pass


class Tracer:
    """Span and counter store for one traced run (single-threaded)."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or None, verdict, counted]
        self.spans: list[list] = []
        # group -> [calls, self seconds] for counted groups
        self.counted: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.verdict: Optional[int] = None
        # open calls: [span index or None, child seconds]
        self._stack: list[list] = []

    def bump(self, key: str, by: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is None:
                raise TraceError(f"span {name} opened inside a counted call")
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else None,
                   self.verdict, 0.0]
            frame = [len(spans), 0.0]
            spans.append(rec)
            stack.append(frame)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                rec[5] = frame[1]

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        total = self.counted.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [None, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                total[0] += 1
                total[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the durations of the
    spans whose parent it is and minus the counted time inside it."""
    out = [end - start - counted
           for _, start, end, _, _, counted in spans]
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


# Extra counters, read around a call: (group, hook) pairs. A ``before``
# hook sees the arguments, an ``after`` hook the result.
def _normal_form_before(tracer: Tracer, args) -> None:
    alg, word = args[0], args[1]
    if word in alg._word_memo:
        tracer.bump("enveloping.normal_form_repeats")


def _terms_after(tracer: Tracer, result) -> None:
    tracer.bump("enveloping.tensor_terms_out", len(result.terms))


def _witnesses_after(tracer: Tracer, result) -> None:
    tracer.bump("classify.recover_witnesses", len(result))


def _positive_after(tracer: Tracer, result) -> None:
    tracer.bump("rootsystems.positive_systems_found", len(result))


HOOKS = {
    "enveloping.normal_form": (_normal_form_before, None),
    "enveloping.tensor_mul": (None, _terms_after),
    "classify.recover": (None, _witnesses_after),
    "rootsystems.positive_systems": (None, _positive_after),
}


def _with_hooks(tracer: Tracer, fn: Callable, before, after) -> Callable:
    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        if before is not None:
            before(tracer, args)
        result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, result)
        return result

    return hooked


def _resolve(target: str) -> Callable:
    module, _, path = target.partition(":")
    owner = importlib.import_module(f"dynstar.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    fn = vars(owner)[attr]
    if not callable(fn):
        raise TraceError(f"{target} is not a function")
    return fn


def _bindings() -> list[tuple[object, str, object]]:
    """Every (container, key, value) a dynstar function can be reached
    through: module globals, class attributes and dict-valued globals such
    as the CLI's command table."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dynstar" or name.startswith("dynstar.")):
            continue
        for key, val in vars(mod).items():
            out.append((mod, key, val))
            if isinstance(val, type) and val.__module__ == name:
                out.extend((val, k, v) for k, v in vars(val).items())
            elif isinstance(val, dict):
                out.extend((val, k, v) for k, v in val.items())
    return out


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every function of GROUPS at every binding it has; returns the
    function that undoes it."""
    wrappers = {}
    for group in GROUPS:
        before, after = HOOKS.get(group.name, (None, None))
        for target in group.targets:
            fn = _resolve(target)
            inner = fn
            if before or after:
                inner = _with_hooks(tracer, fn, before, after)
            make = (tracer.count_wrapper if group.kind == "count"
                    else tracer.span_wrapper)
            wrapped = make(group.name, inner)
            setattr(wrapped, MARK, group.name)
            wrappers[id(fn)] = (fn, wrapped)
    undo = []
    patched = set()
    for container, key, val in _bindings():
        hit = wrappers.get(id(val))
        if hit is not None and hit[0] is val:
            _set(container, key, hit[1])
            undo.append((container, key, val))
            patched.add(id(val))
    missing = [fn.__qualname__ for key, (fn, _) in wrappers.items()
               if key not in patched]
    if missing:
        raise TraceError(f"no binding found for {missing}")

    def uninstall() -> None:
        for container, key, val in reversed(undo):
            _set(container, key, val)

    return uninstall


def installed_wrappers() -> list[str]:
    """Names of bindings that currently hold a benchmark wrapper."""
    return sorted({f"{getattr(c, '__name__', 'dict')}.{k}"
                   for c, k, v in _bindings() if hasattr(v, MARK)})


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Calls and self seconds per group, over spans and counted calls."""
    out = {g.name: {"calls": 0, "self_s": 0.0} for g in GROUPS}
    for rec, self_s in zip(tracer.spans, self_times(tracer.spans)):
        out[rec[0]]["calls"] += 1
        out[rec[0]]["self_s"] += self_s
    for name, (calls, self_s) in tracer.counted.items():
        out[name]["calls"] += calls
        out[name]["self_s"] += self_s
    return out
