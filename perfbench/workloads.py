"""Seeded inputs for the verdict benchmark, each with its known answer.

A workload is a batch: a list of CLI argument vectors for ``dynstar``.
Every input carries the exit status the mathematics predicts (0 PASS,
1 FAIL, 2 bad input); nothing here is read off a run of the program.

Each batch is drawn from a fixed histogram of input shapes, so every seed
gives the same amount of work and only the concrete data changes: the
diagram automorphism that moves each classification template, the
t-values, the star identity and order, the odd-weight controls, the
chevalley/standard assignment and the order in which verdicts are
issued. That keeps run-to-run spread a property of the program, not of the
draw.

Deliberately not workloads:

* ``verify-rmatrix A4/B4 --recover`` take about 42 s and 220 s each, longer
  than a whole run of this benchmark, which a comparison repeats many times.
* The tier-1 test suite changes from commit to commit, so its time does
  not compare two commits on the same work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

PASS, FAIL, BAD_INPUT = 0, 1, 2

# The chevalley splitting gives ``a (x) b`` at order 1 (-1/lam * a(x)b),
# but ``projection.closed_form_jv`` hard-codes b in slot 1 and a in slot 2
# (-1/lam * b(x)a), so ``project-twist --variant chevalley`` exits 1
# although its ``axioms.ok`` is true. The mathematics predicts PASS; the
# mismatch counts as a failed verdict and is not filtered from the draw.
CHEVALLEY_CLOSED_FORM = "closed_form_jv hard-codes b(x)a; chevalley order 1 is a(x)b"


@dataclass(frozen=True)
class Input:
    argv: tuple[str, ...]
    expect: int
    # generating (simple roots, Levi set) that --recover must report
    witness: Optional[tuple[frozenset, frozenset]] = None
    # a documented defect: the observed exit status it produces instead
    defect: Optional[str] = None
    defect_exit: Optional[int] = None


# ---------------------------------------------------------------------------
# twist-tower: dynamical twists, their shift/cocycle checks and projection
# ---------------------------------------------------------------------------

# (command, order) -> multiplicity; orders stay 4..7. Verdict costs form
# clusters (cdybe < abrr 4 < abrr 5 ~ project 4 < project 5 ~ abrr 6 <
# project 6). The counts put the median (15th and 16th of 30, abrr 4) and
# the tail (20th, the third of six project 4) inside a cluster rather than
# on the gap between two, so that neither jumps between clusters from run
# to run. One pass takes about 8 s.
_TWIST_TOWER = {
    ("cdybe-check", 4): 2, ("cdybe-check", 5): 2, ("cdybe-check", 6): 2,
    ("cdybe-check", 7): 2,
    ("abrr-check", 4): 8, ("abrr-check", 5): 1, ("abrr-check", 6): 2,
    ("project-twist", 4): 6, ("project-twist", 5): 4, ("project-twist", 6): 1,
}


def twist_tower(rng: random.Random) -> list[Input]:
    slots = [key for key, n in sorted(_TWIST_TOWER.items()) for _ in range(n)]
    n_project = sum(1 for cmd, _ in slots if cmd == "project-twist")
    # half of the projections, rounded down, use the chevalley splitting
    variants = ["chevalley"] * (n_project // 2)
    variants += ["standard"] * (n_project - len(variants))
    rng.shuffle(variants)
    out = []
    for cmd, order in slots:
        argv = (cmd, "--order", str(order))
        if cmd == "project-twist":
            variant = variants.pop()
            argv += ("--variant", variant)
            if variant == "chevalley":
                out.append(Input(argv, PASS, defect=CHEVALLEY_CLOSED_FORM,
                                 defect_exit=FAIL))
                continue
        out.append(Input(argv, PASS))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# root-recovery: classification data, membership, recovery, Lagrangians
# ---------------------------------------------------------------------------

def dynkin_edges(family: str, rank: int) -> set[tuple[int, int]]:
    """Adjacent simple roots (1-based, Bourbaki order) of A-D diagrams."""
    if family == "D":
        return ({(i, i + 1) for i in range(1, rank - 1)}
                | {(rank - 2, rank)})
    return {(i, i + 1) for i in range(1, rank)}


def diagram_automorphisms(family: str, rank: int) -> list[dict[int, int]]:
    """Permutations of the simple roots that preserve the Dynkin diagram.

    They map classification data to data of the same shape and cost.
    """
    ident = {k: k for k in range(1, rank + 1)}
    if family == "A" and rank > 1:
        return [ident, {k: rank + 1 - k for k in ident}]
    if family == "D":
        # the legs of the fork: a2, a3 at rank 3 (a1 is the centre), and
        # a1, a3, a4 at rank 4 (a2 is the centre)
        legs = (2, 3) if rank == 3 else (1, 3, 4)
        return [{**ident, **dict(zip(legs, perm))}
                for perm in itertools.permutations(legs)]
    return [ident]


def _simple_str(k: int, rank: int) -> str:
    return "(" + ",".join("1" if i == k - 1 else "0" for i in range(rank)) + ")"


@dataclass(frozen=True)
class ClassData:
    """Classification data as the CLI takes it: a Levi set Delta and a
    reductive U by simple-root index, and integer t-values by simple-root
    index. Simple roots of Delta outside U without a binding get the
    context symbol t_k."""

    family: str
    rank: int
    delta: tuple[int, ...]
    u: tuple[int, ...]
    t: tuple[tuple[int, int], ...]     # (simple index, integer value)

    def args(self) -> tuple[str, ...]:
        out = ("--type", self.family, "--rank", str(self.rank),
               "--delta", ",".join(f"a{k}" for k in self.delta) or "none",
               "--u", ",".join(f"pm-a{k}" for k in self.u) or "none")
        if self.t:
            out += ("--t", ",".join(f"a{k}={v}" for k, v in self.t))
        return out

    def is_valid(self) -> bool:
        """U is a set of pairwise orthogonal simple roots of Delta, so it is
        reductive and lies in N; every bound t-value outside U is an
        integer >= 2 and every other one a symbol, so no root of N outside
        U has t_alpha = 1 (a coth pole)."""
        edges = dynkin_edges(self.family, self.rank)
        orthogonal = all((min(i, j), max(i, j)) not in edges
                         for i in self.u for j in self.u)
        return (set(self.u) <= set(self.delta) and orthogonal
                and all(k in self.delta and k not in self.u and v >= 2
                        for k, v in self.t))

    def witness(self) -> tuple[frozenset, frozenset]:
        simple = frozenset(_simple_str(k, self.rank)
                           for k in range(1, self.rank + 1))
        return simple, frozenset(_simple_str(k, self.rank) for k in self.delta)


def _automorphism(rng: random.Random, family: str, rank: int):
    """A random diagram automorphism, acting on tuples of simple indices."""
    sigma = rng.choice(diagram_automorphisms(family, rank))
    return lambda ks: tuple(sorted(sigma[k] for k in ks))


def draw_class_data(rng: random.Random, family: str, rank: int,
                    delta: tuple[int, ...], u: tuple[int, ...],
                    symbolic: tuple[int, ...]) -> ClassData:
    """The template data moved by a random diagram automorphism, with
    random integer t-values on Delta outside U and ``symbolic``."""
    moved = _automorphism(rng, family, rank)
    ints = [k for k in moved(delta) if k not in moved(u) + moved(symbolic)]
    return ClassData(family, rank, moved(delta), moved(u),
                     tuple((k, rng.randint(2, 9)) for k in ints))


# (command, family, rank, Delta, U, simple roots with a symbolic t). Each
# slot is a template of fixed shape; the seed moves it by a diagram
# automorphism and draws its integer t-values, so every seed does the same
# work. The family of a slot is fixed for the same reason: B, C and D
# matrix models cost differently. The tail (the 11th costliest of 32
# verdicts) falls in a cluster of three near-equal verdicts, two copies of
# the classify A2 slot and the classify B3 control (about 0.19 s at the
# reference speed), rather than on the edge of one.
_ROOT_RECOVERY = [
    ("verify-rmatrix --recover", "A", 2, (1,), (1,), ()),
    ("verify-rmatrix --recover", "A", 2, (1, 2), (), ()),
    ("verify-rmatrix --recover", "B", 2, (1,), (), (1,)),
    ("verify-rmatrix --recover", "C", 2, (1, 2), (2,), ()),
    ("verify-rmatrix --recover", "A", 3, (1,), (), ()),
    ("verify-rmatrix", "A", 2, (1,), (), ()),
    ("verify-rmatrix", "A", 3, (1, 2), (1,), ()),
    ("verify-rmatrix", "A", 3, (2, 3), (3,), ()),
    ("verify-rmatrix", "B", 3, (2, 3), (3,), ()),
    ("verify-rmatrix", "A", 4, (1, 3), (3,), ()),
    ("classify", "A", 2, (1, 2), (), (2,)),
    ("classify", "B", 2, (2,), (2,), ()),
    ("classify", "C", 2, (1,), (1,), ()),
    ("classify", "A", 3, (1, 3), (1,), (3,)),
    ("classify", "A", 2, (1, 2), (), (2,)),
    ("classify", "D", 4, (1, 2), (), ()),
    ("lagrangian", "A", 2, (1,), (), ()),
    ("lagrangian", "B", 2, (2,), (), ()),
    ("lagrangian", "C", 2, (1, 2), (1,), (2,)),
    ("lagrangian", "A", 3, (1, 3), (1, 3), ()),
    ("lagrangian", "A", 3, (2, 3), (2,), (3,)),
    ("lagrangian", "A", 3, (1, 2), (2,), ()),
    ("lagrangian", "B", 3, (3,), (), (3,)),
    ("lagrangian", "A", 4, (2, 4), (4,), (2,)),
]

# Invalid-data controls, (command, family, rank, Delta, U, t = 1 on):
# t = 1 on a simple root of Delta outside U is a coth pole, and a U
# holding a simple root outside Delta does not lie in N. Both exit 2.
_ROOT_CONTROLS = [
    ("classify", "A", 3, (2,), (), (2,)),
    ("verify-rmatrix", "C", 3, (1,), (), (1,)),
    ("lagrangian", "A", 2, (2,), (), (2,)),
    ("classify", "D", 4, (1,), (), (1,)),
    ("classify", "B", 3, (1, 3), (2,), ()),
    ("verify-rmatrix", "A", 3, (1, 2), (3,), ()),
    ("lagrangian", "A", 4, (2,), (1,), ()),
    ("lagrangian", "D", 3, (3,), (1,), ()),
]


def root_recovery(rng: random.Random) -> list[Input]:
    out = []
    for cmd, family, rank, delta, u, symbolic in _ROOT_RECOVERY:
        data = draw_class_data(rng, family, rank, delta, u, symbolic)
        words = cmd.split()
        argv = (words[0],) + data.args() + tuple(words[1:])
        recover = "--recover" in words
        out.append(Input(argv, PASS,
                         witness=data.witness() if recover else None))
    for cmd, family, rank, delta, u, t_one in _ROOT_CONTROLS:
        moved = _automorphism(rng, family, rank)
        data = ClassData(family, rank, moved(delta), moved(u),
                         tuple((k, 1) for k in moved(t_one)))
        out.append(Input((cmd,) + data.args(), BAD_INPUT))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# orbit-oracle: star-product identities and the Verma composition oracle
# ---------------------------------------------------------------------------

STAR_IDENTITIES = ("all", "commutator", "casimir", "associativity",
                   "quasiclassical", "equivariance", "scalar_reduction",
                   "degree_bound", "filtration_dims")

# ``star --order`` stays <= 3: the CLI clamps larger values to 3, so a
# later fix of that clamp must not change the work done here.
_STAR_COUNT = 4
# Highest-weight sums v + w -> multiplicity; the oracle's cost follows
# v + w. The counts put the median (14th and 15th of 28 verdicts) inside
# the sum-8 cluster and the tail (18th) inside the sum-10 cluster.
_VERMA_SUMS = {4: 3, 6: 3, 8: 6, 10: 4, 12: 2, 14: 1, 16: 1}
# one verdict of each of these sums runs with --mutate
_MUTATE_SUMS = (6, 8, 10, 12)
_ODD_CONTROLS = 4


def _even_split(total: int) -> tuple[int, int]:
    """The most even split of ``total`` into even weights v <= w. The split
    is fixed because the oracle's cost depends on it: uneven splits of the
    same sum cost up to 30% less, and (6, 4) 20% less than (4, 6)."""
    v = 2 * (total // 4)
    return v, total - v


def orbit_oracle(rng: random.Random) -> list[Input]:
    out = []
    for _ in range(_STAR_COUNT):
        argv = ("star", "--order", str(rng.randint(1, 3)),
                "--identity", rng.choice(STAR_IDENTITIES))
        out.append(Input(argv, PASS))
    for total, n in sorted(_VERMA_SUMS.items()):
        for k in range(n):
            v, w = _even_split(total)
            argv = ("verma-oracle", "--v", str(v), "--w", str(w))
            if k == 0 and total in _MUTATE_SUMS:
                # doubling the n = 1 term changes the twisted side whenever
                # y v0 and x w0 are nonzero, i.e. for v, w >= 2
                out.append(Input(argv + ("--mutate",), FAIL))
            else:
                out.append(Input(argv, PASS))
    for _ in range(_ODD_CONTROLS):
        v, w = _even_split(2 * rng.randint(2, 5))
        if rng.random() < 0.5:
            v += 1
        else:
            w += 1
        # an odd highest weight has no zero-weight vector: bad input
        out.append(Input(("verma-oracle", "--v", str(v), "--w", str(w)),
                         BAD_INPUT))
    rng.shuffle(out)
    return out


WORKLOADS = {
    "twist-tower": twist_tower,
    "root-recovery": root_recovery,
    "orbit-oracle": orbit_oracle,
}


def batch(workload: str, seed: int) -> list[Input]:
    """The seeded batch of one workload; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# Layer groups (see tracer.GROUPS; a name ending in "." means every group
# of that layer) that must see calls on a workload, and groups that must
# not. A traced run that breaks either fails: an unpatched binding shows as
# a group with no calls, and a drifting workload as calls in an idle layer.
_EVERY = ("scalars.arith", "scalars.zero_test", "scalars.to_string",
          "cli.")
COVERAGE = {
    "twist-tower": {
        "work": _EVERY + ("scalars.series", "scalars.diff", "enveloping.",
                          "twist.", "projection."),
        "idle": ("classify.", "rootsystems."),
    },
    "root-recovery": {
        "work": _EVERY + ("classify.", "rootsystems.", "lie."),
        "idle": ("enveloping.",),
    },
    "orbit-oracle": {
        "work": _EVERY + ("scalars.series", "orbits.", "verma."),
        "idle": ("classify.", "rootsystems."),
    },
}


def coverage_errors(workload: str, calls: dict[str, int]) -> list[str]:
    """Groups whose call count contradicts COVERAGE for the workload."""
    def chosen(patterns):
        return [g for g in calls
                if any(g == p or (p.endswith(".") and g.startswith(p))
                       for p in patterns)]

    rule = COVERAGE[workload]
    return ([f"{g}: no calls, but {workload} expects work"
             for g in chosen(rule["work"]) if not calls[g]]
            + [f"{g}: {calls[g]} calls, but {workload} never uses it"
               for g in chosen(rule["idle"]) if calls[g]])
