"""Byte-identity of ``--canonical`` reports across all eight subcommands.

Each digest is the sha256 of everything ``dynstar`` prints for the command
(the PASS/FAIL line and the JSON report). They were recorded with the
earlier scalar core, which kept sympy expression trees and canonicalized
them with ``cancel``; the num/den PolyRing core must print the same bytes.
The one exception is the chevalley ``project-twist``: its closed form used
to put the rising factorials in the wrong slots, so it reported
``matches_closed_form: false`` and exited 1. That digest was recorded
after the fix, and differs from the old one only in those two lines.

The digests depend on sympy's printer; they were recorded with sympy 1.14.
The B3 ``--recover`` entry finds four witnesses over non-standard simple
systems; its digest was recorded before ``rootsystems.coordinates`` became
the one source of root coordinates. The full-Delta A4 ``--recover`` entry
(120 witnesses) was recorded with the subset search that recovery ran
before it read each positive system's Delta off P.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import dynstar
from dynstar.cli import run

B3_RECOVER = (
    ["verify-rmatrix", "--type", "B", "--rank", "3", "--delta", "a1,a3",
     "--u", "pm-a3", "--recover"],
    0, "a1505223b2bd5f4c156026243d9ed047344ec4812ee4676b973b075a05c88ed1")

GOLDEN = [
    (["classify", "--type", "A", "--rank", "2", "--delta", "a1", "--u", "pm-a1"],
     0, "5ea6952e8034d474c2ff9e3ad36778344704791aa2c0a28b4f12504b6bd2d6a9"),
    (["classify", "--type", "C", "--rank", "3", "--delta", "a2,a3",
      "--t", "a2=t2,a3=3"],
     0, "640cff74055dabe7b78f73cf53e0c6922291a983e65e1870181911b670ed0b57"),
    (["verify-rmatrix", "--type", "A", "--rank", "2", "--delta", "a1",
      "--u", "pm-a1", "--recover"],
     0, "b6d5ac6ab9b246e6cf0581fa864e0b089cac7b02f830eb379990e2fadc3468b7"),
    B3_RECOVER,
    (["verify-rmatrix", "--type", "A", "--rank", "4", "--delta", "a1,a2,a3,a4",
      "--recover"],
     0, "4a4c44c0bd0271b1d05d45dcc1c48b1150c8e70bde96cf8206b95cc00604bed9"),
    (["verify-rmatrix", "--type", "D", "--rank", "4", "--delta", "a1,a3",
      "--u", "pm-a1"],
     0, "3c1911976c4d52517cd95c5996fc53279bcc57dcf8cbc5238b56a31a6c10e23d"),
    (["lagrangian", "--type", "B", "--rank", "3", "--delta", "a2", "--t", "a2=t2"],
     0, "3eeeda36b2f2c5713c1a28933777553b7306fb78ef6bf68b2c6bfc4b93d7ee64"),
    (["abrr-check", "--order", "5"],
     0, "77cc3533ce043e296a6156752f9f7483f6e49876f0b98fc1f6483a4ee6fc9d9d"),
    (["cdybe-check"],
     0, "04f6e52df3c5727f411402fa13284ea54759a06215df23565e1ab9ef6c5418a8"),
    (["star", "--order", "3"],
     0, "85ea1b873944d40f0804e4f419efbc692b735996df240cfc943ce02de1e84b67"),
    (["star", "--order", "2", "--identity", "quasiclassical"],
     0, "c0f5a58c18a994a852c6a04abef649f035b9776cb3ca4834a8c01bdf2b7d96a5"),
    (["verma-oracle", "--v", "8", "--w", "6"],
     0, "53d648f1022944cd31edbcbcfb0d00d8353622b731c7c1ac960aa3427b0e06a6"),
    (["verma-oracle", "--v", "4", "--w", "4", "--mutate"],
     1, "69ecb6b88c4c63424adf69be654f520887152a5957008f3b92f6885a6d1646d8"),
    (["project-twist", "--order", "6", "--variant", "standard"],
     0, "5f67dab6403cefd295ffaeaf9bf832e313242268e990ea639cf92973b4d71525"),
    (["project-twist", "--order", "6", "--variant", "chevalley"],
     0, "df14462cc853b1e7ed0d6eedabdc13a52cf328fc7528b720d94c846c631429b5"),
]


def _cold(argv, *flags):
    """The canonical run of ``argv`` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(dynstar.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *flags, "-m", "dynstar", *argv,
                           "--canonical"],
                          capture_output=True, env=env, timeout=300)


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=["_".join(a.lstrip("-") for a in g[0]) for g in GOLDEN])
def test_canonical_report_digest(capsys, argv, code, digest):
    assert run(argv + ["--canonical"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_recover_report_survives_optimize_flag():
    # python -O strips assert statements; the invariants recovery, the
    # twist series' entry check and the star sweep's invariance checks
    # rely on are explicit raises, so the verdicts and reports must not
    # change
    cases = [B3_RECOVER] + [g for g in GOLDEN if g[0][:3] in (
        ["abrr-check", "--order", "5"], ["project-twist", "--order", "6"],
        ["star", "--order", "3"])]
    assert len(cases) == 5
    for argv, code, digest in cases:
        proc = _cold(argv, "-O")
        assert proc.returncode == code, argv
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, argv


# A process builds U sl(2), its splittings and its parameter contexts once,
# and each root system, structure table and checked U-free realization
# once per (family, rank), and shares them with every later verdict; none
# of them may carry state from one verdict into the next.

def _report(capsys, argv):
    code = run(argv + ["--canonical"])
    return code, capsys.readouterr().out


def test_warm_process_replays_every_golden_report(capsys):
    for argv, code, digest in GOLDEN + GOLDEN[::-1]:
        got, out = _report(capsys, argv)
        assert got == code, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_warm_mutated_shift_fails_and_leaves_no_trace(capsys, monkeypatch):
    import dynstar.twist as twist
    argv = ["abrr-check", "--order", "4"]
    code, first = _report(capsys, argv)
    assert code == 0
    real = twist._h_powers
    with monkeypatch.context() as m:
        m.setattr(twist, "_h_powers",
                  lambda alg, shift, kmax: real(alg, 2 * shift, kmax))
        assert _report(capsys, argv)[0] == 1
    assert _report(capsys, argv) == (0, first)


def test_degree_cap_leaves_a_warm_process_as_cold(capsys):
    argv = ["abrr-check", "--order", "4"]
    cold = _cold(argv)
    assert cold.returncode == 0
    assert run(["abrr-check", "--order", "17", "--canonical"]) == 2
    capsys.readouterr()
    assert _report(capsys, argv) == (0, cold.stdout.decode())


def test_corrupt_cached_splitting_fails_its_verdict(capsys, monkeypatch):
    from dynstar import cli
    argv = ["project-twist", "--order", "3"]
    code, first = _report(capsys, argv)
    assert code == 0
    monkeypatch.setitem(cli._splitting("standard").from_split, "c", {"h": 1})
    assert run(argv + ["--canonical"]) == 3
    assert "splitting self-check failed" in capsys.readouterr().err
    monkeypatch.undo()
    assert _report(capsys, argv) == (0, first)


B3 = ["--type", "B", "--rank", "3"]
B3_SEQUENCE = [
    (B3_RECOVER[0], 0),
    (["verify-rmatrix", *B3, "--delta", "a2", "--recover"], 0),
    (["lagrangian", *B3, "--delta", "a2,a3", "--u", "pm-a2"], 0),
    (["verify-rmatrix", *B3, "--delta", "a1,a2", "--u", "pm-a1",
      "--recover"], 0),
    (["verify-rmatrix", *B3, "--delta", "a1,a2", "--u", "pm-a1,pm-a2"], 2),
    (["classify", *B3, "--delta", "a3", "--u", "pm-a3"], 0),
    (["lagrangian", *B3, "--delta", "a2", "--t", "a2=1"], 2),
    (["verify-rmatrix", *B3, "--delta", "a1,a3", "--u", "pm-a2"], 2),
    (["verify-rmatrix", *B3, "--delta", "a1,a2,a3", "--u", "pm-a3",
      "--recover"], 0),
    (["lagrangian", *B3, "--delta", "none"], 0),
]


def test_warm_root_recovery_sequence_matches_cold_runs(capsys):
    # one type under different U and Delta: every verdict after the first
    # finds its root system, table and U-free algebra already built
    cold = {}
    for argv, code in B3_SEQUENCE:
        proc = _cold(argv)
        assert proc.returncode == code, argv
        cold[tuple(argv)] = proc.stdout.decode()
    for argv, code in B3_SEQUENCE + B3_SEQUENCE[::-1]:
        assert _report(capsys, argv) == (code, cold[tuple(argv)]), argv


STAR_SEQUENCE = [
    (["star", "--order", "1", "--identity", "scalar_reduction"], 0),
    (["abrr-check", "--order", "4"], 0),
    (["star", "--order", "3", "--identity", "equivariance"], 0),
    (["star", "--order", "2"], 0),
    (["star", "--order", "0", "--identity", "scalar_reduction"], 0),
]


def test_warm_star_sequence_matches_cold_runs(capsys):
    # every star sweep builds its twist on the process's U sl(2), whose
    # memos the other sweeps and the twist verdicts have filled
    cold = {}
    for argv, code in STAR_SEQUENCE:
        proc = _cold(argv)
        assert proc.returncode == code, argv
        cold[tuple(argv)] = proc.stdout.decode()
    for argv, code in STAR_SEQUENCE + STAR_SEQUENCE[::-1]:
        assert _report(capsys, argv) == (code, cold[tuple(argv)]), argv
