"""Golden reports: every run of ``tests/golden/regen.py``'s table against its stored file.

On the machine that wrote the corpus (``tests/golden/MACHINE.json``: numpy, its
BLAS and the OpenBLAS kernel it runs, since a GEMM's bits depend on them, Python,
the platform and the CPU) each run must print its file byte for byte.  Elsewhere numpy may round differently, so a
report is compared by what rounding cannot move: the run it echoes, its check
names in order, each verdict (the residual's side of its tolerance), the discard
count and, for a failing check, the worst point; a passing check's worst point
is the largest of residuals at rounding level, so it is left out.  A tensor or
build-config document is compared to a relative 1e-9, and an error text exactly.
Both halves run on a machine whose numpy has a DYNAMIC_ARCH OpenBLAS: the
outcome half replays the corpus in a child process on another kernel.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from tests.golden import regen

SAME_MACHINE = json.loads(regen.MACHINE.read_text(encoding="utf-8")) == regen.machine()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("documents")
    cwd = os.getcwd()
    try:
        regen.write_documents(directory)
    finally:
        os.chdir(cwd)
    return directory


def _close(want, got) -> bool:
    if isinstance(want, dict):
        return isinstance(got, dict) and list(want) == list(got) and all(_close(want[k], got[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(want) == len(got) and all(map(_close, want, got))
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-300)
    return want == got


def _assert_same_outcome(want: dict, got: dict) -> None:
    if "checks" not in want:  # a tensor or build-config document
        assert _close(want, got)
        return
    assert (got["run"], got["discarded_points"], got["version"]) == (
        want["run"], want["discarded_points"], want["version"])
    assert [(c["name"], c["pass"]) for c in got["checks"]] == [(c["name"], c["pass"]) for c in want["checks"]]
    for w, g in zip(want["checks"], got["checks"]):
        assert (g["worst_point"] is None) == (w["worst_point"] is None)
        if not w["pass"] and w["worst_point"] is not None:
            assert _close(w["worst_point"], g["worst_point"]), w["name"]


@pytest.mark.parametrize("name", regen.SPECS)
def test_run_matches_its_golden_file(monkeypatch, documents, name):
    monkeypatch.chdir(documents)
    suffix, text = regen.render(regen.SPECS[name])
    path = regen.REPORTS / f"{name}{suffix}"
    assert path.is_file(), f"{name} now gives {suffix}: {text[:300]}"
    stored = path.read_text(encoding="utf-8")
    if SAME_MACHINE or suffix == ".err":
        assert text == stored
    else:
        _assert_same_outcome(json.loads(stored), json.loads(text))


def test_runs_in_reverse_order_match_their_golden_files(monkeypatch, documents):
    # a process keeps what it caches (the pair indices per n) for its later runs:
    # a run's bytes must not depend on the runs before it, so the table replayed
    # backwards in one process gives every file again
    monkeypatch.chdir(documents)
    for name in reversed(list(regen.SPECS)):
        suffix, text = regen.render(regen.SPECS[name])
        stored = (regen.REPORTS / f"{name}{suffix}").read_text(encoding="utf-8")
        if SAME_MACHINE or suffix == ".err":
            assert text == stored, name
        else:
            _assert_same_outcome(json.loads(stored), json.loads(text))


def test_a_check_a_report_loses_or_gains_is_named():
    # regeneration names every file whose checks change: a check dropped from a report, with the other
    # checks, verdicts and the discard count unmoved, is still an outcome that moved
    old = (regen.REPORTS / "verify-restriction-blocks23-r.json").read_text(encoding="utf-8")
    report = json.loads(old)
    first, *rest = report["checks"]
    new = json.dumps({**report, "checks": rest})
    assert regen.outcome_moved(old, new) == f"{first['name']}: removed"
    assert regen.moved(old, new) == [f"{first['name']}: removed"]
    assert regen.outcome_moved(new, old) == f"{first['name']}: added"
    assert regen.outcome_moved(old, old) is None
    flipped = json.dumps({**report, "discarded_points": 7, "checks": [{**first, "pass": not first["pass"]}]})
    assert regen.outcome_moved(old, flipped) == "; ".join(
        [f"discarded_points: {report['discarded_points']} -> 7", *(f"{c['name']}: removed" for c in rest),
         f"{first['name']}: {first['pass']} -> {not first['pass']}"])


def test_the_corpus_has_one_file_per_run():
    stems = sorted(path.stem for path in regen.REPORTS.iterdir())
    assert stems == sorted(regen.SPECS)


def _dynamic_arch_openblas() -> bool:
    """True iff numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, whose kernel OPENBLAS_CORETYPE chooses."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# a child process that writes the documents into argv[1], renders every run of the table there and
# prints {"core": its BLAS kernel, "runs": {name: [suffix, text]}} as one JSON line
_REPLAY = """
import json, pathlib, sys
from tests.golden import regen
regen.write_documents(pathlib.Path(sys.argv[1]))
runs = {name: regen.render(argv) for name, argv in regen.SPECS.items()}
print(json.dumps({"core": regen.blas_core(), "runs": runs}))
"""


@pytest.mark.skipif(not _dynamic_arch_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                                                          "OPENBLAS_CORETYPE cannot choose another kernel")
def test_the_corpus_keeps_its_outcomes_on_another_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE=Zen, set for the child alone, runs the corpus on another kernel than the detected
    # one, whose bytes differ in about half of the files: every run must still meet _assert_same_outcome,
    # and every error text must match exactly
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, OPENBLAS_CORETYPE="Zen", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _REPLAY, str(tmp_path)], capture_output=True, text=True,
                          env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    replay = json.loads(proc.stdout.splitlines()[-1])
    assert replay["core"] is not None
    assert sorted(replay["runs"]) == sorted(regen.SPECS)
    for name, (suffix, text) in replay["runs"].items():
        path = regen.REPORTS / f"{name}{suffix}"
        assert path.is_file(), f"{name} gives {suffix} on the {replay['core']} kernel: {text[:300]}"
        stored = path.read_text(encoding="utf-8")
        if suffix == ".err":
            assert text == stored, name
        else:
            _assert_same_outcome(json.loads(stored), json.loads(text))
