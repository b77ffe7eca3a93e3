"""Golden reports: the command-line output of a fixed table of runs, one file per run.

``SPECS`` maps a run's name to its ``trigwdvv`` arguments.  Each run goes
through ``cli.main`` with ``--json``: a run that exits 0 or 1 is stored as
``reports/<name>.json``, the report or document text that ``dumps_17g``
wrote, and a run that exits 2 as ``reports/<name>.err``, its one line
"error: <type>: <text>".  A run that reads ``--config NAME`` gets the
document ``DOCUMENTS[NAME]``, written to a scratch directory that is the
working directory during the run.  ``MACHINE.json`` records where the corpus
was written, the BLAS and the OpenBLAS kernel it runs included, since a GEMM's
bits depend on both; ``tests/test_golden.py`` compares bytes there, and
elsewhere only what does not depend on rounding.

Regenerate the corpus (it removes the files of runs no longer in the table,
and names on stderr each file whose bytes change, with every check whose
max_residual moved, old -> new, and every check removed or added, then ends
with one line for each file that lost or gained a check, or whose discard
count or a verdict moved):

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
REPORTS = HERE / "reports"
MACHINE = HERE / "MACHINE.json"


def _family(n, r, s, q, m) -> list[str]:
    return ["--family", "bcn", "--n", str(n), "--r", str(r), "--s", str(s), "--q", str(q),
            "--m", ",".join(map(str, m))]


# the benchmark's workloads: command, m, r at the theorem, samples, run options
_WORKLOADS = {
    "wdvv_n10": ("verify-wdvv", (1,) * 10, -16, 5, []),
    "restriction_m5x4": ("verify-restriction", (5, 5, 5, 5), -36, 2, []),
    "susy_n4": ("verify-susy", (1, 1, 1, 1), -4, 5, ["--tol", "1e-4", "--box", "0.3,4", "--theta", "0.6"]),
    "assoc_n12": ("verify-associativity", (1,) * 12, -20, 10, []),
}
# two theorem families at unequal m: n, r, s, q, m
_FAMILIES = {"m122": (3, -20, 1, 2, (1, 2, 2)), "m2131": (4, -14, 0.5, 1, (2, 1, 3, 1))}
# the restriction at small blocks, at q = 0 and on a box about the origin, and at two wider margins
# theta: family (n, r at the theorem, s, q, blocks m) and run options (theta = 0.6 leaves blocks
# 2,3,4,5 a box too narrow)
_BLOCKS23, _BLOCKS2345 = (2, -20, 1, 2, (2, 3)), (4, -24, 0, 1, (2, 3, 4, 5))
_RESTRICTIONS = {
    "blocks23": (_BLOCKS23, []),
    "blocks23-box": (_BLOCKS23, ["--box", "-1,1"]),
    **{f"blocks23-theta{theta}": (_BLOCKS23, ["--theta", theta]) for theta in ("0.3", "0.6")},
    "blocks111": ((3, -2, 0, 1, (1, 1, 1)), []),
    "blocks23-q0": ((2, -8, 1, 0, (2, 3)), []),
    **{f"blocks2345-theta{theta}": (_BLOCKS2345, ["--theta", theta]) for theta in ("0.3", "0.6")},
}
_VERIFY = ("verify-wdvv", "verify-associativity", "verify-metric", "verify-restriction", "verify-susy")
_HUGE = "1" + "0" * 399  # a 400-digit integer, which no float holds

# name -> the document's text, or the arguments of the build-config run that prints it
DOCUMENTS: dict[str, str | list[str]] = {
    **{f"m122_r{r}.json": ["build-config", *_family(3, r, 1, 2, (1, 2, 2))] for r in (-20, -19)},
    "q0.json": ["build-config", *_family(3, -1, 1, 0, (1, 1, 1))],
    "one_covector.json": '{"explicit": {"dimension": 2, "members": [{"vector": [1, 0], "multiplicity": 1}]}}',
    "rank2_in_3.json": '{"explicit": {"dimension": 3, "members": [{"vector": [1, 0, 0], "multiplicity": 1},'
                       ' {"vector": [1, 1, 0], "multiplicity": 2}]}}',
    "members-int.json": '{"explicit": {"dimension": 2, "members": 5}}',
    "dimension-str.json": '{"explicit": {"dimension": "x", "members": []}}',
    "dimension-float.json": '{"explicit": {"dimension": 2.9, "members": [{"vector": [1, 0], "multiplicity": 1}]}}',
    "dimension-huge.json": f'{{"explicit": {{"dimension": {_HUGE}, "members": []}}}}',
    # no members in R^(2^40), which build-config prints back, and in R^(2^62), which numpy cannot lay out
    "dimension-2to40.json": f'{{"explicit": {{"dimension": {2**40}, "members": []}}}}',
    "dimension-2to62.json": f'{{"explicit": {{"dimension": {2**62}, "members": []}}}}',
    "vector-int.json": '{"explicit": {"dimension": 2, "members": [{"vector": 5, "multiplicity": 1}]}}',
    "vector-str.json": '{"explicit": {"dimension": 2, "members": [{"vector": "10", "multiplicity": 1}]}}',
    "vector-bool.json": '{"explicit": {"dimension": 2, "members": [{"vector": [true, 0], "multiplicity": 1}]}}',
    "vector-nested.json": '{"explicit": {"dimension": 2, "members": [{"vector": [[1], 0], "multiplicity": 1}]}}',
    "multiplicity-str.json": '{"explicit": {"dimension": 2, "members": [{"vector": [1, 0], "multiplicity": "a"}]}}',
    "multiplicity-null.json": '{"explicit": {"dimension": 2, "members": [{"vector": [1, 0], "multiplicity": null}]}}',
    "multiplicity-inf.json": '{"explicit": {"dimension": 2, "members": [{"vector": [1, 0], "multiplicity": Infinity}]}}',
    "n-float.json": '{"family": "bcn", "n": 2.7, "r": -20, "s": 1, "q": 2, "m": [2, 3]}',
    "n-bool.json": '{"family": "bcn", "n": true, "r": -6, "s": 1, "q": 2, "m": [2]}',
    "n-str.json": '{"family": "bcn", "n": "2", "r": -20, "s": 1, "q": 2, "m": [2, 3]}',
    "n-huge.json": f'{{"family": "bcn", "n": {_HUGE}, "r": -20, "s": 1, "q": 2, "m": [2, 3]}}',
    "m-str.json": '{"family": "bcn", "n": 2, "r": -20, "s": 1, "q": 2, "m": "23"}',
    "m-entry-str.json": '{"family": "bcn", "n": 2, "r": -20, "s": 1, "q": 2, "m": ["2", 3]}',
    "r-str.json": '{"family": "bcn", "n": 2, "r": "-6", "s": 1, "q": 2, "m": [2, 3]}',
    "r-bool.json": '{"family": "bcn", "n": 2, "r": true, "s": 1, "q": 2, "m": [2, 3]}',
    "r-nan.json": '{"family": "bcn", "n": 2, "r": NaN, "s": 1, "q": 2, "m": [2, 3]}',
    "r-huge.json": f'{{"family": "bcn", "n": 2, "r": {_HUGE}, "s": 1, "q": 2, "m": [2, 3]}}',
    "q-null.json": '{"family": "bcn", "n": 2, "r": -20, "s": 1, "q": null, "m": [2, 3]}',
}

SPECS: dict[str, list[str]] = {
    # the workloads at three seeds, at the theorem and at r + 1
    **{
        f"{name}-seed{seed}-r{'+1' if shift else ''}": [
            command, *_family(len(m), r + shift, 0, 1, m), "--samples", str(samples), "--seed", str(seed), *options
        ]
        for name, (command, m, r, samples, options) in _WORKLOADS.items()
        for seed in (0, 1, 42)
        for shift in (0, 1)
    },
    # every verify command on two unequal-m families, at the theorem and at r + 1
    **{
        f"{command}-{fam}-r{'+1' if shift else ''}": [command, *_family(n, r + shift, s, q, m)]
        for command in _VERIFY
        for fam, (n, r, s, q, m) in _FAMILIES.items()
        for shift in (0, 1)
    },
    # the m=1,2,2 family as its build-config document, printed and verified
    **{f"build-config-m122-r{r}": DOCUMENTS[f"m122_r{r}.json"] for r in (-20, -19)},
    **{
        f"{command}-m122-document-r{r}": [command, "--config", f"m122_r{r}.json"]
        for command in ("verify-wdvv", "verify-associativity")
        for r in (-20, -19)
    },
    # an explicit source whose metric B(x) fails the usable-pivot rule at some points (6 discards at seed 0)
    "verify-associativity-q0-document-wide-box": ["verify-associativity", "--config", "q0.json", "--box", "0.3,12",
                                                  "--samples", "50"],
    "tensor-m122": ["tensor", *_family(3, -20, 1, 2, (1, 2, 2)), "--point", "0.5,0.9,1.3"],
    # the supersymmetric block at n = 1, 2 and 3, and at unit m with n = 5, each at its r and at r + 1
    # (n = 1 at r = 1 is off the theorem, r = -5); further runs the console rows make, n = 20 among them
    **{
        f"verify-susy-n{n}{'-r+1' if shift else ''}": ["verify-susy", *_family(n, r + shift, s, q, m)]
        for n, r, s, q, m in ((1, 1, 0.5, 0, (2,)), (2, 0, 0, 1, (1, 1)), (3, -2, 0, 1, (1, 1, 1)),
                              (5, -6, 0, 1, (1,) * 5))
        for shift in (0, 1)
    },
    # the rescaled pattern at m = 0.1,1 in a box near the origin: the sampler takes every point that
    # keeps the margin from the rescaled hyperplanes, some with |sinh 2x^_1| below theta
    **{
        f"verify-susy-m0.1-near-origin{'-r+1' if shift else ''}": [
            "verify-susy", *_family(2, 1.8 + shift, 0, 1, (0.1, 1)), "--box", "0.01,0.5", "--samples", "20"]
        for shift in (0, 1)
    },
    "verify-wdvv-n20": ["verify-wdvv", *_family(20, -36, 0, 1, (1,) * 20), "--samples", "5"],
    "verify-wdvv-q0": ["verify-wdvv", *_family(3, -1, 1, 0, (1, 1, 1)), "--samples", "1"],
    "verify-wdvv-q0-wide-box": ["verify-wdvv", *_family(3, -1, 1, 0, (1, 1, 1)), "--box", "0.3,12", "--samples", "20"],
    # a theorem family whose metric B has condition number 2e8, above the cap, at every point: the
    # check is taken at eta.F, and a point where eta.F is unusable too is discarded (6 at seed 0)
    "verify-wdvv-m-spread-2e8": ["verify-wdvv", *_family(3, -400000000, 0, 1, (1, 1, 200000000)), "--samples", "5"],
    **{
        f"verify-wdvv-far-field-r{'+1' if shift else ''}": [
            "verify-wdvv", *_family(4, -4 + shift, 0, 1, (1, 1, 1, 1)), "--box", "5,15", "--samples", "10"]
        for shift in (0, 1)
    },
    **{
        f"verify-restriction-{name}-r{'+1' if shift else ''}": [
            "verify-restriction", *_family(n, r + shift, s, q, m), *options]
        for name, ((n, r, s, q, m), options) in _RESTRICTIONS.items()
        for shift in (0, 1)
    },
    "verify-restriction-theta": ["verify-restriction", *_family(2, -20, 1, 2, (2, 3)), "--samples", "2",
                                 "--theta", "0.07"],
    # a box about the origin at n = 1, where no point keeps x and 2x at least theta from zero
    "verify-associativity-no-admissible-point": ["verify-associativity", *_family(1, 1, 1, 1, (1,)),
                                                 "--box=-0.01,0.01", "--samples", "1"],
    "verify-associativity-m10": ["verify-associativity", *_family(2, 0, 0, 1, (1, 0)), "--samples", "2"],
    "verify-wdvv-overflow": ["verify-wdvv", *_family(3, -2, 0, 1, (1, 1, 1)), "--box", "0.3,400", "--samples", "2"],
    "tensor-overflow": ["tensor", *_family(1, 1, 1, 0, (1,)), "--point", "400"],
    "tensor-near-hyperplane": ["tensor", *_family(3, -20, 1, 2, (1, 2, 2)), "--point", "0.9,0.899,1.3"],
    # sources whose members of nonzero multiplicity span less than R^n
    "verify-wdvv-m110": ["verify-wdvv", *_family(3, -1, 1, 1, (1, 1, 0)), "--samples", "1"],
    "verify-wdvv-zero-multiplicities": ["verify-wdvv", *_family(3, 0, 0, 0, (1, 1, 1)), "--samples", "1"],
    "verify-associativity-one-covector": ["verify-associativity", "--config", "one_covector.json", "--samples", "1"],
    "verify-wdvv-rank2-in-3": ["verify-wdvv", "--config", "rank2_in_3.json", "--samples", "1"],
    # malformed documents, and the two huge dimensions
    **{
        f"document-{name[:-5]}": ["build-config", "--config", name]
        for name, text in DOCUMENTS.items()
        if isinstance(text, str) and name not in ("one_covector.json", "rank2_in_3.json")
    },
    # run values refused when the run specification is made
    "samples-zero": ["verify-wdvv", *_family(3, -2, 0, 1, (1, 1, 1)), "--samples", "0"],
    "samples-too-large": ["verify-wdvv", *_family(3, -20, 1, 2, (1, 2, 2)), "--samples", str(2**63)],
    "seed-negative": ["verify-wdvv", *_family(3, -2, 0, 1, (1, 1, 1)), "--seed", "-3"],
    "seed-too-large": ["verify-wdvv", *_family(3, -2, 0, 1, (1, 1, 1)), "--seed", str(2**64)],
    "box-inf": ["verify-associativity", *_family(1, 1, 1, 0, (1,)), "--box", "0.3,inf"],
    "box-reversed": ["verify-metric", *_family(3, -2, 0, 1, (1, 1, 1)), "--box", "1.5,0.3"],
    "box-one-number": ["verify-metric", *_family(3, -2, 0, 1, (1, 1, 1)), "--box", "0.3"],
    "box-not-numbers": ["verify-metric", *_family(3, -2, 0, 1, (1, 1, 1)), "--box", "a,b"],
    "tol-inf": ["verify-associativity", *_family(1, 1, 1, 0, (1,)), "--tol", "inf"],
    "tol-nan": ["verify-associativity", *_family(1, 1, 1, 0, (1,)), "--tol", "nan"],
    "theta-zero-tensor": ["tensor", *_family(3, -20, 1, 2, (1, 2, 2)), "--point", "0.5,0.9,1.3", "--theta", "0"],
    "build-config-samples-zero": ["build-config", *_family(3, -20, 1, 2, (1, 2, 2)), "--samples", "0"],
    "m-not-numbers": ["build-config", "--family", "bcn", "--n", "2", "--r", "0", "--s", "0", "--q", "1",
                      "--m", "1,x"],
}


def blas() -> str | None:
    """The BLAS numpy was built with, as "name version"; None where ``np.show_config`` takes no ``mode``."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25
        return None
    return f"{info['name']} {info['version']}"


def blas_core() -> str | None:
    """The kernel the OpenBLAS that numpy loaded runs on this CPU (e.g. "SkylakeX"), read through ctypes from
    the library's ``scipy_openblas_get_corename64_`` or, in other builds, ``openblas_get_corename``; None
    where no loaded library is an OpenBLAS with either, or the process map cannot be read (Linux only)."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh if "openblas" in line.lower()})
        for path in paths:
            library = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
                corename = getattr(library, name, None)
                if corename is not None:
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                    return corename().decode()
    return None


def machine() -> dict:
    """What the bytes of a report depend on besides the program: numpy, its BLAS and the kernel it runs, its
    platform and the CPU."""
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    return {
        "numpy": np.__version__,
        "blas": blas(),
        "blas_core": blas_core(),
        "python": platform.python_version(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu": cpu,
    }


def render(argv: list[str]) -> tuple[str, str]:
    """(suffix, text) of one run in the working directory: ".json" and stdout, or ".err" and stderr."""
    from trigwdvv import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--json"])
    if code == 2:
        return ".err", err.getvalue()
    if err.getvalue():
        raise AssertionError(f"exit {code} with stderr {err.getvalue()!r}")
    return ".json", out.getvalue()


def write_documents(directory: pathlib.Path) -> None:
    """Write every file of ``DOCUMENTS`` into ``directory``, which becomes the working directory."""
    os.chdir(directory)
    for name, content in DOCUMENTS.items():
        (directory / name).write_text(content if isinstance(content, str) else render(content)[1], encoding="utf-8")


def _changes(before: list, after: list, key: str) -> list[str]:
    """"check: removed" for each check of ``before`` that ``after`` lacks, then, in ``after``'s order,
    "check: added" or "check: old -> new" for each check that is new or whose ``key`` differs."""
    old, names = {c["name"]: c[key] for c in before}, {c["name"] for c in after}
    return [f"{name}: removed" for name in old if name not in names] + [
        f"{c['name']}: added" if c["name"] not in old else f"{c['name']}: {old[c['name']]!r} -> {c[key]!r}"
        for c in after if c["name"] not in old or repr(old[c["name"]]) != repr(c[key])]


def moved(old: str, new: str) -> list[str]:
    """"check: old -> new" for each check of the report ``new`` whose max_residual differs from ``old``'s, and
    "check: removed" or "check: added" for each check that only one of them has."""
    try:
        return _changes(json.loads(old)["checks"], json.loads(new)["checks"], "max_residual")
    except (ValueError, KeyError, TypeError):  # an error line, or a tensor or build-config document
        return []


def outcome_moved(old: str, new: str) -> str | None:
    """"discarded_points: old -> new; check: pass -> fail" for the report ``new`` where its discard count or a
    check's verdict differs from ``old``'s, with "check: removed" or "check: added" for each check that only
    one of them has, else None."""
    try:
        before, after = json.loads(old), json.loads(new)
        changes = _changes(before["checks"], after["checks"], "pass")
        if before["discarded_points"] != after["discarded_points"]:
            changes.insert(0, f"discarded_points: {before['discarded_points']} -> {after['discarded_points']}")
    except (ValueError, KeyError, TypeError):  # an error line, or a tensor or build-config document
        return None
    return "; ".join(changes) or None


def main() -> int:
    REPORTS.mkdir(exist_ok=True)
    cwd = os.getcwd()
    written, outcomes = set(), []
    with tempfile.TemporaryDirectory() as scratch:
        try:
            write_documents(pathlib.Path(scratch))
            for name, argv in SPECS.items():
                suffix, text = render(argv)
                path = REPORTS / f"{name}{suffix}"
                old = path.read_text(encoding="utf-8") if path.is_file() else None
                if text != old:
                    changes = moved(old, text) if old is not None else ["new"]
                    print(f"{path.name}: {'; '.join(changes) or 'no max_residual moved'}", file=sys.stderr)
                    outcome = None if old is None else outcome_moved(old, text)
                    if outcome is not None:
                        outcomes.append(f"{path.name}: {outcome}")
                path.write_text(text, encoding="utf-8")
                written.add(path.name)
        finally:
            os.chdir(cwd)
    for path in REPORTS.iterdir():
        if path.name not in written:
            path.unlink()
    MACHINE.write_text(json.dumps(machine(), indent=2) + "\n", encoding="utf-8")
    print(f"{len(written)} reports in {REPORTS}", file=sys.stderr)
    print(f"{len(outcomes)} files with a check added or removed, or a verdict or discard count moved", file=sys.stderr)
    for line in outcomes:
        print(f"  {line}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
