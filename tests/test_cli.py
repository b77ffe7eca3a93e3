import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from trigwdvv.cli import (
    RunSpec,
    config_document,
    dumps_17g,
    emit_tensor,
    load_config_source,
    main,
    parse_config_document,
    run,
)
from trigwdvv.configurations import BCnParameters, Configuration, build_bcn
from trigwdvv.errors import ConfigFormatError, PreconditionError
from trigwdvv.prepotential import h_function, metric_B, tensor_generic
from trigwdvv.sampling import fully_active, rng_for, sample_admissible_points
from trigwdvv.wdvv import CONDITION_CAP

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

FAMILY_OK = ["--family", "bcn", "--n", "3", "--r", "-2", "--s", "0", "--q", "1", "--m", "1,1,1"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env_extra = env_extra or {}
    env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "trigwdvv", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestExitCodeContract:
    def test_theorem_family_passes(self):
        proc = run_cli(
            "verify-wdvv", *FAMILY_OK, "--samples", "50", "--seed", "42", "--tol", "1e-8"
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS" in proc.stdout

    def test_broken_constraint_fails(self):
        args = FAMILY_OK.copy()
        args[args.index("-2")] = "-1.5"
        proc = run_cli(
            "verify-wdvv", *args, "--samples", "50", "--seed", "42", "--tol", "1e-8", "--json"
        )
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert any(
            c["max_residual"] > 1e-8 and not c["pass"] for c in report["checks"]
        )

    def test_zero_samples_is_a_precondition_error(self):
        proc = run_cli("verify-wdvv", *FAMILY_OK, "--samples", "0", "--seed", "42")
        assert proc.returncode == 2
        assert "PreconditionError" in proc.stderr

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"family": "bcn", "n": 2}')
        proc = run_cli("verify-wdvv", "--config", str(path))
        assert proc.returncode == 2
        assert "ConfigFormatError" in proc.stderr

    def test_missing_source(self):
        proc = run_cli("verify-wdvv")
        assert proc.returncode == 2

    def test_non_finite_residual_fails(self):
        # sinh(2 x) overflows for x > 355, so the metric residuals are NaN
        proc = run_cli("verify-metric", *FAMILY_OK, "--box", "300,400")
        assert proc.returncode == 1
        lines = proc.stdout.splitlines()
        assert len(lines) == 4 and lines[-1] == "FAILED"
        assert all(line.endswith("FAIL") for line in lines[1:-1])

    def test_linalg_error_is_exit_2_without_traceback(self):
        proc = run_cli("verify-wdvv", *FAMILY_OK, "--box", "0.3,400")
        assert proc.returncode == 2
        assert "error: LinAlgError: " in proc.stderr
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    def test_identical_seeds_byte_identical_reports(self):
        args = (
            "verify-wdvv",
            *FAMILY_OK,
            "--samples",
            "20",
            "--seed",
            "42",
            "--json",
        )
        out1 = run_cli(*args).stdout
        out2 = run_cli(*args).stdout
        assert out1 == out2

    def test_seed_changes_samples(self):
        base = ("verify-wdvv", *FAMILY_OK, "--samples", "10", "--json")
        out1 = run_cli(*base, "--seed", "1").stdout
        out2 = run_cli(*base, "--seed", "2").stdout
        assert out1 != out2

    def test_env_seed_override(self):
        args = ("verify-wdvv", *FAMILY_OK, "--samples", "10", "--json")
        via_env = run_cli(*args, env_extra={"WDVV_SEED": "77"}).stdout
        via_flag = run_cli(*args, "--seed", "77").stdout
        assert via_env == via_flag

    def test_bad_env_seed_rejected(self):
        proc = run_cli("verify-wdvv", *FAMILY_OK, env_extra={"WDVV_SEED": "abc"})
        assert proc.returncode == 2

    def test_negative_seed_rejected(self):
        proc = run_cli("verify-wdvv", *FAMILY_OK, "--seed", "-3")
        assert proc.returncode == 2


class TestReportShape:
    def test_field_order(self):
        proc = run_cli("verify-wdvv", *FAMILY_OK, "--samples", "5", "--seed", "1", "--json")
        report = json.loads(proc.stdout)
        assert list(report.keys()) == ["run", "checks", "discarded_points", "version"]
        assert list(report["run"].keys()) == [
            "command",
            "config_source",
            "samples",
            "seed",
            "tolerance",
            "box",
            "threshold",
        ]
        for check in report["checks"]:
            assert list(check.keys()) == [
                "name",
                "max_residual",
                "mean_residual",
                "worst_point",
                "pass",
            ]
            assert check["pass"] == (check["max_residual"] < report["run"]["tolerance"])

    def test_17_digit_floats_roundtrip(self):
        doc = {"x": 1.0 / 3.0, "y": [math.pi, 2.0]}
        text = dumps_17g(doc)
        back = json.loads(text)
        assert back["x"] == 1.0 / 3.0
        assert back["y"][0] == math.pi


class TestTensorCommand:
    def test_rank_one_value(self):
        proc = run_cli(
            "tensor",
            "--family",
            "bcn",
            "--n",
            "1",
            "--r",
            "1",
            "--s",
            "1",
            "--q",
            "0",
            "--m",
            "1",
            "--point",
            "1",
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert list(doc.keys()) == ["point", "F", "B", "h"]
        expected = 1.0 / math.tanh(1.0) + 8.0 / math.tanh(2.0)
        assert math.isclose(doc["F"][0][0][0], expected, rel_tol=1e-12)
        assert math.isclose(doc["h"], 1.0, rel_tol=1e-12)

    def test_zero_multiplicity_gives_zero_tensor(self):
        spec = RunSpec(
            command="tensor",
            config_source={"family": "bcn", "n": 2, "r": 0.0, "s": 0.0, "q": 0.0, "m": [1, 1]},
        )
        doc = emit_tensor(spec, [1.0, 0.4])
        assert np.abs(np.array(doc["F"])).max() == 0.0
        assert np.abs(np.array(doc["B"])).max() == 0.0

    def test_h_field_matches_h_function(self):
        params = BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))
        spec = RunSpec(
            command="tensor",
            config_source={"family": "bcn", "n": 2, "r": -20.0, "s": 1.0, "q": 2.0, "m": [2, 3]},
        )
        doc = emit_tensor(spec, [0.6, 0.8])
        assert math.isclose(doc["h"], h_function(params, [0.6, 0.8]), rel_tol=1e-15)

    def test_explicit_config_has_null_h(self):
        spec = RunSpec(
            command="tensor",
            config_source={
                "explicit": {
                    "dimension": 1,
                    "members": [{"vector": [1.0], "multiplicity": 2.0}],
                }
            },
        )
        doc = emit_tensor(spec, [0.9])
        assert doc["h"] is None

    def test_missing_point_is_an_error(self):
        proc = run_cli("tensor", *FAMILY_OK)
        assert proc.returncode == 2


class TestConfigDocuments:
    def test_family_document_parses(self):
        parsed = parse_config_document(
            {"family": "bcn", "n": 2, "r": 1.0, "s": 0.5, "q": 2.0, "m": [1, 2]}
        )
        assert isinstance(parsed, BCnParameters)
        assert parsed.N == 3.0

    @pytest.mark.parametrize("missing", ["n", "r", "s", "q", "m"])
    def test_family_document_missing_field(self, missing):
        doc = {"family": "bcn", "n": 2, "r": 1.0, "s": 0.5, "q": 2.0, "m": [1, 2]}
        del doc[missing]
        with pytest.raises(ConfigFormatError, match=missing):
            parse_config_document(doc)

    def test_explicit_document_parses(self):
        parsed = parse_config_document(
            {
                "explicit": {
                    "dimension": 2,
                    "members": [{"vector": [1.0, -1.0], "multiplicity": 3.0}],
                }
            }
        )
        assert isinstance(parsed, Configuration)
        assert parsed.multiplicities[0] == 3.0

    def test_explicit_document_missing_fields(self):
        with pytest.raises(ConfigFormatError):
            parse_config_document({"explicit": {"dimension": 2}})
        with pytest.raises(ConfigFormatError):
            parse_config_document({"explicit": {"members": []}})

    def test_unknown_document_shape(self):
        with pytest.raises(ConfigFormatError):
            parse_config_document({"somethingelse": 1})

    def test_build_config_roundtrip(self):
        params = {"family": "bcn", "n": 2, "r": 1.0, "s": 0.5, "q": 2.0, "m": [2, 1]}
        doc = config_document(load_config_source(params))
        reparsed = parse_config_document(doc)
        assert isinstance(reparsed, Configuration)
        assert len(reparsed) == 6

    def test_file_source(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"family": "bcn", "n": 1, "r": 2, "s": 3, "q": 5, "m": [1]}))
        parsed = load_config_source(str(path))
        assert isinstance(parsed, BCnParameters)


class TestRunSpecValidation:
    def test_bad_box(self):
        spec = RunSpec(command="verify-wdvv", config_source={}, box=(1.5, 0.3))
        with pytest.raises(PreconditionError):
            spec.validate()

    def test_bad_tolerance(self):
        spec = RunSpec(command="verify-wdvv", config_source={}, tolerance=0.0)
        with pytest.raises(PreconditionError):
            spec.validate()

    def test_metric_requires_family(self):
        spec = RunSpec(
            command="verify-metric",
            config_source={
                "explicit": {"dimension": 1, "members": [{"vector": [1.0], "multiplicity": 1.0}]}
            },
            samples=2,
        )
        with pytest.raises(PreconditionError):
            run(spec)

    def test_restriction_requires_integer_blocks(self):
        spec = RunSpec(
            command="verify-restriction",
            config_source={"family": "bcn", "n": 2, "r": 0.0, "s": 0.0, "q": 1.0, "m": [1.5, 2]},
            samples=2,
        )
        with pytest.raises(PreconditionError):
            run(spec)


class TestVerificationCommandsInProcess:
    def test_metric_command_passes_anywhere(self):
        spec = RunSpec(
            command="verify-metric",
            config_source={"family": "bcn", "n": 2, "r": 0.7, "s": -1.2, "q": 0.9, "m": [1.5, 2.5]},
            samples=10,
            seed=5,
            tolerance=1e-10,
        )
        report = run(spec)
        assert report.all_passed

    def test_restriction_command(self):
        spec = RunSpec(
            command="verify-restriction",
            config_source={"family": "bcn", "n": 2, "r": -20.0, "s": 1.0, "q": 2.0, "m": [2, 3]},
            samples=5,
            seed=5,
            tolerance=1e-9,
        )
        report = run(spec)
        assert report.all_passed
        assert {c.name for c in report.checks} == {
            "restriction_config_match",
            "restricted_closure",
            "structure_constants_two_path",
            "tangency_residual",
            "h_b_decomposition",
        }

    def test_susy_command(self):
        # a wider sampling margin and a looser tolerance than the defaults
        spec = RunSpec(
            command="verify-susy",
            config_source={"family": "bcn", "n": 2, "r": 0.0, "s": 0.0, "q": 1.0, "m": [1, 1]},
            samples=5,
            seed=5,
            tolerance=1e-4,
            threshold=0.6,
        )
        report = run(spec)
        assert report.all_passed, [(c.name, c.max_residual) for c in report.checks]
        for check in report.checks:
            assert check.passed == (check.max_residual < spec.tolerance)

    @pytest.mark.parametrize("n, r", [(2, 0.0), (3, -2.0)])
    def test_susy_theorem_family_passes_at_defaults(self, n, r):
        # every susy check is exact or two-path, so the default tolerance,
        # margin and box apply
        spec = RunSpec(
            command="verify-susy",
            config_source={"family": "bcn", "n": n, "r": r, "s": 0.0, "q": 1.0, "m": [1] * n},
            samples=10,
            seed=5,
        )
        report = run(spec)
        assert report.all_passed, [(c.name, c.max_residual) for c in report.checks]

    def test_associativity_command(self):
        spec = RunSpec(
            command="verify-associativity",
            config_source={"family": "bcn", "n": 3, "r": -2.0, "s": 0.0, "q": 1.0, "m": [1, 1, 1]},
            samples=10,
            seed=5,
        )
        assert run(spec).all_passed


def _family(n, r, s, q, m):
    return {"family": "bcn", "n": n, "r": r, "s": s, "q": q, "m": list(m)}


CHECK_NAMES = {
    "wdvv": ("verify-wdvv", _family(3, -2, 0, 1, (1, 1, 1)),
             ["wdvv_pair_residual", "generalized_wdvv_residual"]),
    "associativity": ("verify-associativity", _family(3, -2, 0, 1, (1, 1, 1)),
                      ["associativity_residual"]),
    "metric": ("verify-metric", _family(2, 0.7, -1.2, 0.9, (1.5, 2.5)),
               ["metric_offdiagonal", "metric_diagonal_identity"]),
    "restriction": ("verify-restriction", _family(2, -20, 1, 2, (2, 3)),
                    ["restriction_config_match", "restricted_closure",
                     "structure_constants_two_path", "tangency_residual", "h_b_decomposition"]),
    "restriction_without_subsystem": ("verify-restriction", _family(3, -2, 0, 1, (1, 1, 1)),
                                      ["restriction_config_match", "restricted_closure",
                                       "structure_constants_two_path", "h_b_decomposition"]),
    "susy": ("verify-susy", _family(2, 0, 0, 1, (1, 1)),
             ["fermionic_anticommutation", "hat_tensor_two_path", "hat_commuting_residual",
              "hat_metric_identity", "gauge_residual"]),
    "susy_n1_has_no_pairs": ("verify-susy", _family(1, 1, 0.5, 0, (2,)),
                             ["fermionic_anticommutation", "hat_tensor_two_path",
                              "hat_metric_identity", "gauge_residual"]),
}


@pytest.mark.parametrize("command, source, names", CHECK_NAMES.values(), ids=CHECK_NAMES.keys())
def test_check_names_in_report_order(command, source, names):
    report = run(RunSpec(command=command, config_source=source, samples=2, seed=3))
    assert [c.name for c in report.checks] == names


def test_wdvv_n1_is_refused(capsys):
    # n=1 has no pair (i, j), so there is nothing to check; a run that checks
    # nothing must not print OK
    argv = ["verify-wdvv", "--family", "bcn", "--n", "1", "--r", "1", "--s", "0.5", "--q", "0", "--m", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: PreconditionError: verify-wdvv needs n >= 2: n=1 has no WDVV content" in captured.err


@pytest.mark.parametrize(
    "command, member_count",
    [("verify-restriction", (5, 2 * 5 + 5 * 4)), ("verify-susy", (2, 6))],  # BC_5; rescaled BC_2
    ids=["verify-restriction", "verify-susy"],
)
def test_builds_configurations_once_per_run(monkeypatch, command, member_count):
    # the configurations a run needs (BC_N and its projection, or the rescaled
    # family) are built once per run, not once per sample point
    built = []
    original = Configuration.__init__

    def counting(self, dimension, members):
        original(self, dimension, members)
        built.append((self.dimension, len(self.members)))

    monkeypatch.setattr(Configuration, "__init__", counting)
    source = _family(2, -20, 1, 2, (2, 3))
    per_run = []
    for samples in (1, 3):
        built.clear()
        run(RunSpec(command=command, config_source=source, samples=samples))
        per_run.append(list(built))
    assert per_run[0] == per_run[1]
    assert member_count in per_run[0]


def test_ill_conditioned_pivots_discard_the_point():
    # with q = 3e-8 the pair covectors barely couple the coordinates, so some
    # points have a pivot F_k conditioned worse than CONDITION_CAP; those are
    # discarded and resampled, never reported or turned into an error.  The
    # discards match np.linalg.cond on the same point stream.
    spec = RunSpec(command="verify-wdvv", config_source=_family(2, -1.0, 1.0, 3e-8, (1, 1)), samples=20)
    report = run(spec)

    config = build_bcn(load_config_source(spec.config_source))
    rng = rng_for(spec.seed, "verify-wdvv/points")
    accepted = discarded = 0
    while accepted < spec.samples:
        x = sample_admissible_points(rng, fully_active(config), 1, spec.box, spec.threshold)[0]
        T = tensor_generic(config, x, spec.threshold)
        conds = [np.linalg.cond(metric_B(T, x))] + [np.linalg.cond(F) for F in T]
        if max(conds) > CONDITION_CAP:
            discarded += 1
        else:
            accepted += 1
    assert report.discarded_points == discarded > 0
    assert report.all_passed


def test_singular_pivots_discard_rather_than_error(capsys):
    # with q = 0 every F_k is exactly singular: each point is discarded until
    # the discard cap ends the run, as for any other unusable point
    argv = ["verify-wdvv", "--family", "bcn", "--n", "2", "--r", "-1", "--s", "1", "--q", "0", "--m", "1,1"]
    assert main(argv + ["--samples", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: SamplingError: more than 10000 sample points were discarded" in err
    assert err.rstrip().endswith(": 10001 had a numerically singular pivot")


def test_text_report_labels_discarded_points(capsys):
    # discards come from ill-conditioned and from singular pivots alike
    argv = ["verify-wdvv", "--family", "bcn", "--n", "2", "--r", "-1", "--s", "1", "--q", "3e-8", "--m", "1,1"]
    assert main(argv + ["--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "\n  discarded points: " in out


def test_box_too_narrow_for_pair_spacing_fails_fast(capsys):
    # three coordinates at pairwise distance >= 0.7 need a box wider than 1.4;
    # the default box (0.3, 1.5) is refused before any draw
    assert main(["verify-wdvv", *FAMILY_OK, "--theta", "0.7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: PreconditionError: box (0.3, 1.5) is too narrow")
    assert "(n-1)*theta = 1.4" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["verify-wdvv", "verify-associativity"])
@pytest.mark.parametrize("n", [16, 20])
def test_large_n_runs_in_the_default_box(capsys, command, n):
    # the theorem family r = -(2n - 4).  Box-uniform rejection accepts a draw
    # with probability at most (1 - (n-1) 0.05 / 1.2)^n, 1.5e-7 at n = 16, so
    # it ran out of its 10,000 attempts per point
    family = ["--family", "bcn", "--n", str(n), "--r", str(4 - 2 * n), "--s", "0", "--q", "1"]
    assert main([command, *family, "--m", ",".join(["1"] * n), "--samples", "3"]) == 0
    assert capsys.readouterr().out.endswith("OK\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-metric", *FAMILY_OK, "--box", "300,400", "--json"],
        ["tensor", "--family", "bcn", "--n", "1", "--r", "1", "--s", "1", "--q", "0", "--m", "1",
         "--point", "400"],
    ],
    ids=["nan-metric-report", "overflowing-tensor"],
)
def test_json_output_with_non_finite_values_parses(capsys, argv):
    # JSON has no NaN or infinity: a non-finite value is written as null
    main(argv)
    out = capsys.readouterr().out
    json.loads(out)
    assert "null" in out and "nan" not in out and "inf" not in out


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # each trigwdvv line of README's Examples block, in order, so that the
    # files one line writes with "> file" are there for the next
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.replace("\\\n", " ").splitlines()]
    examples = [words[1:] for words in lines if words and words[0] == "trigwdvv"]
    assert len(examples) == 5
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        target = None
        if ">" in argv:
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")
