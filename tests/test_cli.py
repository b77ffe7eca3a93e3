import copy
import dataclasses
import inspect
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from trigwdvv import __version__, algebra, cli, prepotential, sampling, susy, wdvv
from trigwdvv.cli import (
    RunSpec,
    VerificationReport,
    _sampled,
    config_document,
    dumps_17g,
    emit_tensor,
    load_config_source,
    main,
    parse_config_document,
    run,
)
from trigwdvv.configurations import BCnParameters, Configuration, Partition, build_bcn, solve_r
from trigwdvv.errors import (
    ConfigFormatError,
    DomainError,
    ParameterError,
    PreconditionError,
    SamplingError,
)
from trigwdvv.prepotential import DEFAULT_THRESHOLD, active_pairings, h_function, metric_B, tensor_generic
from trigwdvv.sampling import fully_active, rng_for
from trigwdvv.wdvv import CONDITION_CAP

from tests.oracles import sample_points, sequential_admissible_points

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


# the commands that compare B with h diag(m), with the sample count at which a point of --box 300,400
# overflows it; at m = 1,2,2 verify-susy reads B at x = x^ / sqrt(m), and overflows where x^_1 > 355
OVERFLOWING = {
    "verify-metric": ("verify-metric", FAMILY_OK, 2),
    "verify-restriction": ("verify-restriction", FAMILY_OK, 2),
    "verify-susy": ("verify-susy", FAMILY_OK, 2),
    "verify-susy-m122": ("verify-susy", ["--family", "bcn", "--n", "3", "--r", "-6", "--s", "0", "--q", "1",
                                         "--m", "1,2,2"], 50),
}


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
        # r = 1e300 overflows the associativity products, so the residual is NaN
        family = [*FAMILY_OK[:5], "1e300", *FAMILY_OK[6:]]
        proc = run_cli("verify-associativity", *family, "--samples", "2")
        assert proc.returncode == 1
        assert proc.stderr == ""  # no overflow warning ahead of the verdict
        lines = proc.stdout.splitlines()
        assert len(lines) == 3 and lines[-1] == "FAILED"
        assert lines[1].endswith("FAIL")

    def test_overflowing_metric_is_a_domain_error_without_traceback(self):
        # sinh(2 x) overflows for x > 355: the metric pivot is refused by name
        proc = run_cli("verify-wdvv", *FAMILY_OK, "--box", "0.3,400")
        assert proc.returncode == 2
        assert proc.stderr == "error: DomainError: pivot 0 is not finite\n"  # no warning, no traceback

    @pytest.mark.parametrize("command, family, samples", OVERFLOWING.values(), ids=OVERFLOWING)
    def test_overflowing_metric_identity_is_a_domain_error_without_traceback(self, command, family, samples):
        # the three commands that compare B with h diag(m) refuse a non-finite B by name, with the point:
        # the sampled point, which lies in the box and in the run's point stream (verify-susy's x^, not the
        # x = x^ / sqrt(m) at which it reads B, which at m = 2 lies outside the box)
        argv = [command, *family, "--box", "300,400", "--samples", str(samples)]
        proc = run_cli(*argv)
        assert proc.returncode == 2
        named = re.fullmatch(r"error: DomainError: B is not finite at the point (\[[^]]*\])\n", proc.stderr)
        assert named and proc.stdout == ""
        point = json.loads(named.group(1))
        assert all(300.0 <= v <= 400.0 for v in point), point
        spec = cli._spec_from_args(cli.build_parser().parse_args(argv))
        config = cli.VERIFIERS[command](spec, load_config_source(spec.config_source))[1]
        take = sampling.admissible_points(rng_for(spec.seed, f"{command}/points"), fully_active(config), spec.box,
                                          spec.threshold)
        assert point in take(spec.samples)[0].tolist()

    def test_linalg_error_is_exit_2_without_traceback(self, monkeypatch, capsys):
        def failing_eigvalsh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
        assert main(["verify-wdvv", *FAMILY_OK, "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: LinAlgError: Eigenvalues did not converge\n"
        assert captured.out == ""

    def test_memory_error_is_exit_2_without_traceback(self, monkeypatch, capsys):
        # numpy raises a subclass of MemoryError, _ArrayMemoryError, for an array it cannot
        # allocate; main names the builtin class, as no allocation is attempted here
        class _ArrayMemoryError(MemoryError):
            pass

        def failing(*args):
            raise _ArrayMemoryError("Unable to allocate 11.9 GiB for an array with shape (40000, 40000) "
                                    "and data type float64")

        monkeypatch.setattr(cli, "metric_identity_residuals", failing)
        assert main(["verify-metric", *FAMILY_OK, "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: MemoryError: Unable to allocate 11.9 GiB for an array with shape "
                                "(40000, 40000) and data type float64\n")
        assert captured.out == ""


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

    @pytest.mark.parametrize("value", ["5", "abc"])
    def test_env_seed_is_ignored(self, monkeypatch, capsys, value):
        # the seed is --seed or 0, whatever the shell holds
        argv = ["verify-wdvv", *FAMILY_OK, "--samples", "10", "--json"]
        monkeypatch.delenv("WDVV_SEED", raising=False)
        assert main(argv) == 0
        without = capsys.readouterr()
        monkeypatch.setenv("WDVV_SEED", value)
        assert main(argv) == 0
        assert capsys.readouterr() == without
        assert json.loads(without.out)["run"]["seed"] == 0

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

    @pytest.mark.parametrize("point", [["0.5", 0.9], [True, 0.9], [[0.5], 0.9]], ids=["str", "bool", "nested"])
    def test_point_entries_are_read_as_numbers_not_coerced(self, point):
        spec = RunSpec(command="tensor", config_source=_family(2, 1, 1, 1, (1, 1)))
        with pytest.raises(ParameterError, match="^point must be numbers, got "):
            emit_tensor(spec, point)

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
        with pytest.raises(PreconditionError):
            RunSpec(command="verify-wdvv", config_source={}, box=(1.5, 0.3))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("samples", 2.5, "samples must be an integer, got 2.5"),
            ("samples", True, "samples must be an integer, got True"),
            ("seed", True, "seed must be an integer, got True"),
            ("tolerance", "1e-8", "tolerance must be a number, got '1e-8'"),
            ("tolerance", True, "tolerance must be a number, got True"),
            ("threshold", None, "threshold must be a number, got None"),
            ("box", (1, 2, 3), "box must be two numbers, got (1, 2, 3)"),
            ("box", ("0.3", "1.5"), "box must be two numbers, got ('0.3', '1.5')"),
        ],
        ids=["seed-float", "samples-float", "samples-bool", "seed-bool", "tolerance-str", "tolerance-bool",
             "threshold-none", "box-three", "box-str"],
    )
    def test_numbers_from_outside_are_refused_not_truncated(self, field, value, message):
        # a fractional seed or sample count would run as its truncation but be echoed as given
        with pytest.raises(PreconditionError, match=re.escape(message)):
            RunSpec(command="verify-wdvv", config_source={}, **{field: value})

    @pytest.mark.parametrize("samples", [2**63, 10**300], ids=["2^63", "10^300"])
    def test_sample_counts_past_numpy_indexing_are_refused(self, samples):
        # numpy indexes at most 2^63 - 1 entries, so no run can take more points
        with pytest.raises(PreconditionError, match=re.escape(f"samples must be < 2^63, got {samples}")):
            RunSpec(command="verify-wdvv", config_source={}, samples=samples)

    def test_largest_sample_count_is_accepted(self):
        assert RunSpec(command="verify-wdvv", config_source={}, samples=2**63 - 1).samples == 2**63 - 1

    def test_numbers_are_read_by_the_package_rules(self):
        # an integral float reads as an int, as n and the blocks do, and the box as two floats
        spec = RunSpec(command="verify-wdvv", config_source={}, samples=2.0, seed=np.uint64(7), box=[0, 1])
        assert (spec.samples, spec.seed, spec.box, spec.tolerance) == (2, 7, (0.0, 1.0), 1e-8)
        assert [type(v) for v in (spec.samples, spec.seed, *spec.box)] == [int, int, float, float]
        assert dumps_17g(spec.to_json_dict()["samples"]) == "2"

    def test_options_left_out_keep_the_defaults(self):
        # argparse restates none of RunSpec's defaults
        spec = cli._spec_from_args(cli.build_parser().parse_args(["verify-wdvv", *FAMILY_OK]))
        assert spec == RunSpec(command="verify-wdvv", config_source=spec.config_source)

    @pytest.mark.parametrize("box", [(1.5, 0.3), (0.3, math.inf), (math.nan, 1.5), ("0.3", 1.5), (0.3,), "0.3,1.5"],
                             ids=["reversed", "hi-inf", "lo-nan", "str-entry", "one-number", "str"])
    def test_runs_and_the_sampler_read_one_box_rule(self, box):
        with pytest.raises(PreconditionError) as refused_by_run:
            RunSpec(command="verify-wdvv", config_source={}, box=box)
        with pytest.raises(PreconditionError) as refused_by_sampler:
            sampling.admissible_points(rng_for(0, "box"), np.eye(2), box, 0.05)
        assert str(refused_by_run.value) == str(refused_by_sampler.value)

    def test_bad_tolerance(self):
        with pytest.raises(PreconditionError):
            RunSpec(command="verify-wdvv", config_source={}, tolerance=0.0)

    def test_a_checked_spec_cannot_be_changed(self):
        spec = RunSpec(command="verify-wdvv", config_source={})
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.threshold = 0.0
        assert spec.threshold == DEFAULT_THRESHOLD

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"threshold": 0.0}, "threshold must be finite and > 0, got 0.0"),
            ({"threshold": -1.0}, "threshold must be finite and > 0, got -1.0"),
            ({"threshold": math.nan}, "threshold must be finite and > 0, got nan"),
            ({"command": "verify-nothing"}, "unknown command 'verify-nothing'"),
        ],
        ids=["theta-zero", "theta-negative", "theta-nan", "unknown-command"],
    )
    def test_emit_tensor_receives_only_a_checked_spec(self, fields, message):
        # a margin of 0 would let a point 1e-7 from x_1 = x_2 through, with F near 1e7
        fields = {"command": "tensor", **fields}
        source = {"family": "bcn", "n": 2, "r": 1.0, "s": 1.0, "q": 1.0, "m": [1.0, 1.0]}
        with pytest.raises(PreconditionError, match=re.escape(message)):
            emit_tensor(RunSpec(config_source=source, **fields), [0.5, 0.5000001])

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
    "wdvv": ("verify-wdvv", _family(3, -2, 0, 1, (1, 1, 1)), ["wdvv_residual"]),
    "associativity": ("verify-associativity", _family(3, -2, 0, 1, (1, 1, 1)),
                      ["associativity_residual"]),
    "metric": ("verify-metric", _family(2, 0.7, -1.2, 0.9, (1.5, 2.5)),
               ["metric_offdiagonal", "metric_diagonal_identity"]),
    "restriction": ("verify-restriction", _family(2, -20, 1, 2, (2, 3)),
                    ["restriction_config_match", "structure_constants_two_path", "tangency_residual",
                     "h_b_decomposition"]),
    "restriction_without_subsystem": ("verify-restriction", _family(3, -2, 0, 1, (1, 1, 1)),
                                      ["restriction_config_match", "structure_constants_two_path",
                                       "h_b_decomposition"]),
    "susy": ("verify-susy", _family(2, 0, 0, 1, (1, 1)),
             ["hat_tensor_two_path", "hat_commuting_residual", "hat_metric_identity", "gauge_residual"]),
    "susy_n1_has_no_pairs": ("verify-susy", _family(1, 1, 0.5, 0, (2,)),
                             ["hat_tensor_two_path", "hat_metric_identity", "gauge_residual"]),
}


# Each verify command on a theorem family at unequal m, with the checks that
# carry the family's content: at r + 1 exactly these fail.  Every other check
# is an implementation check, which holds for every (r, s, q) and must pass
# there too; a family check that stops failing at r + 1 has lost its power.
POWER = {
    "wdvv": ("verify-wdvv", (3, -20, 1, 2, (1, 2, 2)), {"wdvv_residual"}),
    "associativity-m122": ("verify-associativity", (3, -20, 1, 2, (1, 2, 2)), {"associativity_residual"}),
    "associativity-m2131": ("verify-associativity", (4, -14, 0.5, 1, (2, 1, 3, 1)), {"associativity_residual"}),
    "metric": ("verify-metric", (4, -14, 0.5, 1, (2, 1, 3, 1)), {"metric_diagonal_identity"}),
    "restriction": ("verify-restriction", (4, -24, 0, 1, (2, 3, 4, 5)), {"h_b_decomposition"}),
    "susy": ("verify-susy", (4, -14, 0.5, 1, (2, 1, 3, 1)), {"hat_commuting_residual", "hat_metric_identity"}),
}
IMPLEMENTATION_CHECKS = {
    "metric_offdiagonal",
    "hat_tensor_two_path",
    "gauge_residual",
    "restriction_config_match",
    "structure_constants_two_path",
    "tangency_residual",
}


@pytest.mark.parametrize("command, family, family_checks", POWER.values(), ids=POWER.keys())
def test_theorem_family_passes_and_r_plus_1_fails_its_family_checks(command, family, family_checks):
    n, r, s, q, m = family
    report = run(RunSpec(command=command, config_source=_family(*family), samples=10, seed=7))
    assert report.all_passed, [(c.name, c.max_residual) for c in report.checks]
    broken = run(RunSpec(command=command, config_source=_family(n, r + 1, s, q, m), samples=10, seed=7))
    failing = {c.name for c in broken.checks if not c.passed}
    assert failing == family_checks, [(c.name, c.max_residual) for c in broken.checks]
    assert {c.name for c in broken.checks} - failing <= IMPLEMENTATION_CHECKS


def _wdvv(report):
    (check,) = report.checks
    assert check.name == "wdvv_residual"
    return check


@pytest.mark.parametrize("r, passes", [(-4, True), (-3, False)])
def test_eta_pivot_form_has_power_in_the_far_field(r, passes):
    # in --box 5,15 B(x) = sum_k sinh(2x_k) F_k is of order e^10 and more, so the scale
    # ||F_i|| ||F_j|| ||P^{-1}|| is far below 1; with no floor of 1 under it the one check stays
    # relative and fails r + 1 (0.075 at the family's pivot, the diagonal B; eta.F read 0.13)
    source = _family(4, r, 0, 1, (1, 1, 1, 1))
    check = _wdvv(run(RunSpec(command="verify-wdvv", config_source=source, samples=10, box=(5.0, 15.0))))
    assert check.passed is passes, check.max_residual
    assert passes or check.max_residual > 1e-2, check.max_residual


def test_eta_is_drawn_once_per_run_from_its_own_stream():
    # an explicit document's eta comes from "verify-wdvv/pivot", so the points stream, and with it
    # every point, is the one a run without eta would draw; at each point the check is taken at
    # whichever of B and eta.F has the smaller condition number, as np.linalg.cond judges them too
    doc = config_document(load_config_source(_family(4, -14, 0.5, 1, (2, 1, 3, 1))))
    spec = RunSpec(command="verify-wdvv", config_source=doc, samples=3, seed=9)
    report = run(spec)
    config = load_config_source(spec.config_source)
    rng = rng_for(spec.seed, "verify-wdvv/points")
    eta = rng_for(spec.seed, "verify-wdvv/pivot").standard_normal(4)
    residuals = []
    for x in sample_points(rng, fully_active(config), spec.samples, spec.box, spec.threshold):
        active = active_pairings(config, x, spec.threshold)
        T = tensor_generic(active)
        better = min((metric_B(active, x), np.tensordot(eta, T, axes=1)), key=np.linalg.cond)
        residuals.append(wdvv.pivot_residuals(T, better[None])[0][0])
    assert report.discarded_points == 0
    assert [(c.name, c.max_residual) for c in report.checks] == [("wdvv_residual", float(np.max(residuals)))]


@pytest.mark.parametrize("n, s, q, m", [(3, 1, 2, (1, 2, 2)), (4, 0.5, 1, (2, 1, 3, 1)), (6, 1, 1, (1, 2, 1, 2, 1, 1))])
def test_eta_pivot_form_fails_a_transverse_multiplicity_perturbation(n, s, q, m):
    # a random 1e-2 relative change of every member's multiplicity moves the family across
    # the solution variety, where the r and s shifts move along it to first order
    doc = config_document(load_config_source(_family(n, solve_r(s, q, m), s, q, m)))
    assert _wdvv(run(RunSpec(command="verify-wdvv", config_source=doc, samples=10))).passed
    rng = np.random.default_rng(n)
    for member in doc["explicit"]["members"]:
        member["multiplicity"] *= 1.0 + 1e-2 * rng.standard_normal()
    check = _wdvv(run(RunSpec(command="verify-wdvv", config_source=doc, samples=10)))
    assert not check.passed and check.max_residual > 1e-5, check.max_residual


@pytest.mark.parametrize("r, passes", [(-20, True), (-19, False)])
def test_explicit_source_associates_with_its_metric_b(r, passes):
    # the build-config document of the README family multiplies through B(x)
    doc = config_document(load_config_source(_family(3, r, 1, 2, (1, 2, 2))))
    assert run(RunSpec(command="verify-associativity", config_source=doc, samples=10, seed=7)).all_passed is passes


def test_explicit_associativity_keeps_its_power_at_n20():
    # the residual divides by the products' own size, with no floor of 1, so the r + 1 control of
    # unit m at n = 20 on --box 0.3,4 keeps its power (about 8e-4; an absolute residual reads 1e-7)
    doc = config_document(load_config_source(_family(20, -35, 0, 1, (1,) * 20)))
    (check,) = run(RunSpec(command="verify-associativity", config_source=doc, samples=10, box=(0.3, 4.0))).checks
    assert not check.passed and check.max_residual > 1e-5, check.max_residual


@pytest.mark.parametrize("command", ["verify-susy", "verify-associativity", "verify-metric", "verify-restriction"])
def test_the_zero_family_passes_with_every_residual_zero(command):
    # at r = s = q = 0 every multiplicity vanishes, and with it every operand of every check:
    # a residual whose scale is 0 reads 0, not NaN, a ZeroDivisionError or a failure
    report = run(RunSpec(command=command, config_source=_family(3, 0, 0, 0, (1, 2, 2)), samples=5))
    assert report.all_passed and report.discarded_points == 0
    assert [c.max_residual for c in report.checks] == [0.0] * len(report.checks), report.checks


def _refuse_to_sample(*args):
    raise AssertionError("a refused source drew a sample point")


def _explicit(dimension, *members):
    return {"explicit": {"dimension": dimension,
                         "members": [{"vector": list(v), "multiplicity": c} for v, c in members]}}


@pytest.mark.parametrize(
    "command, doc, rank",
    [
        # one covector in two dimensions: B(x) has rank 1 at every point
        ("verify-associativity", _explicit(2, ((1.0, 0.0), 1.0)), 1),
        ("verify-wdvv", _explicit(3, ((1.0, 0.0, 0.0), 1.0), ((1.0, 1.0, 0.0), 2.0)), 2),
        # a member of multiplicity 0 spans nothing
        ("verify-wdvv", _explicit(3, ((1.0, 0.0, 0.0), 1.0), ((0.0, 1.0, 0.0), 1.0), ((0.0, 0.0, 1.0), 0.0)), 2),
    ],
    ids=["one-covector", "two-covectors-in-3", "zero-multiplicity-member"],
)
def test_explicit_source_with_a_singular_metric_is_refused_before_sampling(monkeypatch, command, doc, rank):
    # B(x) and every pivot lie in the span of the members of nonzero multiplicity, so
    # when that span misses a direction each would be singular at every sample point
    monkeypatch.setattr(cli, "admissible_points", _refuse_to_sample)
    n = doc["explicit"]["dimension"]
    message = (f"{command} needs members of nonzero multiplicity that span R^{n}, but their span has "
               f"dimension {rank}: B(x) would be singular at every point")
    with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
        run(RunSpec(command=command, config_source=doc, samples=1))


@pytest.mark.parametrize("m", ["1,0", "0,1,1"])
def test_associativity_refuses_a_family_with_a_zero_m(capsys, m):
    # the family route raises indices with diag(m), which is no metric when
    # some m_i = 0: y / m would be 0/0, a NaN residual reported as FAILED
    n = str(m.count(",") + 1)
    argv = ["verify-associativity", "--family", "bcn", "--n", n, "--r", "0", "--s", "0", "--q", "1", "--m", m]
    assert main(argv + ["--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: PreconditionError: verify-associativity")
    assert "m_i != 0" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, source",
    [
        ("verify-wdvv", config_document(load_config_source(_family(3, -20, 1, 2, (1, 2, 2))))),
        ("verify-associativity", config_document(load_config_source(_family(3, -20, 1, 2, (1, 2, 2))))),
    ],
    ids=["wdvv", "associativity-explicit"],
)
def test_one_usable_pivot_rule_judges_every_pivot(monkeypatch, command, source):
    # with the cap at 1 no pivot and no metric B(x) is usable: both explicit drivers
    # read wdvv's one rule, so both discard every point with its text
    monkeypatch.setattr(wdvv, "CONDITION_CAP", 1.0)
    monkeypatch.setattr(cli, "MAX_ATTEMPTS_PER_POINT", 5)
    with pytest.raises(SamplingError, match=r": 6 had an unusable pivot, the last: "
                                            r"pivot \d has condition number \S+ above 1$"):
        run(RunSpec(command=command, config_source=source, samples=1))


def test_the_discard_cap_on_the_family_route_names_the_arrow_kernels_refusal(monkeypatch):
    # the family verify-wdvv route takes no condition cap: with every multiplicity zeroed inside the
    # arrow kernel, B = 0 at every point, each point (and each block) is refused with the kernel's own
    # text, and the cap's error carries that text, not a condition number
    def zero_b(V, B):
        return wdvv.arrow_residuals(0.0 * V, 0.0 * B)

    monkeypatch.setattr(cli, "arrow_residuals", zero_b)
    monkeypatch.setattr(cli, "MAX_ATTEMPTS_PER_POINT", 5)
    with pytest.raises(SamplingError) as error:
        run(RunSpec(command="verify-wdvv", config_source=_family(3, -2, 0, 1, (1, 1, 1)), samples=3))
    assert str(error.value) == ("more than 5 sample points were discarded: 6 had an unusable pivot, "
                                "the last: the diagonal pivot B has B_kk = 0 at k = 0")


def test_hat_two_path_fails_a_rescaling_with_the_wrong_power(monkeypatch):
    # coordinates scaled by m^-1 instead of m^-1/2: the rescaled tensor, mapped
    # back to base coordinates, no longer meets the closed form there.  The
    # sampler keeps x^ off the swapped configuration's hyperplanes, not x^ / sqrt(m)
    # off the family's, so the closed form gets a small hyperplane margin
    def wrong_power(p):
        base = build_bcn(p)
        return susy.RescaledConfiguration(Configuration(p.n, base.vectors / p.m_array, base.multiplicities))

    monkeypatch.setattr(susy, "build_hat_configuration", wrong_power)
    spec = RunSpec(command="verify-susy", config_source=_family(4, -14, 0.5, 1, (2, 1, 3, 1)), samples=10, seed=7,
                   threshold=1e-6)
    check = next(c for c in run(spec).checks if c.name == "hat_tensor_two_path")
    assert check.max_residual > 1e-3 and not check.passed


@pytest.mark.parametrize("command, source, names", CHECK_NAMES.values(), ids=CHECK_NAMES.keys())
def test_check_names_in_report_order(command, source, names):
    report = run(RunSpec(command=command, config_source=source, samples=2, seed=3))
    assert [c.name for c in report.checks] == names


@pytest.mark.parametrize("command, source, _names", CHECK_NAMES.values(), ids=CHECK_NAMES.keys())
def test_repeated_runs_give_byte_identical_reports(command, source, _names):
    spec = {"command": command, "config_source": source, "samples": 5, "seed": 42}
    first, second = (dumps_17g(run(RunSpec(**spec)).to_json_dict()) for _ in range(2))
    assert first == second


@pytest.mark.parametrize("command, source, _names", CHECK_NAMES.values(), ids=CHECK_NAMES.keys())
def test_report_document_is_the_fields_in_order_and_a_copy(command, source, _names):
    # the document asdict gave, key order included: a check's "pass" last and the box as a list
    spec = RunSpec(command=command, config_source=copy.deepcopy(source), samples=2, seed=5)
    report = run(spec)
    doc = report.to_json_dict()
    want = {
        "run": {**dataclasses.asdict(spec), "box": list(spec.box)},
        "checks": [
            {**{k: v for k, v in dataclasses.asdict(c).items() if k != "passed"}, "pass": c.passed}
            for c in report.checks
        ],
        "discarded_points": report.discarded_points,
        "version": report.version,
    }
    assert doc == want
    assert list(doc["run"]) == list(want["run"])
    assert [list(c) for c in doc["checks"]] == [list(c) for c in want["checks"]]
    assert type(doc["run"]["box"]) is list
    # editing the document leaves the spec and the report as they were
    doc["run"]["config_source"]["m"].append(9.0)
    for check in doc["checks"]:
        if check["worst_point"] is not None:
            check["worst_point"].append(9.0)
    assert spec.config_source == source
    assert report.to_json_dict() == want


def test_the_report_version_is_a_constant_no_caller_sets():
    spec = RunSpec(command="verify-wdvv", config_source=_family(3, -2, 0, 1, (1, 1, 1)))
    assert VerificationReport(run=spec).version == __version__
    with pytest.raises(TypeError):
        VerificationReport(run=spec, version="x")


@pytest.mark.parametrize("command, source, _names", CHECK_NAMES.values(), ids=CHECK_NAMES.keys())
def test_a_run_examines_its_sampling_pattern_once(monkeypatch, command, source, _names):
    calls = []
    original = sampling.covers_every_pair

    def counting(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(sampling, "covers_every_pair", counting)
    for samples in (1, 5):
        calls.clear()
        run(RunSpec(command=command, config_source=source, samples=samples))
        assert len(calls) == 1, samples


def _sampled_into(report, per_point, points):
    """Run ``_sampled`` into ``report`` with one residual dict per point, appending each
    point to ``points``; a text in ``per_point`` refuses its point, with values that would
    fail every check were they filed, and an exception is raised at its point instead."""

    def residuals(x, active, draws):
        (point,) = x  # one point a call, as a block of one
        points.append(point.tolist())
        value = per_point[len(points) - 1]
        if isinstance(value, Exception):
            raise value
        if isinstance(value, str):
            return {"a": math.inf, "b": math.nan}, [value]
        return value, None

    _sampled(report, build_bcn(BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))), residuals, 1)


def _sampled_checks(per_point):
    """The checks ``_sampled`` builds from one residual dict per point, and the points."""
    spec = RunSpec(command="verify-wdvv", config_source={}, samples=len(per_point))
    report = VerificationReport(run=spec)
    points = []
    _sampled_into(report, per_point, points)
    return report.checks, points


@pytest.mark.parametrize(
    "values, worst, worst_value",
    [
        ([1.0, 2.0, 2.0], 1, 2.0),  # a tie keeps the first maximum's point
        ([[1.0, 3.0], 3.0, [0.5, 3.0]], 0, 3.0),  # also across the residuals of one point
        ([1.0, math.inf, math.nan, math.inf], 1, math.inf),  # the first non-finite residual wins
        ([2.0, math.nan, math.inf, 5.0], 1, math.nan),
    ],
    ids=["tie", "tie-within-a-point", "inf-first", "nan-first"],
)
def test_worst_point_is_the_first_non_finite_else_the_first_maximum(values, worst, worst_value):
    (check,), points = _sampled_checks([{"only_check": v} for v in values])
    flat = np.concatenate([np.ravel(v) for v in values])
    assert check.name == "only_check"
    assert check.worst_point == points[worst]
    assert np.array_equal(check.max_residual, worst_value, equal_nan=True)
    assert np.array_equal(check.mean_residual, np.mean(flat), equal_nan=True)
    assert check.passed is False


_DENSE = np.random.default_rng(5).standard_normal((80, 8))


@pytest.mark.parametrize(
    "config",
    [
        build_bcn(BCnParameters(n=3, r=-20.0, s=1.0, q=2.0, m=(1.0, 2.0, 2.0))),
        susy.build_hat_configuration(BCnParameters(n=2, r=-20.0, s=1.0, q=2.0, m=(2.0, 3.0))).config,
        build_bcn(BCnParameters(n=3, r=0.0, s=0.0, q=0.0, m=(1.0, 1.0, 1.0))),
        load_config_source(config_document(load_config_source(_family(3, -1, 1, 0, (1, 1, 1))))),
        # a dense source where every third member has multiplicity zero: at n = 8 the rows of
        # V @ x and the product of the selected rows can differ in the last bit (BLAS blocking)
        Configuration(8, _DENSE, np.where(np.arange(80) % 3, np.linspace(-2.0, 3.0, 80), 0.0)),
    ],
    ids=["family", "rescaled", "zero-family", "q0-document", "dense-explicit"],
)
def test_sampled_pairings_are_active_pairings_bit_for_bit(config):
    # _sampled takes (A, c, z) from the sampler's margin-tested product, by the one route to z
    # that active_pairings takes, so every sum over members reads the same bits either way
    spec = RunSpec(command="verify-metric", config_source={}, samples=20)
    got = []

    def residuals(x, active, draws):
        (point,), (A, c, (z,)) = x, active  # one point a call, as a block of one
        got.append((point, (A, c, z)))
        return {}, None

    _sampled(VerificationReport(run=spec), config, residuals, 1)
    assert len(got) == 20
    for x, (A, c, z) in got:
        A_want, c_want, z_want = active_pairings(config, x, spec.threshold)
        assert A is A_want and c is c_want
        assert z.shape == z_want.shape == (len(c),) and z.tobytes() == z_want.tobytes()


def test_a_refused_point_is_discarded_and_nothing_else_is():
    # the one discard rule: a point whose refusal the residual function returns (the usable-pivot
    # rule's) has its point counted and replaced, and no residual of that point reaches a check
    accepted = [{"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 1.0}, {"a": 2.0, "b": 4.0}]
    refused = "pivot 0 has condition number inf above 1e+08"
    report = VerificationReport(run=RunSpec(command="verify-wdvv", config_source={}, samples=3))
    points = []
    _sampled_into(report, [accepted[0], refused, accepted[1], refused, accepted[2]], points)
    assert report.discarded_points == 2
    assert [c.name for c in report.checks] == ["a", "b"]
    assert [c.worst_point for c in report.checks] == [points[0], points[4]]
    assert [c.mean_residual for c in report.checks] == [2.0, 2.0]

    # any other error ends the run and is not counted as a discard
    report = VerificationReport(run=RunSpec(command="verify-wdvv", config_source={}, samples=3))
    with pytest.raises(DomainError, match="pivot 0 is not finite"):
        _sampled_into(report, [accepted[0], DomainError("pivot 0 is not finite"), accepted[1]], [])
    assert report.discarded_points == 0
    assert report.checks == []


def test_one_value_checks_have_no_worst_point():
    report = run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=2))
    check = report.checks[0]
    assert check.name == "restriction_config_match"
    assert check.worst_point is None
    assert check.mean_residual == check.max_residual


@pytest.mark.parametrize("name", ["susy", "susy_n1_has_no_pairs"])
def test_every_susy_check_is_sampled(name):
    # verify-susy reports no one-value check: each row reads the prepotential at the sampled
    # points and names its worst one
    command, source, names = CHECK_NAMES[name]
    report = run(RunSpec(command=command, config_source=source, samples=3))
    assert [c.name for c in report.checks] == names
    for check in report.checks:
        assert check.worst_point is not None and len(check.worst_point) == source["n"]


def test_wdvv_n1_is_refused(capsys):
    # n=1 has no pair (i, j), so there is nothing to check, and at n=2 both
    # WDVV forms hold for every symmetric tensor: r=5 breaks the relation
    # (it needs r=-12) and still passed.  A run that cannot fail must not print OK
    for n, m in (("1", "2"), ("2", "1,2")):
        argv = ["verify-wdvv", "--family", "bcn", "--n", n, "--r", "5", "--s", "1", "--q", "2", "--m", m]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: PreconditionError: verify-wdvv needs n >= 3: n={n} has no WDVV content"
        )
        assert "at n=2 B lies in the span of F_1 and F_2, so both WDVV forms are identities" in captured.err


@pytest.mark.parametrize(
    "command, source, builds",
    [
        # the family; the sampling pattern is its covectors, with no second build
        *((command, _family(3, -20, 1, 2, (1, 2, 2)), [(3, 12)])
          for command in ("verify-wdvv", "verify-associativity", "verify-metric")),
        # the projection alone: the context splits BC_5's member arrays into the subsystem and the
        # members outside it with no second build, and the config match reads the family's member
        # arrays in place of a rebuild
        ("verify-restriction", _family(2, -20, 1, 2, (2, 3)), [(2, 6)]),
        # the rescaled BC_2
        ("verify-susy", _family(2, -20, 1, 2, (2, 3)), [(2, 6)]),
    ],
    ids=["verify-wdvv", "verify-associativity", "verify-metric", "verify-restriction", "verify-susy"],
)
def test_builds_configurations_once_per_run(monkeypatch, command, source, builds):
    # the configurations a run evaluates (the family, BC_N and its projection, or
    # the rescaled family) are built once per run, not once per sample point, and
    # no configuration is built that the run does not evaluate
    built = []
    original = Configuration.__init__

    def counting(self, dimension, vectors, multiplicities):
        original(self, dimension, vectors, multiplicities)
        built.append((self.dimension, len(self.members)))

    monkeypatch.setattr(Configuration, "__init__", counting)
    per_run = []
    for samples in (1, 3):
        built.clear()
        run(RunSpec(command=command, config_source=source, samples=samples))
        per_run.append(list(built))
    assert per_run[0] == per_run[1] == builds


def test_restriction_builds_the_block_indicators_once_per_run(monkeypatch):
    # the context's block basis serves the projection, the embedding and the products
    calls = []
    original = Partition.block_indicators

    def counting(self):
        calls.append(self.blocks)
        return original(self)

    monkeypatch.setattr(Partition, "block_indicators", counting)
    for samples in (1, 3):
        calls.clear()
        run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=samples))
        assert calls == [(2, 3)]


def test_restriction_checks_read_the_context_family(monkeypatch):
    # the config match and h_b_decomposition read the one family the context holds
    contexts, read = [], []

    def recording(name):
        original = getattr(cli, name)

        def record(params, *args):
            read.append((name, params))
            return original(params, *args)

        return record

    for name in ("_bcn_members", "metric_identity_residuals"):
        monkeypatch.setattr(cli, name, recording(name))
    original = algebra.RestrictionContext.__init__

    def keeping(self, *args):
        original(self, *args)
        contexts.append(self)

    monkeypatch.setattr(algebra.RestrictionContext, "__init__", keeping)
    run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=2))
    # both points are one block: one metric-identity call
    assert [name for name, _ in read] == ["_bcn_members", "metric_identity_residuals"]
    assert len(contexts) == 1 and all(params is contexts[0].params for _, params in read)


@pytest.mark.parametrize(
    "command, source, sampled",
    [
        # the family the run samples, 3 + 3 + 6 members
        *((command, _family(3, -20, 1, 2, (1, 2, 2)), (3, 12))
          for command in ("verify-wdvv", "verify-associativity", "verify-metric")),
        # the projected BC_2 the run samples; BC_5's members outside its subsystem are paired at the
        # embedded points with no margin test of their own
        ("verify-restriction", _family(2, -20, 1, 2, (2, 3)), (2, 6)),
        # the rescaled BC_2: its tensor, the closed form and the gauge residual read the same pairings
        ("verify-susy", _family(2, -20, 1, 2, (2, 3)), (2, 6)),
        # the explicit route's metric B(x) and the products read the same pairings
        ("verify-associativity", config_document(load_config_source(_family(3, -20, 1, 2, (1, 2, 2)))), (3, 12)),
    ],
    ids=["verify-wdvv", "verify-associativity", "verify-metric", "verify-restriction", "verify-susy",
         "verify-associativity-explicit"],
)
def test_takes_the_pairings_once_per_point(monkeypatch, command, source, sampled):
    # an accepted point's pairings are the one product its candidate formed in the sampler:
    # _sampled makes no active_pairings call, no margin test runs outside the sampler, and the
    # closed form receives the points alone, no margin: the sampler's _margin is a run's one margin test
    calls, products, outside, closed, margins = [], [], [], [], set()
    original, margin, outside_margin = active_pairings, sampling._margin, prepotential._margin
    closed_form = cli.closed_form_arrows

    def counting(config, x, threshold):
        calls.append((config.dimension, len(config)))
        margins.add(threshold)
        return original(config, x, threshold)

    def counting_margin(pattern, x, threshold, rows=None):  # the sampler tests a round of candidates at once
        z, ok = margin(pattern, x, threshold, rows)
        products.extend((pattern.shape[::-1], bool(each)) for each in np.atleast_1d(ok))
        margins.add(threshold)
        return z, ok

    def counting_outside(pattern, x, threshold, rows=None):  # a margin test outside the sampler
        outside.append(pattern.shape[::-1])
        return outside_margin(pattern, x, threshold, rows)

    def counting_closed(*args, **kwargs):
        closed.append((len(args), sorted(kwargs)))
        return closed_form(*args, **kwargs)

    # every trigwdvv namespace that holds it, so a caller that imported it by name is counted
    for name, module in list(sys.modules.items()):
        if name.startswith("trigwdvv") and getattr(module, "active_pairings", None) is original:
            monkeypatch.setattr(module, "active_pairings", counting)
    monkeypatch.setattr(sampling, "_margin", counting_margin)
    monkeypatch.setattr(prepotential, "_margin", counting_outside)
    monkeypatch.setattr(cli, "closed_form_arrows", counting_closed)
    for samples in (1, 3):
        calls.clear()
        products.clear()
        closed.clear()
        report = run(RunSpec(command=command, config_source=source, samples=samples, threshold=0.07))
        assert report.discarded_points == 0
        assert calls == [] and outside == []
        assert closed == ([(2, [])] if command == "verify-susy" else [])  # (p, x): every point in one block
        assert [shape for shape, ok in products if ok] == [sampled] * samples
        assert {shape for shape, _ in products} == {sampled}
    assert margins == {0.07}


def _nearest_walls(monkeypatch, source, box, theta):
    """(the nearest closed-form sinh argument |x_i|, |2 x_i| or |x_i +- x_j| at verify-susy's points
    x = x^ / sqrt(m), the nearest |z| of verify-restriction's outside pairings or None where m are not block
    sizes), each over the points of a 20-sample run of ``source`` in ``box`` at margin ``theta``."""
    xs, zs = [], []
    closed_form, pairings = cli.closed_form_arrows, algebra.RestrictionContext.pairings

    def recording_closed(p, x):
        xs.append(np.array(x))
        return closed_form(p, x)

    def recording_pairings(self, x_tilde):
        active = pairings(self, x_tilde)
        zs.append(active[2])
        return active

    monkeypatch.setattr(cli, "closed_form_arrows", recording_closed)
    monkeypatch.setattr(algebra.RestrictionContext, "pairings", recording_pairings)
    options = {"samples": 20, "box": box, "threshold": theta}
    run(RunSpec(command="verify-susy", config_source=source, **options))
    x = np.concatenate(xs)
    i, j = np.triu_indices(x.shape[1], 1)
    closed = np.abs(np.concatenate([x, 2.0 * x, x[:, i] + x[:, j], x[:, i] - x[:, j]], axis=1)).min()
    if not all(float(v).is_integer() for v in source["m"]):
        return closed, None
    run(RunSpec(command="verify-restriction", config_source=source, **options))
    return closed, min(np.abs(z).min(initial=np.inf) for z in zs)


def _wall_families():
    """(source, box, theta): m = 2,1,3,1 and random families, integer m (block sizes) among them, each in a
    box that straddles 0, at irrational sqrt(m) but for the unit entries; at q = 0 every e_i +- e_j, and
    at r = s = 0 every e_i and 2e_i, has multiplicity 0 and keeps its margin all the same."""
    yield _family(4, -14, 0.5, 1, (2, 1, 3, 1)), (-1.0, 1.0), 0.2
    yield _family(4, -14, 0.5, 1, (2, 1, 3, 1)), (-0.7, 1.3), 0.05
    yield _family(4, 3.0, 0.5, 0.0, (2, 1, 3, 1)), (-1.0, 1.0), 0.2
    yield _family(4, 0.0, 0.0, 1.0, (2, 1, 3, 1)), (-1.0, 1.0), 0.2
    rng = rng_for(55, "walls/families")
    for k in range(8):
        n = int(rng.integers(1, 5))
        m = rng.integers(1, 4, n) if k % 2 else rng.uniform(0.05, 6.0, n)
        r, s, q = (float(v) for v in rng.uniform(-5.0, 5.0, 3))
        lo = -float(rng.uniform(0.2, 2.0))
        yield _family(n, r, s, q, m.tolist()), (lo, lo + float(rng.uniform(2.5, 5.0))), [0.05, 0.2][k % 2]


def test_the_sampler_s_margin_holds_where_the_closed_form_and_the_outside_pairings_read_the_point(monkeypatch):
    # neither closed_form_arrows nor RestrictionContext.pairings tests a margin: every point the sampler
    # admits keeps theta from each closed-form sinh argument, up to the rounding of x^ / sqrt(m), and
    # from each outside pairing exactly (their covectors are the projected configuration's vectors)
    restricted = 0
    for source, box, theta in _wall_families():
        closed, outside = _nearest_walls(monkeypatch, source, box, theta)
        assert closed >= theta * (1.0 - 1e-12), (source, box, theta)
        if outside is not None:
            restricted += 1
            assert outside >= theta, (source, box, theta)
    assert restricted >= 6
    # the check catches a sampler that tests the active members alone: at q = 0 every e_i +- e_j is
    # inactive, and a point with |x_i - x_j| < theta gets through to the closed form
    monkeypatch.setattr(cli, "fully_active", lambda config: config.active_members[0])
    closed, _ = _nearest_walls(monkeypatch, _family(4, 3.0, 0.5, 0.0, (2, 1, 3, 1)), (-1.0, 1.0), 0.2)
    assert closed < 0.2


def test_restriction_evaluates_one_projected_tensor_per_block(monkeypatch):
    # the driver's two-path check reads the one projected tensor the driver evaluates
    # at each block of points
    calls = []
    original = tensor_generic

    def counting(active):
        calls.append((active[0].shape[1], *active[2].shape))
        return original(active)

    monkeypatch.setattr(cli, "tensor_generic", counting)
    for samples in (1, 3):
        calls.clear()
        run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=samples))
        assert calls == [(2, samples, 6)]  # one block; the projected BC_2 has 2 + 2 + 2 members


LARGE_MULTIPLICITY_FAMILIES = {
    "q=1000.1": ["--r", "-16001.6", "--q", "1000.1"],
    "q=1e6+0.1": ["--r", "-16000001.6", "--q", "1000000.1"],
}


@pytest.mark.parametrize("args", LARGE_MULTIPLICITY_FAMILIES.values(), ids=LARGE_MULTIPLICITY_FAMILIES.keys())
def test_restriction_passes_families_with_large_multiplicities(capsys, args):
    # multiplicities of 8e4 and 8e7 round to more than an absolute 1e-12 when
    # the projection sums them; scaled by max|c|, the deviation is ~1e-16
    argv = ["verify-restriction", "--family", "bcn", "--n", "2", "--s", "0", "--m", "5,5", *args]
    assert main(argv + ["--samples", "3", "--seed", "1", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == CHECK_NAMES["restriction"][2]
    assert all(c["pass"] for c in checks)
    assert 0.0 < checks[0]["max_residual"] < 1e-15


def _swap_first_two(vectors, mults):
    order = [1, 0, *range(2, len(mults))]
    return vectors[order], mults[order]


def _scale_first_multiplicity(vectors, mults):
    return vectors, np.concatenate([mults[:1] * (1.0 + 1e-6), mults[1:]])


@pytest.mark.parametrize(
    "perturb, expected",
    [
        (_scale_first_multiplicity, 40.0 * 1e-6 / 60.0),  # c = -40 of max|c| = 60
        (_swap_first_two, 0.5),  # e_1 and e_2 trade places: 1 over max(1, max|want|) = 2, from 2e_i
        (lambda vectors, mults: (vectors[1:], mults[1:]), math.inf),  # one member fewer
    ],
    ids=["multiplicity-scaled", "members-swapped", "member-missing"],
)
def test_restriction_config_match_fails_on_a_perturbed_family(monkeypatch, perturb, expected):
    original = cli._bcn_members

    def perturbed(params):
        return perturb(*original(params))

    monkeypatch.setattr(cli, "_bcn_members", perturbed)
    report = run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=1))
    check = report.checks[0]
    assert check.name == "restriction_config_match"
    assert math.isclose(check.max_residual, expected, rel_tol=1e-9)
    assert not check.passed and not report.all_passed


@pytest.mark.parametrize(
    "module, name, failing",
    [
        (algebra, "coth", {"structure_constants_two_path"}),  # C alone; tangency is scale-free
        (cli, "tensor_generic", {"structure_constants_two_path"}),  # the projected tensor; B reads no tensor
        # the projected tensor and the metric B, both read through the coth that prepotential reads
        (prepotential, "coth", {"structure_constants_two_path", "h_b_decomposition"}),
    ],
    ids=["structure-constants-scaled", "projected-tensor-scaled", "projected-members-scaled"],
)
def test_restriction_two_path_fails_when_either_route_is_scaled(monkeypatch, module, name, failing):
    # scaling either route by 1.001, C through the coth that algebra reads or the projected tensor
    # that the driver evaluates, moves structure_constants_two_path to 1e-3; h_b_decomposition sees
    # the projection's coth, which its B reads from the members
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: 1.001 * original(*args))
    report = run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=3))
    assert {c.name for c in report.checks if not c.passed} == failing
    two_path = next(c for c in report.checks if c.name == "structure_constants_two_path")
    assert math.isclose(two_path.max_residual, 1e-3, rel_tol=1e-3)


@pytest.mark.parametrize("name", ["arrow_slices", "closed_form_arrows"], ids=["members-scaled", "closed-form-scaled"])
def test_susy_two_path_fails_when_either_route_is_scaled(monkeypatch, name):
    # scaling either route by 1.001, the members' V or the closed form's, moves hat_tensor_two_path to
    # about 1e-3; hat_commuting_residual reads the members' V, and is scale-free, so it passes
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: 1.001 * original(*args))
    report = run(RunSpec(command="verify-susy", config_source=_family(4, -14, 0.5, 1, (2, 1, 3, 1)), samples=3))
    assert {c.name for c in report.checks if not c.passed} == {"hat_tensor_two_path"}
    two_path = next(c for c in report.checks if c.name == "hat_tensor_two_path")
    assert math.isclose(two_path.max_residual, 1e-3, rel_tol=1e-2), two_path.max_residual


def test_every_two_route_check_reads_the_one_comparison(monkeypatch):
    # prepotential._two_path is the one comparison of a quantity by two routes: replaced
    # where each caller looks it up, it is what all four checks report, one value a point in a block too
    real = cli._two_path
    for module in (cli, susy):
        monkeypatch.setattr(module, "_two_path", lambda got, want, axes=None: 0.0 * real(got, want, axes) + 7.0)
    restriction = run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=2))
    hat = run(RunSpec(command="verify-susy", config_source=_family(3, -20, 1, 2, (1, 2, 2)), samples=2))
    read = {c.name: c.max_residual for c in restriction.checks + hat.checks}
    for name in ("restriction_config_match", "structure_constants_two_path", "hat_tensor_two_path", "gauge_residual"):
        assert read[name] == 7.0, name


def test_each_check_receives_every_residual_of_its_points(monkeypatch):
    # the drivers reduce nothing: a check's distribution is over every subsystem row,
    # every pair and both metric parts of every accepted point
    received = {}
    original = cli._check_result

    def recording(name, values, points, tolerance):
        received[name] = np.size(values)
        return original(name, values, points, tolerance)

    monkeypatch.setattr(cli, "_check_result", recording)
    K = 3
    run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=K))  # 4 rows
    run(RunSpec(command="verify-susy", config_source=_family(3, -20, 1, 2, (1, 2, 2)), samples=K))  # 3 pairs
    assert received["tangency_residual"] == 4 * K
    assert received["hat_commuting_residual"] == 3 * K
    assert received["h_b_decomposition"] == received["hat_metric_identity"] == 2 * K


def test_restriction_names_a_fractional_block(capsys):
    argv = ["verify-restriction", "--family", "bcn", "--n", "2", "--r", "0", "--s", "0", "--q", "1", "--m", "2.5,2.5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: PreconditionError: verify-restriction reads m as block sizes: "
        "every block must be a positive integer, got (2.5, 2.5)\n"
    )


# a theorem family whose metric B = h diag(m) has condition number 2e8 at every point, above
# CONDITION_CAP: as a family, verify-wdvv takes each point at diag(B), under no cap; as an explicit
# document, it takes each point at eta.F, and discards a point where that is unusable too
M_SPREAD = _family(3, -400000000, 0, 1, (1, 1, 200000000))
M_SPREAD_DOCUMENT = config_document(load_config_source(M_SPREAD))


def _replay_wdvv_conditions(spec):
    """(kappa(B), kappa(eta.F)) by np.linalg.cond at each point an explicit verify-wdvv draws, until it has
    accepted enough."""
    config = load_config_source(spec.config_source)
    rng = rng_for(spec.seed, "verify-wdvv/points")
    eta = rng_for(spec.seed, "verify-wdvv/pivot").standard_normal(config.dimension)
    conditions, accepted = [], 0
    while accepted < spec.samples:
        x = sample_points(rng, fully_active(config), 1, spec.box, spec.threshold)[0]
        active = active_pairings(config, x, spec.threshold)
        T = tensor_generic(active)
        conditions.append((np.linalg.cond(metric_B(active, x)), np.linalg.cond(np.tensordot(eta, T, axes=1))))
        accepted += min(conditions[-1]) <= CONDITION_CAP
    return conditions


def test_ill_conditioned_pivots_discard_the_point():
    # on an explicit document, a point where both B and eta.F have a condition number above
    # CONDITION_CAP is discarded and resampled, never reported or turned into an error.  The
    # discards match np.linalg.cond of B and eta.F on the same streams
    spec = RunSpec(command="verify-wdvv", config_source=M_SPREAD_DOCUMENT, samples=5)
    report = run(spec)
    conditions = _replay_wdvv_conditions(spec)
    assert all(b > CONDITION_CAP for b, _ in conditions)
    assert report.discarded_points == sum(min(c) > CONDITION_CAP for c in conditions) > 0
    assert report.all_passed


def test_the_family_takes_an_ill_conditioned_diagonal_b_with_no_discard():
    # the same family takes every point at diag(B), whose condition number 2e8 no LU amplifies:
    # no point is discarded, and the theorem reads rounding level
    report = run(RunSpec(command="verify-wdvv", config_source=M_SPREAD, samples=5))
    check = _wdvv(report)
    assert report.discarded_points == 0 and report.all_passed
    assert check.max_residual <= 8 * 3 * np.finfo(float).eps, check.max_residual


def test_a_point_where_only_b_is_unusable_is_kept():
    # with q = 0 the tensor is diagonal, and so is B(x), whose entries grow like e^{2 x_i}:
    # in a wide box some points have kappa(B) above CONDITION_CAP, and eta.F is usable
    # there, so an explicit document's check is taken at eta.F and no point is discarded
    source = config_document(load_config_source(_family(3, -1.0, 1.0, 0.0, (1, 1, 1))))
    spec = RunSpec(command="verify-wdvv", config_source=source, samples=20, box=(0.3, 12.0))
    report = run(spec)
    conditions = _replay_wdvv_conditions(spec)
    assert len(conditions) == spec.samples and sum(b > CONDITION_CAP for b, _ in conditions) == 4
    assert all(eta_f <= CONDITION_CAP for _, eta_f in conditions)
    assert report.discarded_points == 0 and report.all_passed


def test_explicit_associativity_draws_u_v_w_before_judging_b():
    # the same q = 0 family as an explicit document, whose metric is B(x): the k-th point drawn has the
    # k-th (3, n) draw of "verify-associativity/draws", and a point where kappa(B) is above
    # CONDITION_CAP is discarded after that, so a discarded point spends its draw and the accepted
    # points and their vectors match this replay of the two streams, residual for residual
    source = config_document(load_config_source(_family(3, -1.0, 1.0, 0.0, (1, 1, 1))))
    spec = RunSpec(command="verify-associativity", config_source=source, samples=50, box=(0.3, 12.0))
    report = run(spec)

    config = load_config_source(source)
    points = sampling.admissible_points(rng_for(spec.seed, "verify-associativity/points"), fully_active(config),
                                        spec.box, spec.threshold)
    draws = rng_for(spec.seed, "verify-associativity/draws")
    residuals, discarded = [], 0
    while len(residuals) < spec.samples:
        (x,), _ = points(1)
        u, v, w = (draws.standard_normal(3) for _ in range(3))
        active = active_pairings(config, x, spec.threshold)
        B = metric_B(active, x)
        if np.linalg.cond(B) > CONDITION_CAP:
            discarded += 1
            continue
        residuals.append(algebra.associativity_residual(active, u, v, w, lambda y: np.linalg.solve(B, y)))
    (check,) = report.checks
    assert report.discarded_points == discarded > 0
    assert check.max_residual == max(residuals)


@pytest.mark.parametrize("n", [3, 12, 40])
def test_u_v_w_in_one_draw_are_three_draws_of_n(n):
    # verify-associativity draws a block's u, v and w as one (b, 3, n) array from its draws stream: the
    # same numbers, bit for bit, as 3 b draws of n, and the stream goes on from the same state
    one, three = (rng_for(0, "verify-associativity/draws") for _ in range(2))
    uvw = one.standard_normal((5, 3, n))
    assert uvw.tobytes() == np.concatenate([three.standard_normal(n) for _ in range(15)]).tobytes()
    assert one.uniform(size=n).tobytes() == three.uniform(size=n).tobytes()


@pytest.mark.parametrize(
    "content",
    [
        None,
        b"\xff\xfe{}",
        b'{"explicit": {"dimension": 2, "members": 5}}',
        b'{"explicit": {"dimension": "x", "members": []}}',
        b'{"explicit": {"dimension": 2, "members": [{"vector": 5, "multiplicity": 1}]}}',
        b'{"explicit": {"dimension": 2, "members": [{"vector": [1, 0], "multiplicity": "a"}]}}',
        # mistyped values: none is truncated, and no string is read as an array
        b'{"family": "bcn", "n": 2.7, "r": -20, "s": 1, "q": 2, "m": [2, 3]}',
        b'{"family": "bcn", "n": true, "r": -6, "s": 1, "q": 2, "m": [2]}',
        b'{"family": "bcn", "n": 2, "r": -20, "s": 1, "q": 2, "m": "23"}',
        b'{"family": "bcn", "n": 2, "r": "-6", "s": 1, "q": 2, "m": [2, 3]}',
        b'{"family": "bcn", "n": 2, "r": true, "s": 1, "q": 2, "m": [2, 3]}',
        b'{"explicit": {"dimension": 2, "members": [{"vector": "10", "multiplicity": 1}]}}',
        b'{"explicit": {"dimension": 2.9, "members": [{"vector": [1, 0], "multiplicity": 1}]}}',
    ],
    ids=[
        "directory", "not-utf8", "members-int", "dimension-str", "vector-int", "multiplicity-str",
        "n-float", "n-bool", "m-str", "r-str", "r-bool", "vector-str", "dimension-float",
    ],
)
def test_malformed_config_sources_are_config_format_errors(tmp_path, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "config.json"
        path.write_bytes(content)
    proc = run_cli("build-config", "--config", str(path))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ConfigFormatError: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "family, rank",
    [(["--r", "-1", "--s", "1", "--q", "1", "--m", "1,1,0"], 2), (["--r", "0", "--s", "0", "--q", "0", "--m", "1,1,1"], 0)],
    ids=["m3-zero", "all-multiplicities-zero"],
)
def test_rank_deficient_family_is_refused_before_sampling(monkeypatch, capsys, family, rank):
    # with m_3 = 0 every member that reads x_3 has multiplicity 0, and at r = s = q = 0
    # every member has, so B and eta.F would be singular at every point: the run is
    # refused before a point is drawn, not after the discard cap
    monkeypatch.setattr(cli, "admissible_points", _refuse_to_sample)
    argv = ["verify-wdvv", "--family", "bcn", "--n", "3", *family]
    assert main(argv + ["--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: PreconditionError: verify-wdvv needs members of nonzero multiplicity that span R^3, "
        f"but their span has dimension {rank}: B(x) would be singular at every point\n"
    )


def test_a_family_rank_is_the_matrix_rank_of_its_members():
    # a family's spanning rank is the count of coordinates read by a member of nonzero
    # multiplicity; matrix_rank, the explicit route, must give the same refusal or none,
    # over families with zeros among m, r, s and q (at m_i = 3, s = -1, q = 1 the member
    # 2e_i has multiplicity s m_i + q m_i (m_i - 1) / 2 = 0 too)
    def refusal(config, family):
        try:
            cli._require_spanning(config, "verify-wdvv", family=family)
        except PreconditionError as exc:
            return str(exc)

    cases = 0
    for n in range(1, 5):
        for r, s, q in itertools.product((0.0, -1.5), (0.0, 0.5, -1.0), (0.0, 1.0)):
            for m in itertools.product((0.0, 1.0, 3.0), repeat=n):
                config = build_bcn(BCnParameters(n=n, r=r, s=s, q=q, m=m))
                assert refusal(config, True) == refusal(config, False), (n, r, s, q, m)
                cases += refusal(config, True) is not None
    assert cases == 1112  # of 1440, at every rank from 0 to n - 1


def test_the_discard_cap_ends_a_run_whose_every_point_is_unusable():
    # a residual function that refuses every point: the run ends after the cap's
    # 10,000 discards with a SamplingError that gives the count, and reports no check
    refused = "pivot 0 has condition number inf above 1e+08"
    report = VerificationReport(run=RunSpec(command="verify-wdvv", config_source={}, samples=1))
    points = []
    with pytest.raises(SamplingError, match="^more than 10000 sample points were discarded: 10001 had an unusable "
                                            "pivot, the last: pivot 0 has condition number inf above 1e\\+08$"):
        _sampled_into(report, [refused] * 10_002, points)
    assert report.discarded_points == len(points) == 10_001
    assert report.checks == []


def _sampled_in_blocks(per_point, samples, block, calls=None):
    """``_sampled``'s report with one residual dict, refusal text or exception per point in draw order,
    from a residual function that takes blocks: a block's call raises its first point's exception,
    else returns each residual stacked, a refused point's as values that would fail every check were
    they filed, and each point's refusal.  Each call's point indices go to ``calls``; the report and
    the error raised, or None, are returned."""
    drawn = {}
    calls = [] if calls is None else calls

    def residuals(x, active, draws):
        rows = [drawn.setdefault(row.tobytes(), len(drawn)) for row in np.atleast_2d(x)]
        assert active[2].shape == (*x.shape[:-1], 6)  # the six members of BC_2
        calls.append(rows if len(x) > 1 else rows[0])
        values = [per_point[k] for k in rows]
        for value in values:
            if isinstance(value, Exception):
                raise value
        refusals = [v if isinstance(v, str) else None for v in values]
        values = [_UNFILED if isinstance(v, str) else v for v in values]
        return {name: np.stack([v[name] for v in values]) for name in values[0]}, refusals

    report = VerificationReport(run=RunSpec(command="verify-wdvv", config_source={}, samples=samples))
    try:
        _sampled(report, build_bcn(BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))), residuals, block)
    except (DomainError, SamplingError) as exc:
        return report, exc
    return report, None


def _outcome(report, error):
    return dumps_17g(report.to_json_dict()), report.discarded_points, repr(error)


_REFUSED = "pivot 0 has condition number inf above 1e+08"
_UNFILED = {"a": np.array([math.inf, math.nan]), "b": math.inf}


def _per_point(count, refused=(), errors=()):
    """A residual dict per point, two checks of which one has two residuals, with the points in
    ``refused`` discarded and those in ``errors`` ending the run."""
    out = [{"a": np.array([k % 3, k / 7]), "b": float(k * k % 5)} for k in range(count)]
    for k in refused:
        out[k] = _REFUSED
    for k in errors:
        out[k] = DomainError("pivot 0 is not finite")
    return out


@pytest.mark.parametrize("block", [2, 3, 4, 6, 50])
def test_a_discard_inside_a_block_is_the_point_by_point_discard(block):
    # a block holding a refused point files its other points and counts the refused one, with no
    # second evaluation: the same discards, the same replacement points, worst points and means as
    # one point per call, and each point evaluated once
    per_point = _per_point(12, refused=(1, 4, 5, 8))
    calls = []
    want = _outcome(*_sampled_in_blocks(per_point, 6, 1))
    assert _outcome(*_sampled_in_blocks(per_point, 6, block, calls)) == want
    assert want[1] == 4 and '"worst_point":[' in want[0]
    evaluated = [k for call in calls for k in np.ravel(call)]
    assert evaluated == list(range(len(evaluated)))  # each point once, in stream order
    assert calls[0] == list(range(min(block, 6)))


@pytest.mark.parametrize("block, discarded", [(1, 1), (2, 1), (3, 1), (5, 0), (8, 0)])
def test_an_error_inside_a_block_is_the_point_by_point_error(block, discarded):
    # a DomainError at the fourth point: the block's call raises it, as the point alone does, and the
    # run ends with no check; the discard at the second point is counted only where its block was
    # filed before the error's (blocks of 1, 2 or 3), so the count at exit 2 depends on the block
    per_point = _per_point(8, refused=(1,), errors=(3,))
    report, error = _sampled_in_blocks(per_point, 6, block)
    assert repr(error) == repr(_sampled_in_blocks(per_point, 6, 1)[1])
    assert isinstance(error, DomainError) and str(error) == "pivot 0 is not finite"
    assert report.discarded_points == discarded and report.checks == []


@pytest.mark.parametrize("block", [2, 3])
def test_the_discard_cap_is_the_point_by_point_cap_in_blocks(block):
    # every point refused: the cap's SamplingError and count, as one point per call gives them
    per_point = [_REFUSED] * 10_010
    report, error = _sampled_in_blocks(per_point, 3, block)
    assert _outcome(report, error) == _outcome(*_sampled_in_blocks(per_point, 3, 1))
    assert str(error) == ("more than 10000 sample points were discarded: 10001 had an unusable pivot, the last: "
                          "pivot 0 has condition number inf above 1e+08")
    assert report.discarded_points == 10_001 and report.checks == []


def _failing_after(count):
    """``admissible_points`` whose stream has a point out of attempts after ``count`` points: a request
    returns the points before it, fewer than asked, and the next request raises its SamplingError."""
    real = cli.admissible_points

    def points(*args):
        take, left = real(*args), count

        def failing(k):
            nonlocal left
            if not left:
                raise SamplingError("no admissible point after 10000 attempts")
            x, z = take(min(k, left))
            left -= len(x)
            return x, z

        return failing

    return points


@pytest.mark.parametrize("block", [2, 4, 6])
@pytest.mark.parametrize(
    "count, refused, errors", [(3, (), ()), (4, (1,), ()), (0, (), ()), (5, (1,), (3,))],
    ids=["plain", "discard", "first-draw", "error-first"],
)
def test_a_sampling_error_while_a_block_is_drawn_comes_after_its_points(monkeypatch, block, count, refused, errors):
    # the stream fails after `count` points, inside a block: the points drawn before it are evaluated
    # first, so a discard is counted and an earlier error wins, as one point per call has it; an error's
    # block ends the run before its own discards are counted (the error-first case at blocks of 4 and 6)
    monkeypatch.setattr(cli, "admissible_points", _failing_after(count))
    per_point = _per_point(8, refused=refused, errors=errors)
    calls = []
    report, error = _sampled_in_blocks(per_point, 6, block, calls)
    one_calls = []
    one_report, one_error = _sampled_in_blocks(per_point, 6, 1, one_calls)
    if not errors:
        assert _outcome(report, error) == _outcome(one_report, one_error)
    assert repr(error) == repr(one_error)
    assert type(error) is (DomainError if errors else SamplingError)
    assert report.discarded_points == (len(refused) if not errors or block == 2 else 0) and report.checks == []
    assert one_calls == list(range(min(count, 4 if errors else count)))
    assert set(one_calls) <= {k for c in calls for k in np.ravel(c)}


@pytest.mark.parametrize("block", [1, 2, 3])
def test_the_discard_cap_comes_before_a_stream_failure_on_the_next_draw(monkeypatch, block):
    # the stream fails right after the 10,001st point, and every point is refused: the run ends at
    # the discard that passes the cap, so the cap's error is raised, not the stream's
    monkeypatch.setattr(cli, "admissible_points", _failing_after(10_001))
    report, error = _sampled_in_blocks([_REFUSED] * 10_001, 3, block)
    assert str(error) == ("more than 10000 sample points were discarded: 10001 had an unusable pivot, the last: "
                          "pivot 0 has condition number inf above 1e+08")
    assert report.discarded_points == 10_001 and report.checks == []


def test_a_block_that_raises_a_linalg_error_ends_the_run():
    # numpy's LinAlgError, like the package's errors and any other, propagates from the block's call:
    # no point is evaluated again alone, and the run reports no check
    calls = []

    def residuals(x, active, draws):
        calls.append(x.shape)
        raise np.linalg.LinAlgError("SVD did not converge")

    config = build_bcn(BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0)))
    report = VerificationReport(run=RunSpec(command="verify-wdvv", config_source={}, samples=4))
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _sampled(report, config, residuals, 4)
    assert calls == [(4, 2)] and report.checks == [] and report.discarded_points == 0


def test_a_block_that_raises_any_other_error_ends_the_run():
    # a block path that always raises, here as a kernel that reshapes a block as one point would,
    # is a fault: it fails the run rather than going point by point, where it would pass unseen
    calls = []

    def residuals(x, active, draws):
        calls.append(x.shape)
        if len(x) > 1:
            x.reshape(x.shape[-1])
        return {"a": 0.0}, None

    config = build_bcn(BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0)))
    report = VerificationReport(run=RunSpec(command="verify-wdvv", config_source={}, samples=4))
    with pytest.raises(ValueError, match="cannot reshape"):
        _sampled(report, config, residuals, 4)
    assert calls == [(4, 2)] and report.checks == []


def test_a_residual_function_that_refuses_every_block_ends_the_run(monkeypatch, capsys):
    # a kernel that takes one point only, as multiply does, raises DimensionError on every block:
    # the first block's call ends the run with exit 2, and no point goes again alone
    real, shapes = algebra.associativity_residual, []

    def one_point_only(active, u, v, w, raise_index):
        shapes.append(np.shape(u))
        algebra.multiply(active, u, v)
        return real(active, u, v, w, raise_index)

    monkeypatch.setattr(algebra, "associativity_residual", one_point_only)
    argv = ["verify-associativity", "--family", "bcn", "--n", "3", "--r", "-20", "--s", "1", "--q", "2",
            "--m", "1,2,2", "--samples", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: DimensionError: u, v must have shape (3,)\n"
    assert shapes == [(2, 3)]


@pytest.mark.parametrize("block", [1, 3, 7])
def test_each_point_s_draw_follows_it_in_the_stream_whatever_the_block(block):
    # the points stream holds only candidates and the draws stream only the points' draws: the k-th
    # point is the k-th of the one-candidate reference sampler, and its draw is the k-th
    # standard_normal((2, 3)) of "verify-associativity/draws", whatever the block, and the residual
    # function receives no generator
    config = build_bcn(BCnParameters(n=3, r=-20.0, s=1.0, q=2.0, m=(1.0, 2.0, 2.0)))
    spec = RunSpec(command="verify-associativity", config_source={}, samples=7)
    got = []

    def residuals(x, active, draws):
        assert draws.shape == (*x.shape[:-1], 2, 3)
        got.extend(zip(np.reshape(x, (-1, 3)), np.reshape(draws, (-1, 2, 3))))
        return {}, None

    _sampled(VerificationReport(run=spec), config, residuals, block, (2, 3))
    points = sequential_admissible_points(rng_for(spec.seed, "verify-associativity/points"), fully_active(config),
                                          spec.box, spec.threshold)
    draws = rng_for(spec.seed, "verify-associativity/draws")
    for x, draw in got:
        want_x, _ = next(points)
        assert x.tobytes() == want_x.tobytes()
        assert draw.tobytes() == draws.standard_normal((2, 3)).tobytes()
    assert len(got) == spec.samples


def test_every_residual_function_receives_c_ordered_operands():
    # a kernel's last bits follow its operands' layout (numpy sums a non-contiguous last axis in another
    # order), so _sampled hands every residual function fresh C-ordered x and z.  At s = 0 every 2e_i is
    # inactive, so z is the sampler's product at config.active_rows, which numpy's selection of a
    # block's columns lays out column by column
    family = _family(3, -4, 0, 1, (1, 2, 1))
    for command, source in [("verify-wdvv", family), ("verify-wdvv", config_document(load_config_source(family))),
                            ("verify-associativity", family), ("verify-metric", family),
                            ("verify-restriction", _family(3, -2, 0, 1, (1, 1, 1))), ("verify-susy", family)]:
        spec = RunSpec(command=command, config_source=source, samples=3)
        _, config, residuals, block, draw = cli.VERIFIERS[command](spec, load_config_source(source))
        assert config.active_rows is not None, command
        layouts = []

        def recording(x, active, draws):
            layouts.append((len(x), x.flags.c_contiguous, active[2].flags.c_contiguous))
            return residuals(x, active, draws)

        _sampled(VerificationReport(run=spec), config, recording, block, draw)
        assert layouts == [(3, True, True)], command


def test_every_residual_function_takes_a_point_its_pairings_and_its_draws():
    # no residual function takes a generator: _sampled makes each point's draw, of the shape the
    # driver declares, and a driver that draws nothing declares none; every call takes a block, x of
    # shape (b, n), and z and the draws with the same leading length, and returns its values with
    # the points' refusals: one entry a point, or None on a route that refuses no point
    declared, refusing = {}, {}
    family = _family(3, -20, 1, 2, (1, 2, 2))
    document = config_document(load_config_source(family))
    for command, source in [("verify-wdvv", family), ("verify-wdvv", document),
                            ("verify-associativity", family), ("verify-associativity", document),
                            ("verify-metric", family),
                            ("verify-restriction", _family(2, -20, 1, 2, (2, 3))),
                            ("verify-susy", family)]:
        spec = RunSpec(command=command, config_source=source, samples=3)
        _, config, residuals, block, draw = cli.VERIFIERS[command](spec, load_config_source(source))
        assert list(inspect.signature(residuals).parameters)[1:] == ["active", "draws"], command
        declared[command, "family" in source] = (block, draw)
        calls = []

        def recording(x, active, draws):
            calls.append(x.shape)
            assert x.ndim == 2 and active[2].shape == (len(x), len(active[1]))
            assert (draws is None) if draw is None else (draws.shape == (len(x), *draw))
            values, refusals = residuals(x, active, draws)
            refusing[command, "family" in source] = refusals
            assert all(np.shape(v)[:1] == (len(x),) for v in values.values()), command
            return values, refusals

        _sampled(VerificationReport(run=spec), config, recording, block, draw)
        assert calls == [(3, config.dimension)], command
    assert refusing == {
        ("verify-wdvv", True): [None] * 3, ("verify-wdvv", False): [None] * 3,
        ("verify-associativity", True): None, ("verify-associativity", False): [None] * 3,
        ("verify-metric", True): None, ("verify-restriction", True): None, ("verify-susy", True): None,
    }
    # the explicit routes: the commutator product's n^4 floats a point for verify-wdvv, and B's
    # weighted (n x M) members, M = 12, for verify-associativity
    assert declared == {
        ("verify-wdvv", True): (1213, None), ("verify-wdvv", False): (404, None),
        ("verify-associativity", True): (3640, (3, 3)), ("verify-associativity", False): (910, (3, 3)),
        ("verify-metric", True): (1213, None), ("verify-restriction", True): (315, (2, 2)),
        ("verify-susy", True): (1213, None),
    }


# the last case, unit m at n = 10 and 33 samples, ends in a lone point: a block of 32, then a block of one
_WHOLE_REPORTS = [
    *[(_family(4, -14, 0.5, 1, (2, 1, 3, 1)), seed, 50) for seed in range(5)],
    (_family(10, -16, 0, 1, (1,) * 10), 0, 50),
    (_family(20, -36, 0, 1, (1,) * 20), 0, 20),
    (_family(3, -1, 1, 0, (1, 1, 1)), 0, 50),
    (_family(4, -13, 0.5, 1, (2, 1, 3, 1)), 0, 50),
    (_family(10, -15, 0, 1, (1,) * 10), 1, 50),
    (M_SPREAD, 0, 50),
    (_family(10, -16, 0, 1, (1,) * 10), 0, 33),
]


@pytest.mark.parametrize("source, seed, samples", _WHOLE_REPORTS,
                         ids=[*[f"m2131-seed{s}" for s in range(5)], "unit-n10", "unit-n20", "q0", "m2131-r+1",
                              "unit-n10-r+1", "m-spread", "unit-n10-lone-last"])
def test_a_family_wdvv_report_is_the_same_in_blocks(monkeypatch, source, seed, samples):
    # the whole report, byte for byte, at the block rule and at one point per call
    spec = RunSpec(command="verify-wdvv", config_source=source, samples=samples, seed=seed)
    n, shapes = source["n"], []

    def recording(V, B):
        shapes.append(B.shape)
        return wdvv.arrow_residuals(V, B)

    monkeypatch.setattr(cli, "arrow_residuals", recording)
    blocked = dumps_17g(run(spec).to_json_dict())
    assert len(shapes) < spec.samples and shapes == _block_calls(samples, max(1, 2**15 // n**3), n)
    shapes.clear()
    monkeypatch.setattr(cli, "_WDVV_BLOCK", 0)  # max(1, 0 // n^3) = 1
    assert dumps_17g(run(spec).to_json_dict()) == blocked
    assert shapes == [(1, n)] * spec.samples


def _block_calls(samples: int, block: int, n: int) -> list[tuple]:
    """The x shape of each residual call a run of ``samples`` points makes at ``block`` points a call,
    none discarded: a lone last point goes as a block of one."""
    return [(min(block, samples - k), n) for k in range(0, samples, block)]


# the golden verify-susy families at r and at r + 1: n = 1 (r = 1 off the theorem), 2, 3 and 5, the
# unequal m = 1,2,2 and 2,1,3,1, and m = 0.1,1 near the origin; the n = 7 console row, one call; and
# unit m at n = 12, two calls (18 and 2)
_SUSY_REPORTS = {
    f"{name}{'-r+1' if shift else ''}": (_family(n, r + shift, s, q, m), options)
    for name, (n, r, s, q, m, options) in {
        "n1": (1, 1, 0.5, 0, (2,), {}),
        "n2": (2, 0, 0, 1, (1, 1), {}),
        "n3": (3, -2, 0, 1, (1, 1, 1), {}),
        "n5": (5, -6, 0, 1, (1,) * 5, {}),
        "m122": (3, -20, 1, 2, (1, 2, 2), {}),
        "m2131": (4, -14, 0.5, 1, (2, 1, 3, 1), {}),
        "m0.1-near-origin": (2, 1.8, 0, 1, (0.1, 1), {"box": (0.01, 0.5), "samples": 20}),
        "n7": (7, -10, 0, 1, (1,) * 7, {"box": (0.3, 4.0), "samples": 30}),
        "n12": (12, -20, 0, 1, (1,) * 12, {"box": (0.3, 4.0), "samples": 20}),
    }.items()
    for shift in (0, 1)
}


@pytest.mark.parametrize("source, options", _SUSY_REPORTS.values(), ids=_SUSY_REPORTS)
def test_a_susy_report_is_the_same_in_blocks(monkeypatch, source, options):
    # the whole report, byte for byte, at the block rule, max(1, 2^15 // n^3) points a call, and at one
    # point per call; no block call raised and went again point by point
    spec = RunSpec(command="verify-susy", config_source=source, **options)
    n, shapes = source["n"], []
    real = cli.closed_form_arrows

    def recording(p, x):
        shapes.append(np.shape(x))
        return real(p, x)

    monkeypatch.setattr(cli, "closed_form_arrows", recording)
    blocked = dumps_17g(run(spec).to_json_dict())
    assert shapes == _block_calls(spec.samples, max(1, 2**15 // n**3), n)
    shapes.clear()
    monkeypatch.setattr(cli, "_WDVV_BLOCK", 0)  # max(1, 0 // n^3) = 1
    assert dumps_17g(run(spec).to_json_dict()) == blocked
    assert shapes == [(1, n)] * spec.samples


# the golden verify-metric families at r and at r + 1, n = 1, the zero family, and unit m at n = 10
# and 20, whose runs make three calls each (32, 32, 6 and 4, 4, 2 points)
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux only")
def test_a_family_metric_run_at_n_100_stays_under_300_mb():
    # B comes from the weighted (n x M) members, about 2 n^3 floats, not from the tensor's
    # (M x n^2) array, whose 808 MB took this run to 832 MB: the child reads its own peak
    child = ("import resource, sys; from trigwdvv.cli import main; code = main(sys.argv[1:]); "
             "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    argv = ["verify-metric", "--family", "bcn", "--n", "100", "--r", "-196", "--s", "0", "--q", "1",
            "--m", ",".join(["1"] * 100), "--samples", "3", "--box", "0.3,7"]
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, peak_kb = map(int, proc.stdout.split()[-2:])
    assert code == 0 and peak_kb < 300 * 1024, peak_kb


_METRIC_REPORTS = {
    "m122": (_family(3, -20, 1, 2, (1, 2, 2)), {}),
    "m122-r+1": (_family(3, -19, 1, 2, (1, 2, 2)), {}),
    "m2131": (_family(4, -14, 0.5, 1, (2, 1, 3, 1)), {}),
    "m2131-r+1": (_family(4, -13, 0.5, 1, (2, 1, 3, 1)), {}),
    "n1": (_family(1, -4, 0.5, 0, (2,)), {"samples": 7}),
    "zero": (_family(3, 0, 0, 0, (1, 2, 2)), {"samples": 5}),
    "unit-n10": (_family(10, -16, 0, 1, (1,) * 10), {"samples": 70}),
    "unit-n10-r+1": (_family(10, -15, 0, 1, (1,) * 10), {"samples": 70}),
    "unit-n20": (_family(20, -36, 0, 1, (1,) * 20), {"samples": 10}),
}


@pytest.mark.parametrize("source, options", _METRIC_REPORTS.values(), ids=_METRIC_REPORTS)
def test_a_metric_report_is_the_same_in_blocks(monkeypatch, source, options):
    # the whole report, byte for byte, at the block rule, max(1, 2^15 // n^3) points a call, and at one
    # point per call
    spec = RunSpec(command="verify-metric", config_source=source, **options)
    n, shapes = source["n"], []
    real = cli.metric_identity_residuals

    def recording(p, active, x):
        shapes.append(np.shape(x))
        return real(p, active, x)

    monkeypatch.setattr(cli, "metric_identity_residuals", recording)
    blocked = dumps_17g(run(spec).to_json_dict())
    assert shapes == _block_calls(spec.samples, max(1, 2**15 // n**3), n)
    shapes.clear()
    monkeypatch.setattr(cli, "_WDVV_BLOCK", 0)
    assert dumps_17g(run(spec).to_json_dict()) == blocked
    assert shapes == [(1, n)] * spec.samples


# the golden verify-associativity families at r and at r + 1, and unit m at n = 12, whose runs at
# --samples 300 make two calls (227 and 73 points); and the explicit documents, among them the q = 0
# document in a wide box, where some points are discarded
_ASSOCIATIVITY_REPORTS = {
    "m122": (_family(3, -20, 1, 2, (1, 2, 2)), {}),
    "m122-r+1": (_family(3, -19, 1, 2, (1, 2, 2)), {}),
    "m2131": (_family(4, -14, 0.5, 1, (2, 1, 3, 1)), {}),
    "m2131-r+1": (_family(4, -13, 0.5, 1, (2, 1, 3, 1)), {}),
    "unit-n12": (_family(12, -20, 0, 1, (1,) * 12), {"samples": 300}),
    "unit-n12-r+1": (_family(12, -19, 0, 1, (1,) * 12), {"samples": 300}),
    **{f"m122-document-r{r}": (config_document(load_config_source(_family(3, r, 1, 2, (1, 2, 2)))), {})
       for r in (-20, -19)},
    "q0-document-wide-box": (config_document(load_config_source(_family(3, -1, 1, 0, (1, 1, 1)))),
                             {"samples": 50, "box": (0.3, 12.0)}),
}


@pytest.mark.parametrize("source, options", _ASSOCIATIVITY_REPORTS.values(), ids=_ASSOCIATIVITY_REPORTS)
def test_an_associativity_report_is_the_same_in_blocks(monkeypatch, source, options):
    # the whole report, byte for byte, at the block rule, max(1, 2^15 // n^2) points a call for a family
    # and max(1, 2^15 // (n M)) for an explicit document, and at one point per call; a refused point
    # reaches the products, at the identity in place of its B, and its residual is dropped
    spec = RunSpec(command="verify-associativity", config_source=source, **options)
    family = "family" in source
    n = source["n"] if family else source["explicit"]["dimension"]
    shapes = []
    real = algebra.associativity_residual

    def recording(active, u, v, w, raise_index):
        shapes.append(np.shape(u))
        return real(active, u, v, w, raise_index)

    monkeypatch.setattr(algebra, "associativity_residual", recording)
    report = run(spec)
    blocked = dumps_17g(report.to_json_dict())
    taken = spec.samples + report.discarded_points
    if family:
        assert shapes == _block_calls(spec.samples, max(1, 2**15 // n**2), n)
    else:  # a block of every point still needed, then the refused points' replacements
        assert shapes[0] == (spec.samples, n) and sum(b for b, _ in shapes) == taken
    assert (report.discarded_points > 0) == ("box" in options)
    shapes.clear()
    monkeypatch.setattr(cli, "_WDVV_BLOCK", 0)  # max(1, 0 // n^2) = 1
    assert dumps_17g(run(spec).to_json_dict()) == blocked
    assert shapes == [(1, n)] * taken


# explicit runs that discard inside a block: verify-wdvv on the build-config document of the theorem
# family m = 1,1,2e8, which discards 6 points while taking 5, and verify-associativity on the q = 0
# document in --box 0.3,12, which discards 6 while taking 50
_EXPLICIT_DISCARDS = {
    "wdvv-m-spread-document": ("verify-wdvv", M_SPREAD_DOCUMENT, {"samples": 5}),
    "associativity-q0-document-wide-box": (
        "verify-associativity", config_document(load_config_source(_family(3, -1, 1, 0, (1, 1, 1)))),
        {"samples": 50, "box": (0.3, 12.0)}),
}


@pytest.mark.parametrize("command, source, options", _EXPLICIT_DISCARDS.values(), ids=_EXPLICIT_DISCARDS)
def test_an_explicit_report_with_discards_is_the_same_in_blocks(monkeypatch, command, source, options):
    # the whole report, byte for byte, at the block rule and forced to one point a call: the same
    # discards, replacement points and draws; and, with the cap at 3 discards, the same cap text, which
    # names the fourth refused point's condition number
    spec = RunSpec(command=command, config_source=source, **options)
    shapes, real = [], cli.metric_B

    def recording(active, x):  # each explicit call forms B(x) once for its block
        shapes.append(np.shape(x))
        return real(active, x)

    monkeypatch.setattr(cli, "metric_B", recording)
    cap, outcomes = cli.MAX_ATTEMPTS_PER_POINT, []
    for block_floats in (cli._WDVV_BLOCK, 0):  # the block rule, then max(1, 0 // ...) = 1
        monkeypatch.setattr(cli, "_WDVV_BLOCK", block_floats)
        monkeypatch.setattr(cli, "MAX_ATTEMPTS_PER_POINT", cap)
        shapes.clear()
        report = run(spec)
        assert report.discarded_points == 6
        calls = list(shapes)
        monkeypatch.setattr(cli, "MAX_ATTEMPTS_PER_POINT", 3)
        with pytest.raises(SamplingError, match="^more than 3 sample points were discarded: 4 had an unusable "
                                                "pivot, the last: pivot [01] has condition number ") as capped:
            run(spec)
        outcomes.append((dumps_17g(report.to_json_dict()), str(capped.value)))
        if block_floats:
            assert calls[0] == (spec.samples, 3) and sum(b for b, _ in calls) == spec.samples + 6
            assert len(calls) < spec.samples + 6
        else:
            assert calls == [(1, 3)] * (spec.samples + 6)
    assert outcomes[0] == outcomes[1]


def test_text_report_labels_discarded_points(capsys, tmp_path):
    # the explicit run at m = 1,1,2e8 discards the points where kappa(B) and kappa(eta.F) are both above the cap
    path = tmp_path / "m_spread.json"
    path.write_text(json.dumps(M_SPREAD_DOCUMENT), encoding="utf-8")
    assert main(["verify-wdvv", "--config", str(path), "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "\n  discarded points: 6\n" in out


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


@pytest.mark.parametrize("n", [7, 8])
def test_susy_runs_past_n_7(capsys, n):
    # every verify-susy check reads the prepotential at a point, in memory polynomial in n: no check
    # builds the 4^n-dimensional fermionic space, whose algebra tests/test_susy.py checks, so n is not capped
    family = ["--family", "bcn", "--n", str(n), "--r", str(4 - 2 * n), "--s", "0", "--q", "1"]
    argv = ["verify-susy", *family, "--m", ",".join(["1"] * n), "--box", "0.3,4", "--samples", "2"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("PASS") == 4 and captured.out.endswith("OK\n")


def test_susy_past_n_7_fails_off_the_theorem(capsys):
    # the r + 1 control at n = 8: the checks that run past the old cap can fail
    n = 8
    family = ["--family", "bcn", "--n", str(n), "--r", str(5 - 2 * n), "--s", "0", "--q", "1"]
    argv = ["verify-susy", *family, "--m", ",".join(["1"] * n), "--box", "0.3,4", "--samples", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    failed = [line.split()[0] for line in captured.out.splitlines() if line.endswith("FAIL")]
    assert failed == ["hat_commuting_residual", "hat_metric_identity"]
    assert captured.out.endswith("FAILED\n")


@pytest.mark.parametrize(
    "option, value, argv, code",
    [
        ("--m", "-1,2,-3", ["build-config", "--family", "bcn", "--n", "3", "--r", "0", "--s", "0", "--q", "0"], 0),
        ("--point", "-0.9,0.4", ["tensor", "--family", "bcn", "--n", "2", "--r", "1", "--s", "1", "--q", "1",
                                 "--m", "1,1"], 0),
        ("--box", "-1.5,-0.3", ["verify-metric", "--family", "bcn", "--n", "2", "--r", "0", "--s", "0",
                                "--q", "1", "--m", "1,1", "--samples", "3", "--json"], 0),
        ("--box", "-0.3,-1.5", ["verify-metric", *FAMILY_OK, "--samples", "3"], 2),
    ],
    ids=["m", "point", "box", "box-refused"],
)
def test_negative_lists_parse_spaced_and_attached(capsys, option, value, argv, code):
    # a comma list that starts with "-" is one value in either form
    spaced_code = main([*argv, option, value])
    spaced = capsys.readouterr()
    attached_code = main([*argv, f"{option}={value}"])
    attached = capsys.readouterr()
    assert (spaced_code, spaced.out, spaced.err) == (attached_code, attached.out, attached.err)
    assert spaced_code == code
    assert "expected one argument" not in spaced.err


@pytest.mark.parametrize(
    "argv",
    [["verify-associativity", *FAMILY_OK[:5], "1e300", *FAMILY_OK[6:], "--samples", "2", "--json"]],
    ids=["nan-associativity-report"],
)
def test_json_output_with_non_finite_values_parses(capsys, argv):
    # JSON has no NaN or infinity: a non-finite value is written as null
    main(argv)
    out = capsys.readouterr().out
    json.loads(out)
    assert "null" in out and "nan" not in out and "inf" not in out


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--n", "1", "--m", "1", "--point", "400"], "DomainError: B is not finite at the point [400.0]"),
        (["--n", "2", "--m", "1,1", "--point", "nan,1"], "DomainError: point [nan, 1.0] is not finite"),
    ],
    ids=["overflowing-tensor", "nan-point"],
)
def test_tensor_fails_closed_on_non_finite_values(capsys, argv, error):
    # sinh(2x) overflows at x = 400; a NaN point fails the hyperplane margin rule
    assert main(["tensor", "--family", "bcn", "--r", "1", "--s", "1", "--q", "0", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "option, error",
    [
        (["--box", "0.3,inf"], "box (0.3, inf) must be finite with lo < hi"),
        (["--theta", "inf"], "threshold must be finite and > 0, got inf"),
        (["--tol", "inf"], "tolerance must be finite and > 0, got inf"),
    ],
    ids=["box", "theta", "tol"],
)
def test_non_finite_run_values_are_precondition_errors(capsys, option, error):
    # an infinite box end or theta overflowed in numpy, and --tol inf passes every finite residual
    argv = ["verify-associativity", "--family", "bcn", "--n", "1", "--r", "1", "--s", "1", "--q", "0", "--m", "1"]
    assert main([*argv, *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: PreconditionError: {error}\n"


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
