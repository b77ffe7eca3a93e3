import copy
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from trigwdvv import cli, sampling, susy, wdvv
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
from trigwdvv.configurations import BCnParameters, Configuration, build_bcn
from trigwdvv.errors import (
    ConfigFormatError,
    DomainError,
    PreconditionError,
    SamplingError,
    SingularMatrixError,
)
from trigwdvv.prepotential import h_function, metric_B, tensor_generic
from trigwdvv.sampling import fully_active, rng_for
from trigwdvv.wdvv import CONDITION_CAP

from tests.oracles import sample_points

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
        assert proc.stderr == ""  # no overflow warning ahead of the verdict
        lines = proc.stdout.splitlines()
        assert len(lines) == 4 and lines[-1] == "FAILED"
        assert all(line.endswith("FAIL") for line in lines[1:-1])

    def test_overflowing_metric_is_a_domain_error_without_traceback(self):
        # sinh(2 x) overflows for x > 355: the metric pivot is refused by name
        proc = run_cli("verify-wdvv", *FAMILY_OK, "--box", "0.3,400")
        assert proc.returncode == 2
        assert proc.stderr == "error: DomainError: pivot 0 is not finite\n"  # no warning, no traceback

    def test_linalg_error_is_exit_2_without_traceback(self, monkeypatch, capsys):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        assert main(["verify-wdvv", *FAMILY_OK, "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: LinAlgError: SVD did not converge\n"
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
        spec = RunSpec(command="verify-wdvv", config_source={}, **{field: value})
        with pytest.raises(PreconditionError, match=re.escape(message)):
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
    "wdvv": ("verify-wdvv", _family(3, -2, 0, 1, (1, 1, 1)),
             ["wdvv_pair_residual", "generalized_wdvv_residual"]),
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
             ["fermionic_anticommutation", "hat_tensor_two_path", "hat_commuting_residual",
              "hat_metric_identity", "gauge_residual"]),
    "susy_n1_has_no_pairs": ("verify-susy", _family(1, 1, 0.5, 0, (2,)),
                             ["fermionic_anticommutation", "hat_tensor_two_path",
                              "hat_metric_identity", "gauge_residual"]),
}


# Each verify command on a theorem family at unequal m, with the checks that
# carry the family's content: at r + 1 exactly these fail.  Every other check
# is an implementation check, which holds for every (r, s, q) and must pass
# there too; a family check that stops failing at r + 1 has lost its power.
POWER = {
    "wdvv": ("verify-wdvv", (3, -20, 1, 2, (1, 2, 2)), {"wdvv_pair_residual", "generalized_wdvv_residual"}),
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
    "fermionic_anticommutation",
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


@pytest.mark.parametrize("r, passes", [(-20, True), (-19, False)])
def test_explicit_source_associates_with_its_metric_b(r, passes):
    # the build-config document of the README family multiplies through B(x)
    doc = config_document(load_config_source(_family(3, r, 1, 2, (1, 2, 2))))
    assert run(RunSpec(command="verify-associativity", config_source=doc, samples=10, seed=7)).all_passed is passes


def test_explicit_source_with_a_singular_metric_discards_every_point():
    # one covector in two dimensions: B(x) has rank 1 at every point, so each
    # point is discarded with verify-wdvv's reason until the discard cap
    doc = {"explicit": {"dimension": 2, "members": [{"vector": [1.0, 0.0], "multiplicity": 1.0}]}}
    spec = RunSpec(command="verify-associativity", config_source=doc, samples=1)
    with pytest.raises(SamplingError, match=": 10001 had a pivot condition number above 1e\\+08$"):
        run(spec)


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
        ("verify-wdvv", _family(3, -20, 1, 2, (1, 2, 2))),
        ("verify-associativity", config_document(load_config_source(_family(3, -20, 1, 2, (1, 2, 2))))),
    ],
    ids=["wdvv", "associativity-explicit"],
)
def test_one_usable_pivot_rule_judges_every_pivot(monkeypatch, command, source):
    # with the cap at 1 no pivot and no metric B(x) is usable: both drivers
    # read wdvv's one rule, so both discard every point with the same reason
    monkeypatch.setattr(wdvv, "CONDITION_CAP", 1.0)
    monkeypatch.setattr(cli, "MAX_ATTEMPTS_PER_POINT", 5)
    with pytest.raises(SamplingError, match=re.escape(f": 6 had {cli._UNUSABLE_PIVOT}")):
        run(RunSpec(command=command, config_source=source, samples=1))


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
    point to ``points``; an exception in ``per_point`` is raised at its point instead."""

    def residuals(rng, x):
        points.append(x.tolist())
        value = per_point[len(points) - 1]
        if isinstance(value, Exception):
            raise value
        return value

    _sampled(report, build_bcn(BCnParameters(n=2, r=1.0, s=1.0, q=1.0, m=(1.0, 1.0))), residuals)


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


def test_a_singular_matrix_error_discards_the_point_and_nothing_else_does():
    # the one discard rule: a residual function that raises SingularMatrixError
    # (the usable-pivot rule's refusal) has its point counted and replaced, and
    # no residual of that point reaches a check
    accepted = [{"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 1.0}, {"a": 2.0, "b": 4.0}]
    refused = SingularMatrixError("pivot 0 has condition number inf above 1e+08")
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


@pytest.mark.parametrize(
    "command, name",
    [("verify-restriction", "restriction_config_match"), ("verify-susy", "fermionic_anticommutation")],
)
def test_one_value_checks_have_no_worst_point(command, name):
    report = run(RunSpec(command=command, config_source=_family(2, -20, 1, 2, (2, 3)), samples=2))
    check = report.checks[0]
    assert check.name == name
    assert check.worst_point is None
    assert check.mean_residual == check.max_residual


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
    "command, builds",
    [
        # the projection and BC_5 as outside (context, from one set of BC_5's arrays), build_bcn's rebuild, fully_active
        ("verify-restriction", [(2, 6), (5, 2 * 5 + 5 * 4), (2, 6), (2, 6)]),
        # the rescaled BC_2, fully_active
        ("verify-susy", [(2, 6), (2, 6)]),
    ],
    ids=["verify-restriction", "verify-susy"],
)
def test_builds_configurations_once_per_run(monkeypatch, command, builds):
    # the configurations a run needs (BC_N and its projection, or the rescaled
    # family) are built once per run, not once per sample point
    built = []
    original = Configuration.__init__

    def counting(self, dimension, vectors, multiplicities):
        original(self, dimension, vectors, multiplicities)
        built.append((self.dimension, len(self.members)))

    monkeypatch.setattr(Configuration, "__init__", counting)
    source = _family(2, -20, 1, 2, (2, 3))
    per_run = []
    for samples in (1, 3):
        built.clear()
        run(RunSpec(command=command, config_source=source, samples=samples))
        per_run.append(list(built))
    assert per_run[0] == per_run[1] == builds


def test_restriction_evaluates_one_projected_tensor_per_point(monkeypatch):
    # the driver's two-path check and h_b_decomposition read the one projected
    # tensor the driver evaluates at each point
    calls = []
    original = tensor_generic

    def counting(config, x, threshold):
        calls.append((config.dimension, len(config)))
        return original(config, x, threshold)

    monkeypatch.setattr(cli, "tensor_generic", counting)
    for samples in (1, 3):
        calls.clear()
        run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=samples))
        assert calls == [(2, 6)] * samples  # the projected BC_2 has 2 + 2 + 2 members


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
        (_swap_first_two, 1.0),  # e_1 and e_2 trade places
        (lambda vectors, mults: (vectors[1:], mults[1:]), math.inf),  # one member fewer
    ],
    ids=["multiplicity-scaled", "members-swapped", "member-missing"],
)
def test_restriction_config_match_fails_on_a_perturbed_family(monkeypatch, perturb, expected):
    original = cli.build_bcn

    def perturbed(params):
        config = original(params)
        return Configuration(config.dimension, *perturb(config.vectors, config.multiplicities))

    monkeypatch.setattr(cli, "build_bcn", perturbed)
    report = run(RunSpec(command="verify-restriction", config_source=_family(2, -20, 1, 2, (2, 3)), samples=1))
    check = report.checks[0]
    assert check.name == "restriction_config_match"
    assert math.isclose(check.max_residual, expected, rel_tol=1e-9)
    assert not check.passed and not report.all_passed


def test_restriction_names_a_fractional_block(capsys):
    argv = ["verify-restriction", "--family", "bcn", "--n", "2", "--r", "0", "--s", "0", "--q", "1", "--m", "2.5,2.5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: PreconditionError: verify-restriction reads m as block sizes: "
        "every block must be a positive integer, got (2.5, 2.5)\n"
    )


def test_ill_conditioned_pivots_discard_the_point():
    # with q = 3e-8 the pair covectors barely couple the coordinates, so some
    # points have a pivot F_k conditioned worse than CONDITION_CAP; those are
    # discarded and resampled, never reported or turned into an error.  The
    # discards match np.linalg.cond on the same point stream.
    spec = RunSpec(command="verify-wdvv", config_source=_family(3, -1.0, 1.0, 3e-8, (1, 1, 1)), samples=20)
    report = run(spec)

    config = build_bcn(load_config_source(spec.config_source))
    rng = rng_for(spec.seed, "verify-wdvv/points")
    accepted = discarded = 0
    while accepted < spec.samples:
        x = sample_points(rng, fully_active(config), 1, spec.box, spec.threshold)[0]
        T = tensor_generic(config, x, spec.threshold)
        conds = [np.linalg.cond(metric_B(T, x))] + [np.linalg.cond(F) for F in T]
        if max(conds) > CONDITION_CAP:
            discarded += 1
        else:
            accepted += 1
    assert report.discarded_points == discarded > 0
    assert report.all_passed


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


def test_singular_pivots_discard_rather_than_error(capsys):
    # with q = 0 every F_k is exactly singular: each point is discarded until
    # the discard cap ends the run, as for any other unusable point
    argv = ["verify-wdvv", "--family", "bcn", "--n", "3", "--r", "-1", "--s", "1", "--q", "0", "--m", "1,1,1"]
    assert main(argv + ["--samples", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: SamplingError: more than 10000 sample points were discarded" in err
    assert err.rstrip().endswith(": 10001 had a pivot condition number above 1e+08")


def test_text_report_labels_discarded_points(capsys):
    # discards come from ill-conditioned and from singular pivots alike
    argv = ["verify-wdvv", "--family", "bcn", "--n", "3", "--r", "-1", "--s", "1", "--q", "3e-8", "--m", "1,1,1"]
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


@pytest.mark.parametrize("n, code", [(7, 0), (8, 2)])
def test_susy_runs_up_to_the_fermionic_cap(capsys, n, code):
    family = ["--family", "bcn", "--n", str(n), "--r", str(4 - 2 * n), "--s", "0", "--q", "1"]
    argv = ["verify-susy", *family, "--m", ",".join(["1"] * n), "--box", "0.3,4", "--samples", "2"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.endswith("OK\n")
    else:
        assert captured.err.startswith("error: DimensionCapError: n = 8 exceeds the fermionic cap 7")


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
    [["verify-metric", *FAMILY_OK, "--box", "300,400", "--json"]],
    ids=["nan-metric-report"],
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
