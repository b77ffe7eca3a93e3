"""Tests of the benchmark's own machinery: tracing, self time and verdicts.

Run with: python -m pytest benchmark
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Target, Tracer, layer_metrics, self_times  # noqa: E402
from trigwdvv import cli  # noqa: E402

SMALL = workloads.Workload(
    name="small", command="verify-wdvv", m=(1, 1, 1), r=-2.0, samples=3, why="test",
    runs_per_second=1.0,
)


def _layer(name):
    return Target(name, name, False)


def test_self_time_is_span_minus_covered_children():
    outer, inner, leaf = _layer("cli"), _layer("wdvv"), _layer("linalg")
    spans = [
        (outer, 0.0, 10.0, -1),
        (inner, 1.0, 3.0, 0),
        (inner, 2.0, 5.0, 0),  # overlaps its sibling: [1, 5] is covered once
        (leaf, 8.0, 12.0, 0),  # runs past its parent: only [8, 10] counts
        (leaf, 1.5, 2.5, 1),
    ]
    times = self_times(spans, lambda t: t.layer)
    assert times["cli"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert times["wdvv"] == pytest.approx((2.0 - 1.0) + 3.0)
    assert times["linalg"] == pytest.approx(4.0 + 1.0)
    assert set(LAYERS) <= set(times)


def test_self_times_of_nested_layers_add_up_to_the_root_span():
    root, a, b = _layer("cli"), _layer("sampling"), _layer("prepotential")
    spans = [(root, 0.0, 7.0, -1), (a, 1.0, 4.0, 0), (b, 2.0, 3.0, 1), (b, 5.0, 6.0, 0)]
    assert sum(self_times(spans, lambda t: t.layer).values()) == pytest.approx(7.0)


def _namespace_state():
    state = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "trigwdvv" or name.startswith("trigwdvv.")):
            continue
        for attr, obj in vars(mod).items():
            state[(name, attr)] = obj
            if isinstance(obj, type) and "__init__" in vars(obj):
                state[(name, attr, "__init__")] = vars(obj)["__init__"]
    for attr, obj in vars(np.linalg).items():
        state[("numpy.linalg", attr)] = obj
    return state


def test_tracer_restores_every_patched_attribute():
    before = _namespace_state()
    with Tracer() as tracer:
        assert tracer.patched
        assert cli.tensor_generic is not before[("trigwdvv.cli", "tensor_generic")]
        assert np.linalg.svd is not before[("numpy.linalg", "svd")]
        cli.run(SMALL.spec(cli, 0))
    after = _namespace_state()
    assert not tracer.patched
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_tracer_attributes_layers_and_counts():
    with Tracer() as tracer:
        np.linalg.svd(np.eye(2))  # not trigwdvv code: not traced
        assert tracer.take()[0] == []
        report = cli.run(SMALL.spec(cli, 0))
        spans, accepted, members = tracer.take()
    m = layer_metrics(spans, accepted, members)
    roots = [t.name for t, _, _, parent in spans if parent == -1]
    assert set(roots) == {"trigwdvv.cli.RunSpec", "trigwdvv.cli.run"}
    assert m["wdvv.calls"] == 3 * (3 + 9)  # per point: 3 pairs, 3 pivots x 3 pairs
    assert m["linalg.calls"] > m["wdvv.calls"]
    assert m["sampling.attempts"] >= 3 and 0.0 < m["sampling.accept_ratio"] <= 1.0
    assert m["configurations.builds"] == 2 and m["configurations.members_built"] == 2 * 12
    assert m["prepotential.tensor_calls"] == 3 + report.discarded_points
    assert m["susy.fermion_ops"] == 0 and m["algebra.self_s"] == 0.0
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) > 0.0


def test_traced_counts_repeat_and_reports_are_unchanged():
    plain = cli.dumps_17g(cli.run(SMALL.spec(cli, 7)).to_json_dict())
    counts = []
    with Tracer() as tracer:
        for _ in range(2):
            traced = cli.dumps_17g(cli.run(SMALL.spec(cli, 7)).to_json_dict())
            assert traced == plain
            m = layer_metrics(*tracer.take())
            counts.append({k: v for k, v in m.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]


def _report(max_residual, mean_residual, passed, tol=1e-8):
    return {
        "run": {"tolerance": tol},
        "checks": [{"name": "c", "max_residual": max_residual,
                    "mean_residual": mean_residual, "pass": passed}],
    }


@pytest.mark.parametrize(
    "mx, mean, ok",
    [(1e-12, 1e-13, True), (math.nan, 0.0, False), (0.0, math.nan, False),
     (math.inf, 1.0, False), (1e-8, 1e-9, False), (2e-8, 1e-9, False)],
)
def test_verdicts_fail_closed(mx, mean, ok):
    assert run.verdicts(_report(mx, mean, True)) == {"c": ok}


def test_tally_counts_failures_and_ignores_the_pass_flag():
    tally = run.Tally(frozenset({"known"}))
    tally.add(1, _report(math.nan, math.nan, True), "a", None)
    tally.add(2, None, "raised", "SamplingError")
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.flag_mismatch == {"c"}
    assert tally.unexpected == {"c", "raised SamplingError"}


def test_tally_counts_each_seed_once_and_compares_repeats():
    tally = run.Tally(frozenset())
    for _ in range(3):
        tally.add(1, _report(1.0, 1.0, False), "a", None)
    assert (tally.attempted, tally.failed, tally.nondeterministic) == (1, 1, False)
    tally.add(1, _report(1.0, 1.0, False), "b", None)
    assert tally.nondeterministic


def test_negative_control_is_detected():
    detected, outcome = run.negative_control(cli, SMALL, iter([workloads.sub_seed(0, 0)]))
    assert detected, outcome


class _FakeReport:
    def __init__(self, doc):
        self.doc = doc

    def to_json_dict(self):
        return self.doc


class _FakeCli:
    """Stands in for trigwdvv.cli: fixed reports (or errors) in order."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)

    def RunSpec(self, **kwargs):
        return kwargs

    def run(self, spec):
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return _FakeReport(outcome)

    def dumps_17g(self, doc):
        return repr(doc)


def test_negative_control_does_not_count_known_failures():
    w = workloads.Workload(name="w", command="verify-wdvv", m=(1,), r=2.0, samples=2, why="test",
                           runs_per_second=1.0, known_failures=frozenset({"c", "SamplingError"}))
    only_known = _FakeCli(_report(1.0, 1.0, False))
    assert run.negative_control(only_known, w, itertools.count())[0] is False

    class SamplingError(Exception):
        pass

    # a known error is skipped, and the next seed's report decides
    retried = _FakeCli(SamplingError("cap"), _report(1e-12, 1e-12, True))
    retried.outcomes[1]["checks"].append(
        {"name": "other", "max_residual": 1.0, "mean_residual": 1.0, "pass": False})
    assert run.negative_control(retried, w, itertools.count())[0] is True
    assert run.negative_control(_FakeCli(ValueError("x")), w, itertools.count())[0] is False


def test_sub_seeds_are_deterministic_and_distinct():
    seeds = [workloads.sub_seed(3, i) for i in range(100)]
    assert seeds == [workloads.sub_seed(3, i) for i in range(100)]
    assert len(set(seeds)) == 100 and all(0 <= s < 2**64 for s in seeds)
