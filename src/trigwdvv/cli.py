"""Command-line surface: seeded verification suites with JSON reports.

Commands map to the library's check families (WDVV residuals, associativity,
metric structure, block restriction, supersymmetric block) plus two utility
emitters for tensors and normalized configuration documents.  Reports are
deterministic given (seed, run parameters), and floats are serialized with 17
significant digits.  A command's sample points come from one generator,
keyed by the run seed and the stream label "<command>/points".  The random
vectors drawn at each point (u, v, w) come from the same stream as the point.

A non-finite residual fails its check, and ``--json`` renders it as null.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 parse,
precondition or numerical error (the package's errors and numpy's
LinAlgError).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .configurations import (
    BCnParameters,
    Configuration,
    Partition,
    build_bcn,
    configurations_match,
    constraint_residual,
)
from .errors import (
    ConfigFormatError,
    PreconditionError,
    SamplingError,
    SingularMatrixError,
    TrigWdvvError,
)
from .prepotential import DEFAULT_THRESHOLD, h_function, metric_B, tensor_generic
from .sampling import (
    DEFAULT_BOX,
    MAX_ATTEMPTS_PER_POINT,
    fully_active,
    rng_for,
    sample_admissible_points,
)
from .wdvv import CONDITION_CAP, pivot_residuals
from . import algebra, susy

COMMANDS = (
    "verify-wdvv",
    "verify-associativity",
    "verify-metric",
    "verify-restriction",
    "verify-susy",
    "tensor",
    "build-config",
)


# ---------------------------------------------------------------------------
# run specification and report types


@dataclass
class RunSpec:
    """Everything a verification run depends on; echoed verbatim in the report."""

    command: str
    config_source: dict | str
    samples: int = 50
    seed: int = 0
    tolerance: float = 1e-8
    box: tuple[float, float] = DEFAULT_BOX
    threshold: float = DEFAULT_THRESHOLD

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise PreconditionError(f"unknown command {self.command!r}")
        if self.samples < 1:
            raise PreconditionError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise PreconditionError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        lo, hi = self.box
        if not lo < hi:
            raise PreconditionError(f"box ({lo}, {hi}) must satisfy lo < hi")
        if not self.tolerance > 0.0:
            raise PreconditionError(f"tolerance must be > 0, got {self.tolerance}")
        if not self.threshold > 0.0:
            raise PreconditionError(f"threshold must be > 0, got {self.threshold}")

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "config_source": self.config_source,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "box": list(self.box),
            "threshold": self.threshold,
        }


@dataclass
class CheckResult:
    name: str
    max_residual: float
    mean_residual: float
    worst_point: list[float] | None
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "worst_point": self.worst_point,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    run: RunSpec
    checks: list[CheckResult] = field(default_factory=list)
    discarded_points: int = 0
    version: str = __version__

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "run": self.run.to_json_dict(),
            "checks": [c.to_json_dict() for c in self.checks],
            "discarded_points": self.discarded_points,
            "version": self.version,
        }


def dumps_17g(obj) -> str:
    """JSON with floats rendered at 17 significant digits, insertion order kept.

    JSON has no NaN or infinity, so a non-finite float is rendered as null.
    """
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{dumps_17g(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_17g(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if math.isfinite(obj) else "null"
    if obj is None:
        return "null"
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# configuration documents


def parse_config_document(doc: dict) -> BCnParameters | Configuration:
    """Parse a configuration document; missing fields raise ConfigFormatError."""
    if not isinstance(doc, dict):
        raise ConfigFormatError("configuration document must be a JSON object")
    if "family" in doc:
        if doc["family"] != "bcn":
            raise ConfigFormatError(f"unknown family {doc['family']!r}; expected 'bcn'")
        for key in ("n", "r", "s", "q", "m"):
            if key not in doc:
                raise ConfigFormatError(f"family document is missing field {key!r}")
        try:
            return BCnParameters(
                n=int(doc["n"]),
                r=float(doc["r"]),
                s=float(doc["s"]),
                q=float(doc["q"]),
                m=tuple(float(v) for v in doc["m"]),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigFormatError(f"invalid family parameters: {exc}") from exc
    if "explicit" in doc:
        body = doc["explicit"]
        if not isinstance(body, dict):
            raise ConfigFormatError("'explicit' must be an object")
        for key in ("dimension", "members"):
            if key not in body:
                raise ConfigFormatError(f"explicit document is missing field {key!r}")
        members = []
        for i, entry in enumerate(body["members"]):
            if not isinstance(entry, dict) or "vector" not in entry or "multiplicity" not in entry:
                raise ConfigFormatError(
                    f"member {i} must be an object with fields 'vector' and 'multiplicity'"
                )
            members.append((tuple(float(v) for v in entry["vector"]), float(entry["multiplicity"])))
        try:
            return Configuration(int(body["dimension"]), members)
        except TrigWdvvError as exc:
            raise ConfigFormatError(f"invalid explicit configuration: {exc}") from exc
    raise ConfigFormatError("configuration document needs a 'family' or 'explicit' field")


def load_config_source(source: dict | str) -> BCnParameters | Configuration:
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigFormatError(f"configuration file not found: {source}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigFormatError(f"configuration file is not valid JSON: {exc}") from exc
        return parse_config_document(doc)
    return parse_config_document(source)


def _config_of(parsed: BCnParameters | Configuration) -> Configuration:
    """The configuration of a parsed source (family parameters are built)."""
    return build_bcn(parsed) if isinstance(parsed, BCnParameters) else parsed


def config_document(parsed: BCnParameters | Configuration) -> dict:
    """Normalized explicit-configuration document for any parsed source."""
    config = _config_of(parsed)
    return {
        "explicit": {
            "dimension": config.dimension,
            "members": [
                {"vector": vec, "multiplicity": mult}
                for vec, mult in zip(config.vectors.tolist(), config.multiplicities.tolist())
            ],
        }
    }


# ---------------------------------------------------------------------------
# sampled checks


def _require_family(parsed, command: str) -> BCnParameters:
    if not isinstance(parsed, BCnParameters):
        raise PreconditionError(f"{command} requires family parameters (--family bcn ...)")
    return parsed


class _Collector:
    """The residuals of one check; a non-finite residual fails it."""

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []
        self.worst: list[float] | None = None
        self._worst_val = -1.0

    def add(self, value: float, point=None) -> None:
        v = float(value)
        self.values.append(v)
        # `not v <= worst` also holds for NaN, and a non-finite worst value is
        # never replaced, so the worst point is the first non-finite one
        if math.isfinite(self._worst_val) and not v <= self._worst_val:
            self._worst_val = v
            self.worst = None if point is None else [float(t) for t in np.atleast_1d(point)]

    def result(self, tolerance: float) -> CheckResult:
        mx = self._worst_val
        return CheckResult(self.name, mx, float(np.mean(self.values)), self.worst, mx < tolerance)


def _record(report: VerificationReport, name: str, value: float) -> None:
    """Append a check made of one value that depends on no sample point."""
    col = _Collector(name)
    col.add(value)
    report.checks.append(col.result(report.run.tolerance))


def _sampled(report: VerificationReport, pattern: Configuration, names, residuals) -> None:
    """Append the checks ``names``, evaluated at ``samples`` admissible points of ``pattern``.

    Points are drawn one at a time from the stream "<command>/points", and
    ``residuals(rng, x)`` takes any further random draws from the same
    stream.  It returns one list of residuals per name, or a short reason
    (completing "the point had ...") to discard the point, which is counted
    and replaced.  Past the discard cap the run ends with a SamplingError
    that gives the count of each reason.  A check that received no residual
    is left out of the report.
    """
    spec = report.run
    rng = rng_for(spec.seed, f"{spec.command}/points")
    cols = [_Collector(name) for name in names]
    reasons: dict[str, int] = {}
    accepted = 0
    while accepted < spec.samples:
        if report.discarded_points > MAX_ATTEMPTS_PER_POINT:
            counts = ", ".join(f"{k} had {reason}" for reason, k in reasons.items())
            raise SamplingError(f"more than {MAX_ATTEMPTS_PER_POINT} sample points were discarded: {counts}")
        x = sample_admissible_points(rng, pattern, 1, spec.box, spec.threshold)[0]
        values = residuals(rng, x)
        if isinstance(values, str):
            reasons[values] = reasons.get(values, 0) + 1
            report.discarded_points += 1
            continue
        accepted += 1
        for col, vals in zip(cols, values):
            for v in vals:
                col.add(v, x)
    report.checks.extend(col.result(spec.tolerance) for col in cols if col.values)


# ---------------------------------------------------------------------------
# command drivers


def _run_wdvv(report: VerificationReport, parsed) -> None:
    spec = report.run
    config = _config_of(parsed)
    n = config.dimension
    if n < 2:
        raise PreconditionError(f"{spec.command} needs n >= 2: n={n} has no WDVV content")
    pairs = np.triu_indices(n, 1)

    def residuals(rng, x):
        T = tensor_generic(config, x, spec.threshold)
        # pivot 0 is the metric B (pair form), pivot 1 + k is F_k (pivot form)
        try:
            scaled, _, condition = pivot_residuals(T, np.concatenate([metric_B(T, x)[None], T]))
        except SingularMatrixError:
            return "a numerically singular pivot"
        if (condition > CONDITION_CAP).any():
            return f"a pivot condition number above {CONDITION_CAP:g}"
        return scaled[0][pairs].tolist(), scaled[1:, pairs[0], pairs[1]].ravel().tolist()

    names = ("wdvv_pair_residual", "generalized_wdvv_residual")
    _sampled(report, fully_active(config), names, residuals)


def _run_associativity(report: VerificationReport, parsed) -> None:
    spec = report.run
    config = _config_of(parsed)
    n = config.dimension

    def residuals(rng, x):
        ctx = algebra.ProductContext(config, x, spec.threshold)
        u, v, w = (rng.standard_normal(n) for _ in range(3))
        return ([algebra.associativity_residual(ctx, u, v, w)],)

    _sampled(report, fully_active(config), ("associativity_residual",), residuals)


def _run_metric(report: VerificationReport, parsed) -> None:
    spec = report.run
    params = _require_family(parsed, spec.command)
    config = build_bcn(params)
    delta = constraint_residual(params)
    m = params.m_array

    def residuals(rng, x):
        T = tensor_generic(config, x, spec.threshold)
        B = metric_B(T, x)
        scale = max(1.0, float(np.abs(B).max()))
        off = B - np.diag(np.diag(B))
        expected = m * (h_function(params, x) + delta * np.cosh(2.0 * x))
        return (
            [float(np.abs(off).max()) / scale],
            [float(np.abs(np.diag(B) - expected).max()) / scale],
        )

    names = ("metric_offdiagonal", "metric_diagonal_identity")
    _sampled(report, fully_active(config), names, residuals)


def _run_restriction(report: VerificationReport, parsed) -> None:
    spec = report.run
    params = _require_family(parsed, spec.command)
    blocks = []
    for mi in params.m:
        if abs(mi - round(mi)) > 0.0 or round(mi) < 1:
            raise PreconditionError(
                f"{spec.command} requires positive integer m (block sizes), got {params.m}"
            )
        blocks.append(int(round(mi)))
    part = Partition(N=sum(blocks), blocks=tuple(blocks))

    restriction = algebra.RestrictionContext(params.r, params.s, params.q, part, threshold=spec.threshold)
    projected = restriction.projected_config
    rebuilt = build_bcn(params)
    dev = float("inf")
    if configurations_match(projected, rebuilt, coord_tol=1e-12, mult_tol=1e-12):
        dev = max(
            float(np.abs(projected.vectors - rebuilt.vectors).max(initial=0.0)),
            float(np.abs(projected.multiplicities - rebuilt.multiplicities).max(initial=0.0)),
        )
    _record(report, "restriction_config_match", dev)

    F_basis = restriction.block_basis

    def residuals(rng, xt):
        rctx = restriction.at(xt)
        ut, vt = rng.standard_normal(part.n), rng.standard_normal(part.n)
        u, v = F_basis.T @ ut, F_basis.T @ vt
        prod = algebra.restricted_multiply(rctx, u, v)
        spread = max(float(np.ptp(prod[f == 1.0])) for f in F_basis)

        C = algebra.structure_constants(rctx)
        Ft = tensor_generic(rctx.projected_config, xt, spec.threshold)
        expected = np.einsum("ijk,k->ijk", Ft, 1.0 / rctx.m)
        scale = max(1.0, float(np.abs(expected).max()))

        tangency = [algebra.tangency_residual(rctx, u, v, alpha) for alpha in rctx.subsystem_members()]
        return (
            [spread / max(1.0, float(np.abs(prod).max()))],
            [float(np.abs(C - expected).max()) / scale],
            [max(tangency)] if tangency else [],
            [algebra.h_b_decomposition_residual(rctx)],
        )

    names = ("restricted_closure", "structure_constants_two_path", "tangency_residual", "h_b_decomposition")
    _sampled(report, fully_active(projected), names, residuals)


def _run_susy(report: VerificationReport, parsed) -> None:
    spec = report.run
    params = _require_family(parsed, spec.command)
    hat = susy.build_hat_configuration(params)
    n = params.n

    _record(report, "fermionic_anticommutation", susy.anticommutation_residual(susy.FermionicSpace(n)))

    inv_sqrt = 1.0 / np.sqrt(params.m_array)
    pairs = np.triu_indices(n, 1)

    def hat_residuals(rng, xh):
        T = tensor_generic(hat.config, xh, spec.threshold)
        T2 = susy.hat_tensor_from_base(params, xh, spec.threshold)
        scale = max(1.0, float(np.abs(T2).max()))
        commuting = pivot_residuals(T)[0][0][pairs]
        h = h_function(params, xh * inv_sqrt)
        Bh = susy.hat_metric(params, T, xh)
        return (
            [float(np.abs(T - T2).max()) / scale],
            [float(commuting.max())] if commuting.size else [],
            [float(np.abs(Bh - h * np.eye(n)).max()) / max(1.0, abs(h))],
            [susy.gauge_residual(hat.config, xh, spec.threshold)],
        )

    names = ("hat_tensor_two_path", "hat_commuting_residual", "hat_metric_identity", "gauge_residual")
    _sampled(report, fully_active(hat.config), names, hat_residuals)


def run(spec: RunSpec) -> VerificationReport:
    """Execute a verification command; deterministic given (seed, spec)."""
    spec.validate()
    parsed = load_config_source(spec.config_source)
    driver = {
        "verify-wdvv": _run_wdvv,
        "verify-associativity": _run_associativity,
        "verify-metric": _run_metric,
        "verify-restriction": _run_restriction,
        "verify-susy": _run_susy,
    }.get(spec.command)
    if driver is None:
        raise PreconditionError(f"{spec.command} is not a verification command")
    report = VerificationReport(run=spec)
    driver(report, parsed)
    return report


def emit_tensor(spec: RunSpec, point) -> dict:
    """Tensor document {"point", "F", "B", "h"} at an explicit point.

    ``h`` is present for family sources and null for explicit configurations.
    """
    parsed = load_config_source(spec.config_source)
    x = np.asarray(point, dtype=float)
    F = tensor_generic(_config_of(parsed), x, spec.threshold)
    B = metric_B(F, x)
    return {
        "point": [float(v) for v in x],
        "F": F.tolist(),
        "B": B.tolist(),
        "h": h_function(parsed, x) if isinstance(parsed, BCnParameters) else None,
    }


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise PreconditionError(f"expected comma-separated numbers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trigwdvv",
        description="Construct BC_n-type trigonometric prepotentials and verify their WDVV structure.",
    )
    parser.add_argument("command", choices=COMMANDS)
    src = parser.add_argument_group("configuration source")
    src.add_argument("--config", metavar="PATH", help="JSON configuration document")
    src.add_argument("--family", choices=["bcn"], help="inline family selector")
    src.add_argument("--n", type=int, help="family dimension")
    src.add_argument("--r", type=float, help="short-covector multiplicity parameter")
    src.add_argument("--s", type=float, help="doubled-covector multiplicity parameter")
    src.add_argument("--q", type=float, help="pair-covector multiplicity parameter")
    src.add_argument("--m", metavar="a,b,c", help="comma-separated m values")
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=None, help="defaults to $WDVV_SEED or 0")
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--box", metavar="lo,hi", default=None)
    parser.add_argument("--theta", type=float, default=DEFAULT_THRESHOLD)
    parser.add_argument("--point", metavar="x1,x2,...", help="evaluation point for the tensor command")
    parser.add_argument("--json", action="store_true", help="single JSON document on stdout")
    return parser


def _config_source_from_args(args) -> dict | str:
    if args.config is not None:
        return args.config
    if args.family is not None:
        missing = [k for k in ("n", "r", "s", "q", "m") if getattr(args, k) is None]
        if missing:
            raise PreconditionError(f"--family bcn requires --{', --'.join(missing)}")
        return {
            "family": "bcn",
            "n": args.n,
            "r": args.r,
            "s": args.s,
            "q": args.q,
            "m": list(_parse_floats(args.m)),
        }
    raise PreconditionError("a configuration source is required: --config PATH or --family bcn ...")


def _spec_from_args(args) -> RunSpec:
    seed = args.seed
    if seed is None:
        raw = os.environ.get("WDVV_SEED", "0")
        try:
            seed = int(raw)
        except ValueError as exc:
            raise PreconditionError(f"WDVV_SEED must be an integer, got {raw!r}") from exc
    box = DEFAULT_BOX if args.box is None else _parse_floats(args.box)
    if len(box) != 2:
        raise PreconditionError(f"--box needs exactly two numbers, got {args.box!r}")
    spec = RunSpec(
        command=args.command,
        config_source=_config_source_from_args(args),
        samples=args.samples,
        seed=seed,
        tolerance=args.tol,
        box=(float(box[0]), float(box[1])),
        threshold=args.theta,
    )
    spec.validate()
    return spec


def _print_report(report: VerificationReport, as_json: bool) -> None:
    if as_json:
        print(dumps_17g(report.to_json_dict()))
        return
    spec = report.run
    print(f"trigwdvv {report.version} :: {spec.command} (seed={spec.seed}, samples={spec.samples}, tol={spec.tolerance:g})")
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(
            f"  {check.name:32s} max={check.max_residual:.3e} mean={check.mean_residual:.3e} {verdict}"
        )
    if report.discarded_points:
        print(f"  discarded points: {report.discarded_points}")
    print("OK" if report.all_passed else "FAILED")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.command == "tensor":
            if args.point is None:
                raise PreconditionError("the tensor command requires --point x1,x2,...")
            doc = emit_tensor(spec, _parse_floats(args.point))
            print(dumps_17g(doc))
            return 0
        if args.command == "build-config":
            parsed = load_config_source(spec.config_source)
            print(dumps_17g(config_document(parsed)))
            return 0
        report = run(spec)
    except (TrigWdvvError, np.linalg.LinAlgError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _print_report(report, args.json)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
