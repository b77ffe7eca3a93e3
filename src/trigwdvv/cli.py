"""Command-line surface: seeded verification suites with JSON reports.

Commands map to the library's check families (WDVV residuals, associativity,
metric structure, block restriction, supersymmetric block) plus two utility
emitters for tensors and normalized configuration documents.  Reports are
deterministic given (seed, run parameters), and floats are serialized with 17
significant digits.  A command's sample points come from one generator,
keyed by the run seed and the stream label "<command>/points", which holds
only candidates; ``_sampled`` asks for a block's points in one request.  The
random vectors of a point (u, v, w for verify-associativity, u~, v~ for
verify-restriction) come from a second generator, "<command>/draws", one
draw per block: the k-th point drawn has the k-th draw, so neither stream
depends on how many points one residual call takes.  Every residual call takes a block of
points, x of shape (b, n), as many as its largest per-point array lets fit in one budget,
each point's bits as alone, and returns its values with the points it refuses, which
``_sampled`` discards.  verify-wdvv reports one check, wdvv_residual: for a family at the diagonal pivot
B(x) by ``wdvv.arrow_residuals``, with no condition cap, and for an explicit
document at the better-conditioned pivot of B(x) and eta.F under the cap, whose
weights eta are drawn once per run from "verify-wdvv/pivot".

A non-finite residual fails its check, and ``--json`` renders it as null.
Exit codes: 0 all checks pass, 1 at least one check failed, 2 parse,
precondition or numerical error (the package's errors and numpy's
LinAlgError) or an array too large to allocate (MemoryError).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .configurations import (
    BCnParameters,
    Configuration,
    Partition,
    _bcn_members,
    _integer,
    _real,
    build_bcn,
)
from .errors import (
    ConfigFormatError,
    DomainError,
    ParameterError,
    PreconditionError,
    SamplingError,
    TrigWdvvError,
)
from .prepotential import (
    DEFAULT_THRESHOLD,
    _matvec,
    _two_path,
    active_pairings,
    closed_form_arrows,
    h_function,
    metric_B,
    metric_identity_residuals,
    tensor_generic,
)
from .sampling import DEFAULT_BOX, MAX_ATTEMPTS_PER_POINT, admissible_points, box_bounds, fully_active, rng_for
from .wdvv import arrow_residuals, arrow_slices, pivot_residuals, usable_pivots
from . import algebra, susy

# the floats a block of points may hold in its largest per-point array, which each driver states (see _block)
_WDVV_BLOCK = 2**15
# the family document's fields, in order: BCnParameters' init fields
_FAMILY_FIELDS = tuple(f.name for f in fields(BCnParameters) if f.init)

# ---------------------------------------------------------------------------
# run specification and report types


@dataclass(frozen=True)
class RunSpec:
    """Everything a verification run depends on; echoed verbatim in the report.

    Frozen, and checked when it is made: an invalid field raises PreconditionError,
    so every entry point receives a valid spec without a check of its own.  Its
    numbers are read by the package's rules: samples and seed as ints (2.0 reads as 2).
    """

    command: str
    config_source: dict | str
    samples: int = 50
    seed: int = 0
    tolerance: float = 1e-8
    box: tuple[float, float] = DEFAULT_BOX
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise PreconditionError(f"unknown command {self.command!r}")
        for name, read, kind in (("samples", _integer, "an integer"), ("seed", _integer, "an integer"),
                                 ("tolerance", _real, "a number"), ("threshold", _real, "a number")):
            value = getattr(self, name)
            object.__setattr__(self, name, read(value, f"{name} must be {kind}, got {value!r}", PreconditionError))
        if self.samples < 1:
            raise PreconditionError(f"samples must be >= 1, got {self.samples}")
        if self.samples >= 2**63:  # the longest array numpy can index
            raise PreconditionError(f"samples must be < 2^63, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise PreconditionError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        object.__setattr__(self, "box", box_bounds(self.box))
        for name in ("tolerance", "threshold"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise PreconditionError(f"{name} must be finite and > 0, got {getattr(self, name)}")

    def to_json_dict(self) -> dict:
        # the fields in order; a deep copy, so that editing the document leaves the run as it was
        return {**vars(self), "config_source": copy.deepcopy(self.config_source), "box": list(self.box)}


@dataclass
class CheckResult:
    name: str
    max_residual: float
    mean_residual: float
    worst_point: list[float] | None
    passed: bool

    def to_json_dict(self) -> dict:
        # the fields in order, with the verdict last as "pass"
        doc = {**vars(self), "worst_point": None if self.worst_point is None else list(self.worst_point)}
        doc["pass"] = doc.pop("passed")
        return doc


@dataclass
class VerificationReport:
    run: RunSpec
    checks: list[CheckResult] = field(default_factory=list)
    discarded_points: int = 0
    version = __version__  # the package's, not a field

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        # the fields in order, then the version
        return {**vars(self), "run": self.run.to_json_dict(), "checks": [c.to_json_dict() for c in self.checks],
                "version": self.version}


def _float_17g(value: float) -> str:
    return format(value, ".17g") if math.isfinite(value) else "null"


def dumps_17g(obj) -> str:
    """JSON with floats rendered at 17 significant digits, insertion order kept.

    JSON has no NaN or infinity, so a non-finite float is rendered as null.
    The exact types a report holds (float, dict, list, str, bool, int, None) are
    dispatched on first, and a list of floats, such as a point, is written in one
    pass; other values, numpy scalars and tuples among them, go through the
    isinstance chain.  A string is written as ``json.dumps`` writes it.
    """
    kind = type(obj)
    if kind is float:
        return _float_17g(obj)
    if kind is dict:
        return "{" + ",".join(f"{encode_basestring_ascii(str(k))}:{dumps_17g(v)}" for k, v in obj.items()) + "}"
    if kind is list:
        floats = all(type(v) is float for v in obj)
        return "[" + ",".join(map(_float_17g if floats else dumps_17g, obj)) + "]"
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (float, np.floating)):
        return _float_17g(float(obj))
    if isinstance(obj, (dict, list, tuple)):  # a subclass or a tuple, written as the plain type
        return dumps_17g(dict(obj) if isinstance(obj, dict) else list(obj))
    if isinstance(obj, (int, np.integer)):  # bool has no subclass, and numpy's bool is no int
        return str(int(obj))
    return json.dumps(obj)


# ---------------------------------------------------------------------------
# configuration documents


def _array(value, what: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigFormatError(f"{what} must be an array, got {value!r}")
    return value


def parse_config_document(doc: dict) -> BCnParameters | Configuration:
    """Parse a configuration document; missing or mistyped fields raise ConfigFormatError.

    Its numbers are read by the package's rules: ``BCnParameters`` and ``Configuration``
    read their own, and vector entries and multiplicities, which numpy would coerce from
    "1" or true, are read by ``_real`` first."""
    if not isinstance(doc, dict):
        raise ConfigFormatError("configuration document must be a JSON object")
    if "family" in doc:
        if doc["family"] != "bcn":
            raise ConfigFormatError(f"unknown family {doc['family']!r}; expected 'bcn'")
        for key in _FAMILY_FIELDS:
            if key not in doc:
                raise ConfigFormatError(f"family document is missing field {key!r}")
        try:
            return BCnParameters(**{key: doc[key] for key in _FAMILY_FIELDS} | {"m": tuple(_array(doc["m"], "m"))})
        except ValueError as exc:
            raise ConfigFormatError(f"invalid family parameters: {exc}") from exc
    if "explicit" in doc:
        body = doc["explicit"]
        if not isinstance(body, dict):
            raise ConfigFormatError("'explicit' must be an object")
        for key in ("dimension", "members"):
            if key not in body:
                raise ConfigFormatError(f"explicit document is missing field {key!r}")
        vectors, mults = [], []
        try:
            for i, entry in enumerate(_array(body["members"], "members")):
                if not isinstance(entry, dict) or "vector" not in entry or "multiplicity" not in entry:
                    raise ConfigFormatError(f"member {i} must be an object with fields 'vector' and 'multiplicity'")
                row = []
                for v in _array(entry["vector"], f"member {i} vector"):
                    try:
                        row.append(_real(v, ""))
                    except ParameterError:  # the text is built for the refused entry only
                        raise ParameterError(f"member {i} vector entry must be a number, got {v!r}") from None
                vectors.append(row)
                mult = entry["multiplicity"]
                mults.append(_real(mult, f"member {i} multiplicity must be a number, got {mult!r}"))
            return Configuration(body["dimension"], vectors, mults)
        except ValueError as exc:
            raise ConfigFormatError(f"invalid explicit configuration: {exc}") from exc
    raise ConfigFormatError("configuration document needs a 'family' or 'explicit' field")


def load_config_source(source: dict | str) -> BCnParameters | Configuration:
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                source = json.load(fh)
        except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ConfigFormatError(f"cannot read configuration file {source}: {exc}") from exc
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


def _require_spanning(config: Configuration, command: str, family: bool) -> None:
    """Refuse a source whose members of nonzero multiplicity, which B(x) and every pivot lie in, miss R^n.

    Those members are ``config.active_members``, the selection ``active_pairings`` reads.
    A family's members e_i, 2e_i and e_i +- e_j (both signs share one multiplicity)
    span exactly the coordinates they read, so its rank is their count; an explicit
    source's is ``np.linalg.matrix_rank``.
    """
    spanning = config.active_members[0]
    if family:
        rank = int(spanning.any(axis=0).sum())
    else:
        rank = np.linalg.matrix_rank(spanning) if len(spanning) else 0  # numpy 1.24's raises on no rows
    if rank < config.dimension:
        raise PreconditionError(f"{command} needs members of nonzero multiplicity that span R^{config.dimension}, "
                                f"but their span has dimension {rank}: B(x) would be singular at every point")


def _check_result(name: str, values, points, tolerance: float) -> CheckResult:
    """The check ``name`` from its residuals; ``points[i]`` is where ``values[i]`` was taken.

    A check that depends on no sample point has the point None.  The worst
    residual is the first NaN or +inf, else the first maximum, so a
    non-finite residual fails the check.
    """
    values = np.asarray(values, dtype=float)
    bad = np.isnan(values) | (values == np.inf)
    worst = int(bad.argmax() if bad.any() else values.argmax())
    mx, point = float(values[worst]), points[worst]
    point = None if point is None else point.tolist()
    return CheckResult(name, mx, float(values.sum() / values.size), point, mx < tolerance)  # np.mean's float64 path


def _sampled(report: VerificationReport, config: Configuration, residuals, block: int, draw=None) -> None:
    """Append the checks of ``residuals``, evaluated at ``samples`` accepted points.

    The points are one ``admissible_points`` stream of ``fully_active(config)``
    whose generator is keyed by "<command>/points".  ``residuals(x, active, draws)``
    reads (A, c, z), z the sampler's product at ``config.active_rows``, and the points'
    draws, and returns ({check name: residuals}, refusals), unreduced: here is the one
    place where a check's residuals are reduced, over every point's.  The function takes
    no generator: for a driver that declares a per-point ``draw`` shape, ``draws`` is one
    ``standard_normal((b, *draw))`` per block of b points from a second generator, keyed by
    "<command>/draws", so the k-th point drawn, a discarded one too, has the k-th draw and
    neither stream depends on the block; for a driver that declares none, ``draws`` is None.

    Every call takes a block: up to ``block`` points still needed, asked of the sampler in one
    request, x (b, n) and z (b, M) with b >= 1, each residual with that leading axis, and the draws
    (b, *draw).  ``refusals`` is None where the route refuses no point, else one entry a point: None,
    or the text of its refusal (a metric or pivot that fails ``wdvv.usable_pivots``, or a family's
    diagonal B with a zero entry, ``wdvv.arrow_residuals``).  Each refused point is counted in
    ``discarded_points``, in stream order, and replaced, the one discard rule; the discard past the
    cap ends the run with a SamplingError that gives the count and that discard's own text.  The
    other points' residuals are filed, and any error a call raises propagates.  Checks are reported
    in key order, and a check that received no residual is left out of the report.  A sampler that
    returns fewer points than asked has a point out of attempts next: its SamplingError is raised
    at the next request, after the points before it are evaluated.
    """
    spec = report.run
    take = admissible_points(rng_for(spec.seed, f"{spec.command}/points"), fully_active(config), spec.box,
                             spec.threshold)
    draws = None if draw is None else rng_for(spec.seed, f"{spec.command}/draws")
    collected: dict[str, tuple[list, list]] = {}  # check name: (its residuals, the point of each)

    accepted = 0
    while accepted < spec.samples:
        xs, zs = take(min(block, spec.samples - accepted))
        # read after the draw: selected before it, A would sit beside the sampler's set-up arrays
        (A, c), rows = config.active_members, config.active_rows
        # fresh C-ordered arrays: z's active columns, selected, would be laid out column by column,
        # and a kernel's last bits follow its operands' layout
        xs, zs = np.array(xs), np.array(zs if rows is None else zs[:, rows], order="C")
        values, refusals = residuals(xs, (A, c, zs), None if draws is None else draws.standard_normal((len(xs), *draw)))
        for why in filter(None, refusals or ()):  # a refused point is a discard
            report.discarded_points += 1
            if report.discarded_points > MAX_ATTEMPTS_PER_POINT:
                raise SamplingError(f"more than {MAX_ATTEMPTS_PER_POINT} sample points were discarded: "
                                    f"{report.discarded_points} had an unusable pivot, the last: {why}")
        kept = np.array([why is None for why in refusals]) if any(refusals or ()) else slice(None)
        taken = xs[kept]
        for name, value in values.items():  # each kept point's residuals, in C order along the leading axis
            vals, pts = collected.setdefault(name, ([], []))
            per_point = np.reshape(value, (len(xs), np.size(value) // len(xs)))[kept]
            vals.append(per_point.ravel())
            for x in taken:
                pts += [x] * per_point.shape[1]
        accepted += len(taken)
    report.checks.extend(
        _check_result(name, np.concatenate(vals), pts, spec.tolerance)
        for name, (vals, pts) in collected.items()
        if pts
    )


# ---------------------------------------------------------------------------
# command drivers


def _block(per_point: int) -> int:
    """The most points one residual call takes: as many as fit in _WDVV_BLOCK floats of the driver's
    largest per-point array, of ``per_point`` floats, and at least one."""
    return max(1, _WDVV_BLOCK // per_point)


def _run_wdvv(spec: RunSpec, parsed):
    config = _config_of(parsed)
    n = config.dimension
    if n < 3:
        raise PreconditionError(
            f"{spec.command} needs n >= 3: n={n} has no WDVV content (at n=1 there is no pair, "
            "and at n=2 B lies in the span of F_1 and F_2, so both WDVV forms are identities)"
        )
    family = isinstance(parsed, BCnParameters)
    _require_spanning(config, spec.command, family)
    # WDVV on one invertible pivot in the span of the slices F_k implies it on every other
    # (Marshakov-Mironov-Morozov 1996): one check per point
    if family:  # arrow slices and a diagonal B: the check at diag(B), with no condition cap; the kernel's
        # slice stack holds n^3 floats a point, so a call takes one point from n = 26

        def residuals(x, active, draws):
            V = arrow_slices(active)
            (scaled, _, _), refusals = arrow_residuals(V, (np.sinh(2.0 * x)[..., None, :] @ V)[..., 0, :])
            return {"wdvv_residual": scaled}, refusals

        return {}, config, residuals, _block(n**3), None

    eta = rng_for(spec.seed, "verify-wdvv/pivot").standard_normal(n)

    def residuals(x, active, draws):
        T = tensor_generic(active)
        eta_F = (eta @ T.reshape(len(x), n, n * n)).reshape(len(x), n, n)
        # at the better-conditioned of B and eta.F, and a discard only where neither is usable
        (scaled, _, _), refusals = pivot_residuals(T, np.stack([metric_B(active, x), eta_F], axis=1))
        return {"wdvv_residual": scaled}, refusals

    # the commutator product F_i P^{-1} F_j holds n^4 floats a point, the weighted (n x M) members n M
    return {}, config, residuals, _block(n * max(n**3, len(config.active_members[1]))), None


def _run_associativity(spec: RunSpec, parsed):
    config = _config_of(parsed)
    n = config.dimension
    # the metric that raises indices, chosen once per run; raise_index_at(x, active) returns the points'
    # refusals and y -> G^{-1} y
    if isinstance(parsed, BCnParameters):  # the family's metric diag(m)
        m = parsed.m_array
        if not m.all():
            raise PreconditionError(
                f"{spec.command} raises indices with diag(m), which needs every m_i != 0, got m = {parsed.m}")

        def raise_index_at(x, active):
            return None, lambda y: y / m

        per_point = n**2  # the M ~ 2 n^2 weights and pairings
    else:  # the metric B(x), judged point by point by verify-wdvv's usable-pivot rule
        _require_spanning(config, spec.command, family=False)

        def raise_index_at(x, active):  # a refused B is never factorised: the identity stands in
            B, _, _, refusals = usable_pivots(metric_B(active, x)[:, None])
            return refusals, lambda y: np.linalg.solve(B, y[..., None])[..., 0]

        per_point = n * max(n, len(config.active_members[1]))  # B's weighted (n x M) members

    def residuals(x, active, draws):
        u, v, w = draws.swapaxes(0, -2)  # a point's (3, n) draw: the numbers of three draws of n
        refusals, raise_index = raise_index_at(x, active)
        return {"associativity_residual": algebra.associativity_residual(active, u, v, w, raise_index)}, refusals

    return {}, config, residuals, _block(per_point), (3, n)


def _run_metric(spec: RunSpec, parsed):
    params = _require_family(parsed, spec.command)
    config = build_bcn(params)

    def residuals(x, active, draws):
        off, diag = metric_identity_residuals(params, active, x)
        return {"metric_offdiagonal": off, "metric_diagonal_identity": diag}, None

    # B from the weighted (n x M) members, with no tensor: about 2 n^3 floats a point
    return {}, config, residuals, _block(params.n**3), None


def _run_restriction(spec: RunSpec, parsed):
    params = _require_family(parsed, spec.command)
    try:
        part = Partition(N=int(params.N), blocks=params.m)
    except ParameterError as exc:
        raise PreconditionError(f"{spec.command} reads m as block sizes: {exc}") from exc

    restriction = algebra.RestrictionContext(params.r, params.s, params.q, part)
    projected = restriction.projected_config
    vectors, mults = _bcn_members(restriction.params)  # the projection keeps their order: compared in place
    dev = (max(_two_path(projected.vectors, vectors), _two_path(projected.multiplicities, mults))
           if projected.vectors.shape == vectors.shape else math.inf)

    def residuals(xt, active, draws):  # x~ (b, n) and a point's (2, n) draw: two draws of n
        outside = restriction.pairings(xt)
        u, v = _matvec(restriction.block_basis.T, draws.swapaxes(0, -2))  # embedded: sum_k u~_k f_k
        C = algebra.structure_constants(restriction, outside)
        return {
            "structure_constants_two_path": _two_path(C, tensor_generic(active) / restriction.m, axes=(-3, -2, -1)),
            "tangency_residual": algebra.tangency_residuals(restriction, outside, u, v),
            # each point's two parts side by side, in the order one point's (off, diag) is filed
            "h_b_decomposition": np.stack(metric_identity_residuals(restriction.params, active, xt), axis=-1),
        }, None

    # the structure constants' n^2 M' products a point, M' the active members outside the block subsystem
    per_point = part.n**2 * max(len(restriction.outside_active[1]), part.N)
    return {"restriction_config_match": dev}, projected, residuals, _block(per_point), (2, part.n)


def _run_susy(spec: RunSpec, parsed):
    params = _require_family(parsed, spec.command)
    hat = susy.build_hat_configuration(params)
    sq = np.sqrt(params.m_array)
    A_base = hat.config.active_members[0] * sq  # the base covectors: their pairings at x^ / sqrt(m) are z
    to_base = sq[:, None] * params.m_array  # F_ikk = sqrt(m_i) m_k F^_ikk, as F_klt = sqrt(m_k m_l m_t) F^_klt

    def hat_residuals(xh, active, draws):
        V, x = arrow_slices(active), xh / sq
        closed = closed_form_arrows(params, x)
        # the rescaled arrows in base coordinates against the closed form at x, the commuting form at the identity
        # pivot, and B^ = h I as B = h diag(m), each point's (off, diag) side by side, an overflow naming x^
        return {
            "hat_tensor_two_path": _two_path(V * to_base, closed, axes=(-2, -1)),
            "hat_commuting_residual": arrow_residuals(V, np.ones_like(xh))[0][0],
            "hat_metric_identity": np.stack(metric_identity_residuals(params, (A_base, *active[1:]), x, xh), axis=-1),
            "gauge_residual": susy.gauge_residual(active),
        }, None

    return {}, hat.config, hat_residuals, _block(params.n**3), None  # the arrow kernel's n^3 floats a point


# a driver declares its run: (one-value checks {name: value}, the configuration to sample, the
# residual function for _sampled, the most points one call takes by the one rule _block, the shape of
# the standard normal draw _sampled makes for each point or None); run builds the report from these
VERIFIERS = {
    "verify-wdvv": _run_wdvv,
    "verify-associativity": _run_associativity,
    "verify-metric": _run_metric,
    "verify-restriction": _run_restriction,
    "verify-susy": _run_susy,
}
COMMANDS = (*VERIFIERS, "tensor", "build-config")


def run(spec: RunSpec) -> VerificationReport:
    """Execute a verification command; deterministic given (seed, spec)."""
    parsed = load_config_source(spec.config_source)
    driver = VERIFIERS.get(spec.command)
    if driver is None:
        raise PreconditionError(f"{spec.command} is not a verification command")
    report = VerificationReport(run=spec)
    # sinh and cosh overflow far from the origin: each non-finite value is then refused by
    # name or fails its check, so numpy's warnings would only print ahead of that verdict
    with np.errstate(over="ignore", invalid="ignore"):
        one_value, config, residuals, block, draw = driver(spec, parsed)
        report.checks += [_check_result(name, [v], [None], spec.tolerance) for name, v in one_value.items()]
        _sampled(report, config, residuals, block, draw)
    return report


def emit_tensor(spec: RunSpec, point) -> dict:
    """Tensor document {"point", "F", "B", "h"} at an explicit point.

    ``h`` is present for family sources and null for explicit configurations.
    A non-finite field raises DomainError naming the first of F, B and h that
    is not finite (sinh and cosh overflow for |x| above about 355).
    """
    parsed = load_config_source(spec.config_source)
    x = np.array([_real(v, f"point must be numbers, got {point!r}") for v in point])
    with np.errstate(over="ignore", invalid="ignore"):
        active = active_pairings(_config_of(parsed), x, spec.threshold)
        F, B = tensor_generic(active), metric_B(active, x)
        h = h_function(parsed, x) if isinstance(parsed, BCnParameters) else None
    for name, value in (("F", F), ("B", B), ("h", h)):
        if value is not None and not np.isfinite(value).all():
            raise DomainError(f"{name} is not finite at the point {x.tolist()}")
    return {"point": [float(v) for v in x], "F": F.tolist(), "B": B.tolist(), "h": h}


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError as exc:
        raise PreconditionError(f"expected comma-separated numbers, got {text!r}") from exc


# argparse reads a value that starts with "-" as an option unless the whole
# value is one number, so the list in "--m -1,2" would be refused; such a
# list is attached as "--m=-1,2", the form argparse always accepts
_LIST_OPTIONS = ("--m", "--point", "--box")
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _attach_negative_lists(argv) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _LIST_OPTIONS and _NEGATIVE_NUMBER.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


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
    # the run options default to None: a run left without one keeps RunSpec's default
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--box", metavar="lo,hi")
    parser.add_argument("--theta", type=float)
    parser.add_argument("--point", metavar="x1,x2,...", help="evaluation point for the tensor command")
    parser.add_argument("--json", action="store_true", help="single JSON document on stdout")
    return parser


def _config_source_from_args(args) -> dict | str:
    if args.config is not None:
        return args.config
    if args.family is not None:
        missing = [k for k in _FAMILY_FIELDS if getattr(args, k) is None]
        if missing:
            raise PreconditionError(f"--family bcn requires --{', --'.join(missing)}")
        family = {k: getattr(args, k) for k in _FAMILY_FIELDS}
        return {"family": "bcn", **family, "m": list(_parse_floats(args.m))}
    raise PreconditionError("a configuration source is required: --config PATH or --family bcn ...")


def _spec_from_args(args) -> RunSpec:
    box = None if args.box is None else _parse_floats(args.box)
    given = {"samples": args.samples, "seed": args.seed, "tolerance": args.tol, "box": box, "threshold": args.theta}
    return RunSpec(args.command, _config_source_from_args(args), **{k: v for k, v in given.items() if v is not None})


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
    args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
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
    except MemoryError as exc:  # numpy's _ArrayMemoryError among them, named by the builtin
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2
    _print_report(report, args.json)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
