"""Layer spans taken from outside the library.

``Tracer`` wraps the public functions and class constructors of every
``trigwdvv`` module, plus the ``numpy.linalg`` functions when trigwdvv code
calls them.  A wrapped function is replaced by object identity in every
``trigwdvv.*`` namespace that holds it, so a caller that imported it by name
is traced too; a class is traced through its own ``__init__``.  Each call
records a span (target, start, end, parent) in memory, and ``uninstall``
puts every original back.

A span belongs to the layer of the module that defines its target, except
for the overrides in ``LAYER_OVERRIDES``.  A layer's self time is the time
of its spans minus the part that their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

PACKAGE = "trigwdvv"
LAYERS = ("cli", "sampling", "configurations", "prepotential", "wdvv", "algebra", "susy", "linalg")

# Admissibility tests are the sampler's work wherever they are defined; the
# CLI's private sampler is traced by name while it exists.
LAYER_OVERRIDES = {
    "trigwdvv.prepotential.is_admissible": "sampling",
    "trigwdvv.cli._draw_admissible": "sampling",
}


@dataclass(frozen=True)
class Target:
    name: str
    layer: str
    is_class: bool


def self_times(spans, layer_of) -> dict[str, float]:
    """Per-layer self time of ``spans``, a list of (target, start, end, parent).

    ``parent`` is the index of the enclosing span or -1; ``layer_of(target)``
    names the span's layer.  A span's self time is its duration minus the
    union of its children's intervals, clipped to the span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    totals = dict.fromkeys(LAYERS, 0.0)
    for idx, (target, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        layer = layer_of(target)
        totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
    return totals


class Tracer:
    """Wraps trigwdvv's layers; use as a context manager around traced runs."""

    def __init__(self) -> None:
        self.spans: list = []
        self.accepted = 0
        self.members_built = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        """The package's imported modules; a module never imported is never called."""
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
            and not name.endswith(".__main__")
        ]

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{mod.__name__}.{attr}"
                if attr.startswith("_") and name not in LAYER_OVERRIDES:
                    continue
                layer = LAYER_OVERRIDES.get(name, mod.__name__.rpartition(".")[2])
                if inspect.isclass(obj) and "__init__" in vars(obj):
                    target = Target(name, layer, True)
                    self._patch(obj, "__init__", self._wrap(obj.__init__, target))
                elif inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, Target(name, layer, False))
        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not inspect.isclass(fn):
                target = Target(f"numpy.linalg.{name}", "linalg", False)
                wrappers[id(fn)] = self._wrap(fn, target, linalg=True)
        for ns in modules + [np.linalg]:
            for attr, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patch(ns, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) for every attribute currently replaced."""
        return list(self._restore)

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, target: Target, linalg: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        prefix = PACKAGE + "."
        on_result = _RESULT_HOOKS.get(target.name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if linalg and not sys._getframe(1).f_globals.get("__name__", "").startswith(prefix):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (target, start, end, parent)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def take(self):
        """Return and clear the spans and counters recorded since the last take."""
        out = (list(self.spans), self.accepted, self.members_built)
        self.spans.clear()
        self.accepted = self.members_built = 0
        return out


def _count_accepted(tracer: Tracer, args, result) -> None:
    tracer.accepted += bool(result)


def _count_members(tracer: Tracer, args, result) -> None:
    tracer.members_built += len(args[0].members)


_RESULT_HOOKS = {
    "trigwdvv.prepotential.is_admissible": _count_accepted,
    "trigwdvv.configurations.Configuration": _count_members,
}


def layer_metrics(spans, accepted: int, members_built: int) -> dict[str, float]:
    """The per-layer metrics of one traced run (``cli.discarded_points`` aside)."""
    calls = Counter(target for target, *_ in spans)

    def count(pred) -> int:
        return sum(n for t, n in calls.items() if pred(t))

    def named(*names: str) -> int:
        return count(lambda t: t.name in names)

    attempts = named("trigwdvv.prepotential.is_admissible")
    times = self_times(spans, lambda t: t.layer)
    out = {f"{layer}.self_s": times[layer] for layer in LAYERS}
    out.update({
        "wdvv.calls": count(lambda t: t.layer == "wdvv" and not t.is_class),
        "linalg.calls": count(lambda t: t.layer == "linalg"),
        "configurations.builds": named("trigwdvv.configurations.Configuration"),
        "configurations.members_built": members_built,
        "algebra.contexts": count(lambda t: t.layer == "algebra" and t.is_class),
        "sampling.attempts": attempts,
        "sampling.accept_ratio": accepted / attempts if attempts else 0.0,
        "prepotential.tensor_calls": count(
            lambda t: t.layer == "prepotential" and t.name.rpartition(".")[2].startswith("tensor_")
        ),
        "susy.fermion_ops": named("trigwdvv.susy.anticommutator", "trigwdvv.susy.phi_matrix"),
        "susy.gauge_evals": named("trigwdvv.susy.gauge_residual"),
    })
    return out
