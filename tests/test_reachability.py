"""Every public function of the library is one that a command reaches.

Each command route runs once through ``cli.main`` under a ``sys.setprofile`` hook: every verify
command as a family and, where it takes one, as an explicit document, plus ``tensor`` and
``build-config``.  A module-level public function of ``trigwdvv`` that no route calls fails the
test, unless ``EXEMPT`` names it with its reason; an exempt name that a route does call, or that
names no public function, fails it too, so the list cannot go stale.  A helper that only the
tests need lives in ``tests/oracles.py``.
"""

import importlib
import inspect
import pkgutil
import sys

import trigwdvv
from trigwdvv import algebra, cli

EXEMPT = {
    "algebra.multiply": "the reference that associativity_residual is tested against",
    "algebra.restricted_multiply": "the reference that structure_constants is tested against",
    "configurations.restrict_configuration": "the benchmark's workloads.build calls it (ROADMAP items 0 and 9)",
    "configurations.solve_r": "the multiplicity relation solved for r, which ROADMAP items 15 and 25 read",
}

FAMILY = ["--family", "bcn", "--n", "3", "--r", "-20", "--s", "1", "--q", "2", "--m", "1,2,2", "--samples", "2"]


def _public_functions() -> dict:
    """{"module.name": function} of every module-level public function of the package, as the
    module holds it (a cached one in its cache wrapper)."""
    found = {}
    for info in pkgutil.iter_modules(trigwdvv.__path__):
        if info.name.startswith("_"):
            continue  # __main__ would run main
        module = importlib.import_module(f"trigwdvv.{info.name}")
        for name, obj in vars(module).items():
            fn = inspect.unwrap(obj) if callable(obj) else None
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


def _routes(tmp_path) -> list[list[str]]:
    document = str(tmp_path / "m122.json")
    explicit = ["--config", document, "--samples", "2"]
    return [
        ["build-config", *FAMILY, f"> {document}"],
        ["verify-wdvv", *FAMILY],
        ["verify-wdvv", *explicit],
        ["verify-associativity", *FAMILY],
        ["verify-associativity", *explicit, "--json"],
        ["verify-metric", *FAMILY],
        ["verify-restriction", *FAMILY],
        ["verify-susy", *FAMILY],
        ["tensor", *FAMILY, "--point", "0.5,0.9,1.3"],
        ["tensor", *explicit, "--point", "0.5,0.9,1.3"],
    ]


def _called(routes, capsys) -> set[str]:
    """The public functions called by ``cli.main`` on each route, in order; a route that ends in
    "> FILE" writes its standard output to FILE.  Every route must exit 0."""
    functions = {}
    for name, obj in _public_functions().items():
        getattr(obj, "cache_clear", lambda: None)()  # a cached function runs its body
        functions[inspect.unwrap(obj).__code__] = name
    called = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in functions:
            called.add(functions[frame.f_code])

    for argv in routes:
        out = argv[-1][2:] if argv[-1].startswith("> ") else None
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            code = cli.main(argv[:-1] if out else argv)
        finally:
            sys.setprofile(previous)
        printed = capsys.readouterr()
        assert code == 0, (argv, printed.err)
        if out:
            with open(out, "w") as fh:
                fh.write(printed.out)
    return called


def _verdict(called: set[str]) -> tuple[list[str], list[str]]:
    """(public functions no route calls and EXEMPT does not name, EXEMPT names that a route calls
    or that name no public function)."""
    uncalled = _public_functions().keys() - called
    return sorted(uncalled - EXEMPT.keys()), sorted(EXEMPT.keys() - uncalled)


def test_every_public_function_is_reached_by_a_command(tmp_path, capsys):
    unreached, stale = _verdict(_called(_routes(tmp_path), capsys))
    assert not unreached, f"no command calls {unreached}: move each to tests/oracles.py, or give it a caller"
    assert not stale, f"EXEMPT names {stale}, which a command calls or the package no longer defines: drop each"


def test_a_stale_exemption_fails_the_check(capsys, monkeypatch):
    # negative controls: once the associativity driver also forms u * v by multiply, at one point
    # of each block, multiply is reached, and an exemption of a name the package does not define is
    # stale as well
    real = algebra.associativity_residual

    def through_multiply(active, u, v, w, raise_index):
        A, c, z = active
        algebra.multiply((A, c, z[0]), u[0], v[0])
        return real(active, u, v, w, raise_index)

    monkeypatch.setattr(algebra, "associativity_residual", through_multiply)
    monkeypatch.setitem(EXEMPT, "algebra.gone", "a function since removed")
    stale = _verdict(_called([["verify-associativity", *FAMILY]], capsys))[1]
    assert stale == ["algebra.gone", "algebra.multiply"]
