"""Property tests for the numbers that enter from outside: documents, run specifications and argv.

Each generated input is valid but for one field, replaced by a value that is no
number the field can take: a string, a bool, null, a nested array, NaN, an
infinity (``json.load`` accepts both literals) or a 400-digit integer.  Each
must be refused with ConfigFormatError or PreconditionError, exit 2 through
``main`` without a traceback, and never reach a configuration as a coerced
string or bool.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigwdvv import cli
from trigwdvv.cli import RunSpec, main, parse_config_document
from trigwdvv.configurations import Configuration
from trigwdvv.errors import ConfigFormatError, PreconditionError

HUGE = 10**400

BAD = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(lambda v: [v]),
    st.sampled_from([math.nan, math.inf, -math.inf, HUGE, -HUGE]),
)
FEW = settings(max_examples=40, deadline=None, database=None)

REALS = st.floats(-5.0, 5.0, allow_nan=False)


@st.composite
def family_documents(draw):
    n = draw(st.integers(1, 4))
    doc = {"family": "bcn", "n": n, "r": draw(REALS), "s": draw(REALS), "q": draw(REALS),
           "m": draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))}
    field = draw(st.sampled_from(["n", "r", "s", "q", "m", "m entry"]))
    if field == "m entry":
        doc["m"][draw(st.integers(0, n - 1))] = draw(BAD)
    else:
        doc[field] = draw(BAD)
    return doc


@st.composite
def explicit_documents(draw):
    d = draw(st.integers(1, 3))
    count = draw(st.integers(1, 3))
    members = [{"vector": draw(st.lists(st.integers(1, 2), min_size=d, max_size=d)), "multiplicity": draw(REALS)}
               for _ in range(count)]
    doc = {"explicit": {"dimension": d, "members": members}}
    member = members[draw(st.integers(0, count - 1))]
    field = draw(st.sampled_from(["dimension", "members", "vector", "vector entry", "multiplicity"]))
    if field in ("dimension", "members"):
        doc["explicit"][field] = draw(BAD)
    elif field == "vector entry":
        member["vector"][draw(st.integers(0, d - 1))] = draw(BAD)
    else:
        member[field] = draw(BAD)
    return doc


@contextlib.contextmanager
def configurations_built():
    """The (vectors, multiplicities) of every Configuration made inside the block."""
    built, original = [], Configuration.__init__

    def recording(self, dimension, vectors, multiplicities):
        built.append((vectors, multiplicities))
        original(self, dimension, vectors, multiplicities)

    Configuration.__init__ = recording
    try:
        yield built
    finally:
        Configuration.__init__ = original


def _exit_code(argv) -> tuple[int, str]:
    """main's exit code and stderr; argparse's refusals exit 2 through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@FEW
@given(st.one_of(family_documents(), explicit_documents()))
def test_a_document_with_one_bad_number_is_refused(doc):
    with configurations_built() as built:
        with pytest.raises(ConfigFormatError):
            parse_config_document(doc)
    # a document reaches a configuration only through _real: Python floats, none coerced
    for vectors, mults in built:
        assert all(type(v) is float for row in vectors for v in row) and all(type(c) is float for c in mults)

    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, err = _exit_code(["verify-wdvv", "--config", path])
    assert code == 2 and err.startswith("error: ConfigFormatError: ") and "Traceback" not in err


RUN_FIELDS = ["samples", "seed", "tolerance", "threshold", "box", "box lo", "box hi"]
OPTION = {"samples": "--samples", "seed": "--seed", "tolerance": "--tol", "threshold": "--theta"}


def _as_argument(value) -> str:
    """The command-line spelling of a JSON value."""
    return value if isinstance(value, str) else json.dumps(value).replace("Infinity", "inf").replace("NaN", "nan")


@FEW
@given(st.sampled_from(RUN_FIELDS), BAD)
def test_a_run_spec_with_one_bad_number_is_refused(field, value):
    if field == "box":
        fields, option = {"box": value}, ["--box", _as_argument(value)]
    elif field.startswith("box"):
        box = [0.3, 1.5]
        box[field == "box hi"] = value
        fields, option = {"box": tuple(box)}, ["--box", ",".join(map(_as_argument, box))]
    else:
        fields, option = {field: value}, [OPTION[field], _as_argument(value)]
    with pytest.raises(PreconditionError):
        RunSpec(command="verify-wdvv", config_source={}, **fields)

    # the same value from argv, unless its spelling is a number the field takes, such as the text "1"
    try:
        RunSpec(command="verify-wdvv", config_source={}, **_parsed(field, option[1]))
    except ValueError:  # PreconditionError is one
        family = ["--family", "bcn", "--n", "3", "--r", "-2", "--s", "0", "--q", "1", "--m", "1,1,1"]
        code, err = _exit_code(["verify-wdvv", *family, f"{option[0]}={option[1]}"])
        assert code == 2 and "Traceback" not in err


def _parsed(field, text) -> dict:
    """The RunSpec field that argparse and cli would read from ``text``."""
    if field.startswith("box"):
        return {"box": cli._parse_floats(text)}
    return {field: int(text) if field in ("samples", "seed") else float(text)}
