"""Fuzz the CLI with hypothesis-generated module files.

Documents mix valid and hostile parts: wrong JSON types, huge integers,
deep nesting of the JSON and of the expressions, and odd expression
strings, at ranks up to 3.  Whatever the input, ``cli.main`` must
return 0, 1 or 2, print an ``error: ...`` line when it returns 1, and
raise nothing (an exception escaping ``main`` is a traceback for the
user).  Valid expressions are kept small so that each example runs well
under a second.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from katzcyclic.cli import main

COMMANDS = [
    ["cyclic"],
    ["companion"],
    ["certify", "--criterion", "prop2.3"],
    ["certify", "--criterion", "prop2.5"],
    ["certify", "--criterion", "prop2.8"],
    ["certify", "--criterion", "lemma2.1", "--norm", "rho-t"],
]

HUGE_INTS = [10 ** 30 + 57, 2 ** 64 + 13, -(10 ** 20), 10 ** 400]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.sampled_from(HUGE_INTS),
    st.floats(allow_nan=False), st.text(max_size=5),
)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)

valid_rings = st.one_of(
    st.just({"kind": "rational_function", "variable": "x"}),
    st.builds(
        lambda p, r: {"kind": "gauss_padic", "variable": "x", "p": p, "radius_exp": r},
        st.sampled_from([2, 3, 5]), st.integers(0, 2),
    ),
    st.builds(
        lambda p, e: {"kind": "finite_field_poly", "variable": "x", "p": p, "q_exp": e},
        st.sampled_from([2, 3, 5, 7]), st.integers(1, 2),
    ),
)
hostile_rings = st.one_of(
    st.builds(
        lambda p, r: {"kind": "gauss_padic", "p": p, "radius_exp": r},
        st.sampled_from([4, 1, 0, -3, 10 ** 30 + 57]),
        st.integers(-3, 3) | st.sampled_from(HUGE_INTS),
    ),
    st.builds(
        lambda p, e: {"kind": "finite_field_poly", "p": p, "q_exp": e},
        st.sampled_from([2, 6, 2 ** 64 - 59]),
        st.integers(-1, 3) | st.sampled_from([65, 10 ** 6]),
    ),
    junk,
)

# Well-formed expressions, small so that a rank-3 module stays cheap:
# at most four leaves and exponents up to 3.
expressions = st.recursive(
    st.sampled_from(["x", "0", "1", "2", "3", "1/2"]),
    lambda e: st.one_of(
        st.builds("({})+({})".format, e, e),
        st.builds("({})*({})".format, e, e),
        st.builds("({})/({})".format, e, st.sampled_from(["2", "3", "x", "x+1"]) | e),
        st.builds("-({})".format, e),
        st.builds("({})^{}".format, e, st.integers(0, 3)),
    ),
    max_leaves=4,
)
# Token soup, mostly malformed; exponents are single digits.
tokens = st.sampled_from(
    ["x", "t", "0", "1", "2", "10", "+", "-", "*", "/", "^", "^2", "(", ")", " ",
     "(x+1)", "1/(x-x)", ".", "\u00e9", "\x00", "**"]
)
soup = st.lists(tokens, max_size=12).map("".join)
hostile = st.sampled_from([
    "(" * 5000 + "x" + ")" * 5000,
    "-" * 5000 + "x",
    "9" * 5000,
    "*".join(["10^256"] * 17),
    "(x^256)^256",
    "((2^256)^256)^256",
    "x^257",
    "x^99999999999999999999",
    "",
])


def square(n, entry):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


FLAWS = [None, None, None, "entry", "ring", "n", "G1", "drop", "document", "deep"]


@st.composite
def documents(draw):
    """A module file's text: a valid module with at most one flaw."""
    n = draw(st.integers(1, 3))
    doc = {"ring": draw(valid_rings), "n": n, "G1": draw(square(n, expressions))}
    flaw = draw(st.sampled_from(FLAWS))
    if flaw == "entry":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        doc["G1"][i][j] = draw(st.one_of(soup, hostile, junk))
    elif flaw == "ring":
        doc["ring"] = draw(hostile_rings)
    elif flaw == "n":
        doc["n"] = draw(st.one_of(st.integers(-2, 9), st.sampled_from(HUGE_INTS), junk))
    elif flaw == "G1":
        doc["G1"] = draw(st.one_of(square(n + 1, expressions), junk))
    elif flaw == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif flaw == "document":
        doc = draw(junk)
    elif flaw == "deep":
        # too deep for json.dumps itself, so spliced into the text
        depth = draw(st.integers(1, 100000))
        return json.dumps({**doc, "G1": None}).replace("null", "[" * depth + "]" * depth)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def module_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "module.json"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(text=documents(), command=st.sampled_from(COMMANDS))
def test_cli_never_raises(module_path, text, command):
    module_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command + ["-i", str(module_path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert err.startswith("error: ") and out == ""
    else:
        assert err == "" and json.loads(out)["command"] == command[0]
