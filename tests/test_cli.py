import contextlib
import importlib.metadata
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import katzcyclic
from katzcyclic import GaussPolynomialRing, RationalFunctionField
from katzcyclic.cli import MAX_RANK, _build_parsers, _emit, _parse_args, main
from katzcyclic.diffmod import module_from_json, module_to_json

from _helpers import embed_qx, row_sub


@pytest.fixture
def qx_module(tmp_path):
    path = tmp_path / "module.json"
    path.write_text(
        json.dumps(
            {
                "ring": {"kind": "rational_function", "variable": "x"},
                "n": 2,
                "G1": [["0", "0"], ["1", "0"]],
            }
        )
    )
    return str(path)


@pytest.fixture
def gauss_module(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(
        json.dumps(
            {
                "ring": {"kind": "gauss_padic", "variable": "t", "p": 3, "radius_exp": 0},
                "n": 2,
                "G1": [["0", "3"], ["3*t", "0"]],
            }
        )
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTables:
    def test_json_n2_golden(self, capsys):
        code, out, err = run(capsys, ["tables", "-n", "2"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["command"] == "tables" and doc["n"] == 2
        assert doc["H"] == [
            [["1", "X"], ["0", "1"]],
            [["-X", "0"], ["0", "X"]],
            [["0", "0"], ["-X", "0"]],
        ]

    def test_json_entries_reparse(self, capsys):
        # every printed entry is an expression the parser accepts, and the
        # round trip is the identity
        from katzcyclic.katz import h_entry
        from katzcyclic import xpoly

        code, out, _ = run(capsys, ["tables", "-n", "4"])
        assert code == 0
        doc = json.loads(out)
        # read entries back with a polynomial ring whose variable is X
        xq = GaussPolynomialRing(2, radius_exp=0, variable="X")
        for s, table in enumerate(doc["H"]):
            for i, row in enumerate(table):
                for j, text in enumerate(row):
                    got = xq.parse(text)
                    expected = embed_qx(xq, h_entry(s, i, j, 4))
                    # both are dense coefficient tuples over Q
                    assert xq.eq(got, xpoly.eval_at(xq, expected, xq.var_element))

    def test_latex_output(self, capsys):
        code, out, err = run(capsys, ["tables", "-n", "2", "--format", "latex"])
        assert code == 0
        assert out.startswith("H(X) =\n\\begin{pmatrix}")
        assert "G_{1}" in out and "G_{2}" in out
        assert "\\frac{X^{2}}{2!}" not in out  # n=2 has no degree-2 entries

    def test_latex_fraction_entries(self, capsys):
        code, out, _ = run(capsys, ["tables", "-n", "3", "--format", "latex"])
        assert code == 0
        assert "\\frac{X^{2}}{2!}" in out

    def test_rank_limit(self, capsys):
        code, out, err = run(capsys, ["tables", "-n", "9"])
        assert code == 1 and "maximum" in err

    def test_rank_zero_rejected(self, capsys):
        code, _, err = run(capsys, ["tables", "-n", "0"])
        assert code == 1 and "n must be" in err

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, ["tables", "-n", "3"])
        _, second, _ = run(capsys, ["tables", "-n", "3"])
        assert first == second


class TestCyclic:
    def test_known_module(self, capsys, qx_module):
        code, out, err = run(capsys, ["cyclic", "-i", qx_module])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["candidate_index"] == 0
        assert doc["a"] == "0"
        assert doc["cyclic_vector"] == ["1", "x"]
        assert doc["determinant"] == "-x^2 + 1"
        assert "companion_coefficients" in doc

    def test_custom_constants(self, capsys, qx_module):
        code, out, _ = run(capsys, ["cyclic", "-i", qx_module, "--constants", "5,6,7"])
        assert code == 0
        doc = json.loads(out)
        assert doc["a"] == "5"

    @pytest.mark.parametrize(
        "spec", ["0,a", "1/2", "0," + "1" * 5000], ids=["letter", "fraction", "5000-digits"]
    )
    @pytest.mark.parametrize("command", ["cyclic", "companion"])
    def test_malformed_constant_is_a_typed_error(self, capsys, qx_module, command, spec):
        code, out, err = run(capsys, [command, "-i", qx_module, "--constants", spec])
        assert (code, out) == (1, "")
        token = spec.split(",")[-1]
        assert err.startswith("error: constant ") and repr(token[:20]).rstrip("'") in err
        assert "at most 4300 digits" in err
        assert "int()" not in err and "set_int_max_str_digits" not in err

    def test_signed_constants(self, capsys, qx_module):
        code, out, _ = run(capsys, ["cyclic", "-i", qx_module, "--constants", " -2, +3 ,4,"])
        assert code == 0 and json.loads(out)["a"] == "-2"

    def test_too_few_constants(self, capsys, qx_module):
        code, _, err = run(capsys, ["cyclic", "-i", qx_module, "--constants", "0,1"])
        assert code == 1 and "distinct constants" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["cyclic", "-i", "/nonexistent/mod.json"])
        assert code == 1 and "error:" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["cyclic", "-i", str(path)])
        assert code == 1 and "error:" in err

    def test_missing_key(self, capsys, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"n": 2}))
        code, _, err = run(capsys, ["cyclic", "-i", str(path)])
        assert code == 1

    def test_result_verifies(self, capsys, qx_module):
        from katzcyclic import DifferentialModule, apply_nabla, is_basis, linalg

        code, out, _ = run(capsys, ["cyclic", "-i", qx_module])
        doc = json.loads(out)
        ring = RationalFunctionField()
        g1 = linalg.freeze([[ring.parse(e) for e in row] for row in doc["input"]["G1"]])
        m = DifferentialModule(ring=ring, n=2, g1=g1)
        v = tuple(ring.parse(c) for c in doc["cyclic_vector"])
        det, ok = is_basis(m, [v, apply_nabla(m, v, 1)])
        assert ok and ring.eq(det, ring.parse(doc["determinant"]))


QX_DOC = {"ring": {"kind": "rational_function", "variable": "x"}, "n": 2,
          "G1": [["0", "0"], ["1", "0"]]}
GAUSS_DOC = {"ring": {"kind": "gauss_padic", "variable": "t", "p": 3, "radius_exp": 0},
             "n": 2, "G1": [["0", "3"], ["3*t", "0"]]}


CYCLIC = ["cyclic"]
CERTIFY = ["certify", "--criterion", "prop2.3"]


# Each document would otherwise crash with a traceback or run on a
# misread value ("01" as two entries, 2.0 as a prime, true as rank 1),
# or on a ring key its kind does not read (a rescaled module's
# "scaled_by" was dropped, and the unscaled module answered).
@pytest.mark.parametrize(
    "command, doc",
    [
        (CYCLIC, {**QX_DOC, "n": "2"}),
        (CYCLIC, {**QX_DOC, "G1": [[0, 1], [1, 0]]}),
        (CYCLIC, []),
        (CYCLIC, {**QX_DOC, "ring": "qx"}),
        (CERTIFY, {**GAUSS_DOC, "ring": {**GAUSS_DOC["ring"], "p": "3"}}),
        (CYCLIC, {**QX_DOC, "G1": ["01", "x0"]}),
        (CERTIFY, {**GAUSS_DOC, "ring": {**GAUSS_DOC["ring"], "p": 2.0}}),
        (CYCLIC, {**QX_DOC, "n": True, "G1": [["x"]]}),
        (CYCLIC, {**QX_DOC, "ring": {**QX_DOC["ring"], "scaled_by": "x^2 + 1"}}),
        (CYCLIC, {**QX_DOC, "ring": {"kind": "rational_function", "p": 5}}),
        (CERTIFY, {**GAUSS_DOC, "ring": {**GAUSS_DOC["ring"], "q_exp": 1}}),
    ],
    ids=["n-str", "G1-ints", "top-level-list", "ring-str", "p-str", "G1-strings",
         "p-float", "n-bool", "scaled_by", "qx-p", "gauss-q_exp"],
)
def test_malformed_module_json_is_an_error(capsys, tmp_path, command, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command + ["-i", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


# A missing key used to print as the bare KeyError text, e.g. "error: 'ring'".
@pytest.mark.parametrize(
    "command, doc, key",
    [
        (CYCLIC, _without(QX_DOC, "ring"), "ring"),
        (CYCLIC, _without(QX_DOC, "n"), "n"),
        (CYCLIC, _without(QX_DOC, "G1"), "G1"),
        (CERTIFY, {**GAUSS_DOC, "ring": _without(GAUSS_DOC["ring"], "p")}, "p"),
        (CYCLIC, {**QX_DOC, "ring": {"kind": "finite_field_poly", "q_exp": 2}}, "p"),
    ],
    ids=["ring", "n", "G1", "gauss-p", "fq-p"],
)
def test_missing_key_is_named(capsys, tmp_path, command, doc, key):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command + ["-i", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"lacks key '{key}'" in err


# Inputs that would otherwise run without bound: a rank one past the
# cap, and a p whose primality would be tried by 10^15 trial divisions.
@pytest.mark.parametrize(
    "command", [CYCLIC, ["companion"], CERTIFY], ids=["cyclic", "companion", "certify"]
)
def test_rank_above_cap_is_an_error(capsys, tmp_path, command):
    n = MAX_RANK + 1
    ring = (GAUSS_DOC if command is CERTIFY else QX_DOC)["ring"]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"ring": ring, "n": n, "G1": [["0"] * n] * n}))
    code, out, err = run(capsys, command + ["-i", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"exceeds the maximum {MAX_RANK}" in err


# No entry is parsed before the rank and the shape of G1 pass: a 7 MB
# file of rank 2 with a 1000 x 1000 G1 took 20 s to be refused.
def test_shape_is_checked_before_any_entry(capsys, tmp_path):
    path = tmp_path / "wrong_shape.json"
    path.write_text(json.dumps({**QX_DOC, "n": 2, "G1": [["?"] * 3] * 3}))
    code, out, err = run(capsys, CYCLIC + ["-i", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must be 2x2" in err


def test_rank_is_checked_before_any_entry(capsys, tmp_path):
    n = MAX_RANK + 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**QX_DOC, "n": n, "G1": [["?"] * n] * n}))
    code, out, err = run(capsys, CYCLIC + ["-i", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and f"exceeds the maximum {MAX_RANK}" in err


def test_nested_power_is_an_error(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(json.dumps({**QX_DOC, "G1": [["(x^256)^256", "1"], ["0", "x"]]}))
    code, out, err = run(capsys, CYCLIC + ["-i", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "degree 65536 exceeds the maximum" in err


def test_nested_constant_power_is_an_error(capsys, tmp_path):
    path = tmp_path / "nested_constant.json"
    path.write_text(json.dumps({**QX_DOC, "G1": [["((2^256)^256)^256", "1"], ["0", "x"]]}))
    code, out, err = run(capsys, CYCLIC + ["-i", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "size 19968 exceeds the maximum" in err


def test_prime_beyond_primality_range_is_an_error(capsys, tmp_path):
    path = tmp_path / "huge_p.json"
    doc = {**GAUSS_DOC, "ring": {**GAUSS_DOC["ring"], "p": 10 ** 30 + 57}}
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, CERTIFY + ["-i", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "2^64" in err


FQ_DOC = {"ring": {"kind": "finite_field_poly", "variable": "x", "p": 5, "q_exp": 1},
          "n": 2, "G1": [["0", "1"], ["x", "0"]]}


# F_9[x]: coefficients print in the generator g of F_9 = F_3[g]
F9_DOC = {"ring": {"kind": "finite_field_poly", "p": 3, "q_exp": 2},
          "n": 2, "G1": [["0", "g"], ["0", "0"]]}


@pytest.mark.parametrize("doc", [FQ_DOC, F9_DOC], ids=["f5", "f9"])
def test_cyclic_over_fq_prints_its_input_through_the_descriptor(capsys, tmp_path, doc):
    """The report's "input" is the F_q[x] ring's descriptor and entries,
    and reads back as the module that was given."""
    code, out, err = run_doc(capsys, tmp_path, ["cyclic", "--constants", "0,1,2"], doc)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["determinant"] == "1"
    assert report["input"]["ring"] == {"variable": "x", "q_exp": 1, **doc["ring"]}
    given_module, read_back = module_from_json(doc), module_from_json(report["input"])
    assert read_back.ring.descriptor() == given_module.ring.descriptor()
    assert (read_back.n, read_back.g1) == (given_module.n, given_module.g1)
    assert module_to_json(read_back) == report["input"]


def run_doc(capsys, tmp_path, command, doc):
    """Run a subcommand on a module document; the document may be raw text."""
    path = tmp_path / "module.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return run(capsys, command + ["-i", str(path)])


def with_entry(doc, entry):
    return {**doc, "G1": [[entry, doc["G1"][0][1]], doc["G1"][1]]}


RANK3 = [["0", "1", "0"], ["0", "0", "1"], ["x", "0", "0"]]


@pytest.mark.parametrize("command", ["cyclic", "companion"])
def test_cyclic_path_takes_n_nabla_steps(capsys, tmp_path, monkeypatch, command):
    # find_cyclic tests c, nabla(c), nabla^2(c) for candidate 0 and hands
    # them to companion_form, which takes the one step to nabla^3(c).
    from katzcyclic import diffmod, katz

    steps = []
    real = diffmod.apply_nabla

    def counting(m, v, k=1):
        steps.append(k)
        return real(m, v, k)

    monkeypatch.setattr(diffmod, "apply_nabla", counting)
    monkeypatch.setattr(katz, "apply_nabla", counting)
    code, out, _ = run_doc(capsys, tmp_path, [command], {**QX_DOC, "n": 3, "G1": RANK3})
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == "0" and len(doc["companion_coefficients"]) == 3
    assert sum(steps) == 3


F2_DOC = {"ring": {"kind": "finite_field_poly", "variable": "x", "p": 2, "q_exp": 1},
          "n": 3, "G1": RANK3}


@pytest.mark.parametrize("command", [
    ["cyclic"], ["companion"], ["certify", "--criterion", "prop2.3"],
    ["cyclic", "--constants", "0,1,2,3,4,5,6"],
], ids=["cyclic", "companion", "certify", "constants"])
def test_small_characteristic_is_refused_by_the_katz_entry_points(capsys, tmp_path, command):
    # (3-1)! = 0 mod 2: the module reads, and each Katz entry point refuses it
    code, out, err = run_doc(capsys, tmp_path, command, F2_DOC)
    assert (code, out, err) == (1, "", "error: (3-1)! is not invertible in characteristic 2\n")


def test_failed_search_over_a_non_field_is_not_invertible(capsys, tmp_path):
    doc = {"ring": {"kind": "gauss_padic", "p": 3}, "n": 2, "G1": [["t", "1"], ["t^2", "0"]]}
    code, out, err = run_doc(capsys, tmp_path, ["cyclic", "--constants", "0,1,2"], doc)
    assert (code, out) == (1, "")
    assert err == "error: no candidate's determinant is a unit in the ring (gauss_padic)\n"


# 5,000 parentheses or signs used to end in a RecursionError traceback.
@pytest.mark.parametrize("entry", ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"],
                         ids=["parens", "signs"])
@pytest.mark.parametrize("command, doc", [(CYCLIC, QX_DOC), (CERTIFY, GAUSS_DOC),
                                          (["companion"], FQ_DOC)], ids=["qx", "gauss", "fq"])
def test_deep_nesting_is_an_error(capsys, tmp_path, command, doc, entry):
    var = doc["ring"]["variable"]
    code, out, err = run_doc(capsys, tmp_path, command, with_entry(doc, entry.replace("x", var)))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "exceeds the maximum depth" in err


def test_deep_nesting_prints_no_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(with_entry(QX_DOC, "(" * 5000 + "x" + ")" * 5000)))
    package_root = Path(katzcyclic.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "katzcyclic.cli", "cyclic", "-i", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


# These used to exit with the interpreter's own message, which names
# sys.set_int_max_str_digits, instead of a package error.
def test_oversized_literal_is_an_error(capsys, tmp_path):
    code, out, err = run_doc(capsys, tmp_path, CYCLIC, with_entry(QX_DOC, "1" + "0" * 5000))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "exceeds the maximum 4300 digits" in err
    assert "set_int_max_str_digits" not in err


def test_oversized_output_is_a_typed_error(capsys, tmp_path):
    product = "*".join(["10^256"] * 17)  # 4,353 digits, built by a product
    code, out, err = run_doc(capsys, tmp_path, CYCLIC, with_entry(QX_DOC, product))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "cannot be printed" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "text, message",
    [("[" * 100000 + "]" * 100000, "nests too deeply"),
     (json.dumps({**QX_DOC, "n": 0}).replace('"n": 0', '"n": 1' + "0" * 5000),
      "exceeds 4300 digits")],
    ids=["deep-json", "huge-json-int"],
)
def test_hostile_json_is_an_error(capsys, tmp_path, text, message):
    code, out, err = run_doc(capsys, tmp_path, CYCLIC, text)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


# "q_exp": 1000000 used to run on inside the search for an irreducible
# modulus of degree 10^6; q = 2^64 is the largest order accepted.
@pytest.mark.parametrize("q_exp", [65, 1000000])
def test_field_order_above_bound_is_an_error(capsys, tmp_path, q_exp):
    doc = {**FQ_DOC, "ring": {**FQ_DOC["ring"], "p": 2, "q_exp": q_exp}}
    code, out, err = run_doc(capsys, tmp_path, ["companion"], doc)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "exceeds the supported maximum 2^64" in err


# A variable the parser cannot read back used to print as output, e.g.
# the vector (1, x) as ["1", "1"] with "variable": "1".
@pytest.mark.parametrize("variable", ["", "1", "x y", "2*"])
@pytest.mark.parametrize("command, doc", [(CYCLIC, QX_DOC), (CERTIFY, GAUSS_DOC),
                                          (["companion"], FQ_DOC)], ids=["qx", "gauss", "fq"])
def test_variable_that_is_not_a_name_is_an_error(capsys, tmp_path, command, doc, variable):
    doc = {**doc, "ring": {**doc["ring"], "variable": variable}}
    code, out, err = run_doc(capsys, tmp_path, command, doc)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "must match [A-Za-z_][A-Za-z_0-9]*" in err


class TestCompanion:
    def test_scalar_equation(self, capsys, qx_module):
        code, out, _ = run(capsys, ["companion", "-i", qx_module])
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "companion"
        assert len(doc["companion_coefficients"]) == 2

    def test_coefficients_satisfy_equation(self, capsys, qx_module):
        from katzcyclic import DifferentialModule, apply_nabla, linalg

        _, out, _ = run(capsys, ["companion", "-i", qx_module])
        doc = json.loads(out)
        ring = RationalFunctionField()
        g1 = linalg.freeze([[ring.parse(e) for e in row] for row in doc["input"]["G1"]])
        m = DifferentialModule(ring=ring, n=2, g1=g1)
        c = tuple(ring.parse(s) for s in doc["cyclic_vector"])
        b = [ring.parse(s) for s in doc["companion_coefficients"]]
        family = [c]
        for _ in range(2):
            family.append(apply_nabla(m, family[-1], 1))
        resid = family[2]
        for k in range(2):
            resid = row_sub(ring, resid, linalg.row_scale(ring, b[k], family[k]))
        assert all(ring.is_zero(x) for x in resid)


class TestCertify:
    def test_certified_exit_zero(self, capsys, gauss_module):
        code, out, err = run(capsys, ["certify", "-i", gauss_module, "--criterion", "prop2.3"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["verdict"] == "certified"
        assert doc["norms"]["G1"] == "3^-1"
        assert doc["witness"] is not None

    def test_not_certified_exit_two(self, capsys, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(
            json.dumps(
                {
                    "ring": {"kind": "gauss_padic", "variable": "t", "p": 3, "radius_exp": 0},
                    "n": 2,
                    "G1": [["0", "1"], ["t", "0"]],
                }
            )
        )
        code, out, _ = run(capsys, ["certify", "-i", str(path), "--criterion", "prop2.3"])
        assert code == 2
        assert json.loads(out)["verdict"] == "not_certified"

    def test_zero_connection_prints_zero_norms(self, capsys, tmp_path):
        """A norm of 0 prints as "0", not as a power of p: |G1| = 0 under
        prop2.3, and every per-s norm under lemma2.1."""
        doc = {"ring": {"kind": "gauss_padic", "p": 3, "radius_exp": 1}, "n": 2,
               "G1": [["0", "0"], ["0", "0"]]}
        code, out, err = run_doc(capsys, tmp_path, ["certify", "--criterion", "prop2.3"], doc)
        assert (code, err) == (0, "")
        prop = json.loads(out)
        assert prop["norms"]["G1"] == "0" and prop["norms"]["bound"] == "3^-1"
        code, out, err = run_doc(capsys, tmp_path, ["certify", "--criterion", "lemma2.1"], doc)
        assert (code, err) == (0, "")
        lemma = json.loads(out)
        assert lemma["per_s_norms"] == ["0", "0"] and lemma["norms"]["G1"] == "0"
        for cert in (prop, lemma):
            assert cert["verdict"] == "certified" and cert["witness"] == ["1", "t"]

    def test_all_criteria_run(self, capsys, gauss_module):
        for criterion in ("prop2.3", "prop2.5", "prop2.8", "lemma2.1"):
            code, out, _ = run(capsys, ["certify", "-i", gauss_module, "--criterion", criterion])
            assert code == 0
            assert json.loads(out)["criterion"] == criterion

    def test_lemma_norm_kinds(self, capsys, gauss_module):
        for norm in ("sup", "rho-t", "rho-d"):
            code, out, _ = run(
                capsys,
                ["certify", "-i", gauss_module, "--criterion", "lemma2.1", "--norm", norm],
            )
            assert code == 0
            assert "per_s_norms" in json.loads(out)

    @pytest.mark.parametrize("criterion", ["prop2.3", "prop2.5", "prop2.8"])
    @pytest.mark.parametrize("norm", ["sup", "rho-t", "rho-d"])
    def test_norm_refused_for_prop_criteria(self, capsys, gauss_module, criterion, norm):
        argv = ["certify", "-i", gauss_module, "--criterion", criterion, "--norm", norm]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "--norm" in err

    def test_lemma_without_norm_is_sup(self, capsys, gauss_module):
        argv = ["certify", "-i", gauss_module, "--criterion", "lemma2.1"]
        assert run(capsys, argv) == run(capsys, argv + ["--norm", "sup"])

    @pytest.mark.parametrize("norm", [[], ["--norm", "sup"], ["--norm", "rho-t"],
                                      ["--norm", "rho-d"]], ids=["none", "sup", "rho-t", "rho-d"])
    @pytest.mark.parametrize("doc, message", [
        (QX_DOC, "certification needs a Banach ring"),
        (F2_DOC, "(3-1)! is not invertible in characteristic 2"),
    ], ids=["qx", "f2"])
    def test_refusal_does_not_depend_on_the_norm(self, capsys, tmp_path, norm, doc, message):
        # the norm is built only after the module passes the certificate's checks
        argv = ["certify", "--criterion", "lemma2.1"] + norm
        assert run_doc(capsys, tmp_path, argv, doc) == (1, "", f"error: {message}\n")

    def test_non_banach_ring_rejected(self, capsys, qx_module):
        code, _, err = run(capsys, ["certify", "-i", qx_module, "--criterion", "prop2.3"])
        assert code == 1 and "Banach" in err

    def test_deterministic(self, capsys, gauss_module):
        _, first, _ = run(capsys, ["certify", "-i", gauss_module, "--criterion", "lemma2.1"])
        _, second, _ = run(capsys, ["certify", "-i", gauss_module, "--criterion", "lemma2.1"])
        assert first == second


class TestCounterexample:
    def test_p2_n3(self, capsys):
        code, out, err = run(capsys, ["counterexample", "-p", "2", "-n", "3"])
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["q"] == 2
        assert doc["all_determinants_zero"] is True

    def test_prime_power(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "-p", "2", "-e", "2", "-n", "5"])
        assert code == 0
        assert json.loads(out)["q"] == 4

    def test_rank_too_small(self, capsys):
        code, _, err = run(capsys, ["counterexample", "-p", "3", "-n", "3"])
        assert code == 1 and "error:" in err

    def test_rank_cap(self, capsys):
        code, out, _ = run(capsys, ["counterexample", "-p", "7", "-n", str(MAX_RANK)])
        assert code == 0 and json.loads(out)["n"] == MAX_RANK
        code, out, err = run(capsys, ["counterexample", "-p", "2", "-n", str(MAX_RANK + 1)])
        assert (code, out) == (1, "")
        assert f"exceeds the maximum {MAX_RANK}" in err

    def test_field_order_above_bound(self, capsys):
        code, out, err = run(capsys, ["counterexample", "-p", "2", "-e", "65", "-n", "3"])
        assert (code, out) == (1, "")
        assert "exceeds the supported maximum 2^64" in err


PROJECT_ROOT = Path(__file__).resolve().parent.parent


class TestEntryPoint:
    @pytest.mark.skipif(
        not (PROJECT_ROOT / "pyproject.toml").is_file(),
        reason="needs the project checkout with pyproject.toml next to tests/",
    )
    def test_console_script_registered(self, tmp_path):
        # Build the distribution metadata of this checkout (not whatever
        # happens to be installed) with the declared build backend, then
        # check the console script it registers.
        pytest.importorskip("setuptools")
        proc = subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "egg_info", "--egg-base", str(tmp_path)],
            cwd=PROJECT_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        dist = importlib.metadata.PathDistribution(tmp_path / "katzcyclic.egg-info")
        eps = {ep.name: ep for ep in dist.entry_points.select(group="console_scripts")}
        assert "katzcyclic" in eps
        assert eps["katzcyclic"].value == "katzcyclic.cli:main"
        assert eps["katzcyclic"].load() is main


# Strings with the characters JSON escapes or keeps as they are
_JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028é✓😀'),
                               st.characters()), max_size=12)
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_TEXT, st.integers(), st.integers(2 ** 64, 2 ** 200),
              st.integers(-(2 ** 200), -(2 ** 64)), st.booleans(), st.none()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=12,
)


def emitted(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(doc)
    return out.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=4))
def test_emit_writes_what_json_dumps_writes(doc):
    assert emitted(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("value", [1.5, {1, 2}, b"bytes"], ids=["float", "set", "bytes"])
def test_emit_refuses_a_type_no_report_holds(value):
    with pytest.raises(TypeError):
        emitted({"value": value})


_ARGV_WORDS = st.sampled_from([
    "certify", "cyclic", "companion", "tables", "counterexample", "bogus", "", "-i", "--input",
    "m.json", "-im.json", "--input=m.json", "--criterion", "--crit", "prop2.3", "lemma2.1",
    "--norm", "rho-t", "nope", "--constants", "0,1", "-n", "3", "-2", "--format", "latex", "-p",
    "5", "-e", "-h", "--help", "--he", "--", "-x", "--x",
])


def parse_outcome(parse, argv):
    """The namespace ``parse`` returns for ``argv``, or its exit status,
    with what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.lists(_ARGV_WORDS, max_size=7))
def test_parse_args_is_the_top_parsers(argv):
    """A named subcommand is read by its own parser alone, with the same
    namespace, help and usage errors as through the top parser."""
    top = _build_parsers()[0]
    assert parse_outcome(_parse_args, argv) == parse_outcome(top.parse_args, argv)
    if argv[:1] == ["certify"]:
        argv = ["certify", "-i", "m.json", "--criterion", "prop2.3", *argv[1:]]
        assert parse_outcome(_parse_args, argv) == parse_outcome(top.parse_args, argv)


def test_parse_args_reads_sys_argv_by_default(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["katzcyclic", "tables", "-n", "2"])
    assert vars(_parse_args(None)) == vars(_build_parsers()[0].parse_args(["tables", "-n", "2"]))
