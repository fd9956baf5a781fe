"""Byte-for-byte golden output of the command line for all three ring kinds.

Each case runs a fixed list of CLI invocations on the committed corpora
and hashes their concatenated stdout.  The digests were recorded before
the polynomial layers were merged, so any change to a printed element,
norm, certificate or report shows up here.  ``cyclic`` runs on the first
ten rank-3 Q(x) modules, and P(X) = det H(X) from ``base_change`` on
Q(x) modules of rank 2 to 4, were recorded before the Q[x] gcd was
replaced by the integer primitive remainder sequence.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from katzcyclic.cli import main
from katzcyclic.diffmod import module_from_json
from katzcyclic.katz import base_change

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GAUSS_CORPORA = ("gauss_corpus_p2.json", "gauss_corpus_p3.json", "gauss_corpus_p5.json")


def _module_files(names, workdir, rank=None, limit=None):
    paths = []
    for name in names:
        docs = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        for k, doc in enumerate(docs):
            if rank is not None and doc["n"] != rank:
                continue
            if limit is not None and len(paths) == limit:
                break
            path = workdir / f"{pathlib.Path(name).stem}-{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
    return paths


def _invocations(case, workdir):
    if case == "cyclic-qx-rank2":
        for path in _module_files(("qx_corpus.json",), workdir, rank=2):
            yield ["cyclic", "-i", path]
    elif case == "cyclic-qx-rank3":
        for path in _module_files(("qx_corpus.json",), workdir, rank=3, limit=10):
            yield ["cyclic", "-i", path]
    elif case == "certify-gauss":
        for path in _module_files(GAUSS_CORPORA, workdir):
            for criterion in ("prop2.3", "prop2.5", "prop2.8", "lemma2.1"):
                yield ["certify", "-i", path, "--criterion", criterion]
    elif case == "lemma-gauss-rho":
        for path in _module_files(GAUSS_CORPORA, workdir):
            for norm in ("rho-t", "rho-d"):
                yield ["certify", "-i", path, "--criterion", "lemma2.1", "--norm", norm]
    elif case == "counterexample":
        for args in (["-p", "2", "-n", "3"], ["-p", "2", "-e", "2", "-n", "5"],
                     ["-p", "3", "-n", "4"]):
            yield ["counterexample"] + args
    elif case == "tables":
        for fmt in ("json", "latex"):
            yield ["tables", "-n", "4", "--format", fmt]
    else:
        raise ValueError(case)


def golden_digest(case, workdir):
    """sha256 of the concatenated stdout of every invocation of ``case``;
    every invocation must end without error (exit 0, or 2 = not certified)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in _invocations(case, workdir):
            assert main(argv) in (0, 2), argv
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


DIGESTS = {
    "cyclic-qx-rank2": "d7bd9f3ea983e264e6b34e9a0808fc44a8e00f9fb456854cafefa82427a982bb",
    "cyclic-qx-rank3": "72b2bedeafab48930117e716dbb98ae0302d8452778d606444adc8e1ae828df4",
    "certify-gauss": "a1d26b5b5f0a68f81f5fd519abe501757c2ab8fe64d905a5193f763b25b3a0cf",
    "lemma-gauss-rho": "24f4e224de0d2d9a3c8c84340e138a1505956cac069a3fe96932231724bc65a8",
    "counterexample": "1280f00ef10efb543ad50f02b28ef7dddd0776a4a3c271bd3fab219ac0cd7c51",
    "tables": "47fc0bc3097c38a1664d77f975e2832be739054a81697a68cdb74e7f902443aa",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_golden_cli_output(case, tmp_path):
    assert golden_digest(case, tmp_path) == DIGESTS[case]


# How many Q(x) corpus modules of each rank, in file order, enter the
# P(X) digest.
BASE_CHANGE_COUNTS = {2: 20, 3: 10, 4: 3}


def base_change_digest():
    """sha256 of the printed coefficients r_0 .. r_{n(n-1)} of P(X), one
    JSON list per module, for the modules chosen by BASE_CHANGE_COUNTS."""
    docs = json.loads((FIXTURES / "qx_corpus.json").read_text(encoding="utf-8"))
    lines = []
    for rank, count in sorted(BASE_CHANGE_COUNTS.items()):
        for doc in [d for d in docs if d["n"] == rank][:count]:
            m = module_from_json(doc)
            coeffs = base_change(m).coefficients
            lines.append(json.dumps([m.ring.to_str(c) for c in coeffs]))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


BASE_CHANGE_DIGEST = "cbb20bd6d4289941bd36dd721ad35a8440e324febfc2c4cc547035bf81c600a0"


def test_golden_base_change_det():
    assert base_change_digest() == BASE_CHANGE_DIGEST
