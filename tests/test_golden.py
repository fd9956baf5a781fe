"""Byte-for-byte golden output of the command line for all three ring kinds.

Each case runs a fixed list of CLI invocations on the committed corpora
and hashes their concatenated stdout.  The digests were recorded before
the polynomial layers were merged, so any change to a printed element,
norm, certificate or report shows up here.  Rank-3 and rank-4 ``cyclic``
runs are left out for time (about 5 s per rank-3 module).
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from katzcyclic.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GAUSS_CORPORA = ("gauss_corpus_p2.json", "gauss_corpus_p3.json", "gauss_corpus_p5.json")


def _module_files(names, workdir, rank=None):
    paths = []
    for name in names:
        docs = json.loads((FIXTURES / name).read_text(encoding="utf-8"))
        for k, doc in enumerate(docs):
            if rank is not None and doc["n"] != rank:
                continue
            path = workdir / f"{pathlib.Path(name).stem}-{k}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
    return paths


def _invocations(case, workdir):
    if case == "cyclic-qx-rank2":
        for path in _module_files(("qx_corpus.json",), workdir, rank=2):
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
    "certify-gauss": "a1d26b5b5f0a68f81f5fd519abe501757c2ab8fe64d905a5193f763b25b3a0cf",
    "lemma-gauss-rho": "24f4e224de0d2d9a3c8c84340e138a1505956cac069a3fe96932231724bc65a8",
    "counterexample": "1280f00ef10efb543ad50f02b28ef7dddd0776a4a3c271bd3fab219ac0cd7c51",
    "tables": "47fc0bc3097c38a1664d77f975e2832be739054a81697a68cdb74e7f902443aa",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_golden_cli_output(case, tmp_path):
    assert golden_digest(case, tmp_path) == DIGESTS[case]
