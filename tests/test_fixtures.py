"""The committed corpora are exactly what tools/make_fixtures.py generates."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GENERATOR = ROOT / "tools" / "make_fixtures.py"


@pytest.fixture(scope="module")
def make_fixtures():
    if not GENERATOR.is_file():
        pytest.skip("needs the project checkout with tools/make_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_fixtures", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rendered(corpus):
    return (json.dumps(corpus, indent=1) + "\n").encode("utf-8")


def test_qx_corpus_matches_generator(make_fixtures):
    committed = (FIXTURES / "qx_corpus.json").read_bytes()
    assert _rendered(make_fixtures.qx_corpus()) == committed


@pytest.mark.parametrize("p", [2, 3, 5])
def test_gauss_corpus_matches_generator(make_fixtures, p):
    committed = (FIXTURES / f"gauss_corpus_p{p}.json").read_bytes()
    assert _rendered(make_fixtures.gauss_corpus(p)) == committed
