"""Command-line front end.

Subcommands:

    tables         -n N [--format json|latex]
    cyclic         -i module.json [--constants 0,1,2]
    companion      -i module.json [--constants 0,1,2]
    certify        -i module.json --criterion prop2.3|prop2.5|prop2.8|lemma2.1
                   [--norm sup|rho-t|rho-d]   (lemma2.1 only; default sup)
    counterexample -p P -e E -n N

Module files: {"ring": {...}, "n": 3, "G1": [["0","1"],["x","0"]]}.
Output is UTF-8 JSON (or LaTeX for tables --format latex), deterministic
for identical inputs, with every value printed exactly.  Exit status:
0 success/certified, 2 criterion not satisfied, 1 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from json.encoder import encode_basestring
from typing import List, Optional, Tuple

from . import katz, ultranorm
from .diffmod import charp_counterexample, module_from_json, module_to_json
from .errors import KatzCyclicError, PreconditionError
from .parser import MAX_LITERAL_DIGITS

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2
# Largest rank accepted by every command: the work grows steeply in the rank.
MAX_RANK = 8


def _latex_entry(s: int, i: int, j: int, n: int) -> str:
    a = katz.alpha(s, i, j, n)
    if a == 0:
        return "0"
    m = s + j - i
    if m == 0:
        return str(a)
    if a == 1:
        head = ""
    elif a == -1:
        head = "-"
    else:
        head = str(a)
    if m == 1:
        return f"{head}X"
    return f"{head}\\frac{{X^{{{m}}}}}{{{m}!}}"


def _tables_latex(n: int) -> str:
    blocks = []
    for s in range(2 * n - 1):
        rows = [
            " & ".join(_latex_entry(s, i, j, n) for j in range(n))
            for i in range(n)
        ]
        body = " \\\\\n".join(rows)
        mat = f"\\begin{{pmatrix}}\n{body}\n\\end{{pmatrix}}"
        blocks.append(mat if s == 0 else f"{mat} G_{{{s}}}")
    return "H(X) =\n" + "\n+\n".join(blocks) + "\n"


def _check_rank(n) -> None:
    if type(n) is int and n > MAX_RANK:
        raise PreconditionError(f"rank n = {n} exceeds the maximum {MAX_RANK}")


def cmd_tables(args) -> int:
    n = args.n
    if n < 1:
        raise PreconditionError("n must be >= 1")
    _check_rank(n)
    if args.format == "latex":
        sys.stdout.write(_tables_latex(n))
        return EXIT_OK
    tables = [
        [[katz.qx_to_str(f) for f in row] for row in katz.h_matrix(s, n)]
        for s in range(2 * n - 1)
    ]
    _emit({"command": "tables", "n": n, "H": tables})
    return EXIT_OK


def _json_int(text: str) -> int:
    if len(text) > MAX_LITERAL_DIGITS:
        raise PreconditionError(f"integer in module file exceeds {MAX_LITERAL_DIGITS} digits")
    return int(text)


def _load_module(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise PreconditionError("module file nests too deeply") from None
    # The rank is checked before module_from_json parses a single entry.
    _check_rank(doc.get("n") if isinstance(doc, dict) else None)
    return module_from_json(doc)


def _parse_constants(m, spec: Optional[str]):
    """The comma-separated integer literals of ``spec`` as ring elements."""
    if spec is None:
        return None
    tokens = [tok.strip() for tok in spec.split(",") if tok.strip()]
    for tok in tokens:
        if not re.fullmatch(r"[+-]?[0-9]{1,%d}" % MAX_LITERAL_DIGITS, tok):
            shown = tok[:20] + "..." * (len(tok) > 20)
            raise PreconditionError(
                f"constant {shown!r} is not an integer of at most {MAX_LITERAL_DIGITS} digits"
            )
    return [m.ring.from_int(int(tok)) for tok in tokens]


def cmd_cyclic(args) -> int:
    m = _load_module(args.input)
    result = katz.find_cyclic(m, _parse_constants(m, args.constants))
    ring = m.ring
    payload = {
        "command": "cyclic",
        "input": module_to_json(m),
        "candidate_index": result.candidate_index,
        "a": ring.to_str(result.a),
        "cyclic_vector": [ring.to_str(c) for c in result.vector],
        "determinant": ring.to_str(result.determinant),
    }
    if ring.is_field:
        b = katz.companion_form(m, result.family, result.minors)
        payload["companion_coefficients"] = [ring.to_str(c) for c in b]
    _emit(payload)
    return EXIT_OK


def cmd_companion(args) -> int:
    m = _load_module(args.input)
    result = katz.find_cyclic(m, _parse_constants(m, args.constants))
    b = katz.companion_form(m, result.family, result.minors)
    ring = m.ring
    _emit(
        {
            "command": "companion",
            "input": module_to_json(m),
            "a": ring.to_str(result.a),
            "cyclic_vector": [ring.to_str(c) for c in result.vector],
            "companion_coefficients": [ring.to_str(c) for c in b],
        }
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.norm is not None and args.criterion != "lemma2.1":
        raise PreconditionError(f"{args.criterion} fixes its own norm; --norm is for lemma2.1")
    m = _load_module(args.input)
    if args.criterion == "prop2.3":
        cert = ultranorm.check_prop_2_3(m)
    elif args.criterion == "prop2.5":
        cert = ultranorm.check_prop_2_5(m)
    elif args.criterion == "prop2.8":
        cert = ultranorm.check_prop_2_8(m)
    else:
        cert = ultranorm.certify_lemma_2_1(m, ultranorm.norm_kind(m, args.norm))
    doc = cert.to_json(m.ring)
    doc["command"] = "certify"
    doc["input"] = module_to_json(m)
    _emit(doc)
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def cmd_counterexample(args) -> int:
    _check_rank(args.n)
    report = charp_counterexample(args.p, args.e, args.n)
    doc = report.to_json()
    doc["command"] = "counterexample"
    _emit(doc)
    return EXIT_OK


_INDENT = " " * 2  # json.dumps's indent=2
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _emit(doc: dict) -> None:
    """Write ``doc`` as ``json.dumps(doc, indent=2, ensure_ascii=False)``
    writes it, and a newline.

    ``json.dumps`` takes its C encoder only without an indent, so with
    one it runs the pure-Python ``_make_iterencode``: a generator per
    container, its checks for types no report holds, and a chunk per
    token.  :func:`_write_json` writes the same bytes in one recursive
    pass over the types a report holds: str, int, bool, None, list,
    tuple and dict with str keys."""
    out = []
    _write_json(doc, "\n", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _write_json(value, pad: str, out: list) -> None:
    """Append the pieces of ``value``, anything but a str, as JSON to
    ``out``, its nested lines indented by ``_INDENT`` past ``pad``, the
    newline and indentation of its own line.  The strings in a container
    are written in place, with no call of their own, and escaped by
    ``json.encoder.encode_basestring``, as ``json.dumps`` escapes them
    with ``ensure_ascii=False``; a type no report holds is a TypeError."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + _INDENT
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + encode_basestring(key) + ": ")
            sep = "," + inner
            if type(item) is str:
                out.append(encode_basestring(item))
            else:
                _write_json(item, inner, out)
        out.append(pad + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = pad + _INDENT
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            if type(item) is str:
                out.append(encode_basestring(item))
            else:
                _write_json(item, inner, out)
        out.append(pad + "]")
    elif kind is int:
        out.append(str(value))
    elif kind is bool or value is None:
        out.append(_JSON_CONSTANTS[value])
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _build_parsers() -> Tuple[argparse.ArgumentParser, dict]:
    """The top parser, and each subcommand's parser by name."""
    top = argparse.ArgumentParser(
        prog="katzcyclic",
        description="Cyclic vectors for differential modules, with exact arithmetic",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("tables", help="emit the universal base-change matrices")
    p.add_argument("-n", type=int, required=True, help="module rank")
    p.add_argument("--format", choices=("json", "latex"), default="json")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("cyclic", help="find a cyclic vector for a module file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--constants", default=None, help="comma-separated integers")
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("companion", help="scalar equation in a cyclic basis")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--constants", default=None)
    p.set_defaults(func=cmd_companion)

    p = sub.add_parser("certify", help="norm-smallness cyclicity certificate")
    p.add_argument("-i", "--input", required=True)
    p.add_argument(
        "--criterion",
        required=True,
        choices=("prop2.3", "prop2.5", "prop2.8", "lemma2.1"),
    )
    p.add_argument("--norm", choices=("sup", "rho-t", "rho-d"), default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("counterexample", help="characteristic-p witness report")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-e", type=int, default=1)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=cmd_counterexample)

    return top, sub.choices


# Built on the first call and kept for the process: building the parsers
# costs more than many commands, and importing the module should not pay
# for it.  Parsing leaves a parser unchanged, so every call can share them.
_parsers = functools.cache(_build_parsers)


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    """What the top parser's ``parse_args`` returns for ``argv``.

    When ``argv`` starts with a subcommand's name, the top parser's one
    positional takes every later argument, options too, and hands them
    to that subcommand's parser; the top parser then only refuses what
    that parser leaves over.  So the subcommand's parser reads them
    here itself, which gives the same namespace and the same usage
    errors at well under half the cost.  Any other ``argv`` (empty, -h, an
    unknown subcommand) goes to the top parser."""
    top, subcommands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = subcommands.get(argv[0]) if argv else None
    if sub is None:
        return top.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        top.error(f"unrecognized arguments: {' '.join(extras)}")
    args.subcommand = argv[0]
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except (KatzCyclicError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
