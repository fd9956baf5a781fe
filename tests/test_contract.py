"""The package's exactness and dependency contract, read from its source.

The runtime stays dependency-free: every absolute import in
``src/katzcyclic`` is a standard-library module.  Arithmetic stays exact:
no float literal and no call to the builtin ``float`` appears, and of
``math`` only the integer functions below are used.  The integer core
of Q(x) and Q[t] in ``rings`` stays on plain ints: Fraction is named
there only where a value enters or leaves the ring.  ``linalg`` takes
one path for every ring: it never probes a ring with ``getattr``.
Equality is the canonical form: the ring classes leave ``eq`` and
``is_zero`` to ``Ring``'s defaults.
"""

import ast
import functools
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "katzcyclic"
MATH_ALLOWED = {"gcd", "lcm", "comb", "factorial"}


@functools.cache
def trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources under {SRC}"
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def nodes(kind):
    """(file name, line, node) for every node of the given kind."""
    return [(name, node.lineno, node)
            for name, tree in trees() for node in ast.walk(tree) if isinstance(node, kind)]


def test_absolute_imports_are_standard_library():
    found = []
    for name, line, node in nodes((ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                continue  # within the package
            modules = [node.module]
        else:
            modules = [alias.name for alias in node.names]
        for module in modules:
            top = module.split(".")[0]
            if top != "__future__" and top not in sys.stdlib_module_names:
                found.append(f"{name}:{line} imports {module}")
    assert found == []


def test_no_floats():
    found = [f"{name}:{line} {node.value!r}" for name, line, node in nodes(ast.Constant)
             if isinstance(node.value, (float, complex))]
    found += [f"{name}:{line} float(...)" for name, line, node in nodes(ast.Call)
              if isinstance(node.func, ast.Name) and node.func.id == "float"]
    assert found == []


def test_math_is_used_only_for_integer_functions():
    found = [f"{name}:{line} math.{node.attr}" for name, line, node in nodes(ast.Attribute)
             if isinstance(node.value, ast.Name) and node.value.id == "math"
             and node.attr not in MATH_ALLOWED]
    found += [f"{name}:{line} from math import {alias.name}"
              for name, line, node in nodes(ast.ImportFrom)
              if node.module == "math" and not node.level
              for alias in node.names if alias.name not in MATH_ALLOWED]
    assert found == []


# Where rings.py may name Fraction: RatFunc's constructor from Fraction
# coefficients and its num/den for printing, and from_fraction.
FRACTION_ALLOWED = {("RatFunc", "__init__"), ("RatFunc", "num"), ("RatFunc", "den")}


def test_rings_names_fraction_only_where_values_enter_or_leave():
    tree = dict(trees())["rings.py"]
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if isinstance(node, ast.Import):
            found.extend(f"{node.lineno}: import {a.name}" for a in node.names
                         if a.name.split(".")[0] == "fractions")
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            if scope or [(a.name, a.asname) for a in node.names] != [("Fraction", None)]:
                found.append(f"{node.lineno}: from fractions import ...")
        elif (isinstance(node, ast.Name) and node.id == "Fraction"
              or isinstance(node, ast.Attribute) and node.attr == "Fraction"):
            if scope[-1:] != ("from_fraction",) and scope[-2:] not in FRACTION_ALLOWED:
                found.append(f"{node.lineno}: Fraction in {'.'.join(scope) or 'module'}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    assert found == []


def test_no_module_probes_the_ring():
    """A ``getattr`` probe anywhere in the package would let a ring swap
    in its own routine, as a packed ``mat_mul`` and a Q[t]-only Lemma
    2.1 once did, unseen by its callers; a ring's own iterates override
    the protocol's ``Ring.iterated_matrices`` instead, and the integer
    routines of ``rings`` are functions of the ring."""
    names = sorted(path.name for path in SRC.glob("*.py"))
    assert "linalg.py" in names and "ultranorm.py" in names
    for name in names:
        assert "getattr(" not in (SRC / name).read_text(encoding="utf-8"), name


def test_equality_is_left_to_the_ring_protocol():
    """Elements are canonical, so ``Ring.eq`` (``==``) and ``Ring.is_zero``
    (``== zero``) serve every ring.  ``XPolyRing`` is no ``Ring``, and the
    integer core keeps ``is_zero`` as ``not a.p`` for ``linalg``'s minors."""
    from katzcyclic import fields, rings, xpoly

    classes = [c for module in (fields, rings, xpoly) for c in vars(module).values()
               if isinstance(c, type) and c.__module__ == module.__name__]
    assert rings.ScaledDerivationRing in classes and fields.FiniteField in classes
    assert sorted(c.__name__ for c in classes if "eq" in vars(c)) == ["Ring", "XPolyRing"]
    assert [c.__name__ for c in classes if issubclass(c, rings.Ring) and c is not rings.Ring
            and "is_zero" in vars(c)] == ["_IntegerCoreRing"]
