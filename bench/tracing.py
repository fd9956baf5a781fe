"""Per-layer tracing by wrapping the program's public functions.

Each wrapped function records a span; spans are reduced on the fly to a
call count and a self time per function (the span's duration minus the
time covered by its direct child spans), because a traced run makes
millions of spans.  Nothing under src/ is edited: wrappers are installed
at every name the callers look up at run time, which is

* the module attribute, for calls like ``polys.gcd(...)``;
* every other module's binding of the same function object, for names
  imported with ``from .diffmod import iterated_matrices``;
* the class attribute, for ring and NormValue methods;
* the instance attribute of ``fields.QQ``, whose methods are reached
  through the ``K`` argument of the polynomial helpers.

``cli`` is wrapped at ``main`` only, so ``cli.main`` self time is the
command line's own fixed cost: argument parsing, file reading and JSON
encoding.
"""

from __future__ import annotations

import functools
import inspect
import sys
from fractions import Fraction
from time import perf_counter

PACKAGE = "katzcyclic"
FUNCTION_MODULES = (
    "fields", "polys", "rings", "linalg", "xpoly", "diffmod", "katz",
    "ultranorm", "normvalue", "parser",
)
# QQ methods that return a Fraction; their results feed max_coeff_bits.
QQ_VALUE_OPS = ("add", "sub", "mul", "neg", "inv", "div", "from_int", "from_fraction")
NORMVALUE_STATIC = ("one", "zero", "of_int", "of_fraction")
NORMVALUE_METHODS = ("__mul__", "__truediv__", "__pow__", "__lt__", "__str__", "inverse")
# linalg.det recurses through its own module global; only the outermost
# call opens a span, so its self time is the whole expansion's overhead.
OUTERMOST_ONLY = ("linalg.det",)


class Tracer:
    def __init__(self):
        self.on = False
        self.stats = {}  # "<module>.<function>" -> [calls, self seconds]
        self.max_coeff_bits = 0
        self.candidates_tried = 0
        self._stack = []  # child time accumulated by each open span

    def span(self, key, fn, after=None, outermost=False):
        st = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        tracer = self
        depth = [0]

        def wrapper(*args, **kwargs):
            if not tracer.on or depth[0]:
                return fn(*args, **kwargs)
            if outermost:
                depth[0] += 1
            st[0] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if outermost:
                    depth[0] -= 1
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _note_bits(self, value):
        if type(value) is Fraction:
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _note_candidates(self, result):
        self.candidates_tried += result.candidate_index + 1

    def install(self):
        """Wrap the imported program in place; call once per process."""
        mods = {
            name: sys.modules[f"{PACKAGE}.{name}"]
            for name in FUNCTION_MODULES + ("cli",)
        }
        wrapped = {}
        for short in FUNCTION_MODULES:
            mod = mods[short]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                key = f"{short}.{name}"
                after = self._note_candidates if key == "katz.find_cyclic" else None
                wrapped[obj] = self.span(key, obj, after, key in OUTERMOST_ONLY)
        cli_main = mods["cli"].main
        wrapped[cli_main] = self.span("cli.main", cli_main)
        # Rebind every module-level name bound to a wrapped function.
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

        qq = mods["fields"].QQ
        for name in dir(type(qq)):
            if name.startswith("_") or not callable(getattr(qq, name)):
                continue
            after = self._note_bits if name in QQ_VALUE_OPS else None
            setattr(qq, name, self.span(f"fields.QQ.{name}", getattr(qq, name), after))

        rings = mods["rings"]
        for cls, short in (
            (rings.RationalFunctionField, "qx"),
            (rings.GaussPolynomialRing, "gauss"),
        ):
            for name in dir(cls):
                attr = getattr(cls, name)
                if name.startswith("_") or not inspect.isfunction(attr):
                    continue
                setattr(cls, name, self.span(f"rings.{short}.{name}", attr))

        nv = mods["normvalue"].NormValue
        for name in NORMVALUE_STATIC:
            fn = getattr(nv, name)
            setattr(nv, name, staticmethod(self.span(f"normvalue.NormValue.{name}", fn)))
        for name in NORMVALUE_METHODS:
            fn = getattr(nv, name)
            setattr(nv, name, self.span(f"normvalue.NormValue.{name}", fn))

    # -- reduction to the named per-layer metrics ---------------------------
    def calls(self, key):
        return self.stats.get(key, [0, 0.0])[0]

    def self_s(self, key):
        return self.stats.get(key, [0, 0.0])[1]

    def prefix(self, prefix):
        rows = [st for key, st in self.stats.items() if key.startswith(prefix)]
        return sum(r[0] for r in rows), sum(r[1] for r in rows)

    def layer_metrics(self):
        """The per-layer metrics, as name -> (value, unit)."""
        out = {}

        def calls(name, key=None):
            out[f"{name}.calls"] = (self.calls(key or name), "count")

        def self_s(name, key=None):
            out[f"{name}.self_s"] = (self.self_s(key or name), "s")

        qq_calls, qq_self = self.prefix("fields.QQ.")
        out["fields.QQ.calls"] = (qq_calls, "count")
        out["fields.QQ.self_s"] = (qq_self, "s")
        out["fields.QQ.max_coeff_bits"] = (self.max_coeff_bits, "bit")
        for name in ("polys.gcd", "polys.divmod_", "polys.mul"):
            calls(name)
            self_s(name)
        qx_ops, qx_self = self.prefix("rings.qx.")
        out["rings.qx.ops"] = (qx_ops, "count")
        out["rings.qx.inv.calls"] = (self.calls("rings.qx.inv"), "count")
        out["rings.qx.self_s"] = (qx_self, "s")
        for name in ("linalg.solve_left", "linalg.det", "xpoly.mul", "linalg.mat_mul"):
            calls(name)
            self_s(name)
        xp_ops, xp_self = self.prefix("xpoly.")
        out["xpoly.ops"] = (xp_ops, "count")
        out["xpoly.self_s"] = (xp_self, "s")
        for name in ("diffmod.iterated_matrices", "katz.assemble_h", "katz.h_matrix_at"):
            self_s(name)
        calls("katz.h_matrix")
        for name in ("diffmod.apply_nabla", "diffmod.is_basis"):
            calls(name)
            self_s(name)
        for name in ("katz.katz_vector", "katz.find_cyclic", "katz.companion_form"):
            self_s(name)
        searches = self.calls("katz.find_cyclic")
        out["katz.find_cyclic.useful_ratio"] = (
            searches / self.candidates_tried if self.candidates_tried else 0.0,
            "ratio",
        )
        calls("ultranorm.matrix_norm")
        self_s("ultranorm.matrix_norm")
        self_s("ultranorm.certify_lemma_2_1")
        out["ultranorm.check_prop.self_s"] = (
            sum(self.self_s(f"ultranorm.check_prop_2_{k}") for k in (3, 5, 8)),
            "s",
        )
        g_ops, g_self = self.prefix("rings.gauss.")
        out["rings.gauss.ops"] = (g_ops, "count")
        out["rings.gauss.norm.calls"] = (self.calls("rings.gauss.norm"), "count")
        out["rings.gauss.self_s"] = (g_self, "s")
        nv_ops, nv_self = self.prefix("normvalue.")
        out["normvalue.ops"] = (nv_ops, "count")
        out["normvalue.self_s"] = (nv_self, "s")
        calls("parser.parse_element")
        self_s("parser.parse_element")
        self_s("cli.main")
        return out
