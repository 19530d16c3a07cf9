"""Per-layer tracing from outside the package.

`Tracer` wraps functions of every singcurve module in CPU-clock spans (name,
start, end, parent) and counters, replacing each function wherever the
package holds a reference to it: in its own module, in every module that
imported it by name, in module-level tables such as the CLI's command map,
and on classes for methods.  `unpatched` then scans the package for any
reference still pointing at an original, so a missed patch is reported
instead of showing up as a silent zero.  `CoeffCounter` counts coefficient
operations at class level for a separate counting pass.  Nothing under
src/ changes; both restore every original on exit.
"""

import itertools
import sys
import time

from singcurve import cli, field, hn, invariants, milnor, newton, poly, tree

SPAN_CAP = 50000

# span name -> [(owner, attribute), ...]; owner is a module or a class
SPANS = {
    "field.uni_factor": [(field, "uni_factor")],
    "field.adjoin_splitting": [(field, "adjoin_splitting")],
    "field.embedding": [(field, "embedding")],
    "field.uni_rational_roots": [(field, "uni_rational_roots")],
    "poly.reduced_check": [(poly, "reduced_check")],
    "poly.gcd_bipoly": [(poly, "gcd_bipoly")],
    "poly.mul": [(poly.BiPoly, "__mul__")],
    "poly.parse_poly": [(poly, "parse_poly")],
    "newton.newton_polygon": [(newton, "newton_polygon")],
    "newton.face_factorization": [(newton, "face_factorization")],
    "hn.apply": [(hn.HNMap, "apply")],
    "tree.build": [(tree, "build_tree_multi")],
    "tree.minimalize": [(tree, "minimalize")],
    "invariants.ser_mul": [(invariants, "_ser_mul")],
    "invariants.ser_eval": [(invariants, "_ser_eval")],
    "invariants.solve_smooth": [(invariants, "_solve_smooth")],
    "invariants.parametrize": [(invariants, "_parametrize_arrow")],
    "invariants.intersect_param": [(invariants, "intersect_param")],
    "invariants.intersect_tree": [(invariants, "intersect_tree")],
    "milnor.local_intersection": [(milnor, "local_intersection")],
    "milnor.sub_mul_clip": [(milnor, "_sub_mul_clip")],
    "cli.run": [(cli, "run")],
    "cli.render": [(cli, name) for name in sorted(vars(cli))
                   if name.startswith("_cmd_") or name == "render_tree"],
}

# counted but not timed: recursion depth, rounds and per-prime outcomes
COUNTED = {
    "tree.chain": (tree._Builder, "chain"),
    "milnor.reduce_pair": (milnor, "_reduce_pair"),
    "milnor.check": (milnor, "check_conjecture"),
}

COEFF_OPS = ("add", "sub", "mul", "neg", "inv", "is_zero")
COEFF_CLASSES = (field.FieldCtx, field.RationalCtx, field.PrimeFieldCtx,
                 field.ExtFieldCtx)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "singcurve" or name.startswith("singcurve.")]


class _Patcher:
    """Replaces functions everywhere the package refers to them."""

    def __init__(self):
        self._undo = []
        self.originals = {}  # id(original) -> (label, original)
        self.missing = []  # targets the package no longer has
        self.classes = set()  # classes whose methods were replaced

    def replace(self, label, owner, attr, make):
        orig = owner.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{label} ({attr})")
            return
        new = make(orig)
        self.originals[id(orig)] = (label, orig)
        if isinstance(owner, type):
            self.classes.add(owner)
            self._set(owner, attr, new)
            return
        for mod in _package_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, new)
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            self._set_item(val, k2, new)

    def _set(self, owner, key, new):
        self._undo.append((setattr, owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def _set_item(self, table, key, new):
        self._undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = new

    def unpatched(self):
        """Missing targets, and originals the package still refers to."""
        left = list(self.missing)
        mods = _package_modules()
        spaces = [vars(m) for m in mods]
        spaces += [v for m in mods for v in vars(m).values()
                   if isinstance(v, dict)]
        spaces += [vars(c) for c in self.classes]
        for space in spaces:
            for key, val in list(space.items()):
                hit = self.originals.get(id(val))
                if hit is not None and hit[1] is val:
                    left.append(f"{hit[0]} ({key})")
        return left

    def restore(self):
        while self._undo:
            op, owner, key, val = self._undo.pop()
            op(owner, key, val)


class Tracer:
    """Spans and counters over one traced pass; use as a context manager."""

    def __init__(self):
        self.stack = []  # frames [span id, name, start, child time]
        self.stats = {}  # name -> [calls, self s]
        self.spans = []  # (id, parent id, name, start, end), capped
        self.count = {"tree.chains": 0, "tree.vertices": 0,
                      "tree.max_depth": 0, "hn.apply.terms_out": 0,
                      "field.adjoin_splitting.ext_steps": 0,
                      "invariants.intersect_param.rounds": 0,
                      "milnor.reduce_rounds": 0,
                      "milnor.precision_doublings": 0,
                      "milnor.check.primes": 0, "milnor.check.shortcut": 0}
        self._ids = itertools.count(1)
        self._patcher = _Patcher()

    def __enter__(self):
        before = {"invariants.parametrize": self._before_parametrize}
        after = {"field.adjoin_splitting": self._after_split,
                 "hn.apply": self._after_apply,
                 "tree.build": self._after_build}
        for name, targets in SPANS.items():
            for owner, attr in targets:
                self._patcher.replace(
                    name, owner, attr,
                    lambda fn, n=name: self._span(n, fn, before.get(n),
                                                  after.get(n)))
        for name, (owner, attr) in COUNTED.items():
            make = getattr(self, "_count_" + name.split(".")[1])
            self._patcher.replace(name, owner, attr, make)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def unpatched(self):
        return self._patcher.unpatched()

    def _span(self, name, fn, before, after):
        stack, stats, spans = self.stack, self.stats, self.spans
        clock = time.thread_time

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            sid = next(self._ids)
            frame = [sid, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0]
                st[0] += 1
                st[1] += dur - frame[3]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent[0] if parent else None, name,
                                  frame[2], end))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_split(self, args, result):
        if result[0] is not args[1]:
            self.count["field.adjoin_splitting.ext_steps"] += 1

    def _after_apply(self, args, result):
        self.count["hn.apply.terms_out"] += len(result.c)

    def _after_build(self, args, result):
        self.count["tree.chains"] += len(result.chains)
        self.count["tree.vertices"] += len(result.vertices())

    def _before_parametrize(self):
        # a parametrization called straight from intersect_param is one of
        # its precision-doubling rounds
        if self.stack and self.stack[-1][1] == "invariants.intersect_param":
            self.count["invariants.intersect_param.rounds"] += 1

    def _count_chain(self, fn):
        def wrapper(builder, strands, glue, depth):
            c = self.count
            c["tree.max_depth"] = max(c["tree.max_depth"], depth)
            return fn(builder, strands, glue, depth)
        return wrapper

    def _count_reduce_pair(self, fn):
        def wrapper(*args):
            result = fn(*args)
            self.count["milnor.reduce_rounds"] += 1
            if result is None:
                self.count["milnor.precision_doublings"] += 1
            return result
        return wrapper

    def _count_check(self, fn):
        def wrapper(*args, **kwargs):
            reports = fn(*args, **kwargs)
            for r in reports:
                if r.skipped is None:
                    self.count["milnor.check.primes"] += 1
                    self.count["milnor.check.shortcut"] += bool(r.shortcut)
            return reports
        return wrapper


class CoeffCounter:
    """Counts FieldCtx add/sub/mul/neg/inv/is_zero over all contexts."""

    def __init__(self):
        self._tick = itertools.count()
        self._patcher = _Patcher()

    def __enter__(self):
        for cls in COEFF_CLASSES:
            for op in COEFF_OPS:
                if op in cls.__dict__:
                    self._patcher.replace(f"{cls.__name__}.{op}", cls, op,
                                          self._counted)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False

    def unpatched(self):
        return self._patcher.unpatched()

    def _counted(self, fn):
        tick = self._tick

        def wrapper(*args):
            next(tick)
            return fn(*args)
        return wrapper

    def total(self):
        # itertools.count has no reader; the next value is the count so far
        return next(self._tick)


def layer_metrics(tracer, coeff_ops, overhead_pct, unpatched):
    """Per-layer metrics as name -> (value, unit), in layer order."""
    stats, c = tracer.stats, tracer.count
    out = {}

    def calls(*names):
        for name in names:
            out[name + ".calls"] = (stats.get(name, (0,))[0], "count")

    def self_s(*names):
        for name in names:
            out[name + ".self_s"] = (stats.get(name, (0, 0.0))[1], "s")

    def counts(*names):
        for name in names:
            out[name] = (c[name], "count")

    out["field.coeff_ops"] = (coeff_ops, "count")
    calls("field.uni_factor")
    self_s("field.uni_factor")
    calls("field.adjoin_splitting")
    counts("field.adjoin_splitting.ext_steps")
    calls("field.embedding")
    self_s("field.embedding", "field.uni_rational_roots")
    for name in ("poly.reduced_check", "poly.gcd_bipoly", "poly.mul"):
        calls(name)
        self_s(name)
    self_s("poly.parse_poly")
    for name in ("newton.newton_polygon", "newton.face_factorization",
                 "hn.apply"):
        calls(name)
        self_s(name)
    counts("hn.apply.terms_out")
    calls("tree.build")
    self_s("tree.build")
    counts("tree.chains", "tree.max_depth", "tree.vertices")
    self_s("tree.minimalize")
    calls("invariants.ser_mul")
    self_s("invariants.ser_mul")
    calls("invariants.ser_eval")
    self_s("invariants.solve_smooth", "invariants.parametrize",
           "invariants.intersect_param")
    counts("invariants.intersect_param.rounds")
    self_s("invariants.intersect_tree")
    calls("milnor.local_intersection")
    self_s("milnor.local_intersection")
    counts("milnor.reduce_rounds", "milnor.precision_doublings")
    calls("milnor.sub_mul_clip")
    self_s("milnor.sub_mul_clip")
    primes = c["milnor.check.primes"]
    out["milnor.check.shortcut_share"] = (
        c["milnor.check.shortcut"] / primes if primes else 0.0, "share")
    self_s("cli.run", "cli.render")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["trace.unpatched"] = (len(unpatched), "count")
    return out
