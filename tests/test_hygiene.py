"""Source hygiene: no unused imports and no unreferenced functions in the
package, test-only cross-checks kept in tests/, one body per context
kernel, and the benchmark's per-layer tracer still finds every function it
patches."""

import ast
import importlib.util
import pathlib
import sys
from collections import Counter

from singcurve import milnor, poly
from singcurve.field import (ExtFieldCtx, FieldCtx, PrimeFieldCtx,
                             RationalCtx, field_ctx)
from singcurve.poly import parse_poly

from curves import EX1

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "singcurve"


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(bound.items()) if name not in used]


def test_every_module_import_is_used():
    # the package __init__ imports only to re-export
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert paths
    assert [u for p in paths for u in _unused_imports(p)] == []


def _names(node):
    """Every name a node reads, as a bare name, an attribute or an import."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _package_code():
    """(file name, tree) per package module, and how often their code names
    each name; the re-exports of __init__.py do not count as uses."""
    trees = [(p.name, _parse(p)) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "__init__.py"]
    return trees, Counter(n for _, tree in trees for n in _names(tree))


def _unreferenced(refs, fn):
    return refs[fn.name] == Counter(_names(fn))[fn.name]


def _unreferenced_functions():
    """Module-level functions of the package, as "module:line name", that
    no code but their own body names."""
    trees, refs = _package_code()
    return {fn.name: f"{name}:{fn.lineno} {fn.name}"
            for name, tree in trees for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and _unreferenced(refs, fn)}


def test_every_private_function_is_referenced():
    # a private helper that only its own body mentions is dead code
    assert [where for name, where in _unreferenced_functions().items()
            if name.startswith("_") and not name.startswith("__")] == []


# public functions that only users call: README documents each of them
_ENTRY_POINTS = {"tree_from_json_dict"}


def test_every_public_function_is_used_or_exported():
    # a public function with no caller in the package, no re-export and no
    # README entry is test-only code; it belongs in tests/crosschecks.py
    exported = {a.asname or a.name
                for a in ast.walk(_parse(PACKAGE / "__init__.py"))
                if isinstance(a, ast.alias)}
    assert [where for name, where in _unreferenced_functions().items()
            if not name.startswith("_")
            and name not in exported | _ENTRY_POINTS] == []


def test_every_public_method_is_used():
    # a public method that no package code names outside its own body is
    # test-only code too; tests read such values off the data instead
    trees, refs = _package_code()
    assert [f"{name}:{fn.lineno} {cls.name}.{fn.name}"
            for name, tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not fn.name.startswith("_") and _unreferenced(refs, fn)] == []


def test_crosschecks_import_only_the_stdlib_and_the_package():
    # a stdlib-only driver can then load tests/crosschecks.py by path
    tree = _parse(ROOT / "tests" / "crosschecks.py")
    found = {a.name.split(".")[0] for n in ast.walk(tree)
             if isinstance(n, ast.Import) for a in n.names}
    found |= {(n.module or "").split(".")[0] if not n.level else "."
              for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "singcurve" in found
    assert found - {"singcurve"} <= sys.stdlib_module_names, found


def test_only_poly_py_names_the_exact_gcd():
    # every yes/no gcd question goes through poly._shares_origin_branch or
    # reduced_check, which try one image before gcd_bipoly
    trees, _ = _package_code()
    assert {name for name, tree in trees
            if "gcd_bipoly" in set(_names(tree))} == {"poly.py"}


def _bench_layers():
    spec = importlib.util.spec_from_file_location(
        "bench_layers", ROOT / "perfbench" / "layers.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_bench_tracer_patches_every_target():
    # a renamed or inlined traced function would zero its per-layer metric
    layers = _bench_layers()
    mul, clip = poly.BiPoly.__dict__["__mul__"], milnor._sub_mul_clip
    for probe in (layers.Tracer, layers.CoeffCounter):
        with probe() as tr:
            assert tr.unpatched() == [], probe.__name__
    assert poly.BiPoly.__dict__["__mul__"] is mul
    assert milnor._sub_mul_clip is clip


def test_bench_tracer_counts_the_reduction_rounds():
    # the tracer wraps _reduce_pair with positional arguments only, so a
    # keyword call or a signature it cannot pass would break the traced
    # bench alone; EX1's partials over F_7 take three rounds, two failed
    layers = _bench_layers()
    with layers.Tracer() as tr:
        assert milnor.milnor_number(parse_poly(EX1, field_ctx(7))) == 156
    assert (tr.count["milnor.reduce_rounds"],
            tr.count["milnor.precision_doublings"]) == (3, 2)


class _AttributeUses(ast.NodeVisitor):
    """The functions, by name, whose bodies read a given attribute; None
    for a read outside every function."""

    def __init__(self, attr):
        self.attr, self.stack, self.found = attr, [], set()

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_Attribute(self, node):
        if node.attr == self.attr:
            self.found.add(self.stack[-1] if self.stack else None)
        self.generic_visit(node)


def _attribute_uses(attr):
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        uses = _AttributeUses(attr)
        uses.visit(ast.parse(path.read_text(), filename=str(path)))
        out |= {(path.name, fn) for fn in uses.found}
    return out


def test_series_products_go_through_ser_mul():
    # the bench's invariants.ser_mul counters wrap _ser_mul, so a direct
    # call of the kernel anywhere else would hide its products; the packed
    # bivariate product runs inside BiPoly.__mul__, which poly.mul wraps
    assert _attribute_uses("mul_series") == {("invariants.py", "_ser_mul"),
                                             ("poly.py", "_mul_packed")}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_context_kernels_are_written_once():
    # each kernel has one body, on FieldCtx, over the contexts' codecs; a
    # copy in a context would fork it per field again
    subs = set(_subclasses(FieldCtx))
    assert {RationalCtx, PrimeFieldCtx, ExtFieldCtx} <= subs
    for name in ("sub_mul_rows", "mul_series"):
        assert name in FieldCtx.__dict__
        assert [c.__name__ for c in subs if name in c.__dict__] == []


class _Scopes(ast.NodeVisitor):
    """The dotted class and function names of the scopes in which a
    subclass's visitor calls _hit, "" for module level."""

    def __init__(self):
        self.stack, self.found = [], set()

    def _scope(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_ClassDef = visit_FunctionDef = _scope

    def _hit(self, node):
        self.found.add(".".join(self.stack))


class _Divisions(_Scopes):
    """The scopes that use true division."""

    visit_Div = _Scopes._hit


class _Reads(_Scopes):
    """The scopes that read a name, bare or as an attribute."""

    def __init__(self, name):
        super().__init__()
        self.name = name

    def visit_Name(self, node):
        if node.id == self.name:
            self._hit(node)

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self._hit(node)
        self.generic_visit(node)


def _package_scopes(make):
    """(file name, scope) over the package for the visitors make() gives."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        scopes = make()
        scopes.visit(ast.parse(path.read_text(), filename=str(path)))
        found |= {(path.name, name) for name in scopes.found}
    return found


def test_true_division_only_inverts_a_fraction():
    # a rational that is integral is an int, so a stray a / b on elements
    # gives a float in silence; the one / divides 1 by a Fraction
    assert _package_scopes(_Divisions) == {("field.py", "RationalCtx.inv")}


def test_every_power_goes_through_field_power():
    # one square-and-multiply loop counts the products of every power; the
    # parser's is the fifth reader, to price each product it forms, and a
    # sixth, or a loop of its own, is a change to review
    assert _package_scopes(lambda: _Reads("power")) == {
        ("field.py", "FieldCtx.pow"), ("field.py", "uni_pow_mod"),
        ("poly.py", "BiPoly.__pow__"), ("invariants.py", "_ser_pow"),
        ("poly.py", "parse_poly")}


_CONTEXT_CLASSES = {c.__name__ for c in (FieldCtx, *_subclasses(FieldCtx))}


def _class_names(node):
    """The class names an isinstance argument or a compared operand reads."""
    if isinstance(node, ast.Tuple):
        for e in node.elts:
            yield from _class_names(e)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def _context_type_tests(path):
    """Lines that test a value against a context class: isinstance or
    issubclass with one, or type(...) compared with one by is or ==."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for n in ast.walk(tree):
        if (isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id in ("isinstance", "issubclass")):
            names = set(_class_names(n.args[-1]))
        elif isinstance(n, ast.Compare) and any(
                isinstance(x, ast.Call) and isinstance(x.func, ast.Name)
                and x.func.id == "type" for x in (n.left, *n.comparators)):
            names = {c for x in (n.left, *n.comparators)
                     for c in _class_names(x)}
        else:
            continue
        if names & _CONTEXT_CLASSES:
            yield f"{path.name}:{n.lineno}"


def test_only_field_py_tests_the_type_of_a_context():
    # field.py picks the F_p int bodies of the univariate kernels from the
    # type of the context; every other module stays generic over fields
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _context_type_tests(path)]
    assert found and all(h.startswith("field.py:") for h in found), found


def _environment_reads(path):
    """(module, key) for each read of the process environment: os.environ
    or os.getenv, with the key when it is a string literal, else None."""
    tree = ast.parse(path.read_text(), filename=str(path))
    parents = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
    for n in ast.walk(tree):
        if isinstance(n, ast.alias) and n.name in ("environ", "getenv"):
            yield path.name, None  # from os import environ
        if not (isinstance(n, ast.Attribute)
                and n.attr in ("environ", "getenv")):
            continue
        use = parents[n]
        if isinstance(use, ast.Attribute) and use.attr == "get":
            use = parents[use]  # os.environ.get(key)
        key = (use.slice if isinstance(use, ast.Subscript)
               else use.args[0] if isinstance(use, ast.Call) and use.args
               else None)
        yield path.name, (key.value if isinstance(key, ast.Constant)
                          else None)


def test_only_the_cli_seed_reads_the_environment():
    # behaviour comes from arguments, not from the environment; the one
    # exception is the CLI's default seed
    found = {r for path in sorted(PACKAGE.glob("*.py"))
             for r in _environment_reads(path)}
    assert found == {("cli.py", "SINGCURVE_SEED")}
