"""Source hygiene: every name a package module imports is used in it, every
parameter of a package function is read in its body, every public package
function and method is referred to by a package module other than
``__init__.py`` outside its own body or is a listed entry point that the
package exports (a call from a test does not count), every private
(leading underscore) one is referred to somewhere in ``src/``, no package
module imports test code, the arithmetic modules contain
no true division, and no package module imports ``random`` or has a
function parameter named ``seed``: every verdict is deterministic.  Every
operation the benchmark's tracer times by name pattern matches a package
function, so a rename cannot silently zero a per-layer metric.  Every
per-object cache is read and written through ``algebra._memo`` alone, and
each memo key namespace is used by one function, so two sites cannot
share an entry by a mistyped key.  A projective sum is one module: only
``modules.proj_sum`` writes its generator fields, and no ``ProjSum``
wrapper or ``.rep`` hop to a module is left.  Only ``complexes``
calls the cone and stacking helpers, so every stacked universal map is
built by ``complexes.universal_triangle``.

Checked with the standard-library ``ast`` module only.  ``__init__.py`` is
exempt from the import check, because its imports are the package's
re-exports.
"""

import ast
from pathlib import Path

import quivertilt

PACKAGE_DIR = Path(quivertilt.__file__).parent
# Modules that compute with field elements.  A rational is an int when it is
# integral, so a stray ``a / b`` there would give a float; FieldSpec.inv
# inverts without the operator.
ARITHMETIC_MODULES = ("linalg", "algebra", "modules", "homology", "complexes",
                      "tilting", "recollement", "verify")


def unused_imports(source: str) -> list:
    """(line, name) of each name bound by an import that its scope never
    reads: a module-level import is read by any expression of the module,
    an import inside a function only by an expression of that function
    (nested functions included).  An attribute chain reads its root."""
    found = set()

    def reads(scope) -> set:
        return {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}

    def visit(node, scope, imported):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope, imported = node, {}
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, scope, imported)
        if node is scope:
            used = reads(scope)
            found.update((line, name) for name, line in imported.items() if name not in used)

    tree = ast.parse(source)
    visit(tree, tree, {})
    return sorted(found)


def unused_parameters(source: str) -> list:
    """(line, function, parameter) of each parameter of a function or lambda
    that its body never reads.  A read inside a nested function counts, and
    a zero-argument ``super()`` reads the first parameter, which Python
    passes to it implicitly."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    read.add(sub.id)
                elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                      and sub.func.id == "super" and not sub.args and params):
                    read.add(params[0])
        name = getattr(node, "name", "<lambda>")
        found.extend((node.lineno, name, p) for p in params if p not in read)
    return sorted(found)


def test_unused_import_detector_sees_plain_and_aliased_names():
    src = ("import os\nfrom a import b, c as d\nfrom e import f\n"
           "def g():\n    from h import i\n    return f(os.sep)\n")
    assert unused_imports(src) == [(2, "b"), (2, "d"), (5, "i")]
    # a function-level import that only another function reads is unused
    src = ("def g():\n    from h import i\n    return 1\n"
           "def k():\n    from h import i\n    def n():\n        return i\n    return n\n")
    assert unused_imports(src) == [(2, "i")]


def test_no_unused_imports_in_package_modules():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.name}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_unused_parameter_detector_sees_every_kind_of_parameter():
    src = ("def f(a, b, *c, d=1, **e):\n    return a + d\n"
           "class K:\n    def __init__(self, **kw):\n        super().__init__(**kw)\n"
           "    def g(self, x):\n        return lambda y, z: x + y\n")
    assert unused_parameters(src) == [(1, "f", "b"), (1, "f", "c"), (1, "f", "e"),
                                      (6, "g", "self"), (7, "<lambda>", "z")]


def test_no_unused_parameters_in_package_functions():
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for line, func, name in unused_parameters(path.read_text()):
            found.append(f"{path.name}:{line}: {func}({name})")
    assert not found, "unused parameters:\n" + "\n".join(found)


def true_divisions(source: str) -> list:
    """Line of each ``/`` or ``/=`` in the source; ``//`` is not one."""
    tree = ast.parse(source)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))


def test_true_division_detector_sees_operator_and_augmented_form():
    src = "a = b / c\nd //= 2\ne = f // g\nh /= 3\ni = '1/2'  # j / k\n"
    assert true_divisions(src) == [1, 4]


def test_no_true_division_in_arithmetic_modules():
    found = []
    for name in ARITHMETIC_MODULES:
        for line in true_divisions((PACKAGE_DIR / f"{name}.py").read_text()):
            found.append(f"{name}.py:{line}")
    assert not found, "true division (use FieldSpec.inv):\n" + "\n".join(found)


def defined_functions(source: str) -> list:
    """(line, name, is_method) of each function and method defined in the
    source, except dunder methods, which Python calls by protocol.  A
    method is a function defined directly in a class body."""
    tree = ast.parse(source)
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    return sorted((node.lineno, node.name, id(node) in methods) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def referenced_names(source: str, attributes_only: bool = False) -> set:
    """Names the source refers to: a read or written name, an attribute or an
    imported name (with ``attributes_only``, an attribute only), except a
    reference inside a function of that same name, so that a function
    reached only from its own body counts as unused."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        names = []
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif attributes_only:
            pass
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.extend(alias.name for alias in node.names)
        found.update(n for n in names if n not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


# The library surface that no package module calls: constructors a library
# caller builds objects with.  Every name here must be exported from
# quivertilt; every other public function or method needs a caller in src/.
ENTRY_POINTS = (
    "opposite_algebra",  # the opposite algebra, for right modules over A^op
    "mapping_cone",      # the cone with its maps; bench/tracing.py times it
)


def package_references(package_sources: dict, attributes_only: bool = False) -> set:
    """Names (with ``attributes_only``, attribute names) the package sources
    (file name -> source) other than ``__init__.py`` refer to, each outside
    its own body."""
    used = set()
    for path, source in package_sources.items():
        if path != "__init__.py":
            used |= referenced_names(source, attributes_only)
    return used


def unreferenced_functions(package_sources: dict, entry_points=()) -> list:
    """(file, line, name) of each public function or method defined in one
    of ``package_sources`` that no package source other than
    ``__init__.py`` refers to outside its own body, and that is not one of
    ``entry_points``.  A method is reached only through an attribute, so a
    local variable of the same name is no reference to it.  A re-export in
    ``__init__.py`` or a call from a test is no caller: code only tests
    reach belongs with them."""
    used = package_references(package_sources) | set(entry_points)
    attributes = package_references(package_sources, attributes_only=True)
    return sorted((path, line, name) for path, source in package_sources.items()
                  for line, name, method in defined_functions(source)
                  if not name.startswith("_") and name not in (attributes if method else used))


def test_unreferenced_function_detector_sees_functions_methods_and_recursion():
    pkg = {"m.py": ("def used():\n    return 1\n"
                    "def dead():\n    return used()\n"
                    "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
                    "def only_tested():\n    return 3\n"
                    "def entry():\n    return 4\n"
                    "class K:\n    def __repr__(self):\n        return 'K'\n"
                    "    def method(self):\n        return self.other()\n"
                    "    def other(self):\n        return 2\n"
                    "    def shadowed(self):\n        return 5\n"),
           "n.py": ("from .m import K, dead\n\ndef api():\n"
                    "    shadowed = K().method()\n    return shadowed, dead\n"),
           "__init__.py": "from .m import entry, only_tested\nfrom .n import api\n"}
    # only_tested is exported, and a test may call it: neither is a caller;
    # the local variable named shadowed is no reference to the method
    assert unreferenced_functions(pkg, ("entry",)) == [
        ("m.py", 5, "recursive"), ("m.py", 7, "only_tested"), ("m.py", 18, "shadowed"),
        ("n.py", 3, "api")]
    assert ("m.py", 9, "entry") in unreferenced_functions(pkg)


def test_every_package_function_is_referenced():
    package = {path.name: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f"{path}:{line}: {name}"
             for path, line, name in unreferenced_functions(package, ENTRY_POINTS)]
    assert not found, "functions no package module calls:\n" + "\n".join(found)


def exported_names(init_source: str) -> set:
    """The names ``__init__.py`` imports from sibling modules."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(init_source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_every_entry_point_is_exported_and_every_export_reached():
    """ENTRY_POINTS names exported functions, and every name the package
    exports is referred to by a package module other than ``__init__.py``
    or is an entry point."""
    exported = exported_names((PACKAGE_DIR / "__init__.py").read_text())
    missing = [name for name in ENTRY_POINTS
               if name not in exported or not callable(getattr(quivertilt, name, None))]
    assert not missing, f"entry points not exported from quivertilt: {missing}"
    package = {path.name: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    unreached = sorted(exported - package_references(package) - set(ENTRY_POINTS))
    assert not unreached, f"exports no package module reaches: {unreached}"


def test_package_imports_nothing_from_the_tests():
    """No package module imports the test oracles, conftest or any module
    under tests/, at any depth."""
    test_modules = {path.stem for path in (PACKAGE_DIR.parent.parent / "tests").glob("*.py")}
    test_modules.add("tests")
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [(node.module or "").split(".")[0]]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {r}" for r in roots if r in test_modules]
    assert "oracles" in test_modules and "conftest" in test_modules
    assert not found, "package modules importing test code:\n" + "\n".join(found)


def private_functions_unused_by_package(package_sources: dict) -> list:
    """(file, line, name) of each function or method whose name starts with
    an underscore, defined in one of ``package_sources``, that no package
    source refers to outside its own body (a method: through an
    attribute).  A private helper that only tests or benchmarks reach
    belongs with them, not in the package."""
    used, attributes = set(), set()
    for source in package_sources.values():
        used |= referenced_names(source)
        attributes |= referenced_names(source, attributes_only=True)
    return sorted((path, line, name) for path, source in package_sources.items()
                  for line, name, method in defined_functions(source)
                  if name.startswith("_") and name not in (attributes if method else used))


def test_private_function_detector_ignores_tests_and_public_names():
    pkg = {"m.py": ("def _inner():\n    return 1\n"
                    "def public():\n    return _inner()\n"
                    "def _for_tests():\n    return _for_tests\n"
                    "class K:\n    def _hook(self):\n        return 2\n"
                    "    def _used(self):\n        return self._hook()\n"
                    "    def _shadowed(self):\n        return 3\n"),
           "n.py": ("from m import K\n\ndef api():\n"
                    "    _shadowed = K()._used()\n    return _shadowed\n")}
    assert private_functions_unused_by_package(pkg) == [
        ("m.py", 5, "_for_tests"), ("m.py", 12, "_shadowed")]


def test_every_private_package_function_is_used_by_the_package():
    package = {path.name: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    found = [f"{path}:{line}: {name}"
             for path, line, name in private_functions_unused_by_package(package)]
    assert not found, "private functions the package never uses:\n" + "\n".join(found)


def randomness(source: str) -> list:
    """(line, what) of each import of ``random``, at any depth, and of each
    parameter named ``seed`` of a function or lambda."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import random") for alias in node.names
                      if alias.name.split(".")[0] == "random"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random":
            found.append((node.lineno, "import random"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            found += [(node.lineno, "parameter seed") for a in params
                      if a is not None and a.arg == "seed"]
    return sorted(found)


def test_randomness_detector_sees_imports_and_seed_parameters():
    src = ("import os, random\nfrom random import Random\n"
           "def f(x, seed=0):\n    import random as r\n    return lambda *, seed: seed\n"
           "def g(seed_vecs):\n    return seed_vecs\n")
    assert randomness(src) == [(1, "import random"), (2, "import random"),
                               (3, "parameter seed"), (4, "import random"),
                               (5, "parameter seed")]


def test_no_randomness_in_package_modules():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for line, what in randomness(path.read_text())]
    assert not found, "random imports or seed parameters:\n" + "\n".join(found)


def test_no_raw_tensor_quotient_or_corner_ring_in_the_package():
    """The raw tensor-space quotient and the corner bimodules Ae, eA live
    only in the test oracles: the package's one tensor computation is
    homology.tor_dims_range."""
    found = [f"{path.name}: {name}" for path in sorted(PACKAGE_DIR.glob("*.py"))
             for name in ("_tensor_quotient", "corner_bimodules")
             if name in path.read_text()]
    assert not found, "raw tensor quotient or corner ring in src/:\n" + "\n".join(found)


def test_stratifying_check_builds_no_opposite_algebra(monkeypatch):
    """A/AeA as a left module comes from the ideal rows over A itself."""
    import sys

    import quivertilt.algebra
    from quivertilt.formats import fixture_algebra
    from quivertilt.recollement import stratifying_ideal_check

    real = quivertilt.algebra.opposite_algebra
    calls = []

    def counted(alg):
        calls.append(alg)
        return real(alg)

    for name, mod in list(sys.modules.items()):
        if name.startswith("quivertilt") and getattr(mod, "opposite_algebra", None) is real:
            monkeypatch.setattr(mod, "opposite_algebra", counted)
    for name in ("a2", "kron2", "cycle2", "triple3"):
        alg = fixture_algebra(name)
        for v in alg.vertices:
            stratifying_ideal_check(alg, (v,))
    assert calls == []
    quivertilt.algebra.opposite_algebra(alg)
    assert len(calls) == 1


def scoped_nodes(source: str):
    """(scope, node) for every node of the source: scope is the qualified
    name of the outermost function or method around the node
    ("Class.method"), the class name in a class body, and "" at module
    level.  A nested function belongs to the function around it."""
    stack, out = [("", ast.parse(source), False)], []
    while stack:
        scope, node, in_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            out.append((scope, child))
            inner, function = scope, in_function
            if not in_function and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                function = isinstance(child, ast.FunctionDef)
            stack.append((inner, child, function))
    return out


def cache_names(source: str) -> list:
    """The sorted scopes that name ``_caches``: as an attribute, a plain name
    (a field declaration) or the string "_caches"."""
    return sorted({scope for scope, node in scoped_nodes(source)
                   if (isinstance(node, ast.Attribute) and node.attr == "_caches")
                   or (isinstance(node, ast.Name) and node.id == "_caches")
                   or (isinstance(node, ast.Constant) and node.value == "_caches")})


def memo_namespaces(source: str) -> list:
    """Sorted (namespace, scope) of each ``_memo`` call: the namespace is the
    positional key when it is a string constant, the first element of a
    tuple key when that is one, and None otherwise."""
    found = set()
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Call) and "_memo" in (getattr(node.func, "id", None),
                                                      getattr(node.func, "attr", None)):
            key = node.args[1] if len(node.args) > 1 else None
            if isinstance(key, ast.Tuple) and key.elts:
                key = key.elts[0]
            found.add((key.value if isinstance(key, ast.Constant)
                       and isinstance(key.value, str) else None, scope))
    return sorted(found, key=repr)


def test_cache_detectors_see_every_kind_of_name_and_key():
    src = ("class C:\n    _caches: dict = None\n\n"
           "    def f(self):\n        return self._caches.get('a')\n\n"
           "def g(o):\n    object.__setattr__(o, '_caches', {})\n\n"
           "def h(o, n):\n    def inner():\n        return m._memo(o, ('b', n), f)\n"
           "    return _memo(o, 'a', inner)\n\n"
           "def k(o, key):\n    return _memo(o, key, f), other(o, 'c'), o.caches\n\n"
           "def j(o):\n    return _memo(o, key='d', compute=f)\n")
    assert cache_names(src) == ["C", "C.f", "g"]
    assert memo_namespaces(src) == [("a", "h"), ("b", "h"), (None, "j"), (None, "k")]


# Every place in src/ that names ``_caches``: the three field declarations,
# Representation._trusted, which builds an object without __init__, and the
# memo helper.
CACHE_OWNERS = {("algebra", "Algebra"), ("modules", "Representation"),
                ("complexes", "PerfectComplex"), ("modules", "Representation._trusted"),
                ("algebra", "_memo")}


def test_only_the_memo_helper_reads_or_writes_caches():
    found = {(path.stem, scope) for path in sorted(PACKAGE_DIR.glob("*.py"))
             for scope in cache_names(path.read_text())}
    assert found == CACHE_OWNERS, f"_caches named outside _memo: {sorted(found - CACHE_OWNERS)}"


def test_each_memo_key_namespace_is_used_by_one_function():
    """A namespace shared by two functions would let one read the other's
    entries, as a mistyped key would; a key the check cannot name escapes
    it, so every key has a namespace.  The algebra's lookup tables are
    fields built with it, so none of their former namespaces is a key.
    The test oracles that memoize in a package object's cache (the left
    regular module) are scanned with the package."""
    sites = {}
    oracles = PACKAGE_DIR.parent.parent / "tests" / "oracles.py"
    for path in sorted(PACKAGE_DIR.glob("*.py")) + [oracles]:
        for namespace, scope in memo_namespaces(path.read_text()):
            sites.setdefault(namespace, set()).add(f"{path.stem}.{scope}")
    assert None not in sites, f"_memo keys without a namespace: {sites.get(None)}"
    assert {"zero", "regular", "act", "off", "end", "radical", "factors", "decompose",
            "resolution", "left_regular", "shift", "derived_end", "tilting",
            "reflect_regular", "lambda_system"} <= set(sites)
    tables = {"vidx", "idem", "amap", "suffix", "aidx", "from", "to"} & set(sites)
    assert not tables, f"algebra tables read through _memo: {sorted(tables)}"
    shared = {ns: sorted(s) for ns, s in sites.items() if len(s) > 1}
    assert not shared, f"memo key namespaces used by more than one function: {shared}"


GENERATOR_FIELDS = ("gens", "layout", "gen_pos")


def generator_field_writes(source: str) -> list:
    """The sorted scopes that write a generator field of a projective sum:
    by ``setattr`` or ``object.__setattr__`` with the field's name as a
    string, or by assigning to or deleting the attribute."""
    found = set()
    for scope, node in scoped_nodes(source):
        if isinstance(node, ast.Call) and (getattr(node.func, "id", None) == "setattr"
                                           or getattr(node.func, "attr", None) == "__setattr__"):
            key = node.args[1] if len(node.args) > 1 else None
            if isinstance(key, ast.Constant) and key.value in GENERATOR_FIELDS:
                found.add(scope)
        elif (isinstance(node, ast.Attribute) and node.attr in GENERATOR_FIELDS
              and isinstance(node.ctx, (ast.Store, ast.Del))):
            found.add(scope)
    return sorted(found)


def name_sites(source: str, name: str) -> list:
    """Lines that name ``name``: as a plain name, an attribute, a class or
    function, an import or a string (an annotation written as one)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Name) and node.id == name)
                   or (isinstance(node, ast.Attribute) and node.attr == name)
                   or (isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name)
                   or (isinstance(node, ast.alias) and name in (node.name, node.asname))
                   or (isinstance(node, ast.Constant) and node.value == name)})


def attribute_reads(source: str, attr: str) -> list:
    """Lines that read the attribute ``attr`` of any object."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr == attr
                   and isinstance(node.ctx, ast.Load)})


def test_generator_detectors_see_every_kind_of_write_name_and_read():
    src = ("from .m import ProjSum as P\n"
           "class ProjSum:\n    gens: tuple = ()\n\n"
           "def f(o, rep):\n    object.__setattr__(o, 'gens', ())\n    return o.rep, rep\n\n"
           "def g(o):\n    setattr(o, 'layout', {})\n    x: 'ProjSum' = o.gens\n\n"
           "def h(o):\n    o.gen_pos = ()\n    del o.layout\n    o.rep = None\n\n"
           "def k(o):\n    return o.gens, getattr(o, 'gen_pos'), o.reps, m.ProjSum\n")
    assert generator_field_writes(src) == ["f", "g", "h"]
    assert name_sites(src, "ProjSum") == [1, 2, 11, 19]
    assert attribute_reads(src, "rep") == [7]


def test_only_proj_sum_sets_generator_fields_and_no_wrapper_remains():
    """A projective sum is one module: proj_sum alone sets its generator
    fields, no package module names a ProjSum wrapper, and none reads a
    ``.rep`` hop from a wrapper to its module."""
    writes, names, reads = set(), [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        source = path.read_text()
        writes |= {(path.stem, scope) for scope in generator_field_writes(source)}
        names += [f"{path.name}:{line}" for line in name_sites(source, "ProjSum")]
        reads += [f"{path.name}:{line}" for line in attribute_reads(source, "rep")]
    assert writes == {("modules", "proj_sum")}, f"generator fields written: {sorted(writes)}"
    assert not names, f"ProjSum named at {names}"
    assert not reads, f".rep read at {reads}"


# Package modules from the bottom layer up; formats sits below verify,
# which reads the fixtures through it.
LAYER_ORDER = ("errors", "linalg", "algebra", "modules", "homology", "complexes",
               "tilting", "recollement", "formats", "verify", "cli")
# Imports that go up the layer order, made inside a function so that the
# lower module can be imported first: algebra builds its modules
# (projective, simple, regular_module) from modules.Representation.
UPWARD_FUNCTION_IMPORTS = {("algebra", "modules")}


def package_imports(source: str) -> list:
    """(line, imported module, at module level?) of each relative import of
    a sibling package module, ``from .x import ...``."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted((node.lineno, node.module, id(node) in top) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module)


def test_package_import_detector_tells_module_level_from_function_level():
    src = ("from .linalg import Matrix\nimport os\n"
           "def f():\n    from .modules import direct_sum\n    return direct_sum\n")
    assert package_imports(src) == [(1, "linalg", True), (4, "modules", False)]


def test_package_imports_go_down_the_layer_order():
    assert sorted(LAYER_ORDER) == sorted(p.stem for p in PACKAGE_DIR.glob("*.py")
                                         if p.name != "__init__.py")
    found = []
    for name in LAYER_ORDER:
        for line, imported, module_level in package_imports((PACKAGE_DIR / f"{name}.py").read_text()):
            if LAYER_ORDER.index(imported) < LAYER_ORDER.index(name):
                continue
            if module_level or (name, imported) not in UPWARD_FUNCTION_IMPORTS:
                found.append(f"{name}.py:{line}: imports {imported}")
    assert not found, "imports up the layer order:\n" + "\n".join(found)


def test_every_traced_operation_matches_a_package_function():
    """Each pattern of ``OPS`` and ``COUNTED`` in bench/tracing.py matches a
    function or method the tracer would wrap; one that matches nothing
    reads 0 in every run."""
    import importlib.util
    import re

    path = PACKAGE_DIR.parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [name for _, _, _, name in tracing.Tracer(quivertilt)._discover()]
    assert names
    unmatched = [op for op, pattern in {**tracing.COUNTED, **tracing.OPS}.items()
                 if not any(re.fullmatch(pattern, name) for name in names)]
    assert not unmatched, f"traced operations matching no package function: {unmatched}"


def called_names(source: str, names) -> list:
    """(line, name) of each call of a function in ``names``, by plain name
    or as an attribute (``complexes._cone(...)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) \
                else None
            if name in names:
                found.append((node.lineno, name))
    return sorted(found)


CONE_HELPERS = ("_cone", "_cone_inclusion", "stack_to_common_target", "stack_to_common_source")


def test_call_detector_sees_plain_and_attribute_calls():
    src = ("from .complexes import _cone\nimport quivertilt.complexes as c\n"
           "x = _cone(f)\ny = c.stack_to_common_source([g])\nz = _cone\n"
           "w = other(stack_to_common_target)\n")
    assert called_names(src, CONE_HELPERS) == [(3, "_cone"), (4, "stack_to_common_source")]


def test_only_complexes_stacks_and_cones():
    """Every stacked universal map in the package is built by
    complexes.universal_triangle: no other package module calls _cone,
    _cone_inclusion or stack_to_common_target/source."""
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "complexes.py"
             for line, name in called_names(path.read_text(), CONE_HELPERS)]
    assert not found, "cone or stacking helper called outside complexes.py:\n" + "\n".join(found)
