import ast
from pathlib import Path

import pytest

import quivertilt
from quivertilt import GF, QQ, build_algebra, Quiver, RelationPoly, TiltingCertificate
from quivertilt.formats import fixture_algebra


def build_cycle2(field=QQ):
    return fixture_algebra("cycle2", None if field == QQ else field)


@pytest.fixture(scope="session")
def a2():
    return fixture_algebra("a2")


@pytest.fixture(scope="session")
def kron2():
    return fixture_algebra("kron2")


@pytest.fixture(scope="session")
def cycle2():
    return fixture_algebra("cycle2")


@pytest.fixture(scope="session")
def triple3():
    return fixture_algebra("triple3")


@pytest.fixture(scope="session")
def all_algebras(a2, kron2, cycle2, triple3):
    return {"a2": a2, "kron2": kron2, "cycle2": cycle2, "triple3": triple3}


def linear_algebra(n, rad2=False, field=QQ):
    """A_n: vertices 1..n, arrows a_i: i -> i+1; with ``rad2`` every path
    of length two is a relation."""
    arrows = tuple((f"a{i}", str(i), str(i + 1)) for i in range(1, n))
    q = Quiver(tuple(str(i) for i in range(1, n + 1)), arrows)
    rels = [RelationPoly(((1, (f"a{i}", f"a{i + 1}")),)) for i in range(1, n - 1)] if rad2 else []
    return build_algebra(q, rels, field)


def non_prefix_closed_algebra(field=QQ):
    """KQ/(x*y - u*v) for 1 -x-> 2 -y-> 3 -z-> 4 and 1 -u-> 5 -v-> 3, on a
    hand-made basis that is suffix-closed but not prefix-closed: the class
    of x*y = u*v is written u*v, that of x*y*z = u*v*z is written x*y*z,
    whose prefix x*y is then not a basis path.  The table is unverified."""
    from quivertilt.algebra import Algebra

    arrows = (("x", "1", "2"), ("y", "2", "3"), ("z", "3", "4"), ("u", "1", "5"),
              ("v", "5", "3"))
    q = Quiver(("1", "2", "3", "4", "5"), arrows)
    rel = RelationPoly(((1, ("x", "y")), (-1, ("u", "v"))))
    words = [(v, ()) for v in q.vertices] + [(s, (name,)) for name, s, _ in arrows]
    words += [("2", ("y", "z")), ("5", ("v", "z")), ("1", ("u", "v")), ("1", ("x", "y", "z"))]
    written = {("x", "y"): ("u", "v"), ("u", "v", "z"): ("x", "y", "z")}
    index = {p: i for i, p in enumerate(words)}
    amap = q.arrow_map()
    one = field.one()
    mult = {}
    for i, (s, w) in enumerate(words):
        end = amap[w[-1]][1] if w else s
        for j, (s2, w2) in enumerate(words):
            path = (s, written.get(w + w2, w + w2))
            mult[(i, j)] = ((index[path], one),) if end == s2 and path in index else ()
    return Algebra(q, (rel,), field, tuple(words), mult)


def reordered_algebra(alg, order):
    """alg's table on its basis listed in another order: basis[k] of the
    result is alg.basis[order[k]].  The table is unverified."""
    from quivertilt.algebra import Algebra

    new = {old: k for k, old in enumerate(order)}
    mult = {(new[i], new[j]): tuple(sorted((new[k], c) for k, c in row))
            for (i, j), row in alg.mult.items()}
    return Algebra(alg.quiver, alg.relations, alg.field,
                   tuple(alg.basis[i] for i in order), mult, alg.max_path_len)


def counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's arguments
    in the returned list."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def recording_shifts(monkeypatch) -> list:
    """Wrap complexes._shift; the returned list gets (x, n, x[n]) for each
    shifted complex it builds."""
    import quivertilt.complexes as complexes
    real, built = complexes._shift, []

    def recording(x, n):
        y = real(x, n)
        built.append((x, n, y))
        return y

    monkeypatch.setattr(complexes, "_shift", recording)
    return built


def shifted_back(built) -> list:
    """The (x, n) of each recorded shift that took a recorded shift
    x = z[-n] back to z: a copy of z, which x holds."""
    made = {id(y): n for _, n, y in built}
    return [(x, n) for x, n, _ in built if made.get(id(x)) == -n]


def complex_hom_args(x, y):
    """The Hom complex of derived_hom(x, y, ·), as the arguments of
    homology._hom_differential before the degree."""
    return x.terms, x.diffs, y.terms, y.diffs


def resolution_hom_args(res, n):
    """The Hom complex of ext(·, res.module, n), as complex_hom_args."""
    return ({-k: t for k, t in enumerate(res.terms)},
            {-k - 1: d for k, d in enumerate(res.diffs)}, {0: n}, {})


def tilting_summary(cert):
    """A tilting verdict as ("certified", number of factors) or ("failure",
    reason codes)."""
    if isinstance(cert, TiltingCertificate):
        return ("certified", len(cert.factors))
    return ("failure", tuple(code for code, _ in cert.reasons))


def construction_inventory(is_site) -> set:
    """(file, function) of every package function or method whose own body
    makes a call whose callee node passes ``is_site``.  Lambdas and
    comprehensions count for the function they sit in, a nested function
    for itself, as in ``site_of``."""
    found = set()

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif owner and isinstance(node, ast.Call) and is_site(node.func):
            found.add((path, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(Path(quivertilt.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), None)
    return found


def site_of(code) -> tuple:
    """(file, function) of the code object of a running frame, the function
    being the innermost named one: a lambda or a comprehension has code
    of its own."""
    names = [n for n in code.co_qualname.split(".") if not n.startswith("<")]
    return (str(Path(code.co_filename).resolve()), names[-1] if names else None)


def calls_name(name):
    """is_site for construction_inventory: a call of ``name(...)``."""
    return lambda func: isinstance(func, ast.Name) and func.id == name


def calls_trusted(cls):
    """is_site for construction_inventory: a call of ``cls._trusted(...)``."""
    return lambda func: (isinstance(func, ast.Attribute) and func.attr == "_trusted"
                         and isinstance(func.value, ast.Name) and func.value.id == cls.__name__)
