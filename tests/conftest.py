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
    return x.terms, x.diffs, {i: t.rep for i, t in y.terms.items()}, y.diffs


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
