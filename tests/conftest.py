import pytest

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


def tilting_summary(cert):
    """A tilting verdict as ("certified", number of factors) or ("failure",
    reason codes)."""
    if isinstance(cert, TiltingCertificate):
        return ("certified", len(cert.factors))
    return ("failure", tuple(code for code, _ in cert.reasons))
