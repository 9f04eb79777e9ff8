import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quivertilt.algebra as algebra_module
from quivertilt import (GF, QQ, BoundExceeded, ConsistencyError, InputError, Quiver,
                        RelationPoly, build_algebra, injective,
                        opposite_algebra, projective, regular_module, simple,
                        tilting_module_check)
from quivertilt.algebra import Algebra, _memo, _rel_vector
from quivertilt.formats import fixture_algebra, parse_algebra_text
from quivertilt.modules import direct_sum, hom_space, is_isomorphic, proj_sum, proj_sum_layout
from conftest import (counting, linear_algebra, non_prefix_closed_algebra, reordered_algebra,
                      tilting_summary)
from oracles import (reference_elimination, reference_generator_certificate,
                     reference_module_from_paths, reference_verify_algebra)


def test_a2_basis(a2):
    assert a2.dim == 3
    words = {w for _, w in a2.basis}
    assert words == {(), ("a",)}


def test_cycle2_dim_and_basis(cycle2):
    assert cycle2.dim == 5
    words = sorted(w for _, w in cycle2.basis)
    assert words == [(), (), ("a",), ("b",), ("b", "a")]


def test_kron2_basis(kron2):
    assert kron2.dim == 4
    assert {w for _, w in kron2.basis} == {(), ("a",), ("b",)}


def test_triple3_dim(triple3):
    assert triple3.dim == 9


def test_projective_dim_vectors(cycle2, a2, kron2, triple3):
    assert projective(cycle2, "2").dim_vector() == (1, 2)
    assert projective(a2, "2").dim_vector() == (0, 1)       # sink: simple
    assert projective(kron2, "1").dim_vector() == (1, 2)
    assert projective(triple3, "1").dim_vector() == (2, 1, 0)
    assert projective(triple3, "2").dim_vector() == (1, 2, 1)
    assert projective(triple3, "3").dim_vector() == (0, 1, 1)


def test_injective_dim_vectors(cycle2, a2):
    assert injective(cycle2, "1").dim_vector() == (1, 1)
    assert injective(a2, "1").dim_vector() == (1, 0)        # source: simple


def test_cycle2_injective2_isomorphic_to_projective2(cycle2):
    assert is_isomorphic(injective(cycle2, "2"), projective(cycle2, "2"))


def test_socle_of_p2_is_s2(cycle2):
    from quivertilt.modules import socle
    soc, _ = socle(projective(cycle2, "2"))
    assert soc.dim_vector() == simple(cycle2, "2").dim_vector() == (0, 1)


def test_dim_formula(all_algebras):
    for alg in all_algebras.values():
        assert alg.dim == sum(projective(alg, v).total_dim for v in alg.vertices)
        assert alg.dim == sum(injective(alg, v).total_dim for v in alg.vertices)


def test_regular_module(cycle2, a2):
    assert regular_module(cycle2).total_dim == 5
    r = regular_module(a2)
    from quivertilt.modules import direct_sum
    expected = direct_sum([projective(a2, "1"), projective(a2, "2")])
    assert is_isomorphic(r, expected)


def test_simple_modules(cycle2):
    assert simple(cycle2, "2").dim_vector() == (0, 1)
    with pytest.raises(InputError):
        simple(cycle2, "7")


def test_hom_from_projective_counts_dimensions(all_algebras):
    for alg in all_algebras.values():
        for v in alg.vertices:
            p = projective(alg, v)
            for w in alg.vertices:
                m = injective(alg, w)
                assert hom_space(p, m).dim == m.dims[v]


def test_unknown_vertex_errors(cycle2):
    with pytest.raises(InputError):
        projective(cycle2, "3")
    with pytest.raises(InputError):
        injective(cycle2, "0")


def test_non_admissible_input_is_rejected():
    # a loop with no relations is infinite-dimensional
    q = Quiver(("1",), (("x", "1", "1"),))
    with pytest.raises(BoundExceeded):
        build_algebra(q, [], QQ, max_path_len=12)


def test_a_negative_path_length_bound_is_an_input_error():
    # K[x]/(x^2): a budget of 0 is a budget too small, -1 is no budget
    q = Quiver(("1",), (("x", "1", "1"),))
    rels = [RelationPoly(((1, ("x", "x")),))]
    text = "field Q\nvertex 1\narrow x: 1 -> 1\nrelation x*x\n"
    assert parse_algebra_text(text).dim == build_algebra(q, rels, QQ).dim == 2
    for bad in (-1, -5):
        with pytest.raises(InputError, match="max_path_len"):
            build_algebra(q, rels, QQ, max_path_len=bad)
        with pytest.raises(InputError, match="max_path_len"):
            parse_algebra_text(text, max_path_len=bad)
    with pytest.raises(BoundExceeded):
        build_algebra(q, rels, QQ, max_path_len=0)
    with pytest.raises(BoundExceeded):
        parse_algebra_text(text, max_path_len=0)


def test_relation_validation():
    q = Quiver(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
    with pytest.raises(InputError):
        # length-1 term is not admissible
        RelationPoly(((1, ("a",)),)).validate(q)
    with pytest.raises(InputError):
        # non-composable word
        RelationPoly(((1, ("a", "a")),)).validate(q)
    with pytest.raises(InputError):
        # non-parallel terms
        RelationPoly(((1, ("a", "b")), (1, ("b", "a")))).validate(q)


def test_composition_convention_is_forced(cycle2):
    """The fixture reading (a then b = 0) gives P_2 uniserial with socle S_2;
    the opposite reading would give dimension vector (1,1) instead."""
    p2 = projective(cycle2, "2")
    assert p2.dim_vector() == (1, 2)
    q = Quiver(("1", "2"), (("a", "1", "2"), ("b", "2", "1")))
    other = build_algebra(q, [RelationPoly(((1, ("b", "a")),))], QQ)
    assert projective(other, "2").dim_vector() == (1, 1)


def test_opposite_algebra(triple3):
    op = opposite_algebra(triple3)
    assert op.dim == triple3.dim
    # P_v over the opposite algebra counts paths ending at v in the original
    assert projective(op, "1").total_dim == len(triple3.paths_to("1"))
    opop = opposite_algebra(op)
    assert opop.dim == triple3.dim
    assert {p for p in opop.basis} == {p for p in triple3.basis}


def test_inhomogeneous_relation_layer_elimination():
    # commutative square with one corner zeroed via a length-3 identification:
    # relations of mixed term lengths exercise the elimination
    q = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2")))
    rels = [RelationPoly(((1, ("a", "b")), (-1, ("c", "b"))))]
    alg = build_algebra(q, rels, QQ)
    # paths: 3 vertices, 3 arrows, length-2: a*b = c*b identified -> one class
    assert alg.dim == 3 + 3 + 1


def test_prime_field_build(cycle2):
    q = cycle2.quiver
    alg101 = build_algebra(q, cycle2.relations, GF(101))
    assert alg101.dim == 5
    assert projective(alg101, "2").dim_vector() == (1, 2)


# -- the generator-triple certificate against the full sweep ----------------------

CORRUPTION_FIELDS = [None, GF(2), GF(3), GF(101)]


def _with_constant(alg, i, j, k, value):
    """alg's table with the coefficient of basis[k] in basis[i] * basis[j]
    set to value, unverified."""
    row = dict(alg.mult[(i, j)])
    row[k] = value
    mult = dict(alg.mult)
    mult[(i, j)] = tuple(sorted((t, c) for t, c in row.items() if c))
    return Algebra(alg.quiver, alg.relations, alg.field, alg.basis, mult, alg.max_path_len)


def _rejected(alg) -> bool:
    try:
        alg._verify()
    except ConsistencyError:
        return True
    return False


def _corruptions(field):
    """(fixture name, corrupted table, where) for each structure constant c
    of the four fixture tables set to c + 1, c - 1 and 0, where these
    differ from c."""
    for name in ("a2", "kron2", "cycle2", "triple3"):
        alg = fixture_algebra(name, field)
        fld = alg.field
        for (i, j), row in alg.mult.items():
            for k in range(alg.dim):
                c = dict(row).get(k, fld.zero())
                values = []
                for value in (fld.add(c, fld.one()), fld.sub(c, fld.one()), fld.zero()):
                    if value != c and value not in values:
                        values.append(value)
                for value in values:
                    yield name, _with_constant(alg, i, j, k, value), (
                        alg.basis[i], alg.basis[j], alg.basis[k], value)


@pytest.mark.parametrize("field", CORRUPTION_FIELDS, ids=["Q", "GF2", "GF3", "GF101"])
def test_certificate_rejects_every_corruption_the_full_sweep_rejects(field):
    tried = swept_out = 0
    for name in ("a2", "kron2", "cycle2", "triple3"):
        alg = fixture_algebra(name, field)
        assert reference_verify_algebra(alg) and not _rejected(alg)
    for name, bad, where in _corruptions(field):
        tried += 1
        if not reference_verify_algebra(bad):
            swept_out += 1
            assert _rejected(bad), (name,) + where
    # the full sweep accepts four rescalings, such as b * a = 2 * ba in
    # cycle2 (two over GF(2)): associative and unital, but ba is then not
    # the product of its first arrow and its suffix, which the certificate
    # rejects
    assert (tried, swept_out) == ((945, 943) if field == GF(2) else (1890, 1886))


def _noncanonical_corruptions(field):
    """(algebra name, table, where) for each zero product a * b_k of an
    arrow a and a path b_k of length >= 1, in the cycle2 and triple3 tables
    and radical-square-zero A_4, rewritten as ((t, 0),), ((t, 1), (t, -1))
    or ((t, 1), (t, 1)) for every basis index t: a zero coefficient or a
    repeated index.  The certificate's arrow triple (a, b_k, e) times the
    unit row ((b_k, 1),) of b_k * e by a on the left, so it meets the
    entry through _row_times."""
    algebras = [("cycle2", fixture_algebra("cycle2", field)),
                ("triple3", fixture_algebra("triple3", field)),
                ("A4/rad2", linear_algebra(4, True, field or QQ))]
    for name, alg in algebras:
        fld = alg.field
        one, minus_one = fld.one(), fld.neg(fld.one())
        for a in (alg.basis_index_of_arrow(arrow) for arrow, _, _ in alg.quiver.arrows):
            for k in alg.paths_from(alg.path_target(a)):
                if not alg.basis[k][1] or alg.mult[(a, k)]:
                    continue
                for t in range(alg.dim):
                    for row in (((t, fld.zero()),), ((t, one), (t, minus_one)),
                                ((t, one), (t, one))):
                        mult = dict(alg.mult)
                        mult[(a, k)] = row
                        yield name, Algebra(alg.quiver, alg.relations, fld, alg.basis, mult,
                                            alg.max_path_len), (alg.basis[a], alg.basis[k], row)


@pytest.mark.parametrize("field", CORRUPTION_FIELDS, ids=["Q", "GF2", "GF3", "GF101"])
def test_certificate_sums_entries_that_are_not_canonical(field):
    """A unit row times an entry with a zero coefficient or a repeated
    index is summed, not passed through: the certificate gives the
    generator-triple verdict on every such table, and accepts exactly the
    entries that sum to zero (((t, 1), (t, 1)) too over GF(2))."""
    tried = accepted = 0
    for name, bad, where in _noncanonical_corruptions(field):
        tried += 1
        verdict = _rejected(bad)
        accepted += not verdict
        assert verdict != reference_generator_certificate(bad), (name,) + where
    assert tried and accepted == (tried if field == GF(2) else 2 * tried // 3)


def test_certificate_checks_the_unit_law(a2):
    # e_1 * a = 0: associative, and e_1, e_2 stay orthogonal idempotents,
    # but e_1 + e_2 is not a unit
    e1, a = a2.vertex_idempotent("1"), a2.basis_index_of_arrow("a")
    bad = _with_constant(a2, e1, a, a, 0)
    with pytest.raises(ConsistencyError, match="summing to 1"):
        bad._verify()
    assert not reference_verify_algebra(bad)


def test_certificate_rejects_a_basis_that_is_not_suffix_closed():
    # 1 -a-> 2 -b-> 3 with basis e_1, e_2, e_3, a, ab: the suffix b of ab is
    # missing, and the table, which never forms a * b, is still associative
    q = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3")))
    basis = (("1", ()), ("2", ()), ("3", ()), ("1", ("a",)), ("1", ("a", "b")))
    src, tgt = (0, 1, 2, 0, 0), (0, 1, 2, 1, 2)
    mult = {(i, j): () for i in range(5) for j in range(5)}
    for i in range(5):
        mult[(src[i], i)] = mult[(i, tgt[i])] = ((i, 1),)
    alg = Algebra(q, (), QQ, basis, mult)
    assert reference_verify_algebra(alg)
    with pytest.raises(ConsistencyError, match="not suffix-closed"):
        alg._verify()


@pytest.mark.parametrize("field", CORRUPTION_FIELDS, ids=["Q", "GF2", "GF3", "GF101"])
def test_graded_certificate_gives_the_generator_verdict_on_every_corruption(field):
    """The graded certificate and the check of every generator triple it
    replaced give the same verdict on every corrupted fixture table."""
    tried = rejected = 0
    for name, bad, where in _corruptions(field):
        tried += 1
        verdict = _rejected(bad)
        rejected += verdict
        assert verdict != reference_generator_certificate(bad), (name,) + where
    assert (tried, rejected) == ((945, 945) if field == GF(2) else (1890, 1890))


def test_graded_certificate_gives_the_generator_verdict_on_valid_tables(all_algebras):
    tables = list(all_algebras.values()) + [fixture_algebra(name, GF(3)) for name in all_algebras]
    tables += [linear_algebra(n, rad2) for n in range(3, 9) for rad2 in (False, True)]
    tables += [opposite_algebra(alg) for alg in list(tables)]
    tables.append(non_prefix_closed_algebra())
    tables += [reordered_algebra(alg, range(alg.dim)[::-1]) for alg in list(tables)]
    # off-grading entries whose coefficients sum to 0 are a zero product
    for alg, row in ((all_algebras["a2"], ((2, 0),)), (linear_algebra(3), ((4, 1), (4, -1)))):
        a = alg.basis_index_of_arrow(alg.quiver.arrows[0][0])
        mult = dict(alg.mult)
        mult[(a, a)] = row
        tables.append(Algebra(alg.quiver, alg.relations, alg.field, alg.basis, mult))
    for alg in tables:
        assert reference_generator_certificate(alg)
        alg._verify()


@pytest.mark.parametrize("algebra, product, row", [
    # a * a = a in A_2: t(a) = 2 is not s(a) = 1
    (lambda: fixture_algebra("a2"), ("a", "a"), ("a",)),
    # a1 * a1 = a2 in A_3: a2 starts at 2, not at s(a1) = 1
    (lambda: linear_algebra(3), ("a1", "a1"), ("a2",)),
])
def test_a_table_that_breaks_only_the_grading_is_rejected(algebra, product, row):
    """The product is one no arrow triple with s(b_j) = t(a) and s(b_k) =
    t(b_j) reads and no suffix check uses, so only the grading sees it;
    the generator-triple check sees it at (e_{s(a)}, a, a)."""
    alg = algebra()
    paths = [alg.basis_index_of_arrow(a) for a in product]
    mult = dict(alg.mult)
    mult[tuple(paths)] = tuple((alg.basis_index_of_arrow(a), 1) for a in row)
    bad = Algebra(alg.quiver, alg.relations, alg.field, alg.basis, mult, alg.max_path_len)
    with pytest.raises(ConsistencyError, match="graded"):
        bad._verify()
    assert not reference_generator_certificate(bad) and not reference_verify_algebra(bad)


def test_a_basis_path_outside_the_quiver_is_rejected_by_the_certificate(a2):
    """A malformed basis builds the tables without raising; _verify rejects
    it: a path from a vertex the quiver lacks (which the unit, the sum of
    the vertex idempotents, would kill) and a word with an unknown arrow."""
    for path in (("3", ()), ("1", ("c",))):
        basis = a2.basis + (path,)
        mult = dict(a2.mult)
        for k in range(len(basis)):
            mult.setdefault((k, len(basis) - 1), ())
            mult.setdefault((len(basis) - 1, k), ())
        bad = Algebra(a2.quiver, a2.relations, a2.field, basis, mult)
        with pytest.raises(ConsistencyError, match="not a path of the quiver"):
            bad._verify()
    # no e_3 for an isolated vertex 3: the unit misses it
    q = Quiver(("1", "2", "3"), a2.quiver.arrows)
    bad = Algebra(q, a2.relations, a2.field, a2.basis, a2.mult)
    with pytest.raises(ConsistencyError, match="summing to 1"):
        bad._verify()
    assert not reference_generator_certificate(bad)


def test_lookup_tables_are_fields_equal_to_their_definitions(all_algebras):
    for alg in list(all_algebras.values()) + [non_prefix_closed_algebra()]:
        for alg in (alg, opposite_algebra(alg), reordered_algebra(alg, range(alg.dim)[::-1])):
            index = {p: i for i, p in enumerate(alg.basis)}
            for i, (src, word) in enumerate(alg.basis):
                tgt = alg.arrow_endpoints(word[-1])[1] if word else src
                assert (alg.path_source(i), alg.path_target(i)) == (src, tgt)
                assert alg.suffix_index(i) == (
                    index.get((alg.arrow_endpoints(word[0])[1], word[1:])) if word else None)
                prefix = index.get((src, word[:-1])) if word else None
                assert alg._prefix[i] == (prefix if prefix is not None and prefix < i else None)
            for v in alg.vertices:
                assert alg.paths_from(v) == tuple(i for i in range(alg.dim)
                                                  if alg.basis[i][0] == v)
                assert alg.paths_to(v) == tuple(i for i in range(alg.dim)
                                                if alg.path_target(i) == v)
                assert alg.basis[alg.vertex_idempotent(v)] == (v, ())
            for name, s, t in alg.quiver.arrows:
                assert alg.basis[alg.basis_index_of_arrow(name)] == (s, (name,))
            with pytest.raises(InputError):
                alg.paths_from("nowhere")
            with pytest.raises(InputError):
                alg.paths_to("nowhere")
            with pytest.raises(InputError):
                alg.vertex_idempotent("nowhere")
            with pytest.raises(InputError):
                alg.arrow_endpoints("nowhere")
            with pytest.raises(InputError):
                alg.basis_index_of_arrow("nowhere")
    assert None in non_prefix_closed_algebra()._prefix[10:]


def test_opposite_tables_pass_the_certificate(all_algebras):
    for alg in all_algebras.values():
        op = opposite_algebra(alg)
        op._verify()
        assert reference_verify_algebra(op)


def test_a12_builds_and_certifies_its_regular_module():
    alg = linear_algebra(12)
    assert alg.dim == 78
    assert tilting_summary(tilting_module_check(regular_module(alg))) == ("certified", 12)


def _exact(rep):
    """Dims and arrow matrices of a representation, each entry with its type."""
    return (rep.dims, {name: (m.rows, m.cols, tuple((type(x), x) for r in m.entries for x in r))
                       for name, m in rep.arrow_mats.items()})


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=str)
def test_standard_modules_equal_the_path_construction(field):
    """projective, injective and regular_module equal the construction from
    basis paths that proj_sum and the transpose of left multiplication
    replaced, entry for entry; the regular module records the P_v as its
    parts and is laid out as proj_sum_layout(alg, alg.vertices), the paths
    grouped by starting vertex, and so is every projective sum."""
    algebras = [fixture_algebra(name, None if field == QQ else field)
                for name in ("a2", "kron2", "cycle2", "triple3")]
    algebras += [linear_algebra(n, rad2, field) for n in range(2, 6) for rad2 in (False, True)]
    for alg in algebras:
        ps = {v: reference_module_from_paths(alg, alg.paths_from(v), dual=False)
              for v in alg.vertices}
        for v in alg.vertices:
            assert _exact(projective(alg, v)) == _exact(ps[v])
            assert _exact(injective(alg, v)) == _exact(
                reference_module_from_paths(alg, alg.paths_to(v), dual=True))
        r = regular_module(alg)
        assert _exact(r) == _exact(direct_sum([ps[v] for v in alg.vertices]))
        assert [_exact(part) for part in r._parts] == [
            _exact(ps[v]) for v in alg.vertices]
        gens = alg.vertices[::-1] + alg.vertices[:1]
        assert proj_sum_layout(alg, alg.vertices) == {
            w: tuple((j, i) for j, v in enumerate(alg.vertices)
                     for i in alg.paths_from(v) if alg.path_target(i) == w)
            for w in alg.vertices}
        assert _exact(proj_sum(alg, gens)) == _exact(direct_sum([ps[v] for v in gens]))


class _Cached:
    def __init__(self):
        self._caches = {}


def test_memo_computes_once_per_key():
    obj, runs = _Cached(), []

    def compute():
        runs.append(1)
        return [len(runs)]

    first = _memo(obj, "k", compute)
    assert _memo(obj, "k", compute) is first and first == [1]
    assert _memo(obj, ("k", 2), compute) == [2] and _memo(obj, ("k", 2), compute) == [2]
    assert _memo(obj, "k", compute, keep=lambda v: True) is first
    assert len(runs) == 2


def test_memo_replaces_a_value_keep_rejects():
    obj = _Cached()
    assert _memo(obj, "k", lambda: 1) == 1
    assert _memo(obj, "k", lambda: 5, keep=lambda v: v >= 3) == 5
    assert _memo(obj, "k", lambda: 9) == 5
    assert _memo(obj, "k", lambda: 9, keep=lambda v: v >= 3) == 5


def test_memo_stores_nothing_when_compute_raises():
    obj, runs = _Cached(), []

    def failing():
        runs.append(1)
        raise BoundExceeded("budget")

    for _ in range(2):
        with pytest.raises(BoundExceeded):
            _memo(obj, "k", failing)
    assert len(runs) == 2
    assert _memo(obj, "k", lambda: 3) == 3


# -- the monomial construction against the elimination ----------------------------

MONOMIAL_FIELDS = [QQ, GF(101), GF(2), GF(3)]


def _by_elimination(quiver, relations, fld, max_path_len=64):
    """The algebra the reference elimination rounds build from the
    relations, whatever the ideal."""
    relations = tuple(relations)
    amap = quiver.arrow_map()
    vectors = [vec for vec in (_rel_vector(r, amap, fld) for r in relations) if vec]
    return reference_elimination(quiver, relations, fld, vectors, max_path_len)


def _same_as_elimination(monkeypatch, quiver, relations, fld, max_path_len=64):
    """build_algebra takes the monomial route on these relations and gives
    the elimination's basis and table, or raises the same exception type.
    Returns the outcome: the algebra or the exception type."""
    monomial = counting(monkeypatch, algebra_module, "_build_monomial")
    outcomes = []
    for build in (build_algebra, _by_elimination):
        try:
            alg = build(quiver, relations, fld, max_path_len)
        except (BoundExceeded, InputError) as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append(alg)
    monkeypatch.undo()
    assert len(monomial) == 1
    got, want = outcomes
    if isinstance(want, type):
        assert got is want
    else:
        assert (got.basis, got.mult) == (want.basis, want.mult)
    return got


def _relabelled_linear(n, rad2, seed):
    """A_n with its vertices and arrows declared in a seeded order; with
    ``rad2`` every path of length two is a relation, listed in seeded
    order too."""
    rng = random.Random(f"{n}/{rad2}/{seed}")
    vertices = [f"v{i}" for i in rng.sample(range(10 * n), n)]
    names = [f"e{i}" for i in rng.sample(range(10 * n), n - 1)]
    arrows = [(names[i], vertices[i], vertices[i + 1]) for i in range(n - 1)]
    rels = [RelationPoly(((1, (names[i], names[i + 1])),)) for i in range(n - 2)] if rad2 else []
    for part in (vertices, arrows, rels):
        rng.shuffle(part)
    return Quiver(tuple(vertices), tuple(arrows)), rels


@pytest.mark.parametrize("field", MONOMIAL_FIELDS, ids=["Q", "GF101", "GF2", "GF3"])
def test_monomial_fixtures_build_as_the_elimination_builds(monkeypatch, field):
    for name in ("a2", "kron2", "cycle2"):
        alg = fixture_algebra(name, field)
        _same_as_elimination(monkeypatch, alg.quiver, alg.relations, alg.field)


@pytest.mark.parametrize("field", MONOMIAL_FIELDS, ids=["Q", "GF101", "GF2", "GF3"])
def test_a_binomial_relation_builds_through_the_elimination(monkeypatch, field):
    """triple3's b*a - g*d is no zero relation: the elimination builds it,
    with the reference elimination's basis and table."""
    alg = fixture_algebra("triple3", field)
    got, _ = _mixed_as_reference(monkeypatch, alg.quiver, alg.relations, alg.field)
    assert (got.basis, got.mult) == (alg.basis, alg.mult) and alg.dim == 9


def test_linear_families_build_as_the_elimination_builds(monkeypatch):
    for seed in range(3):
        for n in range(2, 13):
            for rad2 in (False, True):
                q, rels = _relabelled_linear(n, rad2, seed)
                fld = GF(101) if rad2 else QQ
                alg = _same_as_elimination(monkeypatch, q, rels, fld)
                assert alg.dim == (2 * n - 1 if rad2 else n * (n + 1) // 2)


def test_a_truncated_loop_builds_as_the_elimination_builds(monkeypatch):
    # K[x]/(x^k): dimension k, and BoundExceeded once the bound is below k
    q = Quiver(("1",), (("x", "1", "1"),))
    for k in range(2, 6):
        rels = [RelationPoly(((1, ("x",) * k),))]
        assert _same_as_elimination(monkeypatch, q, rels, QQ).dim == k
        assert _same_as_elimination(monkeypatch, q, rels, QQ, k) is not BoundExceeded
        assert _same_as_elimination(monkeypatch, q, rels, QQ, k - 1) is BoundExceeded


def test_path_length_bounds_build_as_the_elimination_builds(monkeypatch):
    # radical-square-zero A_3 has no path of length 2: a bound of 2 suffices
    q, rels = _relabelled_linear(3, True, 0)
    outcomes = [_same_as_elimination(monkeypatch, q, rels, QQ, bound) for bound in range(4)]
    assert outcomes[:2] == [BoundExceeded] * 2
    assert [alg.dim for alg in outcomes[2:]] == [5, 5]


@pytest.mark.parametrize("field, terms, dim", [
    # 101 * a*b vanishes over GF(101): no relation, the hereditary algebra
    (GF(101), ((101, ("a", "b")),), 8),
    (GF(2), ((2, ("a", "b")), (4, ("c", "b"))), 8),
    # a*b - a*b cancels to no relation
    (QQ, ((1, ("a", "b")), (-1, ("a", "b"))), 8),
    # c*b + a*b - c*b cancels to the zero relation a*b
    (QQ, ((1, ("c", "b")), (1, ("a", "b")), (-1, ("c", "b"))), 7),
    (GF(3), ((2, ("a", "b")), (1, ("c", "b")), (2, ("c", "b"))), 7),
    (GF(2), ((1, ("c", "b")), (1, ("a", "b")), (1, ("c", "b"))), 7),
], ids=["vanishing-GF101", "vanishing-GF2", "cancelling-Q", "cancelling-to-one-Q",
        "cancelling-to-one-GF3", "cancelling-to-one-GF2"])
def test_vanishing_and_cancelling_relations_build_as_the_elimination_builds(
        monkeypatch, field, terms, dim):
    # 1 -a-> 2 -b-> 3 and 1 -c-> 2: paths e_1, e_2, e_3, a, b, c, ab, cb
    q = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2")))
    assert _same_as_elimination(monkeypatch, q, [RelationPoly(terms)], field).dim == dim


@st.composite
def monomial_inputs(draw):
    """A quiver on at most 4 vertices with at most 5 arrows, loops and
    cycles allowed, and zero relations along walks of length 2 or 3 with
    coefficients that may vanish in the field."""
    vertices = tuple(str(v) for v in range(1, draw(st.integers(1, 4)) + 1))
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         max_size=5))
    arrows = tuple((f"x{i}", s, t) for i, (s, t) in enumerate(ends))
    rels = []
    for _ in range(draw(st.integers(0, 6)) if arrows else 0):
        walk = [draw(st.sampled_from(arrows))]
        for _ in range(draw(st.integers(1, 2))):
            after = [a for a in arrows if a[1] == walk[-1][2]]
            if not after:
                break
            walk.append(draw(st.sampled_from(after)))
        if len(walk) >= 2:
            coeff = draw(st.sampled_from((1, -1, 2, 3)))
            rels.append(RelationPoly(((coeff, tuple(a[0] for a in walk)),)))
    fld = draw(st.sampled_from((QQ, GF(2), GF(3))))
    return Quiver(vertices, arrows), rels, fld


@settings(max_examples=80, deadline=None)
@given(monomial_inputs())
def test_random_monomial_algebras_build_as_the_elimination_builds(case):
    """Finite-dimensional or not (a loop or cycle no word cuts): the same
    basis and table, or BoundExceeded on both routes."""
    q, rels, fld = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _same_as_elimination(monkeypatch, q, rels, fld, max_path_len=5)


# -- mixed ideals in their monomial quotient against the reference elimination ----


def _mixed_as_reference(monkeypatch, quiver, relations, fld, max_path_len=64):
    """build_algebra takes the elimination route exactly when a relation
    keeps two terms over fld.  Where the reference elimination builds, it
    gives the same basis and table; where the reference raises
    BoundExceeded, it raises BoundExceeded too or returns an algebra that
    passes _verify and the full sweep.  Returns both outcomes,
    build_algebra's first: an algebra or BoundExceeded."""
    amap = quiver.arrow_map()
    mixed = any(len(_rel_vector(r, amap, fld)) > 1 for r in relations)
    rounds = counting(monkeypatch, algebra_module, "_build_by_elimination")
    outcomes = []
    for build in (build_algebra, _by_elimination):
        try:
            outcomes.append(build(quiver, relations, fld, max_path_len))
        except BoundExceeded:
            outcomes.append(BoundExceeded)
    monkeypatch.undo()
    assert len(rounds) == mixed
    got, want = outcomes
    if want is not BoundExceeded:
        assert got is not BoundExceeded and (got.basis, got.mult) == (want.basis, want.mult)
    elif got is not BoundExceeded:
        got._verify()
        assert reference_verify_algebra(got)
    return got, want


@pytest.mark.parametrize("field", MONOMIAL_FIELDS, ids=["Q", "GF101", "GF2", "GF3"])
@pytest.mark.parametrize("terms, dim", [
    ([((1, ("a", "b")), (-1, ("c", "b")))], 7),
    ([((1, ("a", "b")), (5, ("c", "b")))], 7),
    ([((1, ("a", "b")), (-1, ("c", "b"))), ((1, ("a", "b")),)], 6),
    ([((1, ("c", "b")), (1, ("a", "b"))), ((3, ("c", "b")),)], None),
], ids=["ab=cb", "ab=-5cb", "ab=cb=0", "cb-vanishing-over-GF3"])
def test_mixed_relations_on_a_square_build_as_the_reference_builds(monkeypatch, field, terms,
                                                                   dim):
    """The quiver of test_inhomogeneous_relation_layer_elimination, with a
    relation between a*b and c*b, alone or beside a zero relation."""
    q = Quiver(("1", "2", "3"), (("a", "1", "2"), ("b", "2", "3"), ("c", "1", "2")))
    rels = [RelationPoly(t) for t in terms]
    got, _ = _mixed_as_reference(monkeypatch, q, rels, field)
    # over GF(3), 3*c*b is no relation and c*b + a*b stays mixed; elsewhere
    # it is the zero relation c*b, which leaves a*b = 0 too
    assert got.dim == (dim or (7 if field == GF(3) else 6))


def _loops_algebra(field, names, relations, max_path_len=64):
    """One vertex with the loops ``names``, from the text of its file."""
    text = f"field {field}\nvertex 1\n" + "".join(f"arrow {x}: 1 -> 1\n" for x in names)
    return parse_algebra_text(text + "".join(f"relation {r}\n" for r in relations),
                              max_path_len=max_path_len)


@pytest.mark.parametrize("field, names, relations, dim", [
    ("Q", ("x", "y"), ("x*y", "y*x", "x*x*x - y*y"), 5),
    ("GF(101)", ("x", "y"), ("x*y", "y*x", "x*x*x - y*y"), 5),
    ("GF(2)", ("x0", "x1"), ("x0*x1", "x0*x0*x1 + x0*x0", "x0*x1*x1 - x1*x1"), 4),
    ("Q", ("x0", "x1"), ("x0*x1", "x0*x0*x1 + x0*x0", "x0*x1*x1 - x1*x1"), 4),
])
def test_admissible_algebras_the_fixed_round_count_refused_build(monkeypatch, field, names,
                                                                 relations, dim):
    """The reference elimination raises BoundExceeded on these: its fixed
    2 * death_len - 4 rounds leave a path of the window irreducible.  In
    the monomial quotient they build, and pass _verify and the full sweep."""
    alg = _loops_algebra(field, names, relations)
    assert alg.dim == dim
    got, want = _mixed_as_reference(monkeypatch, alg.quiver, alg.relations, alg.field)
    assert want is BoundExceeded and (got.basis, got.mult) == (alg.basis, alg.mult)


def test_rounds_go_on_while_a_new_rule_leads_inside_the_window(monkeypatch):
    """Pruning with a fixed 2 * death_len - 4 rounds raised BoundExceeded
    here; the rounds that go on while a new leading path lies in the window
    build the algebra the reference builds."""
    relations = ("x0*x0", "3*x1*x1*x1", "-x0*x0*x0", "2*x0*x1*x1", "x0*x1*x1",
                 "x1*x1*x1 + 2*x1*x1", "x0*x1*x0 - x1*x0")
    alg = _loops_algebra("GF(3)", ("x0", "x1"), relations, max_path_len=4)
    assert alg.dim == 5 and [word for _, word in alg.basis] == [
        (), ("x0",), ("x1",), ("x0", "x1"), ("x1", "x1")]
    _, want = _mixed_as_reference(monkeypatch, alg.quiver, alg.relations, alg.field, 4)
    assert want is not BoundExceeded


def test_no_rule_of_triple3_leads_with_a_zero_relation_word(monkeypatch):
    """The words a*g, d*g and d*b are never eliminated: after triple3 is
    built, the count of rules whose leading path contains one is 0.  The
    reference elimination, which takes them as rules, has such rules."""
    import oracles

    built = counting(monkeypatch, algebra_module, "_from_elimination")
    referenced = counting(monkeypatch, oracles, "_from_elimination")
    alg = fixture_algebra("triple3")
    _by_elimination(alg.quiver, alg.relations, alg.field)
    words = {("a", "g"), ("d", "g"), ("d", "b")}

    def with_word(elim):
        return [lead for _, lead in elim.rules
                if any(lead[i:i + 2] in words for i in range(len(lead) - 1))]

    (args,), (ref_args,) = built, referenced
    assert len(with_word(args[4])) == 0
    assert len(with_word(ref_args[4])) > 0


@pytest.mark.parametrize("vertices, arrows, terms, field, max_path_len, dim", [
    ("12", (("x0", "2", "2"), ("x1", "2", "1"), ("x2", "1", "2")),
     [((2, ("x1", "x2", "x1")),), ((3, ("x2", "x0", "x0")),), ((2, ("x2", "x1")),),
      ((3, ("x1", "x2", "x0")),), ((2, ("x2", "x0")), (3, ("x2", "x0", "x0"))),
      ((2, ("x0", "x1", "x2")), (1, ("x0", "x0")))], GF(3), 3, 8),
    ("1", (("x0", "1", "1"), ("x1", "1", "1")),
     [((3, ("x0", "x0", "x0")),), ((2, ("x0", "x1")),), ((3, ("x1", "x1", "x1")),),
      ((-1, ("x1", "x1")), (-1, ("x0", "x1", "x1"))),
      ((3, ("x1", "x0", "x0")), (2, ("x0", "x0")))], GF(3), 5, 4),
    ("123", (("x0", "3", "2"), ("x1", "2", "1"), ("x2", "1", "3"), ("x3", "3", "1")),
     [((-1, ("x1", "x2")),), ((-1, ("x2", "x0")),),
      ((2, ("x0", "x1", "x2")), (-1, ("x3", "x2")))], GF(3), 5, 9),
    # vertex 2 is isolated
    ("123", (("x0", "1", "3"), ("x1", "1", "1"), ("x2", "3", "1")),
     [((3, ("x0", "x2")), (3, ("x1", "x1", "x1"))),
      ((2, ("x2", "x0")), (3, ("x2", "x1", "x0")))], GF(2), 5, 20),
    ("1", (("x0", "1", "1"), ("x1", "1", "1")),
     [((1, ("x1", "x1")),), ((-1, ("x1", "x1", "x0")),), ((2, ("x0", "x0")),),
      ((3, ("x0", "x0", "x1")), (3, ("x1", "x1", "x1"))),
      ((1, ("x1", "x0", "x0")), (-1, ("x1", "x0")))], QQ, 5, 4),
])
def test_random_inputs_the_reference_refuses_build_and_pass_the_sweep(
        monkeypatch, vertices, arrows, terms, field, max_path_len, dim):
    """Inputs of mixed_inputs' kind, found among about 6,000 generated
    ones, on which the reference elimination raises BoundExceeded and
    build_algebra returns an algebra that passes _verify and the full
    sweep.  ``dim`` was checked by hand on the four smaller ones; on the
    GF(2) one, the paths of length < 5 span a 20-dimensional space modulo
    the ideal's instances of length <= 10."""
    q = Quiver(tuple(vertices), arrows)
    got, want = _mixed_as_reference(monkeypatch, q, [RelationPoly(t) for t in terms], field,
                                    max_path_len)
    assert want is BoundExceeded and got.dim == dim


def _parallel_walks(arrows):
    """The walks of length 2 or 3 grouped by their endpoints, groups of at
    least two walks only."""
    groups, walks = {}, [(a,) for a in arrows]
    for length in (2, 3):
        walks = [w + (a,) for w in walks for a in arrows if a[1] == w[-1][2]]
        for w in walks:
            groups.setdefault((w[0][1], w[-1][2]), []).append(tuple(a[0] for a in w))
    return [g for g in groups.values() if len(g) >= 2]


@st.composite
def mixed_inputs(draw):
    """A monomial input (monomial_inputs) whose quiver has two parallel
    walks of length 2 or 3, with one or two relations between two such
    walks, coefficients that may vanish in the field, and a max_path_len of
    3 to 6."""
    q, rels, fld = draw(monomial_inputs())
    groups = _parallel_walks(q.arrows)
    assume(groups)
    for _ in range(draw(st.integers(1, 2))):
        pair = draw(st.lists(st.sampled_from(draw(st.sampled_from(groups))),
                             min_size=2, max_size=2, unique=True))
        rels.append(RelationPoly(tuple((draw(st.sampled_from((1, -1, 2, 3))), w)
                                       for w in pair)))
    return q, rels, fld, draw(st.integers(3, 6))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mixed_inputs())
def test_random_mixed_ideals_build_as_the_reference_builds(case):
    """A fixed draw of 100 inputs: a free loop algebra at max_path_len 6
    takes the reference elimination seconds and about 100 MiB, which a
    fresh draw on every run could meet, and a later test reads the peak
    RSS of a child forked from this process."""
    q, rels, fld, max_path_len = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _mixed_as_reference(monkeypatch, q, rels, fld, max_path_len)
