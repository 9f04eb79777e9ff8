import pytest

from quivertilt import (GF, QQ, BoundExceeded, ConsistencyError, InputError, Quiver,
                        RelationPoly, build_algebra, injective,
                        opposite_algebra, projective, regular_module, simple,
                        tilting_module_check)
from quivertilt.algebra import Algebra, _memo
from quivertilt.formats import fixture_algebra, parse_algebra_text
from quivertilt.modules import direct_sum, hom_space, is_isomorphic, proj_sum, proj_sum_layout
from conftest import (linear_algebra, non_prefix_closed_algebra, reordered_algebra,
                      tilting_summary)
from oracles import (reference_generator_certificate, reference_module_from_paths,
                     reference_verify_algebra)


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
        assert _exact(proj_sum(alg, gens).rep) == _exact(direct_sum([ps[v] for v in gens]))


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
