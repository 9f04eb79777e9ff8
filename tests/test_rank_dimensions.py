"""Dimensions of Ext, derived Hom and cohomology are read off ranks.  They
agree with the bases built on first use and with the count of cocycles
modulo coboundaries (oracles.reference_hom_cohomology_dim), and the checks
of the rank route reject a wrong dimension and a Hom complex whose
differentials do not compose to zero."""

import pytest

import quivertilt.homology
from quivertilt import ConsistencyError, injective, projective, simple
from quivertilt.complexes import (_cohomology_dims, cohomology, derived_hom, hom_window,
                                  mapping_cone, resolve_to_complex, shift_chain_map,
                                  stack_to_common_target)
from quivertilt.homology import _hom_basis, _hom_cohomology, _hom_dim, ext
from quivertilt.linalg import Matrix
from conftest import complex_hom_args, resolution_hom_args
from oracles import reference_hom_cohomology_dim


def fixture_modules(alg):
    return [build(alg, v) for build in (simple, projective, injective) for v in alg.vertices]


def test_ext_dimension_from_ranks_matches_classes_and_reference(all_algebras):
    nonzero = 0
    for name, alg in all_algebras.items():
        mods = fixture_modules(alg)
        for m in mods:
            for n in mods:
                for k in range(4):
                    space = ext(k, m, n)
                    res = space.resolution
                    ref = reference_hom_cohomology_dim(*resolution_hom_args(res, n), k)
                    assert space.dim == len(space.classes) == ref, (name, k)
                    nonzero += space.dim > 0
    assert nonzero > 50


def test_derived_hom_dimension_from_ranks_matches_reps_and_reference(all_algebras):
    nonzero = 0
    for name, alg in all_algebras.items():
        cxs = [resolve_to_complex(m) for m in fixture_modules(alg)]
        for x in cxs:
            for y in cxs:
                for n in hom_window(x, y):
                    space = derived_hom(x, y, n)
                    ref = reference_hom_cohomology_dim(*complex_hom_args(x, y), n)
                    assert space.dim == len(space.reps) == ref, (name, n)
                    nonzero += space.dim > 0
    assert nonzero > 50


def test_cohomology_dimensions_from_ranks_match_the_cohomology_modules(all_algebras):
    """On resolutions, which are concentrated in degree 0, and on the cones
    of the maps collecting every Hom_D(x, y[i]), which are not."""
    non_concentrated = 0
    for alg in all_algebras.values():
        mods = fixture_modules(alg)
        for x in map(resolve_to_complex, mods[:len(alg.vertices)]):
            for y in map(resolve_to_complex, mods):
                parts = [shift_chain_map(f, -i) for i in hom_window(x, y)
                         for f in derived_hom(x, y, i).reps]
                for c in [y] + ([mapping_cone(stack_to_common_target(parts))[0]] if parts else []):
                    dims = _cohomology_dims(c)
                    assert set(dims) == set(c.terms)
                    for n in range(c.lo - 1, c.hi + 2):
                        assert dims.get(n, 0) == cohomology(c, n).total_dim
                    non_concentrated += any(d for n, d in dims.items() if n != 0)
    assert non_concentrated > 0


def _nonzero_pair(x, y):
    """Hom complex data of derived_hom(x, y, n) at the first n with
    Hom_D(x, y[n]) nonzero and a nonzero δⁿ⁻¹."""
    for n in hom_window(x, y):
        data = _hom_cohomology(*complex_hom_args(x, y), n)
        if data["dim"] and data.get("prev") is not None and data["prev"].rows:
            return n, data
    raise AssertionError("no degree with a nonzero class and coboundaries")


def test_wrong_dimension_handed_to_the_basis_is_rejected(cycle2):
    x = resolve_to_complex(injective(cycle2, "1"))
    _, data = _nonzero_pair(x, x)
    for wrong in (data["dim"] - 1, data["dim"] + 1):
        with pytest.raises(ConsistencyError):
            _hom_basis(dict(data, dim=wrong))
    assert _hom_basis(dict(data))["section"].rows == data["dim"]


def _break_composite(delta, prev):
    """prev with one entry changed so that prev * delta is nonzero."""
    fld = delta.field
    c = next(r for r, row in enumerate(delta.entries) if any(row))
    rows = [list(row) for row in prev.entries]
    rows[0][c] = fld.add(rows[0][c], fld.one())
    return Matrix(fld, prev.rows, prev.cols, tuple(map(tuple, rows)))


def test_hom_complex_whose_differentials_do_not_compose_to_zero_is_rejected(cycle2,
                                                                         monkeypatch):
    x = resolve_to_complex(injective(cycle2, "1"))
    n, data = _nonzero_pair(x, x)
    delta, prev = data["delta"], data["prev"]
    assert _hom_dim(delta, prev) == data["dim"]
    with pytest.raises(ConsistencyError):
        _hom_dim(delta, _break_composite(delta, prev))
    # and through derived_hom, on a fresh complex with nothing memoized
    real = quivertilt.homology._hom_differential

    def broken(xt, xd, yt, yd, k):
        layout, mat = real(xt, xd, yt, yd, k)
        return layout, (_break_composite(delta, mat) if k == n - 1 else mat)

    monkeypatch.setattr(quivertilt.homology, "_hom_differential", broken)
    y = resolve_to_complex(injective(cycle2, "1"))
    with pytest.raises(ConsistencyError):
        derived_hom(y, y, n)
