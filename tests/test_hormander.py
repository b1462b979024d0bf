import itertools

import numpy as np
import pytest

from ccgeo.hormander import (
    EXHAUSTIVE_LIMIT,
    Box,
    WeightedSystem,
    _greedy_witness,
    _max_subset_det,
    build_Z_system,
    check_hormander,
    check_span_at,
    enumerate_commutators,
)
from ccgeo.symexpr import parse_vfield


def grushin(half=1.0):
    return WeightedSystem(
        fields=(
            (parse_vfield("1, 0", 2), 1),
            (parse_vfield("0, x1", 2), 1),
        ),
        box=Box((half, half)),
    )


def elliptic(n=2):
    comps = []
    for i in range(n):
        comps.append(", ".join("1" if j == i else "0" for j in range(n)))
    return WeightedSystem(
        fields=tuple((parse_vfield(c, n), 1) for c in comps),
        box=Box((1.0,) * n),
    )


def heat():
    return WeightedSystem(
        fields=(
            (parse_vfield("1, 0", 2), 1),
            (parse_vfield("0, 1", 2), 2),
        ),
        box=Box((1.0, 1.0), has_boundary=True),
    )


def degenerate():
    return WeightedSystem(
        fields=(
            (parse_vfield("x1, 0", 2), 1),
            (parse_vfield("0, x1", 2), 1),
        ),
        box=Box((1.0, 1.0)),
    )


def test_enumerate_grushin_contains_bracket():
    entries = enumerate_commutators(grushin(), 2)
    words = {e.word: e for e in entries}
    assert (1, 2) in words
    e = words[(1, 2)]
    assert e.degree == 2
    assert not e.is_zero
    np.testing.assert_allclose(e.field.eval_at((0.3, 0.7)), [0.0, 1.0])


def test_enumerate_order_one_is_generators():
    entries = enumerate_commutators(grushin(), 1)
    assert [e.word for e in entries] == [(1,), (2,)]


def test_enumerate_commuting_fields_keeps_flagged_zero():
    sys = heat()
    entries = enumerate_commutators(sys, 2)
    degs = sorted((e.degree, e.is_zero) for e in entries)
    # generators (1, 2) plus a single zero bracket of degree 3
    assert degs == [(1, False), (2, False), (3, True)]


def test_build_z_grushin_dedups_antisymmetric_pair():
    z = build_Z_system(grushin(), 2)
    assert z.degrees == (1, 1, 2)
    assert z.words == ((1,), (2,), (1, 2))


def test_build_z_elliptic_is_itself():
    z = build_Z_system(elliptic(), 1)
    assert z.degrees == (1, 1)
    assert z.vfields() == elliptic().vfields()


def test_build_z_heat_m1_keeps_degree_two_generator():
    z = build_Z_system(heat(), 1)
    assert z.degrees == (1, 2)


def test_span_grushin_at_origin():
    entries = enumerate_commutators(grushin(), 2)
    cert = check_span_at(entries, (0.0, 0.0))
    assert cert.valid
    assert cert.gamma0 == pytest.approx(1.0, abs=1e-12)


def test_span_elliptic_identity():
    entries = enumerate_commutators(elliptic(), 1)
    cert = check_span_at(entries, (0.2, -0.4))
    assert cert.valid and cert.gamma0 == 1.0


def test_span_vanishing_field_invalid():
    sys = WeightedSystem(
        fields=((parse_vfield("x1", 1), 1),),
        box=Box((1.0,)),
    )
    cert = check_span_at(enumerate_commutators(sys, 2), (0.0,))
    assert not cert.valid and cert.gamma0 == 0.0


def test_check_hormander_grushin():
    rep = check_hormander(grushin(), 3, per_axis=21)
    assert rep.ok and rep.order == 2
    assert rep.min_gamma0 == pytest.approx(1.0, abs=1e-12)


def test_check_hormander_elliptic():
    rep = check_hormander(elliptic(), 2)
    assert rep.ok and rep.order == 1 and rep.min_gamma0 == 1.0


def test_check_hormander_rejects_degenerate():
    rep = check_hormander(degenerate(), 3, per_axis=11)
    assert not rep.ok
    assert rep.failures  # points on {x1 = 0}
    assert all(abs(p[0]) < 1e-12 for p in rep.failures)


def test_degree_additivity():
    sys = grushin()
    for e in enumerate_commutators(sys, 3):
        assert e.degree == sum(sys.degrees[j - 1] for j in e.word)


def test_gamma0_monotone_in_order():
    sys = grushin()
    p = (0.05, 0.3)
    prev = 0.0
    for m in (1, 2, 3):
        cert = check_span_at(enumerate_commutators(sys, m), p)
        assert cert.gamma0 >= prev - 1e-15
        prev = cert.gamma0


def test_rescaling_keeps_validity_verdict():
    sys = grushin()
    scaled = WeightedSystem(
        fields=tuple((vf.scaled(3.0), d) for vf, d in sys.fields),
        box=sys.box,
    )
    for p in [(0.0, 0.0), (0.5, 0.2), (-1.0, 1.0)]:
        a = check_span_at(enumerate_commutators(sys, 2), p)
        b = check_span_at(enumerate_commutators(scaled, 2), p)
        assert a.valid == b.valid


def test_exhaustive_matches_greedy():
    # Heisenberg at order 2 gives a handful of candidate columns.
    sys = WeightedSystem(
        fields=(
            (parse_vfield("0, 0-x1/2, 1", 3), 1),
            (parse_vfield("1, x3/2, 0", 3), 1),
        ),
        box=Box((1.0, 1.0, 1.0), has_boundary=True),
    )
    entries = [e for e in enumerate_commutators(sys, 2) if not e.is_zero]
    rng = np.random.default_rng(0)
    for p in [(0.0, 0.0, 0.0), (0.4, -0.2, 0.7)]:
        cert = check_span_at(entries, p)
        cols = np.array([e.field.eval_at(p) for e in entries])
        g, _ = _greedy_witness(cols, 3, rng)
        assert g == pytest.approx(cert.gamma0, abs=1e-10)

    # Weighted, above EXHAUSTIVE_LIMIT: the scan goes greedy on the
    # delta^d-scaled columns.  Large high-degree columns win unweighted
    # but lose to the unit axes once weighted.
    q = EXHAUSTIVE_LIMIT + 2
    cols = np.vstack([np.eye(3), 5.0 * rng.standard_normal((q - 3, 3))])
    degs = [1, 1, 2] + [4] * (q - 3)
    best, witness = _max_subset_det(cols, 0.1, degs)
    ref_best, ref_witness = _reference_scan(cols, 0.1, degs)
    assert tuple(witness) == ref_witness == (0, 1, 2)
    assert best == ref_best
    assert tuple(_max_subset_det(cols)[1]) != (0, 1, 2)  # the weights decide
    assert 5 in _max_subset_det(cols, 0.1, degs, require=5)[1]


def _reference_scan(cols, delta=None, degs=None, density=1.0, require=None):
    """Per-matrix determinants over itertools.combinations, first maximum."""
    q, n = cols.shape
    best, arg = -1.0, None
    for combo in itertools.combinations(range(q), n):
        if require is not None and require not in combo:
            continue
        idx = np.array(combo)
        w = 1.0 if delta is None else float(delta ** np.array(degs)[idx].sum())
        val = density * abs(np.linalg.det(cols[idx].T)) * w
        if val > best:
            best, arg = val, combo
    return best, arg


@pytest.mark.parametrize("n,q", [(2, 2), (2, 5), (3, 4), (3, 7), (4, 9)])
def test_subset_scan_matches_reference_bit_for_bit(n, q):
    rng = np.random.default_rng([n, q])
    for _ in range(20):
        cols = rng.standard_normal((q, n))
        best, witness = _max_subset_det(cols)
        assert (float(best), tuple(witness)) == _reference_scan(cols)
        degs = rng.integers(1, 4, size=q)
        delta, h = float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 2.0))
        best, witness = _max_subset_det(cols, delta, degs, density=h)
        assert (float(best), tuple(witness)) == _reference_scan(cols, delta, degs, h)
        j = int(rng.integers(q))
        best, witness = _max_subset_det(cols, delta, degs, require=j)
        assert (float(best), tuple(witness)) == _reference_scan(cols, delta, degs, require=j)


def test_subset_scan_batched_over_points_matches_per_point():
    rng = np.random.default_rng(5)
    cols = rng.standard_normal((6, 4, 5, 3))  # q = 6 columns on a 4 x 5 batch in R^3
    degs = [1, 1, 2, 2, 3, 3]
    for kw in ({}, {"delta": 0.3, "degrees": degs}):
        best, witness = _max_subset_det(cols, **kw)
        assert best.shape == (4, 5) and witness.shape == (4, 5, 3)
        for i in np.ndindex(4, 5):
            ref = _reference_scan(cols[(slice(None),) + i], kw.get("delta"), kw.get("degrees"))
            assert (float(best[i]), tuple(witness[i])) == ref


def test_subset_scan_too_few_columns():
    best, witness = _max_subset_det(np.ones((2, 7, 3)))
    assert np.all(best == 0.0) and witness.shape == (7, 0)
