import math
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornvol._exact import InvariantError, p2_integrate_polygon
from hornvol.bzpolytope import clip_cell
from hornvol import sampler
from hornvol.sampler import (
    CHUNK,
    MEMBERSHIP_TOL,
    UncoveredSupportError,
    _GL4_NODES,
    _GL4_WEIGHTS,
    _bin_index,
    b2_frequencies,
    chi2_sf,
    chi_square_vs_pdf,
    expected_bin_probabilities,
    haar_orthogonal,
    horn_contains_float,
    ks_distance_so2,
    sample_b2_pairs,
    sample_b2_spectrum,
    so2_histogram,
    so2_samples,
)
from hornvol.volume import (
    _QUAD_KEYS,
    delta_b2,
    horn_polygon,
    j_so2_symmetric,
    piecewise_analyze_b2,
    so2_support,
)
from horn_reference import horn_contains_reference
from poly2 import p2_mul
from test_volume import regular_third_pairs


def test_haar_matrices_are_special_orthogonal():
    g = haar_orthogonal(np.random.default_rng(1), 5, 5, 500)
    assert np.abs(g @ g.transpose(0, 2, 1) - np.eye(5)).max() < 1e-12
    assert np.abs(np.linalg.det(g) - 1.0).max() < 1e-12


def test_haar_first_entry_second_moment():
    g = haar_orthogonal(np.random.default_rng(2), 5, 5, 40_000)
    m = float((g[:, 0, 0] ** 2).mean())
    assert abs(m - 0.2) < 0.01


def qr_haar_reference(rng, n, size):
    """Haar SO(n) by LAPACK QR with the sign-fixed R diagonal and the det fix."""
    g = rng.standard_normal((size, n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.einsum("...ii->...i", r))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_haar_matches_sign_fixed_qr_on_the_same_draw(seed):
    g = haar_orthogonal(np.random.default_rng(seed), 5, 5, 2000)
    assert np.abs(g - qr_haar_reference(np.random.default_rng(seed), 5, 2000)).max() < 1e-12


def full_haar_reference(rng, n, size):
    """Haar SO(n) by batched Gram-Schmidt over all n columns, then the det fix."""
    q = rng.standard_normal((size, n, n)).transpose(2, 1, 0).copy()
    for j in range(n):
        v = q[j]
        if j:
            basis = q[:j]
            for _ in range(2):
                v -= np.einsum("kib,kb->ib", basis, np.einsum("kib,ib->kb", basis, v))
        v /= np.sqrt(np.einsum("ib,ib->b", v, v))
    q = q.transpose(2, 1, 0)
    q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_haar_frame_is_the_leading_columns_of_the_full_matrix(seed):
    frame = haar_orthogonal(np.random.default_rng(seed), 5, 4, 3000)
    full = haar_orthogonal(np.random.default_rng(seed), 5, 5, 3000)
    assert frame.shape == (3000, 5, 4)
    assert np.array_equal(frame, full[..., :4])
    assert np.array_equal(full, full_haar_reference(np.random.default_rng(seed), 5, 3000))


def test_haar_frame_leaves_the_random_stream_where_the_full_draw_does():
    rng_frame, rng_full = np.random.default_rng(5), np.random.default_rng(5)
    haar_orthogonal(rng_frame, 5, 4, 100)
    haar_orthogonal(rng_full, 5, 5, 100)
    assert np.array_equal(rng_frame.standard_normal(10), rng_full.standard_normal(10))


def b2_pairs_reference(alpha, beta, n, seed):
    """The (n, 2) spectra of sample_b2_pairs, from one full-matrix Haar batch of all n samples."""
    return np.stack(b2_frequencies(alpha, beta, full_haar_reference(np.random.default_rng(seed), 5, n)), axis=1)


@pytest.mark.parametrize("alpha,beta", [((17, 4), (15, 9)), ((Q(11, 2), Q(3, 2)), (5, 2))])
def test_b2_pairs_equal_the_full_matrix_reference(alpha, beta):
    # the sampler draws at most CHUNK samples at a time and the reference all
    # n in one batch, so the stream must carry over between chunks, and no
    # chunk may round unlike a batch (one of a single sample does)
    for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7):
        assert np.array_equal(sample_b2_pairs(alpha, beta, n, 23), b2_pairs_reference(alpha, beta, n, 23)), n


def skew_block(x1, x2):
    m = np.zeros((5, 5))
    m[0, 1], m[1, 0] = x1, -x1
    m[2, 3], m[3, 2] = x2, -x2
    return m


@st.composite
def regular_pair(draw):
    hi = draw(st.integers(2, 40))
    return (Q(hi, 2), Q(draw(st.integers(1, hi - 1)), 2))


@settings(max_examples=50, deadline=None)
@given(regular_pair(), regular_pair(), st.integers(0, 2**32 - 1))
def test_closed_form_frequencies_match_eigvalsh(alpha, beta, seed):
    g = haar_orthogonal(np.random.default_rng(seed), 5, 5, 200)
    M = skew_block(*map(float, alpha)) + g @ skew_block(*map(float, beta)) @ g.transpose(0, 2, 1)
    ev = np.linalg.eigvalsh(-M @ M)  # ascending: ~0, g2^2, g2^2, g1^2, g1^2
    g1, g2 = b2_frequencies(alpha, beta, g)
    tol = 1e-9 * float(alpha[0] + beta[0])
    assert np.abs(g1 - np.sqrt(np.maximum(ev[:, 4], 0.0))).max() < tol
    assert np.abs(g2 - np.sqrt(np.maximum(ev[:, 2], 0.0))).max() < tol
    assert (g1 >= g2).all() and (g2 >= 0).all()


def exact_bin_masses(alpha, beta, edges):
    """Each bin's PDF mass: exact clipping of every cell and exact polygon moments."""
    pw = piecewise_analyze_b2(alpha, beta)
    scale = Q(3, 2) / (abs(delta_b2(pw.alpha)) * abs(delta_b2(pw.beta)))
    ex, ey = ([Q(v) for v in e] for e in edges)
    out = np.zeros((len(ex) - 1, len(ey) - 1))
    for cell in pw.cells:
        poly = {k: c for k, c in zip(_QUAD_KEYS, cell.coeffs) if c}
        dens = p2_mul({(3, 1): scale, (1, 3): -scale}, poly)
        for i in range(len(ex) - 1):
            strip = clip_cell(clip_cell(cell.vertices, 1, 0, ex[i]), -1, 0, -ex[i + 1])
            for j in range(len(ey) - 1):
                piece = clip_cell(clip_cell(strip, 0, 1, ey[j]), 0, -1, -ey[j + 1])
                out[i, j] += float(p2_integrate_polygon(dens, piece))
    return out


@pytest.mark.parametrize("alpha,beta", [
    ((17, 4), (15, 9)),
    ((Q(11, 2), Q(3, 2)), (5, 2)),
    # cells at g1 up to 15, where a density antiderivative about the gamma origin cancels
    ((13, 12), (Q(3, 2), Q(1, 2))),
])
def test_bin_masses_match_exact_reference(alpha, beta):
    edges = sample_b2_spectrum(alpha, beta, 10, seed=1, bins=6).edges
    probs = expected_bin_probabilities(alpha, beta, edges)
    assert np.abs(probs - exact_bin_masses(alpha, beta, edges)).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(regular_third_pairs(), st.integers(2, 6))
def test_bin_masses_match_exact_reference_on_random_pairs(pair, bins):
    edges = sample_b2_spectrum(*pair, 10, seed=1, bins=bins).edges
    probs = expected_bin_probabilities(*pair, edges)
    assert np.abs(probs - exact_bin_masses(*pair, edges)).max() < 1e-12


def test_gauss_legendre_rule_is_exact_to_degree_7():
    for k in range(8):
        exact = 2 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(float(_GL4_WEIGHTS @ _GL4_NODES**k) - exact) < 1e-15


def test_determinism():
    h1 = sample_b2_spectrum((17, 4), (15, 9), 2000, seed=7)
    h2 = sample_b2_spectrum((17, 4), (15, 9), 2000, seed=7)
    assert np.array_equal(h1.counts, h2.counts)
    assert h1.counts.sum() == 2000


@pytest.mark.parametrize("alpha,beta", [
    ((17, 4), (15, 9)), ((Q(11, 2), Q(3, 2)), (5, 2)), ((13, 12), (Q(3, 2), Q(1, 2))),
    ((Q(7, 3), Q(1, 3)), (Q(20, 3), Q(19, 3))),
])
@pytest.mark.parametrize("bins", [1, 2, 6, 40])
def test_histogram_equals_histogram2d(alpha, beta, bins, monkeypatch):
    # a negative tolerance counts a band inside every Horn edge as outside,
    # so the outside count summed over the chunks is not trivially 0
    tol = -0.05 * float(alpha[1] + beta[1])
    monkeypatch.setattr(sampler, "MEMBERSHIP_TOL", tol)
    n = 3 * CHUNK + 7
    h = sample_b2_spectrum(alpha, beta, n, seed=17, bins=bins)
    pairs = b2_pairs_reference(alpha, beta, n, 17)
    ex, ey = h.edges
    clipped = np.clip(pairs[:, 0], ex[0], ex[-1]), np.clip(pairs[:, 1], ey[0], ey[-1])
    ref, _, _ = np.histogram2d(*clipped, bins=(ex, ey))
    assert h.counts.dtype == ref.dtype == np.float64
    assert np.array_equal(h.counts, ref)
    outside = np.count_nonzero(~horn_contains_reference(alpha, beta, pairs[:, 0], pairs[:, 1], tol))
    assert 0 < h.samples_outside_support == outside < n
    assert h.sample_min == tuple(pairs.min(axis=0)) and h.sample_max == tuple(pairs.max(axis=0))
    # every edge, one ulp either side, and the clip extremes of the samples
    for edges in (ex, ey):
        x = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                            pairs.ravel(), [-np.inf, np.inf, 0.0, 1e300]])
        x = np.clip(x, edges[0], edges[-1])
        expected = np.searchsorted(edges, x, "right") - 1
        expected[x == edges[-1]] = bins - 1
        assert np.array_equal(_bin_index(x, edges), expected)


@pytest.mark.parametrize("alpha,beta", [
    ((17, 4), (15, 9)), ((15, 3), (17, 8)), ((Q(11, 2), Q(3, 2)), (5, 2)), ((9, 4), (7, 2)), ((12, 5), (10, 3)),
    ((13, 12), (Q(3, 2), Q(1, 2))), ((Q(7, 3), Q(1, 3)), (Q(20, 3), Q(19, 3))),
])
def test_membership_equals_the_half_plane_loop(alpha, beta):
    pairs = sample_b2_pairs(alpha, beta, 3000, seed=31)
    # points on every Horn edge, and just inside and outside the tolerance band
    verts = [tuple(map(float, v)) for v in horn_polygon(alpha, beta).vertices]
    on_edges = []
    for (x0, y0), (x1, y1) in zip(verts, verts[1:] + verts[:1]):
        n = np.array([y1 - y0, x0 - x1]) / math.hypot(x1 - x0, y1 - y0)
        for t in np.linspace(0.0, 1.0, 7):
            p = np.array([x0 + t * (x1 - x0), y0 + t * (y1 - y0)])
            for k in (0.0, 0.5, 0.999, 1.0, 1.001, 2.0):
                on_edges += [p + k * MEMBERSHIP_TOL * n, p - k * MEMBERSHIP_TOL * n]
    g = np.concatenate([pairs, np.array(on_edges)])
    # jitter by a few ulps, so that the band's edge is hit from both sides
    g = np.concatenate([g, np.nextafter(g, np.inf), np.nextafter(g, -np.inf)])
    got = horn_contains_float(alpha, beta, g[:, 0], g[:, 1])
    ref = horn_contains_reference(alpha, beta, g[:, 0], g[:, 1])
    assert np.array_equal(got, ref)
    assert got.any() and not got.all()


def test_samples_inside_horn_polygon():
    pairs = sample_b2_pairs((17, 4), (15, 9), 5000, seed=11)
    inside = horn_contains_float((17, 4), (15, 9), pairs[:, 0], pairs[:, 1])
    assert inside.all()
    assert (pairs[:, 0] >= pairs[:, 1]).all() and (pairs[:, 1] >= 0).all()


def no_draw(*args, **kwargs):
    raise AssertionError("a random generator was made")


def test_rejects_bad_arguments(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for sample in (sample_b2_pairs, sample_b2_spectrum):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n_samples >= 1"):
                sample((17, 4), (15, 9), n, seed=1)
        with pytest.raises(ValueError, match="regular ordered"):
            sample((4, 17), (15, 9), 10, seed=1)
    with pytest.raises(ValueError):
        so2_samples(0, 2, 10, seed=1)


@pytest.mark.parametrize("bins", [0, -1])
def test_rejects_bins_below_one_before_drawing(bins, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="bins >= 1 required"):
        sample_b2_spectrum((17, 4), (15, 9), 10, seed=1, bins=bins)
    with pytest.raises(ValueError, match="bins >= 1 required"):
        so2_histogram(np.array([1.5, 2.0]), 1, 2, seed=1, bins=bins)


def test_b2_spectrum_memory_does_not_grow_with_n():
    # one Gaussian batch of all 200,000 samples would be 40 MB, and their
    # (N, 2) spectra 3.2 MB
    tracemalloc.start()
    try:
        sample_b2_spectrum((17, 4), (15, 9), 200_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_alpha_beta_symmetry_of_histograms():
    h1 = sample_b2_spectrum((17, 4), (15, 9), 30_000, seed=3)
    h2 = sample_b2_spectrum((15, 9), (17, 4), 30_000, seed=4)
    p1 = h1.counts.ravel() / h1.sample_count
    p2 = h2.counts.ravel() / h2.sample_count
    assert np.abs(p1 - p2).max() < 0.01


def test_chi_square_small_run():
    hist = sample_b2_spectrum((17, 4), (15, 9), 40_000, seed=5)
    summary = chi_square_vs_pdf(hist, (17, 4), (15, 9))
    assert summary.p_value > 1e-3
    assert summary.dof > 100


def assert_chi2_sf_close(dof, x):
    """chi2_sf against scipy's chi2.sf: 1e-11 absolute, and 1e-9 relative where the reference is >= 1e-300.

    Both bounds are stated in advance, not fitted to the observed error
    (about 6e-13 absolute and 2e-12 relative over dof 1..1599).
    """
    from scipy.stats import chi2

    p, ref = chi2_sf(dof, x), float(chi2.sf(x, dof))
    assert abs(p - ref) <= 1e-11, (dof, x, p, ref)
    if ref >= 1e-300:
        assert abs(p - ref) <= 1e-9 * ref, (dof, x, p, ref)


def test_chi_square_p_value_is_the_chi2_survival_function():
    hist = sample_b2_spectrum((15, 3), (17, 8), 20_000, seed=6, bins=20)
    summary = chi_square_vs_pdf(hist, (15, 3), (17, 8))
    assert summary.dof > 10
    assert summary.p_value == chi2_sf(summary.dof, summary.statistic)
    assert_chi2_sf_close(summary.dof, summary.statistic)


# dof up to 40^2 - 1, the most a default 40 x 40 histogram can have; x both
# relative to dof (the body of the law) and absolute (far into the tail)
@settings(max_examples=400, deadline=None)
@given(st.integers(1, 40**2 - 1), st.floats(0, 4), st.floats(0, 1e4))
def test_chi2_sf_matches_scipy(dof, t, x):
    assert_chi2_sf_close(dof, t * dof)
    assert_chi2_sf_close(dof, x)


def test_chi2_sf_edges_and_monotone():
    for dof in (1, 2, 7, 163, 1599):
        assert chi2_sf(dof, 0.0) == 1.0
        for huge in (1e5 + 10 * dof, 1e300):
            assert 0.0 <= chi2_sf(dof, huge) <= 1e-300
        values = [chi2_sf(dof, x) for x in np.linspace(0, 4 * dof + 50, 400)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] == 1.0 and values[-1] < 1e-6


def test_chi2_sf_without_convergence_raises(monkeypatch):
    # two terms are far too few on both sides of a + 1: the series (x < dof + 2) and the continued fraction
    monkeypatch.setattr(sampler, "GAMMA_MAX_TERMS", 2)
    for x in (1500.0, 1700.0):
        with pytest.raises(InvariantError):
            chi2_sf(1599, x)


def test_chi_square_without_degrees_of_freedom_is_nan():
    # 100 samples on 40 x 40 bins: every bin is pooled, one class, dof 0
    hist = sample_b2_spectrum((17, 4), (15, 9), 100, seed=9)
    summary = chi_square_vs_pdf(hist, (17, 4), (15, 9))
    assert summary.dof == 0
    assert math.isnan(summary.p_value)


def test_expected_probabilities_sum_to_one():
    hist = sample_b2_spectrum((17, 4), (15, 9), 100, seed=8, bins=20)
    probs = expected_bin_probabilities((17, 4), (15, 9), hist.edges)
    assert abs(probs.sum() - 1.0) < 1e-9


def test_bin_masses_refuse_edges_that_do_not_span_the_horn_polygon():
    alpha, beta = (17, 4), (15, 9)
    pw = piecewise_analyze_b2(alpha, beta)
    ex, ey = sample_b2_spectrum(alpha, beta, 1, seed=1).edges
    # without the first x edge column 0 got a negative mass, without the first
    # two y edges the mass below the grid was folded into row 0, and without
    # the last x edge the bin sums failed to reshape
    for edges in ((ex[1:], ey), (ex, ey[2:]), (ex[:-1], ey)):
        with pytest.raises(UncoveredSupportError):
            expected_bin_probabilities(alpha, beta, edges, pw)
    # the law of a pair whose polygon reaches past the histogram's grid
    hist = sample_b2_spectrum(alpha, beta, 2000, seed=1)
    with pytest.raises(UncoveredSupportError):
        chi_square_vs_pdf(hist, alpha, (Q(151, 10), 9))
    # edges reaching past the polygon span it
    wide = (np.linspace(ex[0] - 1, ex[-1] + 1, 31), np.linspace(ey[0] - 2, ey[-1] + 0.5, 17))
    assert abs(expected_bin_probabilities(alpha, beta, wide, pw).sum() - 1.0) < 1e-9


def test_so2_support_and_endpoint_mass():
    hist = so2_histogram(so2_samples(1, 2, 50_000, seed=13), 1, 2, seed=13)
    lo, hi = so2_support(1, 2)
    assert hist.samples_outside_support == 0
    assert float(lo) <= hist.sample_min[0] and hist.sample_max[0] <= float(hi) + 1e-9
    # integrable divergence at both endpoints: outer bins dominate
    counts = hist.counts
    assert counts[0] > 2 * counts.mean()
    assert counts[-1] > 2 * counts.mean()


def test_so2_density_matches_closed_form_midrange():
    hist = so2_histogram(so2_samples(1, 2, 400_000, seed=17), 1, 2, seed=17, bins=80)
    edges = hist.edges[0]
    mids = (edges[:-1] + edges[1:]) / 2
    width = edges[1] - edges[0]
    dens = hist.counts / (hist.sample_count * width)
    # compare away from the divergent endpoints; p(g) = pi sqrt(g/(a b)) J(g)
    for k in range(20, 60, 7):
        g = mids[k]
        analytic = math.pi * math.sqrt(g / 2.0) * j_so2_symmetric(1, 2, Q(g).limit_denominator(10**9))
        assert abs(dens[k] - analytic) / analytic < 0.08


def test_so2_samples_reject_bad_arguments():
    with pytest.raises(ValueError):
        so2_samples(0, 2, 10, seed=1)
    with pytest.raises(ValueError):
        so2_samples(1, -2, 10, seed=1)
    with pytest.raises(ValueError):
        so2_samples(1, 2, 0, seed=1)


def test_so2_ks_distance():
    s = so2_samples(1, 2, 200_000, seed=19)
    assert ks_distance_so2(s, 1, 2) < 1.949 / math.sqrt(200_000)
