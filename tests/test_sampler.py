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
    HistogramPairError,
    UncoveredSupportError,
    _GL4_NODES,
    _GL4_WEIGHTS,
    _b2_chunks,
    _bin_index,
    _inside,
    b2_spectra,
    chi2_sf,
    chi_square_vs_pdf,
    expected_bin_probabilities,
    haar_orthogonal,
    ks_distance_so2,
    sample_b2_spectrum,
    so2_histogram,
    so2_samples,
)
from hornvol.volume import (
    _QUAD_KEYS,
    CellPairError,
    _qpair,
    delta_b2,
    horn_polygon,
    horn_slabs,
    j_so2_symmetric,
    pdf_scale,
    piecewise_analyze_b2,
    so2_support,
)
from horn_reference import horn_contains_reference
from orbit_reference import b2_frequencies, b2_orbit_points
from poly2 import p2_mul
from refusal import answer_or_refuse
from test_volume import DELTA_B2, poly, regular_third_pairs


def test_haar_matrices_are_special_orthogonal():
    g = haar_orthogonal(np.random.default_rng(1), 5, 500)
    assert np.abs(g @ g.transpose(0, 2, 1) - np.eye(5)).max() < 1e-12
    assert np.abs(np.linalg.det(g) - 1.0).max() < 1e-12


def test_haar_first_entry_second_moment():
    g = haar_orthogonal(np.random.default_rng(2), 5, 40_000)
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
    g = haar_orthogonal(np.random.default_rng(seed), 5, 2000)
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
def test_haar_is_the_full_gram_schmidt_reference(seed):
    rng, rng_reference = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(haar_orthogonal(rng, 5, 3000), full_haar_reference(rng_reference, 5, 3000))
    # both leave the random stream after the same n x n normals per matrix
    assert np.array_equal(rng.standard_normal(10), rng_reference.standard_normal(10))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_haar_frame_is_the_leading_columns_of_the_full_matrix(seed):
    # a Haar k-frame is the leading k columns of the full matrix: the
    # sign-fixed thin QR of the draw's first k columns, untouched by the
    # det fix, which flips only the last column
    g = haar_orthogonal(np.random.default_rng(seed), 5, 3000)
    draw = np.random.default_rng(seed).standard_normal((3000, 5, 5))
    for k in range(1, 5):
        q, r = np.linalg.qr(draw[..., :k])
        frame = q * np.sign(np.einsum("...ii->...i", r))[:, None, :]
        assert frame.shape == (3000, 5, k)
        assert np.abs(g[..., :k] - frame).max() < 1e-12, k


def test_haar_frame_leaves_the_random_stream_where_the_full_draw_does():
    rng_haar, rng_draw = np.random.default_rng(5), np.random.default_rng(5)
    haar_orthogonal(rng_haar, 5, 100)
    rng_draw.standard_normal((100, 5, 5))
    assert np.array_equal(rng_haar.standard_normal(10), rng_draw.standard_normal(10))


def b2_pairs(alpha, beta, n, seed):
    """The (n, 2) spectra that sample_b2_spectrum bins: the chunks of _b2_chunks, concatenated."""
    return np.concatenate([np.stack(chunk, axis=1) for chunk in _b2_chunks(alpha, beta, n, seed)])


def two_stream_draw(n, seed):
    """The (n, 2) exponentials and (n, 7) normals of n samples, each from one child of SeedSequence(seed)."""
    exp_rng, normal_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    return exp_rng.standard_exponential((n, 2)), normal_rng.standard_normal((n, 7))


def b2_pairs_reference(alpha, beta, n, seed):
    """The (n, 2) spectra of b2_pairs, from one batch of all n samples' draws through b2_spectra."""
    return np.stack(b2_spectra(alpha, beta, *two_stream_draw(n, seed)), axis=1)


@pytest.mark.parametrize("alpha,beta", [((17, 4), (15, 9)), ((Q(11, 2), Q(3, 2)), (5, 2))])
def test_b2_pairs_equal_one_batch_through_the_orbit_map(alpha, beta):
    # the sampler draws at most CHUNK samples at a time and the reference all
    # n in one batch, so both streams, the exponentials' and the normals',
    # must carry over between chunks, and no chunk, a single sample's
    # included, may round unlike a batch
    for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7):
        assert np.array_equal(b2_pairs(alpha, beta, n, 23), b2_pairs_reference(alpha, beta, n, 23)), n


def skew_block(x1, x2):
    m = np.zeros((5, 5))
    m[0, 1], m[1, 0] = x1, -x1
    m[2, 3], m[3, 2] = x2, -x2
    return m


@st.composite
def regular_pair(draw):
    hi = draw(st.integers(2, 40))
    return (Q(hi, 2), Q(draw(st.integers(1, hi - 1)), 2))


def assert_frequencies_match_eigvalsh(alpha, beta, x, freqs=None):
    """Frequencies of A + X, by default b2_frequencies, against eigvalsh of -(A + X)^2."""
    M = skew_block(*map(float, alpha)) + x
    ev = np.linalg.eigvalsh(-M @ M)  # ascending: ~0, g2^2, g2^2, g1^2, g1^2
    g1, g2 = b2_frequencies(alpha, x) if freqs is None else freqs
    tol = 1e-9 * float(alpha[0] + beta[0])
    assert np.abs(g1 - np.sqrt(np.maximum(ev[:, 4], 0.0))).max() < tol
    assert np.abs(g2 - np.sqrt(np.maximum(ev[:, 2], 0.0))).max() < tol
    assert (g1 >= g2).all() and (g2 >= 0).all()


@settings(max_examples=50, deadline=None)
@given(regular_pair(), regular_pair(), st.integers(0, 2**32 - 1))
def test_closed_form_frequencies_match_eigvalsh(alpha, beta, seed):
    # X = g B g^T with g Haar: a reference orbit point independent of the orbit map
    g = haar_orthogonal(np.random.default_rng(seed), 5, 200)
    assert_frequencies_match_eigvalsh(alpha, beta, g @ skew_block(*map(float, beta)) @ g.transpose(0, 2, 1))


@settings(max_examples=50, deadline=None)
@given(regular_pair(), regular_pair(), st.integers(0, 2**32 - 1))
def test_orbit_point_frequencies_match_eigvalsh(alpha, beta, seed):
    z = np.random.default_rng(seed).standard_normal((200, 11))
    assert_frequencies_match_eigvalsh(alpha, beta, b2_orbit_points(beta, z))


@settings(max_examples=50, deadline=None)
@given(regular_pair(), regular_pair(), st.integers(0, 2**32 - 1))
def test_torus_quotient_spectra_match_eigvalsh_of_the_reference_orbit_point(alpha, beta, seed):
    # b2_spectra's sample is the reference orbit point X' of the canonical
    # normals (sqrt(2 e1), 0, sqrt(2 e2), 0, c4, u, u'), up to a rotation of
    # the torus that fixes A, which leaves the spectrum of A + X' alone
    e, z = two_stream_draw(200, seed)
    canonical = np.zeros((200, 11))
    canonical[:, [0, 2]] = np.sqrt(2.0 * e)
    canonical[:, 4:] = z
    x = b2_orbit_points(beta, canonical)
    assert_frequencies_match_eigvalsh(alpha, beta, x, freqs=b2_spectra(alpha, beta, e, z))


@settings(max_examples=50, deadline=None)
@given(regular_pair(), st.integers(0, 2**32 - 1))
def test_orbit_points_lie_on_the_orbit(beta, seed):
    b1, b2 = map(float, beta)
    x = b2_orbit_points(beta, np.random.default_rng(seed).standard_normal((200, 11)))
    assert x.shape == (200, 5, 5) and np.array_equal(x, -x.transpose(0, 2, 1))
    # |X|^2 = -tr(X^2) / 2, the sum of the squared upper entries
    norm2 = sum(x[:, i, j] ** 2 for i in range(5) for j in range(i + 1, 5))
    assert np.abs(norm2 - (b1 * b1 + b2 * b2)).max() <= 1e-12 * (b1 * b1 + b2 * b2)
    ev = np.linalg.eigvalsh(-x @ x)
    assert np.abs(ev - [0.0, b2 * b2, b2 * b2, b1 * b1, b1 * b1]).max() <= 1e-12 * b1 * b1


@pytest.mark.parametrize("beta", [(15, 9), (Q(20, 3), Q(19, 3))])
def test_orbit_point_second_moment_is_schur(beta):
    """E[X (x) X] over the ten upper entries of X is |beta|^2 / 10 times the identity.

    The adjoint representation of so(5) is irreducible, so this holds for an
    invariantly distributed orbit point; a sampler that kept the Pfaffian
    direction in one hemisphere would break it, since the mean of each
    Pfaffian is a sum of off-diagonal entries.  N = 10^6 from seed 29 and the tolerance, 2 % of
    |beta|^2 / 10 on every entry, were fixed before the first run.  No upper
    entry squared exceeds |beta|^2, so a product of two has variance at most
    |beta|^2 E[x_a^2] = |beta|^4 / 10, and its sample mean a standard
    deviation at most |beta|^2 / sqrt(10 N), 0.32 % of |beta|^2 / 10.  The
    tolerance is 6.3 of those, so the normal two-sided chance of a failure
    over the 55 distinct entries is below 2e-8.
    """
    n, step = 10**6, 100_000
    rng = np.random.default_rng(29)
    moment = np.zeros((10, 10))
    for _ in range(n // step):
        x = b2_orbit_points(beta, rng.standard_normal((step, 11)))
        flat = np.stack([x[:, i, j] for i in range(5) for j in range(i + 1, 5)])
        moment += flat @ flat.T
    schur = float(beta[0] ** 2 + beta[1] ** 2) / 10
    assert np.abs(moment / n - schur * np.eye(10)).max() < 0.02 * schur


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
    # cells at g1 up to 15, where q evaluated about the gamma origin, not the cell's vertex, cancels
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
    # every edge, one ulp either side, and the clip extremes of the samples
    for edges in (ex, ey):
        x = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                            pairs.ravel(), [-np.inf, np.inf, 0.0, 1e300]])
        x = np.clip(x, edges[0], edges[-1])
        expected = np.searchsorted(edges, x, "right") - 1
        expected[x == edges[-1]] = bins - 1
        assert np.array_equal(_bin_index(x, edges), expected)


# the pairs whose samples the membership and chi-square tests check
SEVEN_PAIRS = [
    ((17, 4), (15, 9)), ((15, 3), (17, 8)), ((Q(11, 2), Q(3, 2)), (5, 2)), ((9, 4), (7, 2)), ((12, 5), (10, 3)),
    ((13, 12), (Q(3, 2), Q(1, 2))), ((Q(7, 3), Q(1, 3)), (Q(20, 3), Q(19, 3))),
]


@pytest.mark.parametrize("alpha,beta", SEVEN_PAIRS)
def test_membership_equals_the_half_plane_loop(alpha, beta):
    pairs = b2_pairs(alpha, beta, 3000, seed=31)
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
    got = _inside(horn_slabs(alpha, beta), g[:, 0], g[:, 1], MEMBERSHIP_TOL)
    ref = horn_contains_reference(alpha, beta, g[:, 0], g[:, 1])
    assert np.array_equal(got, ref)
    assert got.any() and not got.all()


def test_samples_inside_horn_polygon():
    pairs = b2_pairs((17, 4), (15, 9), 5000, seed=11)
    inside = _inside(horn_slabs((17, 4), (15, 9)), pairs[:, 0], pairs[:, 1], MEMBERSHIP_TOL)
    assert inside.all()
    assert (pairs[:, 0] >= pairs[:, 1]).all() and (pairs[:, 1] >= 0).all()


def no_draw(*args, **kwargs):
    raise AssertionError("a random generator was made")


def test_rejects_bad_arguments(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    for sample in (b2_pairs, sample_b2_spectrum):
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
    monkeypatch.setattr(np.random, "SeedSequence", no_draw)
    with pytest.raises(ValueError, match="bins >= 1 required"):
        sample_b2_spectrum((17, 4), (15, 9), 10, seed=1, bins=bins)
    with pytest.raises(ValueError, match="bins >= 1 required"):
        so2_histogram(np.array([1.5, 2.0]), 1, 2, bins=bins)


def test_b2_spectrum_memory_does_not_grow_with_n():
    # one Gaussian batch of all 200,000 samples would be 17.6 MB, and their
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


# the four probe pairs of the J-side moment rules (test_volume.test_j_side_moment_rules)
MOMENT_PAIRS = [((17, 4), (15, 9)), ((5, 2), (3, 1)), ((Q(11, 2), Q(3, 2)), (5, 2)), ((7, 6), (9, 1))]


def exact_q2_mean(alpha, beta) -> Q:
    """E[q^2], q = gamma1^2 gamma2^2, under the Horn density: as test_volume.horn_moments
    integrates, each cell's Delta J times gamma1^4 gamma2^4, exactly."""
    total = sum(p2_integrate_polygon(p2_mul(p2_mul(DELTA_B2, poly(cell)), {(4, 4): Q(1)}), cell.vertices)
                for cell in piecewise_analyze_b2(alpha, beta).cells)
    return pdf_scale(alpha, beta) * total


@pytest.mark.parametrize("pair,seed", zip(MOMENT_PAIRS, (41, 42, 43, 44)))
def test_sample_moments_meet_the_exact_moments(pair, seed):
    """Mean |gamma|^2, |gamma|^4 and q^2 = gamma1^4 gamma2^4 of the samples against
    their exact values, bin-free.

    The exact values of the first two are the J-side moment rules:
    |alpha|^2 + |beta|^2 and (|alpha|^2 + |beta|^2)^2 + (2/5) |alpha|^2 |beta|^2.
    They see only p = |gamma|^2, so the Pfaffian side q needs its own
    moment: E[q^2], integrated exactly over the cells (exact_q2_mean).  With
    s the sample standard deviation of each, z = (mean - exact) / (s / sqrt(N)).
    N = 200,000, the seeds 41-44 (one per pair) and the gate |z| < 4 were
    fixed before the first run.  The normal two-sided chance that one z
    exceeds 4 is 6.3e-5, so 7.6e-4 that any of the twelve does.  A failure
    is a finding about the sampler, not a seed to change.
    """
    n = 200_000
    a2, b2 = (sum(Q(v) ** 2 for v in w) for w in pair)
    g = b2_pairs(*pair, n, seed)
    norm2 = g[:, 0] ** 2 + g[:, 1] ** 2
    moments = {
        "|gamma|^2": (norm2, a2 + b2),
        "|gamma|^4": (norm2**2, (a2 + b2) ** 2 + Q(2, 5) * a2 * b2),
        "q^2": ((g[:, 0] * g[:, 1]) ** 4, exact_q2_mean(*pair)),
    }
    for name, (v, value) in moments.items():
        z = (v.mean() - float(value)) / (v.std(ddof=1) / math.sqrt(n))
        assert abs(z) < 4, (pair, name, z)


@pytest.mark.parametrize("alpha,beta", SEVEN_PAIRS)
def test_torus_quotient_spectra_have_the_law_of_the_reference_sampler(alpha, beta):
    """Two-sample KS of gamma1 and of gamma2, b2_spectra against the full-matrix orbit map.

    The reference side is the invariant sampler that b2_spectra replaces:
    11 normals per sample through b2_orbit_points and b2_frequencies, with
    no torus quotient, so a wrong radius law on the quotient, a lost coin or
    a wrong Pfaffian sign can show in either marginal.  N = 100,000 a side,
    the seeds 53 (b2_spectra) and 59 (reference) and the gate
    D < c sqrt(2 / N), c = sqrt(-ln(level / 2) / 2) = 2.470 at level 1e-5,
    were fixed before the first run.  By the asymptotic Kolmogorov law each
    of the 14 tests fails by chance with probability about 1e-5, so about
    1.4e-4 that any does.  A failure is a finding about the sampler, not a
    seed to change.
    """
    from scipy.stats import ks_2samp

    n, level = 100_000, 1e-5
    ours = b2_pairs(alpha, beta, n, 53)
    z = np.random.default_rng(59).standard_normal((n, 11))
    ref = np.stack(b2_frequencies(alpha, b2_orbit_points(beta, z)), axis=1)
    gate = math.sqrt(-math.log(level / 2) / 2) * math.sqrt(2 / n)
    for k in (0, 1):
        d = ks_2samp(ours[:, k], ref[:, k]).statistic
        assert d < gate, (alpha, beta, k, d, gate)


@pytest.mark.parametrize("alpha,beta", SEVEN_PAIRS)
def test_chi_square_passes_on_every_tested_pair(alpha, beta):
    """Chi-square of 200,000 samples (seed 37, 40 x 40 bins) against the exact PDF, p > 1e-4.

    N, the seed and the gate were fixed before the first run; the chance
    that one of the seven correct pairs fails is 7e-4.
    """
    hist = sample_b2_spectrum(alpha, beta, 200_000, seed=37)
    assert hist.samples_outside_support == 0
    assert chi_square_vs_pdf(hist, alpha, beta).p_value > 1e-4


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


@pytest.mark.parametrize("n", [1, 10, 20])
def test_chi_square_of_fewer_samples_than_a_class_expects_has_no_degrees_of_freedom(n):
    # N <= 20 on 40 x 40 bins: every bin is pooled, and the pooled class
    # expects N samples, too few to keep, so no class is left
    hist = sample_b2_spectrum((17, 4), (15, 9), n, seed=1)
    summary = chi_square_vs_pdf(hist, (17, 4), (15, 9))
    assert summary.bins_used == 0 and summary.dof == 0
    assert math.isnan(summary.p_value)


def test_expected_probabilities_sum_to_one():
    hist = sample_b2_spectrum((17, 4), (15, 9), 100, seed=8, bins=20)
    probs = expected_bin_probabilities((17, 4), (15, 9), hist.edges)
    assert abs(probs.sum() - 1.0) < 1e-9


def test_bin_masses_refuse_the_cells_of_another_pair():
    # these cells gave bin masses summing to 0.827 for a pair they were not made for
    pw = piecewise_analyze_b2((17, 4), (15, 9))
    hist = sample_b2_spectrum((17, 5), (15, 9), 1000, seed=1, bins=10)
    with pytest.raises(CellPairError):
        expected_bin_probabilities((17, 5), (15, 9), hist.edges, pw)
    with pytest.raises(CellPairError):
        chi_square_vs_pdf(hist, (17, 5), (15, 9), pw)


def test_bin_masses_take_their_cells_in_either_order():
    pw = piecewise_analyze_b2((15, 9), (17, 4))
    assert pw.swapped
    hist = sample_b2_spectrum((15, 9), (17, 4), 1000, seed=1, bins=10)
    probs = expected_bin_probabilities((15, 9), (17, 4), hist.edges)
    for alpha, beta in (((15, 9), (17, 4)), ((17, 4), (15, 9))):
        assert np.array_equal(expected_bin_probabilities(alpha, beta, hist.edges, pw), probs)
    assert chi_square_vs_pdf(hist, (15, 9), (17, 4), pw) == chi_square_vs_pdf(hist, (15, 9), (17, 4))


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


def test_chi_square_refuses_a_histogram_of_another_pair():
    alpha, beta = (17, 4), (15, 9)
    hist = sample_b2_spectrum(alpha, beta, 40_000, seed=1)
    assert hist.pair == ((17, 4), (15, 9))
    # these polygons lie inside the histogram's grid, so the bin masses accept
    # them, and the chi-square alone passes them (p = 0.628 and 0.524)
    for other in ((Q(149, 10), 9), (Q(149, 10), Q(91, 10))):
        with pytest.raises(HistogramPairError):
            chi_square_vs_pdf(hist, alpha, other)
    with pytest.raises(HistogramPairError):
        chi_square_vs_pdf(hist, beta, alpha)
    # the same pair in any exact spelling is the pair it was drawn for
    assert chi_square_vs_pdf(hist, (Q(17), 4.0), (15, Q(18, 2))).dof > 0


def test_so2_support_and_endpoint_mass():
    samples = so2_samples(1, 2, 50_000, seed=13)
    hist = so2_histogram(samples, 1, 2)
    lo, hi = so2_support(1, 2)
    assert hist.samples_outside_support == 0
    assert float(lo) <= samples.min() and samples.max() <= float(hi) + 1e-9
    # integrable divergence at both endpoints: outer bins dominate
    counts = hist.counts
    assert counts[0] > 2 * counts.mean()
    assert counts[-1] > 2 * counts.mean()


def test_so2_density_matches_closed_form_midrange():
    hist = so2_histogram(so2_samples(1, 2, 400_000, seed=17), 1, 2, bins=80)
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


@pytest.mark.parametrize("a,b", [(math.nan, 2), (1, math.inf), (-math.inf, 2)])
def test_so2_entry_points_refuse_a_pair_that_is_not_finite(a, b):
    for call in (lambda: so2_samples(a, b, 3, seed=1), lambda: ks_distance_so2(np.ones(3), a, b),
                 lambda: so2_histogram(np.ones(3), a, b, bins=2)):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_so2_ks_distance():
    s = so2_samples(1, 2, 200_000, seed=19)
    assert ks_distance_so2(s, 1, 2) < 1.949 / math.sqrt(200_000)


# -- the sampler's entry points answer or refuse --------------------------------


labels = st.one_of(st.integers(-1, 4), st.fractions(-1, 4, max_denominator=3))
weights = st.tuples(labels, labels)
# samples on and off the SO(2) supports, and the non-finite ones
non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
# SO(2) pairs: labels and, now and then, a non-finite one
so2_labels = st.one_of(labels, non_finite)
# B2 pairs: regular ordered about a third of the time, else labels that may be non-finite
b2_weights = st.one_of(regular_pair(), weights, st.tuples(so2_labels, so2_labels))
float_samples = st.lists(st.one_of(st.floats(-1, 10), non_finite), max_size=20).map(np.array)
# random edges, mostly unsorted or short of the polygon, and uniform grids that
# span it, in a random order (sorted among them)
grid_edges = st.one_of(st.lists(st.floats(-5, 60), max_size=6),
                       st.integers(1, 5).flatmap(lambda n: st.permutations(list(np.linspace(-1, 60, n + 1))))
                       ).map(np.array)


def regular_ordered(*pairs) -> bool:
    """x1 > x2 > 0 with x1 finite (so x2 is too) in every pair: NaN compares false."""
    return all(math.inf > x1 > x2 > 0 for x1, x2 in pairs)


def check_chi2_sf(data):
    dof, x = data.draw(st.integers(-2, 2000)), data.draw(st.one_of(st.floats(-10, 1e5), non_finite))
    p = answer_or_refuse(lambda: chi2_sf(dof, x), dof < 1 or math.isnan(x))
    if p is not None:
        assert p == 1.0 if x <= 0 else p == 0.0 if x == math.inf else 0 <= p <= 1


def so2_cdf(x: float, a: float, b: float) -> float:
    """P(gamma12 <= x) for gamma12^2 = a^2 + b^2 + 2ab cos 2phi, phi uniform: 0 below the support, 1 above it."""
    if x <= abs(a - b):
        return 0.0
    return 1.0 if x >= a + b else math.acos((a * a + b * b - x * x) / (2 * a * b)) / math.pi


def so2_pair_refused(a, b) -> bool:
    """Whether an SO(2) entry point must refuse the pair: one of them not finite and positive."""
    return not (0 < a < math.inf and 0 < b < math.inf)


def check_ks_distance_so2(data):
    s, a, b = data.draw(float_samples), data.draw(so2_labels), data.draw(so2_labels)
    d = answer_or_refuse(lambda: ks_distance_so2(s, a, b), so2_pair_refused(a, b) or len(s) == 0 or np.isnan(s).any())
    if d is not None:
        # the supremum is reached at a sample, from the left or the right; the CDF has infinite
        # slope at the ends of the support, where roundoff in its argument moves it by about 1e-8
        cdf = [so2_cdf(x, float(a), float(b)) for x in sorted(s)]
        n = len(s)
        assert abs(d - max(max(abs((i + 1) / n - f), abs(i / n - f)) for i, f in enumerate(cdf))) < 1e-6


def check_haar_orthogonal(data):
    n, size = data.draw(st.integers(-1, 6)), data.draw(st.integers(-1, 4))
    g = answer_or_refuse(lambda: haar_orthogonal(np.random.default_rng(0), n, size), n < 1 or size < 0)
    if g is not None:
        assert g.shape == (size, n, n)
        assert np.abs(g.transpose(0, 2, 1) @ g - np.eye(n)).max(initial=0.0) < 1e-12
        assert (np.abs(np.linalg.det(g) - 1.0) < 1e-12).all()


def check_so2_samples(data):
    a, b, n = data.draw(so2_labels), data.draw(so2_labels), data.draw(st.integers(-1, 50))
    s = answer_or_refuse(lambda: so2_samples(a, b, n, seed=1), so2_pair_refused(a, b) or n < 1)
    if s is not None:
        lo, hi = (float(v) for v in so2_support(a, b))
        assert len(s) == n and (lo - MEMBERSHIP_TOL <= s).all() and (s <= hi + MEMBERSHIP_TOL).all()


def check_so2_histogram(data):
    s, a, b, bins = data.draw(float_samples), data.draw(so2_labels), data.draw(so2_labels), data.draw(st.integers(-1, 5))
    h = answer_or_refuse(lambda: so2_histogram(s, a, b, bins=bins), so2_pair_refused(a, b) or bins < 1 or np.isnan(s).any())
    if h is not None:
        lo, hi = (float(v) for v in so2_support(a, b))
        assert h.counts.sum() == h.sample_count == len(s) and len(h.edges[0]) == bins + 1
        assert h.samples_outside_support == np.count_nonzero((s < lo - MEMBERSHIP_TOL) | (s > hi + MEMBERSHIP_TOL))


def check_sample_b2_spectrum(data):
    alpha, beta = data.draw(b2_weights), data.draw(b2_weights)
    n, bins = data.draw(st.integers(-1, 50)), data.draw(st.integers(-1, 5))
    refused = not regular_ordered(alpha, beta) or n < 1 or bins < 1
    h = answer_or_refuse(lambda: sample_b2_spectrum(alpha, beta, n, seed=1, bins=bins), refused)
    if h is not None:
        assert h.counts.shape == (bins, bins) and h.counts.sum() == h.sample_count == n
        assert h.samples_outside_support == 0 and h.pair == (_qpair(alpha), _qpair(beta))


def check_expected_bin_probabilities(data):
    alpha, beta = data.draw(b2_weights), data.draw(b2_weights)
    edges = (data.draw(grid_edges), data.draw(grid_edges))
    refused = not regular_ordered(alpha, beta)
    if not refused:
        verts = np.array(horn_polygon(alpha, beta).vertices, dtype=float)
        for e, v in zip(edges, verts.T):
            refused |= len(e) < 2 or not (np.diff(e) > 0).all() or not e[0] <= v.min() <= v.max() <= e[-1]
    probs = answer_or_refuse(lambda: expected_bin_probabilities(alpha, beta, edges), refused)
    if probs is not None:
        assert probs.shape == (len(edges[0]) - 1, len(edges[1]) - 1)
        assert probs.min() >= -1e-12 and abs(probs.sum() - 1.0) < 1e-9


def check_chi_square_vs_pdf(data):
    alpha, beta = data.draw(regular_pair()), data.draw(regular_pair())
    hist = sample_b2_spectrum(alpha, beta, data.draw(st.integers(1, 200)), seed=1, bins=data.draw(st.integers(1, 5)))
    law = data.draw(st.one_of(st.just((alpha, beta)), st.tuples(weights, weights)))
    summary = answer_or_refuse(lambda: chi_square_vs_pdf(hist, *law), tuple(map(_qpair, law)) != hist.pair)
    if summary is not None:
        assert summary.dof == max(summary.bins_used - 1, 0)
        assert math.isnan(summary.p_value) if summary.dof < 1 else 0 <= summary.p_value <= 1


SAMPLER_ENTRY_POINTS = {check.__name__.removeprefix("check_"): check for check in (
    check_chi2_sf, check_ks_distance_so2, check_haar_orthogonal, check_so2_samples, check_so2_histogram,
    check_sample_b2_spectrum, check_expected_bin_probabilities, check_chi_square_vs_pdf)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(SAMPLER_ENTRY_POINTS)), st.data())
def test_sampler_entry_points_answer_or_refuse(entry, data):
    """Each entry point answers rightly or refuses with a ValueError (or an InvariantError).

    Refused: an SO(2) pair that is not finite and positive, a B2 pair that is not finite
    and regular ordered, N, bins or dof below 1, no samples, a NaN sample or chi-square
    statistic, a Haar n below 1 or size below 0, edges that are short,
    unsorted or do not span the Horn polygon, and a law other than the
    histogram's pair.  Nothing else escapes.
    """
    SAMPLER_ENTRY_POINTS[entry](data)
