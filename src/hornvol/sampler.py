"""Monte Carlo cross-validation of the B2 Horn PDF and the SO(2) closed form.

This is the only floating-point module.  B2 samples are spectra of
A + g B g^T for one Haar-random g in SO(5) per sample and block-diagonal
skew matrices A, B: the spectrum of g1 A g1^T + g2 B g2^T is that of
A + (g1^T g2) B (g1^T g2)^T, and g1^T g2 is again Haar.  A and B live in
the first four coordinates, so only the 5 x 4 frame of the first four
columns of g is computed (haar_orthogonal with k = 4); the Gaussian draw is
still the full 5 x 5 one, so samples do not depend on the frame width.  The
two block frequencies of the 5 x 5 skew matrix M = A + g B g^T solve a quadratic:
gamma1^2 + gamma2^2 is the sum of the squared upper entries of M, and
gamma1^2 gamma2^2 is the sum of the squared Pfaffians of its five 4 x 4
principal minors.  Histograms are deterministic given (N, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from .bzpolytope import clip_cell
from .volume import (
    _QUAD_KEYS,
    delta_b2,
    horn_halfplanes,
    horn_polygon,
    piecewise_analyze_b2,
    so2_support,
    _qpair,
    PiecewiseQuadratic,
)

MEMBERSHIP_TOL = 1e-9


@dataclass
class HornHistogram:
    """Histogram of sampled spectra; 2-D for B2, 1-D for SO(2)."""

    edges: tuple[np.ndarray, ...]
    counts: np.ndarray
    sample_count: int
    rng_seed: int
    samples_outside_support: int = 0
    sample_min: tuple[float, ...] = ()
    sample_max: tuple[float, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.edges)


def haar_orthogonal(rng: np.random.Generator, n: int, k: int, size: int) -> np.ndarray:
    """The first k columns of a batch of Haar-distributed SO(n) matrices.

    The Q factor of a Gaussian matrix with positive R diagonal (Mezzadri,
    Notices AMS 54, 2007), by Gram-Schmidt run twice over the columns of the
    whole batch at once.  Column j depends only on the first j + 1 Gaussian
    columns, so the n x k frame is computed alone; the whole n x n Gaussian
    batch is still drawn, so the random stream is the same for every k.  The
    determinant fix negates the last column of each matrix with determinant
    -1, so it applies only when k == n.
    """
    # column j of every matrix is the contiguous (n, size) block q[j]
    q = rng.standard_normal((size, n, n))[:, :, :k].transpose(2, 1, 0).copy()
    for j in range(k):
        v = q[j]
        if j:
            basis = q[:j]
            for _ in range(2):
                v -= np.einsum("kib,kb->ib", basis, np.einsum("kib,ib->kb", basis, v))
        v /= np.sqrt(np.einsum("ib,ib->b", v, v))
    q = q.transpose(2, 1, 0)
    if k == n:
        q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


# the ten upper entries (i, j), i < j, of a 5 x 5 skew matrix, and the index
# quadruples of its five 4 x 4 principal minors
_UPPER = [(i, j) for i in range(5) for j in range(i + 1, 5)]
_MINORS = [tuple(i for i in range(5) if i != k) for k in range(5)]


def b2_frequencies(alpha, beta, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies gamma1 >= gamma2 >= 0 of A + g B g^T for a batch of g in SO(5).

    A and B carry the blocks (x1, x2) of alpha and beta in the planes (0, 1)
    and (2, 3), so only the first four columns of g enter.
    """
    (a1, a2), (b1, b2) = (tuple(float(v) for v in w) for w in (alpha, beta))
    c0, c1, c2, c3 = (g[:, :, k] for k in range(4))
    m = {(i, j): b1 * (c0[:, i] * c1[:, j] - c1[:, i] * c0[:, j])
         + b2 * (c2[:, i] * c3[:, j] - c3[:, i] * c2[:, j]) for i, j in _UPPER}
    m[0, 1] += a1
    m[2, 3] += a2
    p = sum(v * v for v in m.values())
    q = sum((m[a, b] * m[c, d] - m[a, c] * m[b, d] + m[a, d] * m[b, c]) ** 2 for a, b, c, d in _MINORS)
    s1 = (p + np.sqrt(np.maximum(p * p - 4.0 * q, 0.0))) / 2.0
    # q / s1 rather than the difference of p and s1, which cancels
    return np.sqrt(s1), np.sqrt(np.minimum(q / s1, s1))


def sample_b2_pairs(alpha, beta, n_samples: int, seed: int, chunk: int = 50_000) -> np.ndarray:
    """Sorted spectra (gamma1 >= gamma2 >= 0) of N random SO(5) orbit sums."""
    alpha, beta = _qpair(alpha), _qpair(beta)
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    if not (alpha[0] > alpha[1] > 0 and beta[0] > beta[1] > 0):
        raise ValueError("alpha and beta must be regular ordered: x1 > x2 > 0")
    rng = np.random.default_rng(seed)
    out = np.empty((n_samples, 2))
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        g = haar_orthogonal(rng, 5, 4, m)
        out[done:done + m, 0], out[done:done + m, 1] = b2_frequencies(alpha, beta, g)
        done += m
    return out


def horn_contains_float(alpha, beta, g1: np.ndarray, g2: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Vectorized Horn-polygon membership with a floating tolerance."""
    ok = np.ones_like(g1, dtype=bool)
    for h in horn_halfplanes(alpha, beta):
        ok &= float(h.a) * g1 + float(h.b) * g2 - float(h.c) >= -tol
    return ok


def sample_b2_spectrum(alpha, beta, n_samples: int, seed: int, bins: int = 40) -> HornHistogram:
    """Histogram of the B2 Horn measure over the bounding box of the Horn polygon."""
    alpha, beta = _qpair(alpha), _qpair(beta)
    pairs = sample_b2_pairs(alpha, beta, n_samples, seed)
    inside = horn_contains_float(alpha, beta, pairs[:, 0], pairs[:, 1])
    poly = horn_polygon(alpha, beta)
    xs = [float(v[0]) for v in poly.vertices]
    ys = [float(v[1]) for v in poly.vertices]
    ex = np.linspace(min(xs), max(xs), bins + 1)
    ey = np.linspace(min(ys), max(ys), bins + 1)
    clipped = np.clip(pairs[:, 0], ex[0], ex[-1]), np.clip(pairs[:, 1], ey[0], ey[-1])
    counts, _, _ = np.histogram2d(clipped[0], clipped[1], bins=(ex, ey))
    return HornHistogram(
        edges=(ex, ey),
        counts=counts,
        sample_count=n_samples,
        rng_seed=seed,
        samples_outside_support=int(np.count_nonzero(~inside)),
        sample_min=tuple(pairs.min(axis=0)),
        sample_max=tuple(pairs.max(axis=0)),
    )


def so2_samples(alpha12, beta12, n_samples: int, seed: int) -> np.ndarray:
    """N samples of gamma12 = sqrt(a^2 + b^2 + 2ab cos 2phi), phi uniform."""
    a, b = float(alpha12), float(beta12)
    if a <= 0 or b <= 0:
        raise ValueError("alpha12, beta12 must be positive")
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    return np.sqrt(a * a + b * b + 2 * a * b * np.cos(2 * phi))


def so2_histogram(samples: np.ndarray, alpha12, beta12, seed: int, bins: int = 100) -> HornHistogram:
    """Histogram of SO(2) samples (drawn with seed) over the support of their law."""
    lo, hi = (float(v) for v in so2_support(alpha12, beta12))
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(np.clip(samples, lo, hi), bins=edges)
    outside = int(np.count_nonzero((samples < lo - MEMBERSHIP_TOL) | (samples > hi + MEMBERSHIP_TOL)))
    return HornHistogram(
        edges=(edges,),
        counts=counts,
        sample_count=len(samples),
        rng_seed=seed,
        samples_outside_support=outside,
        sample_min=(float(samples.min()),),
        sample_max=(float(samples.max()),),
    )


def sample_so2_symmetric(alpha12, beta12, n_samples: int, seed: int, bins: int = 100) -> HornHistogram:
    """Histogram of N fresh so2_samples."""
    return so2_histogram(so2_samples(alpha12, beta12, n_samples, seed), alpha12, beta12, seed, bins)


# ---------------------------------------------------------------------------
# Analytic-vs-empirical comparisons


# 4-point Gauss-Legendre rule on [-1, 1], exact up to degree 7
_GL4_NODES = np.array([-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526])
_GL4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538])


def expected_bin_probabilities(alpha, beta, edges, pw: PiecewiseQuadratic | None = None) -> np.ndarray:
    """Exact-polynomial PDF mass of each histogram bin (floating output).

    On each cell the density f is a degree-6 polynomial.  With
    F = int_0^x f dx, Green's theorem gives the mass of a region as the
    counterclockwise line integral of F dy round its boundary, on which the
    horizontal bin edges drop out.  So each cell is clipped only to the grid
    columns, and every non-horizontal edge of each strip is integrated over
    each y band it crosses by 4-point Gauss-Legendre, exact because F has
    degree 7 along an edge.  Each coefficient of F is one integer ratio off
    the cell's lattice form (see QuadCell), rounded once.  The only error is
    roundoff.
    """
    alpha, beta = _qpair(alpha), _qpair(beta)
    if pw is None:
        pw = piecewise_analyze_b2(alpha, beta)
    scale = Q(3, 2) / (abs(delta_b2(alpha)) * abs(delta_b2(beta)))
    ex, ey = edges
    fx = ex.tolist()    # Python floats: clip_cell stays in float arithmetic
    band_lo, band_hi = ey[:-1], ey[1:]
    probs = np.zeros((len(ex) - 1, len(ey) - 1))
    for cell in pw.cells:
        D = cell.D
        den = scale.denominator * 32 * D * D
        # x^3 y - x y^3 times J, whose x^i y^j coefficient is q_ij D^(i+j) / (32 D^2)
        dens: dict[tuple[int, int], int] = {}
        for sign, a, b in ((1, 3, 1), (-1, 1, 3)):
            for (i, j), c in zip(_QUAD_KEYS, cell.q):
                if c:
                    dens[a + i, b + j] = dens.get((a + i, b + j), 0) + sign * c * D ** (i + j)
        F = [(i + 1, j, scale.numerator * n / (den * (i + 1))) for (i, j), n in dens.items() if n]
        verts = [(x / D, y / D) for x, y in cell.lattice]
        cxs = [v[0] for v in verts]
        i0, i1 = np.searchsorted(ex, min(cxs)) - 1, np.searchsorted(ex, max(cxs))
        cols, segs = [], []
        for i in range(max(i0, 0), min(i1, len(ex) - 1)):
            strip = clip_cell(verts, 1.0, 0.0, fx[i])
            strip = clip_cell(strip, -1.0, 0.0, -fx[i + 1])
            if len(strip) < 3:
                continue
            for p, q in zip(strip, strip[1:] + strip[:1]):
                if p[1] != q[1]:
                    cols.append(i)
                    segs.append((*p, *q))
        if not segs:
            continue
        x0, y0, x1, y1 = np.array(segs).T
        # each edge's part in each band, y running from lo to hi
        lo = np.clip(y0[:, None], band_lo, band_hi)
        hi = np.clip(y1[:, None], band_lo, band_hi)
        e, j = np.nonzero(lo != hi)
        mid, half = (hi[e, j] + lo[e, j]) / 2, (hi[e, j] - lo[e, j]) / 2
        y = mid[:, None] + half[:, None] * _GL4_NODES
        x = x0[e, None] + (y - y0[e, None]) * ((x1 - x0) / (y1 - y0))[e, None]
        vals = sum(c * x**a * y**b for a, b, c in F)
        np.add.at(probs, (np.array(cols)[e], j), half * (vals @ _GL4_WEIGHTS))
    return probs


@dataclass(frozen=True)
class ChiSquareSummary:
    statistic: float
    dof: int
    p_value: float
    bins_used: int
    pooled_expected: float
    pooled_observed: float


def chi_square_vs_pdf(hist: HornHistogram, alpha, beta, min_expected: float = 20.0,
                      pw: PiecewiseQuadratic | None = None) -> ChiSquareSummary:
    """Pearson chi-square of the 2-D histogram against the analytic PDF."""
    from scipy.special import chdtrc

    probs = expected_bin_probabilities(alpha, beta, hist.edges, pw)
    N = hist.sample_count
    E = probs * N
    O = hist.counts
    main = E >= min_expected
    stat = float(((O[main] - E[main]) ** 2 / E[main]).sum())
    pooled_E = float(E[~main].sum())
    pooled_O = float(O[~main].sum())
    k = int(main.sum())
    if pooled_E > min_expected:
        stat += (pooled_O - pooled_E) ** 2 / pooled_E
        k += 1
    dof = k - 1
    return ChiSquareSummary(
        statistic=stat,
        dof=dof,
        p_value=float(chdtrc(dof, stat)) if dof > 0 else math.nan,
        bins_used=k,
        pooled_expected=pooled_E,
        pooled_observed=pooled_O,
    )


def ks_distance_so2(samples: np.ndarray, alpha12, beta12) -> float:
    """Kolmogorov-Smirnov distance between the empirical and analytic CDFs."""
    a, b = float(alpha12), float(beta12)
    A, B = (a + b) ** 2, (a - b) ** 2
    xs = np.sort(samples)
    n = len(xs)
    arg = np.clip((2.0 * xs**2 - A - B) / (A - B), -1.0, 1.0)
    cdf = (np.arcsin(arg) + np.pi / 2) / np.pi
    upper = np.abs(np.arange(1, n + 1) / n - cdf).max()
    lower = np.abs(np.arange(0, n) / n - cdf).max()
    return float(max(upper, lower))
