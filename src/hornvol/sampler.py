"""Monte Carlo cross-validation of the B2 Horn PDF and the SO(2) closed form.

This is the only floating-point module.  B2 samples are spectra of
g1 A g1^T + g2 B g2^T for Haar-random g1, g2 in SO(5) and block-diagonal
skew matrices A, B; the two nonnegative block frequencies come out of the
eigenvalues of the positive-semidefinite matrix -M^2, which avoids complex
eigensolvers.  Histograms are deterministic given (N, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from ._exact import p2_mul, p2_scale
from .bzpolytope import clip_cell
from .volume import (
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


def haar_orthogonal(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """A batch of Haar-distributed SO(n) matrices (QR with sign-fixed diagonal)."""
    g = rng.standard_normal((size, n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.einsum("...ii->...i", r))
    d[d == 0] = 1.0
    q = q * d[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, -1] *= -1.0
    return q


def _skew_block(a1: float, a2: float) -> np.ndarray:
    m = np.zeros((5, 5))
    m[0, 1], m[1, 0] = a1, -a1
    m[2, 3], m[3, 2] = a2, -a2
    return m


def sample_b2_pairs(alpha, beta, n_samples: int, seed: int, chunk: int = 50_000) -> np.ndarray:
    """Sorted spectra (gamma1 >= gamma2 >= 0) of N random SO(5) orbit sums."""
    alpha, beta = _qpair(alpha), _qpair(beta)
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    if not (alpha[0] > alpha[1] > 0 and beta[0] > beta[1] > 0):
        raise ValueError("alpha and beta must be regular ordered: x1 > x2 > 0")
    A = _skew_block(float(alpha[0]), float(alpha[1]))
    B = _skew_block(float(beta[0]), float(beta[1]))
    rng = np.random.default_rng(seed)
    out = np.empty((n_samples, 2))
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        g1 = haar_orthogonal(rng, 5, m)
        g2 = haar_orthogonal(rng, 5, m)
        M = g1 @ A @ g1.transpose(0, 2, 1) + g2 @ B @ g2.transpose(0, 2, 1)
        S = -M @ M
        ev = np.linalg.eigvalsh(S)  # ascending: ~0, g2^2, g2^2, g1^2, g1^2
        out[done:done + m, 0] = np.sqrt(np.maximum(ev[:, 4], 0.0))
        out[done:done + m, 1] = np.sqrt(np.maximum(ev[:, 2], 0.0))
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


def sample_so2_symmetric(alpha12, beta12, n_samples: int, seed: int, bins: int = 100) -> HornHistogram:
    """Histogram of gamma12 = sqrt(a^2 + b^2 + 2ab cos 2phi), phi uniform."""
    a, b = float(alpha12), float(beta12)
    if a <= 0 or b <= 0:
        raise ValueError("alpha12, beta12 must be positive")
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    g = np.sqrt(a * a + b * b + 2 * a * b * np.cos(2 * phi))
    lo, hi = (float(v) for v in so2_support(alpha12, beta12))
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(np.clip(g, lo, hi), bins=edges)
    outside = int(np.count_nonzero((g < lo - MEMBERSHIP_TOL) | (g > hi + MEMBERSHIP_TOL)))
    return HornHistogram(
        edges=(edges,),
        counts=counts,
        sample_count=n_samples,
        rng_seed=seed,
        samples_outside_support=outside,
        sample_min=(float(g.min()),),
        sample_max=(float(g.max()),),
    )


def so2_samples(alpha12, beta12, n_samples: int, seed: int) -> np.ndarray:
    a, b = float(alpha12), float(beta12)
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    return np.sqrt(a * a + b * b + 2 * a * b * np.cos(2 * phi))


# ---------------------------------------------------------------------------
# Analytic-vs-empirical comparisons


def expected_bin_probabilities(alpha, beta, edges, pw: PiecewiseQuadratic | None = None) -> np.ndarray:
    """Exact-polynomial PDF mass of each histogram bin (floating output).

    Clips every piecewise-quadratic cell against each grid bin and integrates
    the degree-6 density polynomial in floats; the only error is roundoff.
    """
    alpha, beta = _qpair(alpha), _qpair(beta)
    if pw is None:
        pw = piecewise_analyze_b2(alpha, beta)
    scale = Q(3, 2) / (abs(delta_b2(alpha)) * abs(delta_b2(beta)))
    ex, ey = edges
    fx, fy = ex.tolist(), ey.tolist()    # Python floats: clip_cell stays in float arithmetic
    probs = np.zeros((len(ex) - 1, len(ey) - 1))
    for cell in pw.cells:
        dens = p2_scale(scale, p2_mul({(3, 1): Q(1), (1, 3): Q(-1)}, cell.poly))
        fdens = {k: float(v) for k, v in dens.items()}
        verts = [(float(x), float(y)) for x, y in cell.vertices]
        cxs = [v[0] for v in verts]
        cys = [v[1] for v in verts]
        i0, i1 = np.searchsorted(ex, min(cxs)) - 1, np.searchsorted(ex, max(cxs))
        j0, j1 = np.searchsorted(ey, min(cys)) - 1, np.searchsorted(ey, max(cys))
        for i in range(max(i0, 0), min(i1, len(ex) - 1)):
            strip = clip_cell(verts, 1.0, 0.0, fx[i])
            strip = clip_cell(strip, -1.0, 0.0, -fx[i + 1])
            if len(strip) < 3:
                continue
            for j in range(max(j0, 0), min(j1, len(ey) - 1)):
                piece = clip_cell(strip, 0.0, 1.0, fy[j])
                piece = clip_cell(piece, 0.0, -1.0, -fy[j + 1])
                if len(piece) < 3:
                    continue
                probs[i, j] += _float_polygon_integral(fdens, piece)
    return probs


def _float_polygon_integral(poly: dict, verts) -> float:
    total = 0.0
    x0, y0 = verts[0]
    for k in range(1, len(verts) - 1):
        x1, y1 = verts[k]
        x2, y2 = verts[k + 1]
        jac = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if jac == 0:
            continue
        # 7-point degree-5 rule is not exact for degree 6; use a degree-7
        # 13-point symmetric rule instead (Gauss points on the triangle)
        total += abs(jac) * _triangle_quad(poly, (x0, y0), (x1, y1), (x2, y2))
    return total


# 13-point degree-7 rule on the reference triangle (barycentric, weight/2)
_TRI13 = [
    (1 / 3, 1 / 3, -0.149570044467682 / 2),
    (0.479308067841920, 0.260345966079040, 0.175615257433208 / 2),
    (0.260345966079040, 0.479308067841920, 0.175615257433208 / 2),
    (0.260345966079040, 0.260345966079040, 0.175615257433208 / 2),
    (0.869739794195568, 0.065130102902216, 0.053347235608838 / 2),
    (0.065130102902216, 0.869739794195568, 0.053347235608838 / 2),
    (0.065130102902216, 0.065130102902216, 0.053347235608838 / 2),
    (0.048690315425316, 0.312865496004874, 0.077113760890257 / 2),
    (0.312865496004874, 0.048690315425316, 0.077113760890257 / 2),
    (0.048690315425316, 0.638444188569810, 0.077113760890257 / 2),
    (0.638444188569810, 0.048690315425316, 0.077113760890257 / 2),
    (0.312865496004874, 0.638444188569810, 0.077113760890257 / 2),
    (0.638444188569810, 0.312865496004874, 0.077113760890257 / 2),
]


def _triangle_quad(poly: dict, p0, p1, p2) -> float:
    acc = 0.0
    for u, v, w in _TRI13:
        x = p0[0] + u * (p1[0] - p0[0]) + v * (p2[0] - p0[0])
        y = p0[1] + u * (p1[1] - p0[1]) + v * (p2[1] - p0[1])
        val = 0.0
        for (i, j), c in poly.items():
            val += c * x**i * y**j
        acc += w * val
    return acc


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
    from scipy.stats import chi2

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
        p_value=float(chi2.sf(stat, dof)),
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
