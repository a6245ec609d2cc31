"""Monte Carlo cross-validation of the B2 Horn PDF and the SO(2) closed form.

This is the only floating-point module.  B2 samples are spectra of
A + g B g^T for one Haar-random g in SO(5) per sample and block-diagonal
skew matrices A, B: the spectrum of g1 A g1^T + g2 B g2^T is that of
A + (g1^T g2) B (g1^T g2)^T, and g1^T g2 is again Haar.  A and B live in
the first four coordinates, so only the 5 x 4 frame of the first four
columns of g is computed (haar_frame with k = 4); the Gaussian draw is
still the full 5 x 5 one, so samples do not depend on the frame width.  The
two block frequencies of the 5 x 5 skew matrix M = A + g B g^T solve a quadratic:
gamma1^2 + gamma2^2 is the sum of the squared upper entries of M, and
gamma1^2 gamma2^2 is the sum of the squared Pfaffians of its five 4 x 4
principal minors.  B2 samples go from draw to histogram CHUNK at a time, so
memory does not grow with N, and the chunk size changes no bit.  Histograms
are deterministic given (N, seed).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from ._exact import InvariantError
from .volume import (
    _check_regular_ordered,
    delta_b2,
    horn_polygon,
    horn_slabs,
    piecewise_analyze_b2,
    so2_support,
    _qpair,
    PiecewiseQuadratic,
)

MEMBERSHIP_TOL = 1e-9
# most B2 samples per chunk: a chunk's Gaussian draw is CHUNK x 25 doubles, 0.8 MB
CHUNK = 4096
# fewest expected samples of a chi-square bin; bins below it are pooled into one
MIN_EXPECTED = 20.0
# most terms of either incomplete gamma expansion; both need about 6 sqrt(dof)
# (238 at dof 1599, 7,614 at dof 2 * 10^6), so this covers dof up to about 10^8
GAMMA_MAX_TERMS = 100_000


class UncoveredSupportError(ValueError):
    """Histogram edges that leave part of the Horn polygon outside the grid."""


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


def haar_frame(z: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of the Q factor, with positive R diagonal, of each z[b].

    Gram-Schmidt run twice over the columns of the whole batch at once.
    Column j depends only on the first j + 1 columns of z, so the n x k frame
    is computed alone, and the batch size changes no bit.
    """
    # column j of every matrix is the contiguous (n, size) block q[j]
    q = z[:, :, :k].transpose(2, 1, 0).copy()
    for j in range(k):
        v = q[j]
        if j:
            basis = q[:j]
            for _ in range(2):
                v -= np.einsum("kib,kb->ib", basis, np.einsum("kib,ib->kb", basis, v))
        v /= np.sqrt(np.einsum("ib,ib->b", v, v))
    return q.transpose(2, 1, 0)


def haar_orthogonal(rng: np.random.Generator, n: int, k: int, size: int) -> np.ndarray:
    """The first k columns of a batch of Haar-distributed SO(n) matrices.

    The haar_frame of a Gaussian batch (Mezzadri, Notices AMS 54, 2007).
    The whole n x n Gaussian batch is drawn, so the random stream is the
    same for every k.  The determinant fix negates the last column of each
    matrix with determinant -1, so it applies only when k == n.
    """
    q = haar_frame(rng.standard_normal((size, n, n)), k)
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


def _b2_chunks(alpha, beta, n_samples: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(gamma1, gamma2) of N samples from default_rng(seed), in equal chunks of at most CHUNK.

    The arguments are checked on the call, before any draw.
    """
    alpha, beta = _qpair(alpha), _qpair(beta)
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    _check_regular_ordered(alpha, beta)
    rng = np.random.default_rng(seed)
    # k equal chunks: one of a single sample, whose einsum reductions round
    # unlike a batch's, arises only for N = 1
    k = -(-n_samples // CHUNK)
    sizes = (n_samples * (i + 1) // k - n_samples * i // k for i in range(k))
    return (b2_frequencies(alpha, beta, haar_frame(rng.standard_normal((m, 5, 5)), 4)) for m in sizes)


def sample_b2_pairs(alpha, beta, n_samples: int, seed: int) -> np.ndarray:
    """Sorted spectra (gamma1 >= gamma2 >= 0) of N random SO(5) orbit sums, shape (N, 2)."""
    chunks = _b2_chunks(alpha, beta, n_samples, seed)
    out = np.empty((n_samples, 2))
    done = 0
    for g1, g2 in chunks:
        out[done:done + len(g1), 0], out[done:done + len(g1), 1] = g1, g2
        done += len(g1)
    return out


def _inside(slabs: dict[str, tuple[Q, Q]], g1: np.ndarray, g2: np.ndarray, tol: float) -> np.ndarray:
    forms = {"g1": g1, "g2": g2, "g1+g2": g1 + g2, "g1-g2": g1 - g2}
    ok = np.ones_like(g1, dtype=bool)
    for kind, (lo, hi) in slabs.items():
        ok &= (forms[kind] - float(lo) >= -tol) & (float(hi) - forms[kind] >= -tol)
    return ok


def horn_contains_float(alpha, beta, g1: np.ndarray, g2: np.ndarray, tol: float = MEMBERSHIP_TOL) -> np.ndarray:
    """Vectorized Horn-polygon membership with a floating tolerance.

    Each of the forms g1, g2, g1 + g2 and g1 - g2 may lie at most tol outside
    its slab of horn_slabs, whose bounds are rounded to floats.
    """
    return _inside(horn_slabs(alpha, beta), g1, g2, tol)


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """searchsorted(edges, x, "right") - 1 on x in [edges[0], edges[-1]], the last bin closed.

    This is np.histogram2d's binning.  edges come from np.linspace, so the
    index estimated from the uniform step is off by at most one bin, and
    one comparison with the real edge on each side corrects it.
    """
    n = len(edges) - 1
    k = ((x - edges[0]) * (n / (edges[-1] - edges[0]))).astype(np.intp)
    np.clip(k, 0, n - 1, out=k)
    k -= x < edges[k]
    k += x >= edges[k + 1]
    return np.minimum(k, n - 1, out=k)


def _check_bins(bins: int) -> None:
    if bins < 1:
        raise ValueError("bins >= 1 required")


def sample_b2_spectrum(alpha, beta, n_samples: int, seed: int, bins: int = 40) -> HornHistogram:
    """Histogram of the B2 Horn measure over the bounding box of the Horn polygon, chunk by chunk."""
    _check_bins(bins)
    chunks = _b2_chunks(alpha, beta, n_samples, seed)
    poly = horn_polygon(alpha, beta)
    xs = [float(v[0]) for v in poly.vertices]
    ys = [float(v[1]) for v in poly.vertices]
    ex = np.linspace(min(xs), max(xs), bins + 1)
    ey = np.linspace(min(ys), max(ys), bins + 1)
    slabs = horn_slabs(alpha, beta)
    counts = np.zeros(bins * bins, dtype=np.intp)
    outside = 0
    lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
    for g1, g2 in chunks:
        outside += len(g1) - int(np.count_nonzero(_inside(slabs, g1, g2, MEMBERSHIP_TOL)))
        ix = _bin_index(np.clip(g1, ex[0], ex[-1]), ex)
        iy = _bin_index(np.clip(g2, ey[0], ey[-1]), ey)
        counts += np.bincount(ix * bins + iy, minlength=bins * bins)
        np.minimum(lo, (g1.min(), g2.min()), out=lo)
        np.maximum(hi, (g1.max(), g2.max()), out=hi)
    return HornHistogram(
        edges=(ex, ey),
        counts=counts.reshape(bins, bins).astype(np.float64),
        sample_count=n_samples,
        rng_seed=seed,
        samples_outside_support=outside,
        sample_min=tuple(lo),
        sample_max=tuple(hi),
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
    _check_bins(bins)
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


# ---------------------------------------------------------------------------
# Analytic-vs-empirical comparisons


# 4-point Gauss-Legendre rule on [-1, 1], exact up to degree 7
_GL4_NODES = np.array([-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526])
_GL4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538])


def _poly_mul(p: dict, r: dict) -> dict:
    """The product of two polynomials stored as {(i, j): coefficient of u^i v^j}."""
    out: dict = {}
    for (a, b), s in p.items():
        for (c, d), t in r.items():
            k = (a + c, b + d)
            out[k] = out[k] + s * t if k in out else s * t
    return out


def _local_antiderivatives(cells, scale: Q) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's origin o, its first vertex, and the density's antiderivative about it.

    Returns o, shape (cells, 2), and c, shape (8, 8, cells), such that
    F(u, v) = sum c[a, b] u^a v^b = int_0^u f(o + (s, v)) ds, f the density
    scale Delta(gamma) J(gamma) on the cell.  In lattice form (see QuadCell),
    P = D o + (U, V), f is scale / (32 D^6) times h(U, V) = Delta(P) q(P),
    an integer polynomial: q and Delta are expanded about D o in Python ints,
    all cells at once, and each coefficient of F is one int / int ratio,
    rounded once.  About o the values of F stay of the order of the cell's
    mass; about the gamma origin they grow with the coordinates, 15 or more
    on some pairs, and cancel in the sums.
    """
    D = cells[0].D
    X, Y = (np.array([c.lattice[0][k] for c in cells], dtype=object) for k in (0, 1))
    q0, qx, qy, qxx, qxy, qyy = np.array([c.q for c in cells], dtype=object).T
    h = {(0, 0): q0 + (qx + qxx * X + qxy * Y) * X + (qy + qyy * Y) * Y,
         (1, 0): qx + 2 * qxx * X + qxy * Y, (0, 1): qy + qxy * X + 2 * qyy * Y,
         (2, 0): qxx, (1, 1): qxy, (0, 2): qyy}
    # Delta(P) = Px Py (Px^2 - Py^2), Px = X + U and Py = Y + V
    for factor in ({(0, 0): X * Y, (1, 0): Y, (0, 1): X, (1, 1): 1},
                   {(0, 0): X * X - Y * Y, (1, 0): 2 * X, (0, 1): -2 * Y, (2, 0): 1, (0, 2): -1}):
        h = _poly_mul(h, factor)
    coef = np.zeros((8, 8, len(cells)))
    for (a, b), n in h.items():
        coef[a + 1, b] = n * scale.numerator / (scale.denominator * 32 * (a + 1) * D ** (6 - a - b))
    return np.array([c.lattice[0] for c in cells], dtype=float) / D, coef


def _index_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, k) for every k in [lo[i], hi[i]), i ascending."""
    n = np.maximum(hi - lo, 0)
    owner = np.repeat(np.arange(len(lo)), n)
    return owner, np.arange(n.sum()) + np.repeat(lo - np.cumsum(n) + n, n)


def expected_bin_probabilities(alpha, beta, edges, pw: PiecewiseQuadratic | None = None) -> np.ndarray:
    """Exact-polynomial PDF mass of each histogram bin (floating output).

    On each cell the density f is a degree-6 polynomial.  With F an
    antiderivative of f in x, Green's theorem gives the mass of a region as
    the counterclockwise line integral of F dy round its boundary.  A cell's
    part in one grid column is bounded by the cell's edges, cut at the
    column lines, and by the vertical chords where a column line crosses the
    cell, run up for the column on the left and down for the one on the
    right; horizontal edges and bin edges drop out of F dy.  All edges with
    dy != 0 and all chords of all cells are cut at the grid lines they
    cross, found by searchsorted, and every piece, which lies in one bin, is
    integrated by 4-point Gauss-Legendre in one pass, exact because F has
    degree 7 along a line.  F is one coefficient array per cell about its
    own origin (see _local_antiderivatives), rounded once from the integer
    cell form, so the only error is roundoff.

    The x edges must span the polygon's x range and the y edges its y range,
    compared in floats (sample_b2_spectrum's edges run between the rounded
    extremes); UncoveredSupportError is raised otherwise.
    """
    alpha, beta = _qpair(alpha), _qpair(beta)
    if pw is None:
        pw = piecewise_analyze_b2(alpha, beta)
    ex, ey = edges
    D = pw.cells[0].D
    # every cell edge p -> r, cell by cell
    rows = [(i, *p, *r) for i, c in enumerate(pw.cells) for p, r in zip(c.lattice, c.lattice[1:] + c.lattice[:1])]
    cell, px, py, rx, ry = np.array(rows, dtype=float).T
    cell = cell.astype(np.intp)
    px, py, rx, ry = px / D, py / D, rx / D, ry / D
    for axis, e, v in (("x", ex, px), ("y", ey, py)):
        if not e[0] <= v.min() <= v.max() <= e[-1]:
            raise UncoveredSupportError(f"the {axis} edges [{e[0]}, {e[-1]}] do not span the Horn polygon's "
                                        f"{axis} range [{v.min()}, {v.max()}]")
    scale = Q(3, 2) / (abs(delta_b2(alpha)) * abs(delta_b2(beta)))
    origin, coef = _local_antiderivatives(pw.cells, scale)

    # the chords: each column line strictly inside a cell's x range, from the
    # cell's lower boundary (there the largest line of an edge running right)
    # to its upper boundary (the smallest line of an edge running left)
    klo = np.searchsorted(ex, [min(x for x, _ in c.lattice) / D for c in pw.cells], "right")
    khi = np.searchsorted(ex, [max(x for x, _ in c.lattice) / D for c in pw.cells], "left")
    ccell, ck = _index_ranges(klo, khi)
    slanted = np.flatnonzero(rx != px)
    e, k = _index_ranges(klo[cell[slanted]], khi[cell[slanted]])
    e = slanted[e]
    y_at = py[e] + (ex[k] - px[e]) * ((ry[e] - py[e]) / (rx[e] - px[e]))
    chord = np.cumsum(khi - klo)[cell[e]] - khi[cell[e]] + k
    ylo, yhi = np.full(len(ck), -np.inf), np.full(len(ck), np.inf)
    right = rx[e] > px[e]
    np.maximum.at(ylo, chord[right], y_at[right])
    np.minimum.at(yhi, chord[~right], y_at[~right])

    # segments: the edges with dy != 0, then the chords (running up); a
    # vertical one lies in the column on its cell's side, left of its line
    # when it runs up and right when it runs down
    s = np.flatnonzero(ry != py)
    n_edges = len(s)
    scell = np.r_[cell[s], ccell]
    x0, y0 = np.r_[px[s], ex[ck]], np.r_[py[s], ylo]
    x1, y1 = np.r_[rx[s], ex[ck]], np.r_[ry[s], yhi]
    dx, dy = x1 - x0, y1 - y0
    left = np.r_[(rx == px)[s] & (ry > py)[s], np.ones(len(ck), dtype=bool)]
    # each segment's crossings with the grid lines, as parameters t in (0, 1)
    sx, kx = _index_ranges(np.searchsorted(ex, np.minimum(x0, x1), "right"),
                           np.searchsorted(ex, np.maximum(x0, x1), "left"))
    sy, ky = _index_ranges(np.searchsorted(ey, np.minimum(y0, y1), "right"),
                           np.searchsorted(ey, np.maximum(y0, y1), "left"))
    every = np.arange(len(x0))
    owner = np.r_[every, every, sx, sy]
    t = np.r_[np.zeros(len(x0)), np.ones(len(x0)), (ex[kx] - x0[sx]) / dx[sx], (ey[ky] - y0[sy]) / dy[sy]]
    order = np.lexsort((t, owner))
    owner, t = owner[order], t[order]
    cut = np.flatnonzero(owner[1:] == owner[:-1])
    seg = owner[cut]
    mid, half = (t[cut + 1] + t[cut]) / 2, (t[cut + 1] - t[cut]) / 2

    # the bin of each piece
    xm, ym = x0[seg] + mid * dx[seg], y0[seg] + mid * dy[seg]
    col = np.where(left[seg], np.searchsorted(ex, xm, "left"), np.searchsorted(ex, xm, "right")) - 1
    band = np.searchsorted(ey, ym, "right") - 1
    nx, ny = len(ex) - 1, len(ey) - 1
    col, band = np.clip(col, 0, nx - 1), np.clip(band, 0, ny - 1)

    # F dy by Gauss-Legendre on each piece, F in its cell's local coordinates
    tn = mid[:, None] + half[:, None] * _GL4_NODES
    pc = scell[seg]
    u = (x0[seg] - origin[pc, 0])[:, None] + tn * dx[seg, None]
    v = (y0[seg] - origin[pc, 1])[:, None] + tn * dy[seg, None]
    F = 0.0
    for a in range(7, 0, -1):
        p = coef[a, 7 - a][pc, None]
        for b in range(6 - a, -1, -1):
            p = p * v + coef[a, b][pc, None]
        F = (F + p) * u
    mass = (F @ _GL4_WEIGHTS) * half * dy[seg]
    # a chord also bounds the column on its right, run down
    ch = seg >= n_edges
    idx = np.r_[col * ny + band, (col[ch] + 1) * ny + band[ch]]
    return np.bincount(idx, weights=np.r_[mass, -mass[ch]], minlength=nx * ny).reshape(nx, ny)


def chi2_sf(dof: int, x: float) -> float:
    """P(X > x) for X chi-square with dof degrees of freedom: the regularized upper gamma Q(dof/2, x/2).

    With a = dof/2 and x halved: below a + 1 the power series of P = 1 - Q
    converges fast, above it the continued fraction of Q does (modified Lentz).
    Both are scaled by x^a e^-x / Gamma(a), taken through logarithms.
    """
    a, x = dof / 2, x / 2
    if x <= 0:
        return 1.0
    eps, tiny = math.ulp(1.0), 1e-300
    scale = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        # P = scale * sum_n x^n / (a (a+1) ... (a+n))
        term = total = 1 / a
        for n in range(1, GAMMA_MAX_TERMS):
            term *= x / (a + n)
            total += term
            if term < total * eps:
                return 1 - scale * total
    else:
        # Q = scale / (b0 - 1(1-a) / (b0 + 2 - 2(2-a) / (b0 + 4 - ...))), b0 = x + 1 - a
        b = x + 1 - a
        c, d = 1 / tiny, 1 / b
        h = d
        for i in range(1, GAMMA_MAX_TERMS):
            an = -i * (i - a)
            b += 2
            d = an * d + b
            d = 1 / (d if abs(d) > tiny else tiny)
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            delta = c * d
            h *= delta
            if abs(delta - 1) < eps:
                return scale * h
    raise InvariantError(f"chi-square survival function: no convergence in {GAMMA_MAX_TERMS} terms "
                         f"at dof {dof}, x {2 * x}")


@dataclass(frozen=True)
class ChiSquareSummary:
    statistic: float
    dof: int
    p_value: float
    bins_used: int
    pooled_expected: float
    pooled_observed: float


def chi_square_vs_pdf(hist: HornHistogram, alpha, beta, pw: PiecewiseQuadratic | None = None) -> ChiSquareSummary:
    """Pearson chi-square of the 2-D histogram against the analytic PDF."""
    probs = expected_bin_probabilities(alpha, beta, hist.edges, pw)
    N = hist.sample_count
    E = probs * N
    O = hist.counts
    main = E >= MIN_EXPECTED
    stat = float(((O[main] - E[main]) ** 2 / E[main]).sum())
    pooled_E = float(E[~main].sum())
    pooled_O = float(O[~main].sum())
    k = int(main.sum())
    if pooled_E > MIN_EXPECTED:
        stat += (pooled_O - pooled_E) ** 2 / pooled_E
        k += 1
    dof = k - 1
    return ChiSquareSummary(
        statistic=stat,
        dof=dof,
        p_value=chi2_sf(dof, stat) if dof > 0 else math.nan,
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
