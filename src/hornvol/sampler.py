"""Monte Carlo cross-validation of the B2 Horn PDF and the SO(2) closed form.

This is the only floating-point module.  A B2 sample is the spectrum of
A + X, with A the block-diagonal skew matrix of alpha and X an invariantly
distributed point of the orbit O_beta in so(5) (the spectrum of
g1 A g1^T + g2 B g2^T is that of A + g B g^T, g = g1^T g2 again Haar).  The
spectrum sees X only up to the torus that fixes A, so b2_spectra draws the
kernel direction of X on the torus quotient of S^4, from two exponentials,
and the rest from seven normals, and reads the two block frequencies off a
quadratic: gamma1^2 + gamma2^2 is |A + X|^2, and gamma1^2 gamma2^2 the
squared norm of the Pfaffian vector of A + X, with no 5 x 5 matrix formed.
B2 samples go from draw to histogram CHUNK at a time, so memory does not
grow with N; sample i reads exponentials 2 i, 2 i + 1 of one stream and
normals 7 i to 7 i + 6 of another, and every step is elementwise, so the
chunk size changes no bit.  Histograms are deterministic given (N, seed).
The chi-square reads bin masses of the exact density, by Green's theorem and
Gauss-Legendre rules exact on its polynomial cells (expected_bin_probabilities).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from ._exact import InvariantError
from .volume import (
    _cells_of,
    _regular_pair,
    horn_slabs,
    pdf_scale,
    so2_support,
    _qpair,
    PiecewiseQuadratic,
)

MEMBERSHIP_TOL = 1e-9
# most B2 samples per chunk: a chunk's draw is CHUNK x 9 doubles (2 exponentials, 7 normals), 0.29 MB
CHUNK = 4096
# fewest expected samples of a chi-square bin; bins below it are pooled into one
MIN_EXPECTED = 20.0
# most terms of either incomplete gamma expansion; both need about 6 sqrt(dof)
# (238 at dof 1599, 7,614 at dof 2 * 10^6), so this covers dof up to about 10^8
GAMMA_MAX_TERMS = 100_000


class UncoveredSupportError(ValueError):
    """Histogram edges that leave part of the Horn polygon outside the grid."""


class HistogramPairError(ValueError):
    """A histogram compared against the law of a pair it was not drawn for."""


@dataclass
class HornHistogram:
    """Histogram of sampled spectra; 2-D for B2, 1-D for SO(2).

    `pair` is the (alpha, beta) pair, as exact pairs, that B2 samples were
    drawn for; only the B2 chi-square reads it, and an SO(2) histogram
    leaves it None.
    """

    edges: tuple[np.ndarray, ...]
    counts: np.ndarray
    sample_count: int
    samples_outside_support: int = 0
    pair: tuple | None = None


def haar_orthogonal(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """A batch of Haar-distributed SO(n) matrices, shape (size, n, n).

    The Q factor, with positive R diagonal, of a Gaussian batch (Mezzadri,
    Notices AMS 54, 2007), by Gram-Schmidt run twice over all its columns at
    once; then the last column of each matrix with determinant -1 is negated.
    """
    if n < 1 or size < 0:
        raise ValueError(f"n >= 1 and size >= 0 required, got n {n}, size {size}")
    # column j of every matrix is the contiguous (n, size) block q[j]
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


def b2_spectra(alpha, beta, e: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies gamma1 >= gamma2 >= 0 of A + X, X invariantly distributed on O_beta, one per row of e and z.

    e holds two standard exponentials per sample, shape (m, 2), and z seven
    normals, shape (m, 7).  The spectrum of A + X sees X only up to the
    stabilizer of A, the torus T of rotations in the planes (0, 1) and
    (2, 3), so the kernel direction of X is drawn on S^4 / T: with
    c = (r1, 0, r2, 0, c4), r1^2 = 2 e1 and r2^2 = 2 e2 (the squared norm of
    a Gaussian in a plane is twice a standard exponential) and c4 = z0, it is
    d = (r1, 0, r2, 0, -|c4|) / |c|.  Over d, O_beta is the SO(4)-orbit of
    beta, two 2-spheres of radii s, t = (beta1 +- beta2) / 2, with the point
    X0 = s' sum u_k w+_k + t' sum u'_k w-_k, u and u' uniform on S^2 from
    normals 1-3 and 4-6, w+ = (E01 + E23, E02 - E13, E03 + E12) and
    w- = (E01 - E23, E02 + E13, E03 - E12).  The Householder
    H = I - tau v v^T, v = e4 - d, tau = 1 / (1 - d4), maps e4 to d and X0
    to X = H X0 H^T; H has det -1 and swaps the radii, so the fair coin
    c4 > 0 sets (s', t') = (s, t), and (t, s) otherwise.  Only y = X0 d
    (X[i, 4] = y_i), X01 = X0[0, 1] + tau d0 y1 and X23 = X0[2, 3] + tau d2 y3
    are formed.

    gamma1^2 + gamma2^2 = |A + X|^2 = p = |alpha|^2 + |beta|^2 +
    2 (a1 X01 + a2 X23), and gamma1^2 gamma2^2 = q = |v(A + X)|^2, v_k the
    Pfaffian of the 4 x 4 principal minor without k.  v is quadratic:
    v(A + X) = v(A) + v'(A; X) + v(X), with v(A) = a1 a2 e4,
    v' = (a2 X14, a2 X04, a1 X34, a1 X24, a1 X23 + a2 X01), and
    v(X) = (t'^2 - s'^2) d, since v(X0) = (s'^2 - t'^2) e4 and H carries it
    to det(H) H v(X0).  Every step is elementwise, so each sample depends on
    its own rows of e and z alone.
    """
    a1, a2 = (float(v) for v in alpha)
    b1, b2 = (float(v) for v in beta)
    s, t = (b1 + b2) / 2, (b1 - b2) / 2
    e, z = np.ascontiguousarray(e.T), np.ascontiguousarray(z.T)
    c4, u, w = z[0], z[1:4], z[4:]
    up = c4 > 0
    # d0 = r1 / |c|, d2 = r2 / |c|, d4 = -|c4| / |c|
    inv = 1.0 / (2.0 * (e[0] + e[1]) + c4 * c4)
    d0, d2 = np.sqrt((2.0 * inv) * e)
    d4 = -np.abs(c4) * np.sqrt(inv)
    u = u * (np.where(up, s, t) / np.sqrt((u * u).sum(axis=0)))
    w = w * (np.where(up, t, s) / np.sqrt((w * w).sum(axis=0)))
    x01, x02, x03 = u + w
    x23, x12 = u[0] - w[0], u[2] - w[2]
    # y = X0 d with d1 = d3 = 0
    y0, y1 = x02 * d2, x12 * d2 - x01 * d0
    y2, y3 = -x02 * d0, -(x03 * d0 + x23 * d2)
    tau = 1.0 / (1.0 - d4)
    x01 = x01 + (tau * d0) * y1
    x23 = x23 + (tau * d2) * y3
    p = (a1 * a1 + a2 * a2 + b1 * b1 + b2 * b2) + 2.0 * (a1 * x01 + a2 * x23)
    pf = np.where(up, -b1 * b2, b1 * b2)
    q = ((a2 * y1 + pf * d0) ** 2 + (a2 * y0) ** 2 + (a1 * y3 + pf * d2) ** 2 + (a1 * y2) ** 2
         + (a1 * a2 + a1 * x23 + a2 * x01 + pf * d4) ** 2)
    s1 = (p + np.sqrt(np.maximum(p * p - 4.0 * q, 0.0))) / 2.0
    # q / s1 rather than the difference of p and s1, which cancels
    return np.sqrt(s1), np.sqrt(np.minimum(q / s1, s1))


def _b2_chunks(alpha, beta, n_samples: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(gamma1, gamma2) of N samples, in equal chunks of at most CHUNK.

    The exponentials and the normals of b2_spectra come from one generator
    each, default_rng of the two children of SeedSequence(seed), read on
    from chunk to chunk.  The arguments are checked on the call, before any
    draw.
    """
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    alpha, beta = _regular_pair(alpha, beta)
    exp_rng, normal_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    k = -(-n_samples // CHUNK)
    sizes = (n_samples * (i + 1) // k - n_samples * i // k for i in range(k))
    return (b2_spectra(alpha, beta, exp_rng.standard_exponential((m, 2)), normal_rng.standard_normal((m, 7)))
            for m in sizes)


def _inside(slabs: dict[str, tuple[Q, Q]], g1: np.ndarray, g2: np.ndarray, tol: float) -> np.ndarray:
    forms = {"g1": g1, "g2": g2, "g1+g2": g1 + g2, "g1-g2": g1 - g2}
    ok = np.ones_like(g1, dtype=bool)
    for kind, (lo, hi) in slabs.items():
        ok &= (forms[kind] - float(lo) >= -tol) & (float(hi) - forms[kind] >= -tol)
    return ok


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


def _check_not_nan(samples) -> None:
    if np.isnan(samples).any():
        raise ValueError("samples must not be NaN")


def sample_b2_spectrum(alpha, beta, n_samples: int, seed: int, bins: int = 40) -> HornHistogram:
    """Histogram of the B2 Horn measure over the bounding box of the Horn polygon, chunk by chunk.

    The box is the g1 and g2 slabs of horn_slabs, whose bounds are the polygon's extreme coordinates.
    """
    _check_bins(bins)
    chunks = _b2_chunks(alpha, beta, n_samples, seed)
    slabs = horn_slabs(alpha, beta)
    ex, ey = (np.linspace(float(lo), float(hi), bins + 1) for lo, hi in (slabs["g1"], slabs["g2"]))
    counts = np.zeros(bins * bins, dtype=np.intp)
    outside = 0
    for g1, g2 in chunks:
        outside += len(g1) - int(np.count_nonzero(_inside(slabs, g1, g2, MEMBERSHIP_TOL)))
        ix = _bin_index(np.clip(g1, ex[0], ex[-1]), ex)
        iy = _bin_index(np.clip(g2, ey[0], ey[-1]), ey)
        counts += np.bincount(ix * bins + iy, minlength=bins * bins)
    return HornHistogram(
        pair=(_qpair(alpha), _qpair(beta)),
        edges=(ex, ey),
        counts=counts.reshape(bins, bins).astype(np.float64),
        sample_count=n_samples,
        samples_outside_support=outside,
    )


def so2_samples(alpha12, beta12, n_samples: int, seed: int) -> np.ndarray:
    """N samples of gamma12 = sqrt(a^2 + b^2 + 2ab cos 2phi), phi uniform.

    A pair that so2_support refuses, not finite or not positive, raises
    its ValueError before any draw.
    """
    so2_support(alpha12, beta12)
    if n_samples < 1:
        raise ValueError("n_samples >= 1 required")
    a, b = float(alpha12), float(beta12)
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    return np.sqrt(a * a + b * b + 2 * a * b * np.cos(2 * phi))


def so2_histogram(samples: np.ndarray, alpha12, beta12, bins: int = 100) -> HornHistogram:
    """Histogram of SO(2) samples over the support of their law; a sample of +-inf is outside it, one of NaN refused."""
    _check_bins(bins)
    _check_not_nan(samples)
    lo, hi = (float(v) for v in so2_support(alpha12, beta12))
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(np.clip(samples, lo, hi), bins=edges)
    outside = int(np.count_nonzero((samples < lo - MEMBERSHIP_TOL) | (samples > hi + MEMBERSHIP_TOL)))
    return HornHistogram(
        edges=(edges,),
        counts=counts,
        sample_count=len(samples),
        samples_outside_support=outside,
    )


# ---------------------------------------------------------------------------
# Analytic-vs-empirical comparisons


# 4-point Gauss-Legendre rule on [-1, 1], exact up to degree 7
_GL4_NODES = np.array([-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526])
_GL4_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538])


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
    degree 7 along a line.  F is the same rule on f from the cell's first
    vertex, exact as f has degree 6 along x.  f = scale / (32 D^6) Delta(P)
    q(P) in lattice form (see QuadCell), q expanded about that vertex in ints
    (about the gamma origin its terms grow and cancel), so the only error is roundoff.

    The x edges must span the polygon's x range and the y edges its y range,
    compared in floats (sample_b2_spectrum's edges run between the rounded
    extremes); UncoveredSupportError is raised otherwise, and CellPairError
    for a pw of another pair.
    """
    alpha, beta = _regular_pair(alpha, beta)
    pw = _cells_of(alpha, beta, pw)
    ex, ey = edges
    D = pw.cells[0].D
    # every cell edge p -> r, cell by cell
    rows = [(i, *p, *r) for i, c in enumerate(pw.cells) for p, r in zip(c.lattice, c.lattice[1:] + c.lattice[:1])]
    cell, px, py, rx, ry = np.array(rows, dtype=float).T
    cell = cell.astype(np.intp)
    px, py, rx, ry = px / D, py / D, rx / D, ry / D
    for axis, e, v in (("x", ex, px), ("y", ey, py)):
        if len(e) < 2 or not (np.diff(e) > 0).all():
            raise ValueError(f"the {axis} edges must be at least two, strictly increasing")
        if not e[0] <= v.min() <= v.max() <= e[-1]:
            raise UncoveredSupportError(f"the {axis} edges [{e[0]}, {e[-1]}] do not span the Horn polygon's "
                                        f"{axis} range [{v.min()}, {v.max()}]")
    # q(X + U, Y + V) = sum h_ab U^a V^b about each cell's first vertex (X, Y), in ints;
    # with U = D u, f = scale / 32 Delta(gamma) sum h_ab D^(a+b-2) u^a v^b, each ratio rounded once
    local = []
    for c in pw.cells:
        (X, Y), (q0, qx, qy, qxx, qxy, qyy) = c.lattice[0], c.q
        local.append((X / D, Y / D, (q0 + (qx + qxx * X + qxy * Y) * X + (qy + qyy * Y) * Y) / (D * D),
                      (qx + 2 * qxx * X + qxy * Y) / D, (qy + qxy * X + 2 * qyy * Y) / D, qxx, qxy, qyy))
    local = np.array(local, dtype=float).T

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

    # F dy by Gauss-Legendre on each piece, and F by the same rule from the cell's first vertex
    ox, oy, h00, h10, h01, h20, h11, h02 = local[:, scell[seg]]
    u0, v0, du, dv = x0[seg] - ox, y0[seg] - oy, dx[seg], dy[seg]
    mass = 0.0
    for node, w in zip(_GL4_NODES, _GL4_WEIGHTS):
        t = mid + half * node
        u, v = u0 + t * du, v0 + t * dv
        qv, qu, gy = h00 + (h01 + h02 * v) * v, h10 + h11 * v, oy + v
        F = 0.0
        for inner, wi in zip(_GL4_NODES, _GL4_WEIGHTS):
            s = u * ((1 + inner) / 2)
            gx = ox + s
            F = F + wi * (gx * gy * (gx - gy) * (gx + gy)) * (qv + (qu + h20 * s) * s)
        mass = mass + w * F * u
    mass = mass * (float(pdf_scale(alpha, beta)) / 64) * half * dv
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
    if dof < 1:
        raise ValueError(f"dof >= 1 required, got {dof}")
    if math.isnan(x):
        raise ValueError("x must not be NaN")
    a, x = dof / 2, x / 2
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
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


def chi_square_vs_pdf(hist: HornHistogram, alpha, beta, pw: PiecewiseQuadratic | None = None) -> ChiSquareSummary:
    """Pearson chi-square of the 2-D histogram against the analytic PDF of (alpha, beta).

    The bin masses refuse a pair whose polygon the histogram's edges do not
    span (UncoveredSupportError); any other pair that the histogram was not
    drawn for raises HistogramPairError.
    """
    probs = expected_bin_probabilities(alpha, beta, hist.edges, pw)
    pair = (_qpair(alpha), _qpair(beta))
    if hist.pair != pair:
        raise HistogramPairError(f"a histogram drawn for {hist.pair} cannot be tested against the law of {pair}")
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
    # with fewer than two classes there is nothing to test: dof 0, p nan
    dof = max(k - 1, 0)
    return ChiSquareSummary(
        statistic=stat,
        dof=dof,
        p_value=chi2_sf(dof, stat) if dof > 0 else math.nan,
        bins_used=k,
    )


def ks_distance_so2(samples: np.ndarray, alpha12, beta12) -> float:
    """Kolmogorov-Smirnov distance between the empirical and analytic CDFs (0 below the support); NaN is refused."""
    so2_support(alpha12, beta12)  # refuses a pair that is not finite and positive
    a, b = float(alpha12), float(beta12)
    if len(samples) == 0:
        raise ValueError("at least one sample required")
    _check_not_nan(samples)
    A, B = (a + b) ** 2, (a - b) ** 2
    xs = np.sort(samples)
    n = len(xs)
    arg = np.clip((2.0 * np.maximum(xs, 0.0) ** 2 - A - B) / (A - B), -1.0, 1.0)
    cdf = (np.arcsin(arg) + np.pi / 2) / np.pi
    upper = np.abs(np.arange(1, n + 1) / n - cdf).max()
    lower = np.abs(np.arange(0, n) / n - cdf).max()
    return float(max(upper, lower))
