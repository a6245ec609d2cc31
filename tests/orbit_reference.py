"""The full-matrix orbit map: the reference for the sampler's torus-quotient kernel.

b2_orbit_points draws an invariantly distributed point X of O_beta as a
5 x 5 skew matrix from 11 normals, and b2_frequencies reads the block
frequencies of A + X off its upper entries and its five 4 x 4 principal
Pfaffians.  The tests check both against eigvalsh, the orbit and the Schur
second moment, and check sampler.b2_spectra against them.
"""

import numpy as np

# the ten upper entries (i, j), i < j, of a 5 x 5 skew matrix, and the index
# quadruples of its five 4 x 4 principal minors
_UPPER = [(i, j) for i in range(5) for j in range(i + 1, 5)]
_MINORS = [tuple(i for i in range(5) if i != k) for k in range(5)]


def b2_orbit_points(beta, z: np.ndarray) -> np.ndarray:
    """Invariantly distributed points X of O_beta in so(5), one per row of the normals z, shape (m, 11).

    O_beta fibres over the sphere S^4 of kernel directions, with fibre the
    SO(4)-orbit of beta, two 2-spheres of radii s, t = (beta1 +- beta2) / 2 by
    so(4) = su(2) + su(2).  The fibre point is X0 = s' sum u_k w+_k +
    t' sum u'_k w-_k, with u, u' uniform on S^2 (normals 5-7, 8-10),
    w+ = (E01 + E23, E02 - E13, E03 + E12) and w- = (E01 - E23, E02 + E13,
    E03 - E12).  The kernel direction d is c / |c| for c normals 0-4, negated
    when c4 > 0, and the Householder H = I - tau v v^T, v = e4 - d,
    tau = 1 / (1 - d4) (stable, d4 <= 0) maps e4 to d.  H has det -1, so it
    swaps the radii: the fair coin c4 > 0, independent of the line of d, sets
    (s', t') = (s, t), and (t, s) otherwise.  With y = X0 d, X = H X0 H^T has
    X[i, 4] = y_i and X[i, j] = X0[i, j] + tau (d_i y_j - y_i d_j).

    Every step is elementwise, so each X depends on its own row of z alone.
    X[:, i, j] is contiguous.
    """
    b1, b2 = float(beta[0]), float(beta[1])
    s, t = (b1 + b2) / 2, (b1 - b2) / 2
    z = np.ascontiguousarray(z.T)
    c, u, w = z[:5], z[5:8], z[8:]
    up = c[4] > 0
    d = c * (np.where(up, -1.0, 1.0) / np.sqrt(sum(r * r for r in c)))
    u = u * (np.where(up, s, t) / np.sqrt(sum(r * r for r in u)))
    w = w * (np.where(up, t, s) / np.sqrt(sum(r * r for r in w)))
    x0 = dict(zip(((0, 1), (0, 2), (0, 3)), u + w))
    x0[2, 3], x0[1, 3], x0[1, 2] = u[0] - w[0], w[1] - u[1], u[2] - w[2]
    d0, d1, d2, d3 = d[:4]
    y = (x0[0, 1] * d1 + x0[0, 2] * d2 + x0[0, 3] * d3,
         x0[1, 2] * d2 + x0[1, 3] * d3 - x0[0, 1] * d0,
         x0[2, 3] * d3 - x0[0, 2] * d0 - x0[1, 2] * d1,
         -(x0[0, 3] * d0 + x0[1, 3] * d1 + x0[2, 3] * d2))
    e = d[:4] / (1.0 - d[4])
    x = np.zeros((5, 5, len(d0)))
    for i, j in _UPPER:
        x[i, j] = y[i] if j == 4 else x0[i, j] + (e[i] * y[j] - y[i] * e[j])
        np.negative(x[i, j], out=x[j, i])
    return x.transpose(2, 0, 1)


def b2_frequencies(alpha, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies gamma1 >= gamma2 >= 0 of A + X for a batch x of skew X, shape (m, 5, 5).

    A carries the blocks (x1, x2) of alpha in the planes (0, 1) and (2, 3).
    Only the upper entries of each X are read.
    """
    a1, a2 = (float(v) for v in alpha)
    m = {(i, j): x[:, i, j] for i, j in _UPPER}
    # new arrays, not +=: the entries are views of the caller's x
    m[0, 1] = m[0, 1] + a1
    m[2, 3] = m[2, 3] + a2
    p = sum(v * v for v in m.values())
    q = sum((m[a, b] * m[c, d] - m[a, c] * m[b, d] + m[a, d] * m[b, c]) ** 2 for a, b, c, d in _MINORS)
    s1 = (p + np.sqrt(np.maximum(p * p - 4.0 * q, 0.0))) / 2.0
    # q / s1 rather than the difference of p and s1, which cancels
    return np.sqrt(s1), np.sqrt(np.minimum(q / s1, s1))
