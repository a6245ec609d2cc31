"""Tensor-product multiplicities by three independent routes.

* Freudenthal recursion for full weight systems,
* the Racah-Speiser / Klimyk algorithm (reflect the shifted weight into the
  dominant chamber, drop walls, apply the sign),
* the Steinberg formula over the Kostant partition function.

All arithmetic is exact; weights enter and leave as Dynkin labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache

from ._exact import InvariantError, dot
from .rootsys import (
    RootSystem,
    UnsupportedAlgebraError,
    Weight,
    build_root_system,
    reflect_to_dominant,
    weyl_dimension,
    weyl_group,
)

DEFAULT_DIM_CAP = 10**6

#: families accepted by the Freudenthal/Klimyk route (E7/E8 weight systems
#: are out of scope; their root data is still available for covolumes)
FREUDENTHAL_FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6")


class SizeGuardError(ValueError):
    pass


@dataclass(frozen=True)
class WeightMultiplicityTable:
    """Full weight system of an irreducible module, keyed by Dynkin labels."""

    highest_weight: tuple[int, ...]
    entries: dict[tuple[int, ...], int]

    def dimension(self) -> int:
        return sum(self.entries.values())

    def multiplicity(self, w: tuple[int, ...]) -> int:
        return self.entries.get(tuple(w), 0)


def _dynkin_int(rs: RootSystem, w) -> tuple[int, ...]:
    a = rs.dynkin(w)
    if not all(x.denominator == 1 for x in a):
        raise ValueError(f"{a} is not an integral weight")
    return tuple(int(x) for x in a)


def _checked_multiplicity(acc: int, method: str, lam, mu, nu) -> int:
    """Return acc; a negative signed sum is a defect, never a multiplicity."""
    if acc < 0:
        raise InvariantError(f"{method} sum {acc} < 0 for {lam}, {mu}, {nu}")
    return acc


def _check_dominant(rs: RootSystem, w) -> tuple[int, ...]:
    a = _dynkin_int(rs, w)
    if any(x < 0 for x in a):
        raise ValueError(f"{a} is not dominant")
    return a


def _weyl_orbit_dynkin(rs: RootSystem, start: tuple[int, ...]) -> set[tuple[int, ...]]:
    cart = rs.cartan_matrix
    n = rs.rank
    orbit = {start}
    frontier = [start]
    while frontier:
        new = []
        for a in frontier:
            for i in range(n):
                if a[i] == 0:
                    continue
                b = tuple(a[j] - a[i] * cart[i][j] for j in range(n))
                if b not in orbit:
                    orbit.add(b)
                    new.append(b)
        frontier = new
    return orbit


@lru_cache(maxsize=512)
def _freudenthal_cached(family: str, rank: int, lam: tuple[int, ...], cap: int) -> WeightMultiplicityTable:
    rs = build_root_system(family, rank)
    dim = weyl_dimension(rs, lam)
    if dim > cap:
        raise SizeGuardError(f"dim V_{lam} = {dim} exceeds the cap {cap}")

    lam_o = rs.ortho(Weight(lam, "dynkin"))
    lam_norm2 = dot(lam_o, lam_o)
    rho_o = rs.rho_ortho
    lamrho = tuple(a + b for a, b in zip(lam_o, rho_o))
    lamrho2 = dot(lamrho, lamrho)
    simple_o = rs.simple_roots
    simple_rows = rs.cartan_matrix
    n = rs.rank

    # breadth-first closure of lambda - Q_+ pruned by |w|^2 <= |lambda|^2;
    # keys are the offsets lambda - w in simple-root coordinates
    zero = (0,) * n
    cand: dict[tuple[int, ...], tuple[tuple[int, ...], tuple]] = {zero: (lam, lam_o)}
    levels: dict[tuple[int, ...], int] = {zero: 0}
    frontier = [zero]
    while frontier:
        new = []
        for off in frontier:
            dyn, ortho = cand[off]
            for i in range(n):
                off2 = tuple(off[j] + (1 if j == i else 0) for j in range(n))
                if off2 in cand:
                    continue
                ortho2 = tuple(a - b for a, b in zip(ortho, simple_o[i]))
                if dot(ortho2, ortho2) > lam_norm2:
                    continue
                dyn2 = tuple(dyn[j] - simple_rows[i][j] for j in range(n))
                cand[off2] = (dyn2, ortho2)
                levels[off2] = levels[off] + 1
                new.append(off2)
        frontier = new

    dominants = sorted(
        (off for off, (dyn, _) in cand.items() if all(x >= 0 for x in dyn)),
        key=lambda off: levels[off],
    )
    pos_rb = rs.positive_roots_rb
    pos_o = rs.positive_roots
    mult: dict[tuple[int, ...], int] = {lam: 1}

    def mult_of(off: tuple[int, ...]) -> int:
        dyn = cand[off][0]
        dom, _ = reflect_to_dominant(rs, dyn)
        return mult.get(tuple(dom), 0)

    for off in dominants:
        if off == zero:
            continue
        dyn, ortho = cand[off]
        num = Q(0)
        for rb, alpha in zip(pos_rb, pos_o):
            k = 1
            while True:
                off_k = tuple(o - k * r for o, r in zip(off, rb))
                if any(v < 0 for v in off_k):
                    break
                if off_k in cand:
                    m = mult_of(off_k)
                    if m:
                        shifted = tuple(a + k * b for a, b in zip(ortho, alpha))
                        num += m * dot(shifted, alpha)
                k += 1
        if num == 0:
            continue
        wrho = tuple(a + b for a, b in zip(ortho, rho_o))
        den = lamrho2 - dot(wrho, wrho)
        val = 2 * num / den
        if val.denominator != 1 or val <= 0:
            raise InvariantError(f"Freudenthal multiplicity {val} of {dyn} in V{lam} is not a positive integer")
        mult[dyn] = int(val)

    entries: dict[tuple[int, ...], int] = {}
    for dyn, m in mult.items():
        for w in _weyl_orbit_dynkin(rs, dyn):
            entries[w] = m
    return WeightMultiplicityTable(highest_weight=lam, entries=entries)


def freudenthal_weights(rs: RootSystem, lam, max_dim: int = DEFAULT_DIM_CAP) -> WeightMultiplicityTable:
    """Weight system of V_lambda with multiplicities, by Freudenthal recursion."""
    if rs.family not in FREUDENTHAL_FAMILIES:
        raise UnsupportedAlgebraError(f"weight systems not supported for {rs.family}")
    lam = _check_dominant(rs, lam)
    return _freudenthal_cached(rs.family, rs.rank, lam, max_dim)


# ---------------------------------------------------------------------------
# Kostant partition function


@lru_cache(maxsize=None)
def _kostant_rec(family: str, rank: int, i: int, vec: tuple[int, ...]) -> int:
    if all(v == 0 for v in vec):
        return 1
    rs = build_root_system(family, rank)
    roots = _kostant_roots(family, rank)
    if i == len(roots):
        return 0
    root = roots[i]
    bound = min(v // r for v, r in zip(vec, root) if r > 0)
    total = 0
    for k in range(bound + 1):
        rest = tuple(v - k * r for v, r in zip(vec, root))
        total += _kostant_rec(family, rank, i + 1, rest)
    return total


@lru_cache(maxsize=None)
def _kostant_roots(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    rs = build_root_system(family, rank)
    return tuple(sorted(rs.positive_roots_rb, key=lambda r: -sum(r)))


@lru_cache(maxsize=None)
def kostant_partition_b2(m: int, n: int) -> int:
    """Partitions of m*alpha1 + n*alpha2 over the four positive B2 roots."""
    if m < 0 or n < 0:
        return 0
    total = 0
    for t4 in range(min(m, n // 2) + 1):
        hi = min(m - t4, n - 2 * t4)
        if hi >= 0:
            total += hi + 1
    return total


def kostant_partition(rs: RootSystem, sigma, basis: str = "dynkin") -> int:
    """Number of decompositions of sigma into nonnegative integer sums of positive roots.

    Returns 0 when sigma is not in the root lattice (or has a negative
    simple-root coordinate).
    """
    w = sigma if isinstance(sigma, Weight) else Weight(tuple(sigma), basis)
    rb = rs.to_basis(w, "root").coords
    if any(v.denominator != 1 for v in rb):
        return 0
    vec = tuple(int(v) for v in rb)
    if any(v < 0 for v in vec):
        return 0
    if rs.family == "B" and rs.rank == 2:
        return kostant_partition_b2(*vec)
    return _kostant_rec(rs.family, rs.rank, 0, vec)


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients


def lr_klimyk(rs: RootSystem, lam, mu, nu, max_dim: int = DEFAULT_DIM_CAP) -> int:
    """C_{lam mu}^{nu} by Klimyk's formula over the weight system of V_mu."""
    lam = _check_dominant(rs, lam)
    nu = _check_dominant(rs, nu)
    table = freudenthal_weights(rs, mu, max_dim)
    n = rs.rank
    target = tuple(v + 1 for v in nu)
    acc = 0
    for tau, m in table.entries.items():
        x = tuple(lam[i] + tau[i] + 1 for i in range(n))
        dom, sign = reflect_to_dominant(rs, x)
        if sign and dom == target:
            acc += sign * m
    return _checked_multiplicity(acc, "Klimyk", lam, mu, nu)


def tensor_decompose(rs: RootSystem, lam, mu, max_dim: int = DEFAULT_DIM_CAP) -> dict[tuple[int, ...], int]:
    """All nu with C_{lam mu}^{nu} != 0.

    Internally runs Klimyk over the weight system of the smaller factor
    (C is symmetric in lam, mu).
    """
    lam = _check_dominant(rs, lam)
    mu = _check_dominant(rs, mu)
    if weyl_dimension(rs, mu) > weyl_dimension(rs, lam):
        lam, mu = mu, lam
    table = freudenthal_weights(rs, mu, max_dim)
    n = rs.rank
    acc: dict[tuple[int, ...], int] = {}
    for tau, m in table.entries.items():
        x = tuple(lam[i] + tau[i] + 1 for i in range(n))
        dom, sign = reflect_to_dominant(rs, x)
        if sign:
            nu = tuple(v - 1 for v in dom)
            acc[nu] = acc.get(nu, 0) + sign * m
    out = {k: v for k, v in acc.items() if v != 0}
    for nu, v in out.items():
        _checked_multiplicity(v, "Klimyk", lam, mu, nu)
    return out


def _lr_steinberg_b2(lam, mu, nu) -> int:
    """Integer-only Steinberg evaluation for B2 (hot path for exhaustive sweeps)."""
    signs_mats = _b2_weyl_mats_uv()
    def uv(a, b):
        return (2 * a + b, a + b)
    lu, lv = uv(lam[0] + 1, lam[1] + 1)
    mu_, mv = uv(mu[0] + 1, mu[1] + 1)
    tu, tv = uv(nu[0] + 2, nu[1] + 2)
    wl = [(s, m11 * lu + m12 * lv, m21 * lu + m22 * lv) for s, (m11, m12, m21, m22) in signs_mats]
    wm = [(s, m11 * mu_ + m12 * mv, m21 * mu_ + m22 * mv) for s, (m11, m12, m21, m22) in signs_mats]
    acc = 0
    part = kostant_partition_b2
    for s1, u1, v1 in wl:
        for s2, u2, v2 in wm:
            u = u1 + u2 - tu
            if u < 0 or (u & 1):
                continue
            v = v1 + v2 - tv
            if v < 0:
                continue
            p = part(u // 2, v)
            if p:
                acc += s1 * s2 * p
    return acc


@lru_cache(maxsize=1)
def _b2_weyl_mats_uv() -> tuple[tuple[int, tuple[int, int, int, int]], ...]:
    """B2 Weyl group on doubled simple-root coordinates (u, v) = (2 c1, c2).

    Returns (sign, (m11, m12, m21, m22)) with u' = m11 u + m12 v and
    v' = m21 u + m22 v; the doubling makes every entry an integer.
    """
    rs = build_root_system("B", 2)
    out = []
    for w in weyl_group(rs):
        e1 = w.act_root((Q(1, 2), Q(0)))  # image of u = 1, v = 0
        e2 = w.act_root((Q(0), Q(1)))     # image of u = 0, v = 1
        m11, m21 = 2 * e1[0], e1[1]
        m12, m22 = 2 * e2[0], e2[1]
        if any(x.denominator != 1 for x in (m11, m12, m21, m22)):
            raise InvariantError(f"B2 Weyl element {w} is not integral on doubled simple-root coordinates")
        out.append((w.sign, (int(m11), int(m12), int(m21), int(m22))))
    return tuple(out)


def lr_steinberg(rs: RootSystem, lam, mu, nu) -> int:
    """C_{lam mu}^{nu} by the Steinberg formula.

    sum_{w, w'} eps(w) eps(w') P(w(lam + rho) + w'(mu + rho) - nu - 2 rho)
    with P the Kostant partition function.
    """
    lam = _check_dominant(rs, lam)
    mu = _check_dominant(rs, mu)
    nu = _check_dominant(rs, nu)
    if (rs.family, rs.rank) == ("B", 2):
        return _checked_multiplicity(_lr_steinberg_b2(lam, mu, nu), "Steinberg", lam, mu, nu)
    W = weyl_group(rs)
    lam_rb = rs.dynkin_to_root(tuple(v + 1 for v in lam))
    mu_rb = rs.dynkin_to_root(tuple(v + 1 for v in mu))
    off_rb = rs.dynkin_to_root(tuple(v + 2 for v in nu))
    wl = [(w.sign, w.act_root(lam_rb)) for w in W]
    wm = [(w.sign, w.act_root(mu_rb)) for w in W]
    acc = 0
    for s1, a in wl:
        for s2, b in wm:
            sigma = tuple(x + y - z for x, y, z in zip(a, b, off_rb))
            if all(v.denominator == 1 and v >= 0 for v in sigma):
                p = kostant_partition(rs, Weight(sigma, "root"))
                if p:
                    acc += s1 * s2 * p
    return _checked_multiplicity(acc, "Steinberg", lam, mu, nu)


def kostant_table(rs: RootSystem, box: tuple[int, ...]):
    """Kostant partition values on the whole box [0, box] as an int64 array.

    Coin-change accumulation per positive root, sequential along the root's
    first nonzero coordinate so repeated use of the same root is counted.
    Guarded against int64 overflow (values here stay far below 2**62).
    """
    import numpy as np

    shape = tuple(b + 1 for b in box)
    cnt = np.zeros(shape, dtype=np.int64)
    cnt[(0,) * rs.rank] = 1
    for root in rs.positive_roots_rb:
        j = next(k for k, v in enumerate(root) if v > 0)
        dst_rest = tuple(slice(root[k], None) for k in range(rs.rank) if k != j)
        src_rest = tuple(slice(0, shape[k] - root[k]) for k in range(rs.rank) if k != j)
        for c in range(root[j], shape[j]):
            dst = tuple(c if k == j else dst_rest[k - (k > j)] for k in range(rs.rank))
            src = tuple(c - root[j] if k == j else src_rest[k - (k > j)] for k in range(rs.rank))
            cnt[dst] += cnt[src]
        if cnt.max() >= 2**62:
            raise OverflowError("Kostant table exceeds the int64 safety bound")
    return cnt


def lr_steinberg_table(rs: RootSystem, lam, mu, nu) -> int:
    """Steinberg's formula backed by a batch Kostant table.

    Same contract as lr_steinberg; worthwhile when the box of partition
    arguments is large (stretched B3 triples).  Every queried sigma is
    bounded componentwise by the identity-Weyl-element one.
    """
    lam = _check_dominant(rs, lam)
    mu = _check_dominant(rs, mu)
    nu = _check_dominant(rs, nu)
    lam_rb = rs.dynkin_to_root(tuple(v + 1 for v in lam))
    mu_rb = rs.dynkin_to_root(tuple(v + 1 for v in mu))
    off_rb = rs.dynkin_to_root(tuple(v + 2 for v in nu))
    top = tuple(x + y - z for x, y, z in zip(lam_rb, mu_rb, off_rb))
    if not all(v.denominator == 1 and v >= 0 for v in top):
        return 0
    box = tuple(int(v) for v in top)
    table = kostant_table(rs, box)
    W = weyl_group(rs)
    wl = [(w.sign, w.act_root(lam_rb)) for w in W]
    wm = [(w.sign, w.act_root(mu_rb)) for w in W]
    acc = 0
    for s1, a in wl:
        for s2, b in wm:
            sigma = tuple(x + y - z for x, y, z in zip(a, b, off_rb))
            if all(v.denominator == 1 and 0 <= v for v in sigma):
                acc += s1 * s2 * int(table[tuple(int(v) for v in sigma)])
    return _checked_multiplicity(acc, "Steinberg", lam, mu, nu)


def lr_triple(rs: RootSystem, lam, mu, kappa, nu, max_dim: int = DEFAULT_DIM_CAP) -> int:
    """Three-fold multiplicity dim Hom(V_lam x V_mu x V_kappa -> V_nu).

    Computed as sum_tau C_{lam mu}^{tau} C_{tau kappa}^{nu}.
    """
    kappa = _check_dominant(rs, kappa)
    nu = _check_dominant(rs, nu)
    if all(v == 0 for v in kappa):
        return tensor_decompose(rs, lam, mu, max_dim).get(tuple(nu), 0)
    total = 0
    for tau, c in tensor_decompose(rs, lam, mu, max_dim).items():
        c2 = lr_klimyk(rs, tau, kappa, nu, max_dim)
        if c2:
            total += c * c2
    return total
