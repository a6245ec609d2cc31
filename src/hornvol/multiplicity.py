"""Tensor-product multiplicities by three independent routes.

* Freudenthal recursion for full weight systems,
* the Racah-Speiser / Klimyk algorithm (reflect the shifted weight into the
  dominant chamber, drop walls, apply the sign),
* the Steinberg formula: one integer double Weyl sum over the Kostant
  partition function, looked up by closed form or recursion
  (lr_steinberg) or in a batch numpy table (lr_steinberg_table).

All arithmetic is exact; weights enter and leave as Dynkin labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import lcm
from operator import add, mul

from ._exact import InvariantError, dot
from .rootsys import (
    RootSystem,
    UnsupportedAlgebraError,
    Weight,
    build_root_system,
    reflect_to_dominant,
    weyl_dimension,
    weyl_elements,
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


def _checked_multiplicity(acc: int, method: str, lam, mu, nu) -> int:
    """Return acc; a negative signed sum is a defect, never a multiplicity."""
    if acc < 0:
        raise InvariantError(f"{method} sum {acc} < 0 for {lam}, {mu}, {nu}")
    return acc


def _check_dominant(rs: RootSystem, w) -> tuple[int, ...]:
    # int labels, the common case, skip the Fraction round trip of rs.dynkin
    if not isinstance(w, Weight) and all(type(x) is int for x in w):
        a = tuple(w)
    else:
        a = rs.dynkin(w)
        if not all(x.denominator == 1 for x in a):
            raise ValueError(f"{a} is not an integral weight")
        a = tuple(int(x) for x in a)
    if len(a) != rs.rank:
        raise ValueError(f"{a} needs {rs.rank} Dynkin labels")
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
    if basis == "root" and not isinstance(sigma, Weight) and all(type(v) is int for v in sigma):
        vec = tuple(sigma)
    else:
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


def _kostant_lookup(rs: RootSystem):
    """The Kostant function of rs, called as P(*simple_root_coords) with ints.

    The B2 closed form directly, elsewhere kostant_partition (and through it
    the recursion); both are read from the module globals when this runs, so
    a rebinding of either takes effect.
    """
    if (rs.family, rs.rank) == ("B", 2):
        return kostant_partition_b2
    return lambda *vec: kostant_partition(rs, vec, "root")


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


@lru_cache(maxsize=None)
def _root_scale(family: str, rank: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, columns of the matrix with rows d * omega_i in simple-root coordinates).

    d is the lcm of the denominators of the fundamental weights, so the
    columns are integers.
    """
    fw = build_root_system(family, rank).fundamental_weights_rb
    d = lcm(*(v.denominator for row in fw for v in row))
    return d, tuple(zip(*(tuple(int(v * d) for v in row) for row in fw)))


def _scaled_root(cols: tuple[tuple[int, ...], ...], labels) -> tuple[int, ...]:
    """Simple-root coordinates, scaled by d, of the weight with these Dynkin labels."""
    return tuple(sum(map(mul, labels, col)) for col in cols)


@lru_cache(maxsize=256)
def _weyl_shifts(family: str, rank: int, lam: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(eps(w), w(lam + rho) - (lam + rho)) for every Weyl element w.

    The shifts lie in the root lattice and, lam + rho being dominant, have
    nonpositive simple-root coordinates.  They are computed on coordinates
    scaled by d, where the integer Weyl matrices act exactly, and divided
    back; they are sorted by their first coordinate, largest first.
    """
    d, cols = _root_scale(family, rank)
    x = _scaled_root(cols, [v + 1 for v in lam])
    out = []
    for w in weyl_elements((family, rank)):
        shift = [sum(map(mul, row, x)) - xi for row, xi in zip(w.matrix, x)]
        if any(v % d for v in shift):
            raise InvariantError(f"Weyl shift {shift}/{d} of {lam} is not in the root lattice")
        out.append((w.sign, tuple(v // d for v in shift)))
    return tuple(sorted(out, key=lambda t: -t[1][0]))


def _steinberg_sum(rs: RootSystem, lam, mu, nu, kostant_for) -> int:
    """sum_{w, w'} eps(w) eps(w') P(w(lam + rho) + w'(mu + rho) - nu - 2 rho), in integers.

    The argument of P is top plus the Weyl shifts of lam and mu, where
    top = lam + mu - nu; its root-lattice membership is tested once, on
    coordinates scaled by d.  The shifts are nonpositive, so every argument
    is bounded by top: kostant_for(top) supplies P only when top >= 0, and P
    is called only at nonnegative arguments.
    """
    d, cols = _root_scale(rs.family, rs.rank)
    top = _scaled_root(cols, [a + b - c for a, b, c in zip(lam, mu, nu)])
    if any(v % d for v in top):
        return 0
    top = tuple(v // d for v in top)
    if min(top) < 0:
        return 0
    kostant = kostant_for(top)
    right = _weyl_shifts(rs.family, rs.rank, mu)
    acc = 0
    for s1, a in _weyl_shifts(rs.family, rs.rank, lam):
        a = tuple(map(add, a, top))
        if min(a) < 0:
            continue
        for s2, b in right:
            if a[0] + b[0] < 0:
                break  # right is sorted by first coordinate: so is every later pair
            sigma = tuple(map(add, a, b))
            if min(sigma) >= 0:
                acc += s1 * s2 * kostant(*sigma)
    return acc


def lr_steinberg(rs: RootSystem, lam, mu, nu) -> int:
    """C_{lam mu}^{nu} by the Steinberg formula.

    sum_{w, w'} eps(w) eps(w') P(w(lam + rho) + w'(mu + rho) - nu - 2 rho)
    with P the Kostant partition function (closed form for B2, recursion
    elsewhere).
    """
    lam = _check_dominant(rs, lam)
    mu = _check_dominant(rs, mu)
    nu = _check_dominant(rs, nu)
    acc = _steinberg_sum(rs, lam, mu, nu, lambda top: _kostant_lookup(rs))
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

    Same contract and Weyl sum as lr_steinberg; worthwhile when the box of
    partition arguments is large (stretched B3 triples).  The table covers
    [0, lam + mu - nu], which bounds every queried argument.
    """
    lam = _check_dominant(rs, lam)
    mu = _check_dominant(rs, mu)
    nu = _check_dominant(rs, nu)
    acc = _steinberg_sum(rs, lam, mu, nu, lambda top: kostant_table(rs, top).item)
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
