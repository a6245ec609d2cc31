"""Tensor-product multiplicities by three independent routes.

* Freudenthal recursion for full weight systems,
* the Racah-Speiser / Klimyk algorithm (reflect the shifted weight into the
  dominant chamber, drop walls, apply the sign), run only in tensor_decompose:
  lr_klimyk reads one entry, tau_sum pairs two decompositions through kappa*,
* the Steinberg formula: one integer double Weyl sum (_steinberg_terms)
  over Weyl shifts read off one integer map per Weyl element
  (_weyl_shift_maps), whose Kostant arguments, split by sign, are looked up
  by closed form or recursion (lr_steinberg) or in a batch from one numpy
  slab sweep (lr_steinberg_table), whose base slab is the same sweep one
  dimension lower, stacked (_kostant_slabs).

All arithmetic is in integers: weights enter and leave as Dynkin labels
(read by `RootSystem.labels`), Freudenthal takes inner products from the
integer half-norms on labels, and the Steinberg sum works on simple-root
coordinates scaled by d through the integer map `RootSystem.root_scale`.

Two bounded per-process tables, keyed by (family, rank, labels), memoize the
Weyl action that Freudenthal and Klimyk share: _weyl_orbit, the orbit of a
dominant weight (maxsize 512), and _dominant_image, the (dominant image,
sign) of labels off the open chamber (maxsize 512).  Steinberg does not read
them.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import starmap
from math import prod
from operator import add, mul, sub

from ._exact import InvariantError
from .rootsys import (
    NonDominantWeightError,
    RootSystem,
    UnsupportedAlgebraError,
    build_root_system,
    reflect_to_dominant,
    weyl_dimension,
    weyl_elements,
)

DEFAULT_DIM_CAP = 10**6

#: the largest Weyl group, |W| = prod(e_i + 1) over the exponents, whose
#: elements Steinberg's sum enumerates.  Building the group and its shift
#: maps took 0.15 s for F4 (|W| = 1,152), 0.44 s for D5 (1,920), 0.66 s for
#: B5 (3,840), 1.9 s for A6 (5,040) and 17 s for E6 (51,840) on 2 cores,
#: and the time grows faster than |W|; the cap admits A6 and refuses D6
#: (23,040) and every larger group (A10: 39,916,800; E8: 696,729,600).
WEYL_ORDER_CAP = 10**4

#: families accepted by the Freudenthal/Klimyk route (E7/E8 weight systems
#: are out of scope; their root data is still available for covolumes)
FREUDENTHAL_FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6")


class SizeGuardError(ValueError):
    pass


def _checked_multiplicity(acc: int, method: str, lam, mu, nu) -> int:
    """Return acc; a negative signed sum is a defect, never a multiplicity."""
    if acc < 0:
        raise InvariantError(f"{method} sum {acc} < 0 for {lam}, {mu}, {nu}")
    return acc


def _check_dominant(rs: RootSystem, w) -> tuple[int, ...]:
    a = rs.labels(w)
    if min(a) < 0:
        raise NonDominantWeightError(f"{a} is not dominant")
    return a


def _weyl_orbit_dynkin(rs: RootSystem, start: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The Weyl orbit of the dominant weight `start` in Dynkin labels.

    Closed under s_i a = a - a_i C[i] for the positive labels a_i only.  That
    reaches the whole orbit because `start` is dominant: every other weight
    a of the orbit has a negative label a_i, and s_i a, which has the
    positive label -a_i, lies above a and so is reached first.  Each pass
    thus makes about half the reflections of the closure in every label.
    """
    orbit = {start}
    frontier = [start]
    while frontier:
        new = []
        for a in frontier:
            for ai, row in zip(a, rs.cartan_matrix):
                if ai > 0:
                    b = tuple([x - ai * c for x, c in zip(a, row)])
                    if b not in orbit:
                        orbit.add(b)
                        new.append(b)
        frontier = new
    return orbit


@lru_cache(maxsize=512)
def _weyl_orbit(family: str, rank: int, start: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """_weyl_orbit_dynkin of the dominant weight `start`, kept per process.

    A cold Freudenthal system reads the orbit of lam and of every dominant
    weight it finishes, and the systems of one run share most of them.  The
    bound is the Freudenthal cache's: a 30 s perfbench lr_sweep run reaches
    112 distinct orbits, a 9-block volume_cli run 88-98 (seeds 7 and 3931),
    and the weight systems of all 81 B2 labels up to 8 reach 129.
    """
    return frozenset(_weyl_orbit_dynkin(build_root_system(family, rank), start))


@lru_cache(maxsize=512)
def _dominant_image(family: str, rank: int, a: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """reflect_to_dominant of the Dynkin labels a, kept per process.

    The Klimyk loop of tensor_decompose reflects each shifted weight off the
    open chamber.  A 30 s perfbench lr_sweep run reaches 421-426 distinct
    ones, a 9-block volume_cli run 405-456 (seeds 7 and 3931), and all 6,561
    B2 pairs of labels up to 8 reach 493, so 512 holds them.
    """
    return reflect_to_dominant(build_root_system(family, rank), a)


@lru_cache(maxsize=512)
def _freudenthal_cached(family: str, rank: int, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The weight system of V_lam by Freudenthal's recursion, in dominant weights by level.

    The dominant weights of V_lam are exactly the dominant mu <= lam, and
    each of them is reached from lam by subtracting one positive root at a
    time through dominant weights only (Stembridge, The partial order of
    dominant weights, Adv. Math. 136, 1998).  So a descent from lam that
    keeps the dominant mu - alpha finds them all, keyed by the offset
    off = lam - mu in simple-root coordinates.

    (|lam + rho|^2 - |mu + rho|^2) m(mu) = 2 sum_{alpha > 0} sum_{k >= 1}
    m(mu + k alpha) (mu + k alpha, alpha) for each of them, taken in
    increasing level sum(off); the left factor is (lam - mu, lam + mu + 2 rho)
    = sum_i off_i h_i (lam_i + mu_i + 2).  The dominant representative of
    mu + k alpha lies above mu + k alpha, so its level is below that of mu; it
    was finished earlier, and its Weyl orbit already holds m(mu + k alpha).
    Each finished dominant weight therefore puts its whole orbit into
    `entries` at once, and every lookup is one dict read of labels.  The
    alpha-string through a weight is unbroken, so it is walked up from mu
    until the first weight that is not in `entries`.
    """
    rs = build_root_system(family, rank)
    dim = weyl_dimension(rs, lam)
    if dim > DEFAULT_DIM_CAP:
        raise SizeGuardError(f"dim V_{lam} = {dim} exceeds the cap {DEFAULT_DIM_CAP}")

    h = rs.half_norms
    cart = rs.cartan_matrix
    # inner products in half-norm units on Dynkin labels, (w, alpha_i) = h_i w_i;
    # per positive root alpha: its simple-root coordinates, its Dynkin labels,
    # the coefficients of (., alpha) on Dynkin labels, and |alpha|^2
    roots = []
    for rb in rs.positive_roots_rb:
        hc = tuple(map(mul, rb, h))
        alpha = tuple([sum(map(mul, rb, col)) for col in zip(*cart)])
        roots.append((rb, alpha, hc, sum(map(mul, hc, alpha))))

    # every dominant mu <= lam, keyed by off = lam - mu (see the docstring)
    dominant = {(0,) * rank: lam}
    stack = [(0,) * rank]
    while stack:
        off = stack.pop()
        dyn = dominant[off]
        for rb, alpha, _, _ in roots:
            low = tuple(map(sub, dyn, alpha))
            if min(low) >= 0:
                off2 = tuple(map(add, off, rb))
                if off2 not in dominant:
                    dominant[off2] = low
                    stack.append(off2)

    lam_2rho = tuple([v + 2 for v in lam])  # Dynkin labels of lam + 2 rho
    entries = dict.fromkeys(_weyl_orbit(family, rank, lam), 1)
    # by level sum(off), so zero, the highest weight, comes first
    for off in sorted(dominant, key=sum)[1:]:
        dyn = dominant[off]
        num = 0
        for _, alpha, hc, norm2 in roots:
            w = dyn
            ip = sum(map(mul, hc, dyn))
            while True:  # m(w + k alpha) (w + k alpha, alpha), k = 1, 2, ...
                w = tuple(map(add, w, alpha))
                m = entries.get(w)
                if m is None:
                    break
                ip += norm2
                num += m * ip
        # |lam + rho|^2 - |mu + rho|^2 = sum_i off_i h_i (lam_i + mu_i + 2)
        den = sum(map(mul, map(mul, off, h), map(add, lam_2rho, dyn)))
        val, rem = divmod(2 * num, den)
        if rem or val <= 0:
            raise InvariantError(f"Freudenthal multiplicity {2 * num}/{den} of {dyn} in V{lam} is not a positive integer")
        entries.update(dict.fromkeys(_weyl_orbit(family, rank, dyn), val))
    return entries


def freudenthal_weights(rs: RootSystem, lam) -> dict[tuple[int, ...], int]:
    """Weight system {Dynkin labels: multiplicity} of V_lambda, by Freudenthal recursion.

    The dict is shared through the cache: callers must not mutate it.
    """
    if rs.family not in FREUDENTHAL_FAMILIES:
        raise UnsupportedAlgebraError(f"weight systems not supported for {rs.family}")
    lam = _check_dominant(rs, lam)
    return _freudenthal_cached(rs.family, rs.rank, lam)


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


@lru_cache(maxsize=4096)
def kostant_partition_b2(m: int, n: int) -> int:
    """Partitions of m*alpha1 + n*alpha2 over the four positive B2 roots, kept per process.

    The bound holds every argument of a benchmark run: a 30 s perfbench
    lr_sweep run leaves 568-583 entries, a 9-block volume_cli run
    2,941-3,034 (seeds 7, 3931 and 11).
    """
    if m < 0 or n < 0:
        return 0
    total = 0
    for t4 in range(min(m, n // 2) + 1):
        hi = min(m - t4, n - 2 * t4)
        if hi >= 0:
            total += hi + 1
    return total


def kostant_partition(rs: RootSystem, sigma) -> int:
    """Number of decompositions of sigma into nonnegative integer sums of positive roots.

    sigma holds simple-root coordinates, ints or Fractions (`dynkin_to_root`
    converts Dynkin labels).  Returns 0 when sigma is not in the root lattice
    (a non-integral coordinate) or has a negative coordinate, and raises
    ValueError unless sigma has rank coordinates.
    """
    vec = tuple(v.numerator for v in sigma)
    if len(vec) != rs.rank:
        raise ValueError(f"{tuple(sigma)} needs {rs.rank} simple-root coordinates")
    if vec != tuple(sigma) or min(vec) < 0:  # off the root lattice, or not >= 0
        return 0
    if rs.family == "B" and rs.rank == 2:
        return kostant_partition_b2(*vec)
    return _kostant_rec(rs.family, rs.rank, 0, vec)


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients


def lr_klimyk(rs: RootSystem, lam, mu, nu) -> int:
    """C_{lam mu}^{nu}, read from tensor_decompose(rs, lam, mu)."""
    nu = _check_dominant(rs, nu)
    return tensor_decompose(rs, lam, mu).get(nu, 0)


def tensor_decompose(rs: RootSystem, lam, mu) -> dict[tuple[int, ...], int]:
    """All nu with C_{lam mu}^{nu} != 0: the one Klimyk loop of this module.

    Runs over the weight system of the smaller factor (C is symmetric in
    lam, mu).
    """
    lam = _check_dominant(rs, lam)
    mu = _check_dominant(rs, mu)
    if weyl_dimension(rs, mu) > weyl_dimension(rs, lam):
        lam, mu = mu, lam
    shift = tuple([v + 1 for v in lam])
    family, rank = rs.family, rs.rank
    acc: dict[tuple[int, ...], int] = {}  # keyed by nu + rho
    for tau, m in freudenthal_weights(rs, mu).items():
        a = tuple(map(add, shift, tau))
        if min(a) > 0:  # already in the open chamber: reflect_to_dominant would give (a, 1)
            acc[a] = acc.get(a, 0) + m
            continue
        dom, sign = _dominant_image(family, rank, a)
        if sign:
            acc[dom] = acc.get(dom, 0) + sign * m
    out = {tuple([v - 1 for v in dom]): c for dom, c in acc.items() if c}
    if min(out.values(), default=0) < 0:  # _checked_multiplicity raises at the first negative
        for nu, v in out.items():
            _checked_multiplicity(v, "Klimyk", lam, mu, nu)
    return out


@lru_cache(maxsize=None)
def _weyl_shift_maps(family: str, rank: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """(eps(w), K_w) for every Weyl element w, in the order of weyl_elements.

    K_w = (M_w - I) C^-T is the integer matrix that takes Dynkin labels to
    the simple-root coordinates of w(x) - x: its column j holds those of
    w(omega_j) - omega_j, which lies in the root lattice.  It is computed
    as (M_w - I) d C^-T over d, and each entry is checked to divide.  A
    group above WEYL_ORDER_CAP raises SizeGuardError before any element is
    built.
    """
    rs = build_root_system(family, rank)
    order = prod(e + 1 for e in rs.exponents)
    if order > WEYL_ORDER_CAP:
        raise SizeGuardError(f"the Weyl group of {rs.name} has {order} elements, above the cap {WEYL_ORDER_CAP} "
                             "of the Steinberg sum")
    d, scaled = rs.root_scale
    cols = tuple(zip(*scaled))
    out = []
    for w in weyl_elements((family, rank)):
        rows = []
        for i, row in enumerate(w.matrix):
            k = [sum(map(mul, row, col)) - scaled[i][j] for j, col in enumerate(cols)]
            if any(v % d for v in k):
                raise InvariantError(f"Weyl shift row {k}/{d} of {family}{rank} is not in the root lattice")
            rows.append(tuple([v // d for v in k]))
        out.append((w.sign, tuple(rows)))
    return tuple(out)


@lru_cache(maxsize=512)
def _weyl_shifts(family: str, rank: int, lam: tuple[int, ...]) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(eps(w), w(lam + rho) - (lam + rho)) for every Weyl element w.

    The shift is K_w (lam + rho) in simple-root coordinates, one integer
    matrix-vector product per element (see _weyl_shift_maps).  The shifts
    lie in the root lattice and, lam + rho being dominant, have nonpositive
    simple-root coordinates; they are sorted by their first coordinate,
    largest first.  The bound is the Freudenthal cache's: an Ehrhart fit
    reads every dilation of its triple, and the 407-426 distinct weights of
    a 9-block volume_cli run fit in it.
    """
    x = [v + 1 for v in lam]
    out = [(sign, tuple([sum(map(mul, row, x)) for row in k])) for sign, k in _weyl_shift_maps(family, rank)]
    return tuple(sorted(out, key=lambda t: -t[1][0]))


def _steinberg_terms(rs: RootSystem, lam, mu, nu) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The Kostant arguments of Steinberg's sum, split by sign: (plus, minus).

    C_{lam mu}^{nu} = sum_{w, w'} eps(w) eps(w') P(w(lam + rho) + w'(mu + rho) - nu - 2 rho)
    = sum P(plus) - sum P(minus), in integers.  The argument of P is top plus
    the Weyl shifts of lam and mu, where top = lam + mu - nu; its
    root-lattice membership is tested once, on coordinates scaled by d.  The
    shifts are nonpositive, so every argument is bounded by top, and only
    the nonnegative ones are kept: P vanishes elsewhere.  Both shift lists
    are sorted by first coordinate, so each loop stops at its first shift
    whose first coordinate goes below 0.  Both lists are empty off the root
    lattice or when top is not >= 0.
    """
    plus: list[tuple[int, ...]] = []
    minus: list[tuple[int, ...]] = []
    d, scale = rs.root_scale
    sigma = [a + b - c for a, b, c in zip(lam, mu, nu)]
    top = []
    for row in scale:
        q, r = divmod(sum(map(mul, row, sigma)), d)
        if r or q < 0:
            return plus, minus
        top.append(q)
    top = tuple(top)
    right = _weyl_shifts(rs.family, rs.rank, mu)
    low = -top[0]
    for s1, a in _weyl_shifts(rs.family, rs.rank, lam):
        if a[0] < low:
            break  # the left list is sorted by first coordinate: so is every later shift
        a = tuple(map(add, a, top))
        if min(a) < 0:
            continue
        same, other = (plus, minus) if s1 > 0 else (minus, plus)
        low_b = -a[0]
        for s2, b in right:
            if b[0] < low_b:
                break  # right is sorted by first coordinate: so is every later pair
            sigma = tuple(map(add, a, b))
            if min(sigma) >= 0:
                (same if s2 > 0 else other).append(sigma)
    return plus, minus


def lr_steinberg(rs: RootSystem, lam, mu, nu) -> int:
    """C_{lam mu}^{nu} by the Steinberg formula.

    sum_{w, w'} eps(w) eps(w') P(w(lam + rho) + w'(mu + rho) - nu - 2 rho)
    over the signed arguments of _steinberg_terms, with P the Kostant
    partition function (closed form for B2, recursion elsewhere).  A sum
    that needs the Weyl shifts of a group above WEYL_ORDER_CAP raises
    SizeGuardError.
    """
    lam = _check_dominant(rs, lam)
    mu = _check_dominant(rs, mu)
    nu = _check_dominant(rs, nu)
    plus, minus = _steinberg_terms(rs, lam, mu, nu)
    if (rs.family, rs.rank) == ("B", 2):
        acc = sum(starmap(kostant_partition_b2, plus)) - sum(starmap(kostant_partition_b2, minus))
    else:
        acc = sum(kostant_partition(rs, s) for s in plus) - sum(kostant_partition(rs, s) for s in minus)
    return _checked_multiplicity(acc, "Steinberg", lam, mu, nu)


#: every stored Kostant value stays below this bound, so the int64 sum of
#: two of them cannot wrap before the check on the new slab catches it
KOSTANT_BOUND = 2**62


def _kostant_slabs(roots, box: tuple[int, ...]):
    """Yield the partition counts over `roots` on [0, box], one slab per first coordinate.

    roots are nonzero tuples of nonnegative ints.  Those with first
    coordinate 0 span the slab a = 0 alone: their (rank-1)-dimensional
    table G is the same sweep one dimension lower, its slabs stacked (the
    0-dimensional table 1 when box has one coordinate).  Each root
    (r0, r') with r0 >= 1 is one coin-change stage, and stage k holds slab
    a as S_k[a] = S_{k-1}[a] + S_k[a - r0] shifted by r', starting from
    S_0[0] = G and S_0[a] = 0 for a > 0; a ring of the last max r0 slabs
    per stage is all the sweep keeps.  Every new slab is checked against
    KOSTANT_BOUND.  Slabs are shared between stages and never written
    after they are yielded, so the caller must not write to them.
    """
    import numpy as np

    rest = box[1:]
    lower = [r[1:] for r in roots if r[0] == 0]
    base = np.stack(list(_kostant_slabs(lower, rest))) if rest else np.ones((), dtype=np.int64)
    zero = np.zeros_like(base)
    # a root whose shift r' leaves the slab adds nothing on [0, box]
    stages = [
        (r[0], tuple(slice(v, None) for v in r[1:]), tuple(slice(0, b + 1 - v) for v, b in zip(r[1:], rest)))
        for r in roots if r[0] > 0 and all(v <= b for v, b in zip(r[1:], rest))
    ]
    depth = max((r0 for r0, _, _ in stages), default=1)
    ring = [[None] * depth for _ in stages]
    for a in range(box[0] + 1):
        slab = base if a == 0 else zero
        for (r0, dst, src), kept in zip(stages, ring):
            if a >= r0:
                slab = slab.copy()
                slab[dst] += kept[(a - r0) % depth][src]
                if slab.max() >= KOSTANT_BOUND:
                    raise OverflowError(f"a Kostant value on the box {box} reaches the int64 safety bound 2**62")
            kept[a % depth] = slab
        yield slab


def kostant_values(rs: RootSystem, points) -> dict[tuple[int, ...], int]:
    """{p: P(p)} for every point p of `points`, in simple-root coordinates.

    One sweep of the box spanned by the points (see _kostant_slabs) keeps
    only their entries, so memory is a few slabs, not the box.  Points need
    rs.rank nonnegative int coordinates; an empty set gives {}.
    """
    points = set(map(tuple, points))
    by_first: dict[int, list[tuple[int, ...]]] = {}
    for p in points:
        if len(p) != rs.rank or min(p) < 0:
            raise ValueError(f"{p} is not a point of the nonnegative cone in rank {rs.rank}")
        by_first.setdefault(p[0], []).append(p)
    if not points:
        return {}
    out = {}
    box = tuple(map(max, zip(*points)))
    for a, slab in enumerate(_kostant_slabs(rs.positive_roots_rb, box)):
        for p in by_first.get(a, ()):
            out[p] = slab.item(p[1:])
    return out


def lr_steinberg_table(rs: RootSystem, lam, mu, nu, *, table=None) -> int:
    """Steinberg's formula backed by a batch of Kostant values.

    Same contract and signed arguments (_steinberg_terms) as lr_steinberg;
    worthwhile when the box of partition arguments is large (stretched B3
    triples).  Every argument lies in the box [0, lam + mu - nu]
    (simple-root coordinates).  Without `table` one kostant_values sweep
    reads them all.  A caller that evaluates many triples passes `table`,
    the {point: value} mapping of kostant_values holding every argument the
    sum reads, as the Ehrhart fit does for all its dilations at once.  A
    mapping that lacks one of them, and a `table` that is not a mapping,
    raise ValueError.
    """
    lam = _check_dominant(rs, lam)
    mu = _check_dominant(rs, mu)
    nu = _check_dominant(rs, nu)
    if table is not None and not isinstance(table, Mapping):
        raise ValueError(f"table must be the {{point: value}} mapping of kostant_values, not a {type(table).__name__}")
    plus, minus = _steinberg_terms(rs, lam, mu, nu)
    if table is None:
        table = kostant_values(rs, plus + minus)
    try:
        acc = sum(map(table.__getitem__, plus)) - sum(map(table.__getitem__, minus))
    except KeyError as exc:
        raise ValueError(f"the Kostant values do not cover {exc.args[0]}") from None
    return _checked_multiplicity(acc, "Steinberg", lam, mu, nu)


def tau_sum(rs: RootSystem, decomposition: dict[tuple[int, ...], int], kappa, nu) -> int:
    """sum_tau C_{lam mu}^{tau} C_{tau kappa}^{nu}, given decomposition = tensor_decompose(rs, lam, mu).

    C_{tau kappa}^{nu} = C_{nu kappa*}^{tau}, kappa* = -w0 kappa being the dominant
    image of -kappa, so tau runs over one tensor_decompose(rs, nu, kappa*).  A
    caller that sums over several kappa for one (lam, mu) decomposes once and
    passes the same decomposition each time.
    """
    kappa_star, _ = reflect_to_dominant(rs, [-v for v in _check_dominant(rs, kappa)])
    return sum(c * decomposition.get(tau, 0) for tau, c in tensor_decompose(rs, nu, kappa_star).items())


def lr_triple(rs: RootSystem, lam, mu, kappa, nu) -> int:
    """Three-fold multiplicity dim Hom(V_lam x V_mu x V_kappa -> V_nu), as the tau_sum of one decomposition."""
    return tau_sum(rs, tensor_decompose(rs, lam, mu), kappa, nu)
