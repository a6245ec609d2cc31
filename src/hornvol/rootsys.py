"""Root systems, integer Weyl groups and exact conversions between coordinates.

Every classical family A, B, C, D (arbitrary rank) and the five exceptional
algebras are realized with exact rational coordinates in an ambient
orthonormal basis:

    A_r : ambient R^{r+1},  alpha_i = e_i - e_{i+1}
    B_r : ambient R^r,      alpha_i = e_i - e_{i+1}, alpha_r = e_r
    C_r : ambient R^r,      alpha_i = e_i - e_{i+1}, alpha_r = 2 e_r
    D_r : ambient R^r,      alpha_i = e_i - e_{i+1}, alpha_r = e_{r-1} + e_r
    G2, F4, E6, E7, E8 :    standard Bourbaki realizations

In particular for B2 the long roots have squared length 2 and the short
roots squared length 1, which is the normalization in which all the B2
volume-function formulas of this package are stated.  Quantities that
depend on the overall scale of the inner product (`kappa_g`) are rescaled
internally to the convention <theta, theta> = 2 for a long root theta and
say so in their docstrings; ratios (Weyl dimensions, Cartan integers) are
scale-free.  Only the simple roots are realized; every other table comes
from the integer Cartan matrix C.  The positive roots are stored once, in
simple-root coordinates, closed under the simple reflections in integers
(orthonormal coordinates are derived on demand), and Weyl group elements
are integer matrices on simple-root coordinates.

A weight is a plain coordinate sequence, and the caller knows which
coordinates it holds: Dynkin labels, simple-root coordinates or orthonormal
coordinates.  `RootSystem` converts between them with one method per
direction (`dynkin_to_root`, `root_to_dynkin`, `root_to_ortho`,
`ortho_to_root`, `ortho_to_dynkin`), each refusing a sequence of the wrong
length.

The exact kernels work on integer Dynkin labels (`RootSystem.labels` reads
them).  Two integer tables serve them: `root_scale`, (d, d C^-T), which maps
labels to d times their simple-root coordinates and comes from the cofactors
of C over det C, and `half_norms`, the simple-root half-lengths
(alpha_i, alpha_i)/2 in units of the shortest one, which give inner products
on labels: (x, alpha_i) = h_i x_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import gcd, prod
from operator import mul
from typing import Sequence

from ._exact import InconsistentSystemError, InvariantError, Vec, det_adj_bareiss, dot, qvec

#: the classical families with their smallest rank, the exceptional ones with their rank
CLASSICAL_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
FAMILIES = tuple(CLASSICAL_MIN_RANK) + tuple(EXCEPTIONAL_RANK)

#: the largest Weyl group, |W| = prod(e_i + 1) over the exponents, that
#: weyl_elements builds.  Building the group and Steinberg's shift maps on
#: it took 0.15 s for F4 (|W| = 1,152), 0.44 s for D5 (1,920), 0.66 s for
#: B5 (3,840), 1.9 s for A6 (5,040) and 17 s for E6 (51,840) on 2 cores,
#: and the time grows faster than |W|; the cap admits A6 and refuses D6
#: (23,040) and every larger group (A10: 39,916,800; E8: 696,729,600).
WEYL_ORDER_CAP = 10**4


class UnsupportedAlgebraError(ValueError):
    pass


class SizeGuardError(ValueError):
    pass


class NonDominantWeightError(ValueError):
    """Not a dominant integral weight: a negative or a non-integral Dynkin label."""


def _sized(x: Sequence, n: int, what: str) -> tuple:
    """x as a tuple; ValueError unless it has n entries."""
    x = tuple(x)
    if len(x) != n:
        raise ValueError(f"{x} needs {n} {what}")
    return x


def _simple_roots(family: str, rank: int) -> list[Vec]:
    if family == "A":
        return [
            tuple(Q(1) if j == i else Q(-1) if j == i + 1 else Q(0) for j in range(rank + 1))
            for i in range(rank)
        ]
    if family in ("B", "C", "D"):
        roots = [
            tuple(Q(1) if j == i else Q(-1) if j == i + 1 else Q(0) for j in range(rank))
            for i in range(rank - 1)
        ]
        last = [Q(0)] * rank
        if family == "B":
            last[rank - 1] = Q(1)
        elif family == "C":
            last[rank - 1] = Q(2)
        else:
            last[rank - 2] = Q(1)
            last[rank - 1] = Q(1)
        roots.append(tuple(last))
        return roots
    if family == "G2":
        return [qvec((1, -1, 0)), qvec((-2, 1, 1))]
    if family == "F4":
        return [
            qvec((0, 1, -1, 0)),
            qvec((0, 0, 1, -1)),
            qvec((0, 0, 0, 1)),
            (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)),
        ]
    if family in ("E6", "E7", "E8"):
        e8 = [
            (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)),
            qvec((1, 1, 0, 0, 0, 0, 0, 0)),
            qvec((-1, 1, 0, 0, 0, 0, 0, 0)),
            qvec((0, -1, 1, 0, 0, 0, 0, 0)),
            qvec((0, 0, -1, 1, 0, 0, 0, 0)),
            qvec((0, 0, 0, -1, 1, 0, 0, 0)),
            qvec((0, 0, 0, 0, -1, 1, 0, 0)),
            qvec((0, 0, 0, 0, 0, -1, 1, 0)),
        ]
        return e8[: EXCEPTIONAL_RANK[family]]
    raise UnsupportedAlgebraError(f"unknown family {family!r}")


def _exponents(family: str, rank: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(1, rank + 1))
    if family in ("B", "C"):
        return tuple(range(1, 2 * rank, 2))
    if family == "D":
        return tuple(range(1, 2 * rank - 2, 2)) + (rank - 1,)
    return {
        "E6": (1, 4, 5, 7, 8, 11),
        "E7": (1, 5, 7, 9, 11, 13, 17),
        "E8": (1, 7, 11, 13, 17, 19, 23, 29),
        "F4": (1, 5, 7, 11),
        "G2": (1, 5),
    }[family]


def _dual_coxeter(family: str, rank: int) -> int:
    return {
        "A": rank + 1,
        "B": 2 * rank - 1,
        "C": rank + 1,
        "D": 2 * rank - 2,
        "E6": 12,
        "E7": 18,
        "E8": 30,
        "F4": 9,
        "G2": 4,
    }[family]


def positive_root_count(family: str, rank: int) -> int:
    """N_r: the number of positive roots."""
    return {
        "A": rank * (rank + 1) // 2,
        "B": rank * rank,
        "C": rank * rank,
        "D": rank * (rank - 1),
        "E6": 36,
        "E7": 63,
        "E8": 120,
        "F4": 24,
        "G2": 6,
    }[family]


def polytope_degree(family: str, rank: int) -> int:
    """d_r = N_r - r: the generic dimension of the BZ polytope."""
    return positive_root_count(family, rank) - rank


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    simple_roots: tuple[Vec, ...]
    positive_roots_rb: tuple[tuple[int, ...], ...]  # simple-root coordinates, by (height, key)
    cartan_matrix: tuple[tuple[int, ...], ...]
    exponents: tuple[int, ...]
    dual_coxeter_number: int
    half_norms: tuple[int, ...]              # (alpha_i, alpha_i)/2, the shortest being 1
    root_scale: tuple[int, tuple[tuple[int, ...], ...]]  # (d, d C^-T), integers

    # -- derived quantities ------------------------------------------------
    @property
    def name(self) -> str:
        """The algebra's name: 'B4', 'G2' (classical families carry the rank)."""
        return f"{self.family}{self.rank}" if self.family in CLASSICAL_MIN_RANK else self.family

    @property
    def n_positive(self) -> int:
        return len(self.positive_roots_rb)

    @cached_property
    def _dimension_forms(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(h c, <alpha, rho>) per positive root alpha = sum_i c_i alpha_i, h the half-norms.

        <alpha, x> = sum_i h_i c_i x_i for x given by its Dynkin labels, and
        <alpha, rho> = sum_i h_i c_i.
        """
        forms = (tuple(map(mul, rb, self.half_norms)) for rb in self.positive_roots_rb)
        return tuple((hc, sum(hc)) for hc in forms)

    @cached_property
    def positive_roots(self) -> tuple[Vec, ...]:
        """The positive roots in orthonormal coordinates."""
        return tuple(self.root_to_ortho(k) for k in self.positive_roots_rb)

    @property
    def ambient_dim(self) -> int:
        """The number of orthonormal coordinates."""
        return len(self.simple_roots[0])

    @property
    def rho_ortho(self) -> Vec:
        return self.root_to_ortho(tuple(Q(sum(col), 2) for col in zip(*self.positive_roots_rb)))

    # -- labels and coordinate conversions -------------------------------------
    def labels(self, a: Sequence) -> tuple[int, ...]:
        """The Dynkin labels a (ints or integral Fractions) as a tuple of ints.

        Raises ValueError on a wrong number of labels and NonDominantWeightError
        on a non-integral one, NaN and the infinities included.
        """
        a = _sized(a, self.rank, "Dynkin labels")
        try:
            labels = tuple(map(int, a))
        except (ValueError, OverflowError):  # int() of NaN or an infinity
            labels = None
        if labels != a:  # int() truncated a non-integral label, or had none to take
            raise NonDominantWeightError(f"({', '.join(map(str, a))}) is not an integral weight")
        return labels

    def scaled_root(self, a: Sequence) -> tuple:
        """d times the simple-root coordinates of the weight with Dynkin labels a.

        d = root_scale[0]; integer labels give integers, rational ones Fractions.
        """
        if len(a) != self.rank:
            raise ValueError(f"{tuple(a)} needs {self.rank} Dynkin labels")
        return tuple(sum(map(mul, row, a)) for row in self.root_scale[1])

    def dynkin_to_root(self, a: Sequence) -> Vec:
        d = self.root_scale[0]
        return tuple(Q(v, d) for v in self.scaled_root(a))

    def root_to_dynkin(self, c: Sequence) -> Vec:
        c = qvec(_sized(c, self.rank, "simple-root coordinates"))
        return tuple(sum((ci * row[j] for ci, row in zip(c, self.cartan_matrix)), Q(0)) for j in range(self.rank))

    def root_to_ortho(self, c: Sequence) -> Vec:
        c = qvec(_sized(c, self.rank, "simple-root coordinates"))
        return tuple(dot(c, col) for col in zip(*self.simple_roots))

    def ortho_to_root(self, x: Sequence) -> Vec:
        """Simple-root coordinates of x; InconsistentSystemError off the root span."""
        c = self.dynkin_to_root(self.ortho_to_dynkin(x))
        if self.root_to_ortho(c) != qvec(x):
            raise InconsistentSystemError(f"{tuple(x)} is not in the root span of {self.name}")
        return c

    def ortho_to_dynkin(self, x: Sequence) -> Vec:
        x = qvec(_sized(x, self.ambient_dim, "orthonormal coordinates"))
        return tuple(2 * dot(x, a) / dot(a, a) for a in self.simple_roots)

    # -- norms ---------------------------------------------------------------
    def long_norm2(self) -> Q:
        """The squared length of a long root: every root is W-conjugate to a simple one."""
        return max(dot(a, a) for a in self.simple_roots)


def _positive_closure(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, sorted by (height, key).

    The simple roots closed under s_i k = k - <k, alpha_i^vee> alpha_i, with
    <k, alpha_i^vee> = sum_j k_j C[j][i]; s_i permutes the positive roots other
    than alpha_i, and each of them is reached from a simple root this way.
    Each root carries its pairings with the simple coroots (its Dynkin
    labels, the Cartan row C[i] for alpha_i), and s_i subtracts
    <k, alpha_i^vee> C[i] from them.  Only s_i alpha_i = -alpha_i has a
    negative i-th coordinate.
    """
    rank = len(cartan)
    simple = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(zip(simple, cartan))
    while frontier:
        new = []
        for k, labels in frontier:
            for i, (p, row) in enumerate(zip(labels, cartan)):
                if p and k[i] >= p:
                    image = k[:i] + (k[i] - p,) + k[i + 1:]
                    if image not in seen:
                        seen.add(image)
                        new.append((image, tuple([a - p * c for a, c in zip(labels, row)])))
        frontier = new
    return sorted(seen, key=lambda k: (sum(k), k))


def _scaled_inverse_transpose(cartan: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d C^-T) for the least d > 0 that makes d C^-T integral: C^-T is the
    transposed adjugate of C over det C, both from one det_adj_bareiss pass,
    and both are divided by their common gcd."""
    det, adj = det_adj_bareiss(cartan)
    if adj is None:
        raise InvariantError("the Cartan matrix is singular")
    g = gcd(det, *(v for row in adj for v in row))
    return det // g, tuple(tuple(row[j] // g for row in adj) for j in range(len(adj)))


def algebra_key(family: str, rank: int | None = None) -> tuple[str, int]:
    """(FAMILY, rank) of the algebra that family (any case) and rank name.

    Raises UnsupportedAlgebraError for invalid pairs (A: r>=1, B: r>=2,
    C: r>=2, D: r>=3; exceptional ranks are fixed, and may be left None).
    """
    family = family.upper()
    if family in EXCEPTIONAL_RANK:
        fixed = EXCEPTIONAL_RANK[family]
        if rank is None:
            rank = fixed
        if rank != fixed:
            raise UnsupportedAlgebraError(f"{family} has rank {fixed}, not {rank}")
    elif family in CLASSICAL_MIN_RANK:
        if rank is None:
            raise UnsupportedAlgebraError(f"family {family} needs an explicit rank")
        minimum = CLASSICAL_MIN_RANK[family]
        if rank < minimum:
            raise UnsupportedAlgebraError(f"{family}_r requires r >= {minimum}")
    else:
        raise UnsupportedAlgebraError(f"unknown family {family!r}")
    return family, rank


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int | None = None) -> RootSystem:
    """Construct the root system for a classical family/rank or exceptional name (see algebra_key)."""
    family, rank = algebra_key(family, rank)
    simple = _simple_roots(family, rank)
    # twice the simple roots: integers in every realization (F4 and E6-E8 lose their halves)
    twice = [tuple(int(2 * v) for v in a) for a in simple]
    norms = [sum(map(mul, a, a)) for a in twice]
    cartan = tuple(tuple(2 * sum(map(mul, a, b)) // nb for b, nb in zip(twice, norms)) for a in twice)
    keys = _positive_closure(cartan)
    expected = positive_root_count(family, rank)
    if len(keys) != expected:
        raise InvariantError(f"{family}{rank}: closure found {len(keys)} roots, expected {expected}")
    return RootSystem(
        family=family,
        rank=rank,
        simple_roots=tuple(simple),
        positive_roots_rb=tuple(keys),
        cartan_matrix=cartan,
        exponents=_exponents(family, rank),
        dual_coxeter_number=_dual_coxeter(family, rank),
        half_norms=tuple(v // min(norms) for v in norms),
        root_scale=_scaled_inverse_transpose(cartan),
    )


# ---------------------------------------------------------------------------
# Weyl group


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as an integer matrix on simple-root coordinates."""

    matrix: tuple[tuple[int, ...], ...]
    sign: int

    def act_root(self, c: Sequence) -> Vec:
        c = qvec(_sized(c, len(self.matrix), "simple-root coordinates"))
        return tuple(dot(row, c) for row in self.matrix)


def _identity_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _matmul(a, b) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def simple_reflection(rs: RootSystem, i: int) -> WeylElement:
    """s_i acting on simple-root coordinates: c'_i = c_i - sum_j C[j][i] c_j."""
    rows = [list(row) for row in _identity_matrix(rs.rank)]
    for j in range(rs.rank):
        rows[i][j] -= rs.cartan_matrix[j][i]
    return WeylElement(tuple(map(tuple, rows)), -1)


@lru_cache(maxsize=None)
def weyl_elements(rs_key: tuple[str, int]) -> tuple[WeylElement, ...]:
    """The full Weyl group by closure over the simple reflections (memoized).

    A group above WEYL_ORDER_CAP raises SizeGuardError before any element is built.
    """
    rs = build_root_system(*rs_key)
    order = prod(e + 1 for e in rs.exponents)
    if order > WEYL_ORDER_CAP:
        raise SizeGuardError(f"the Weyl group of {rs.name} has {order} elements, above the cap {WEYL_ORDER_CAP}")
    n = rs.rank
    gens = [simple_reflection(rs, i) for i in range(n)]
    seen = {_identity_matrix(n): 1}
    frontier = [_identity_matrix(n)]
    while frontier:
        new = []
        for mat in frontier:
            for g in gens:
                image = _matmul(g.matrix, mat)
                if image not in seen:
                    seen[image] = seen[mat] * g.sign
                    new.append(image)
        frontier = new
    return tuple(WeylElement(m, s) for m, s in seen.items())


def weyl_group(rs: RootSystem) -> tuple[WeylElement, ...]:
    return weyl_elements((rs.family, rs.rank))


#: the B2 Weyl group on orthonormal pairs: (swap, sign1, sign2) -> eps for
#: an optional swap of the two coordinates followed by sign flips
B2_SIGNED_PERMUTATIONS = {
    (swap, s1, s2): (-1 if swap else 1) * s1 * s2
    for swap in (False, True)
    for s1 in (1, -1)
    for s2 in (1, -1)
}


def apply_weyl(rs: RootSystem, w: WeylElement, x: Sequence) -> Vec:
    """w . x for x in orthonormal coordinates, returned in orthonormal coordinates.

    x must lie in the root span (InconsistentSystemError otherwise) and have
    rs.ambient_dim coordinates (ValueError otherwise).
    """
    return rs.root_to_ortho(w.act_root(rs.ortho_to_root(x)))


def reflect_to_dominant(rs: RootSystem, a: Sequence) -> tuple[tuple, int]:
    """Reflect Dynkin labels into the dominant chamber.

    Returns (dominant labels, sign).  Sign is 0 when the terminal weight lies
    on a chamber wall (some label 0), which is the drop rule of the
    Racah-Speiser algorithm; otherwise it is eps(w) for the one Weyl element
    w that maps a into the open chamber.  Each step reflects in the most
    negative label, s_i a = a - a_i C[i], and raises a by -a_i alpha_i, so
    the walk ends; the dominant image is unique, so the order of the steps
    does not matter.  Raises ValueError on a wrong number of labels.
    """
    if len(a) != rs.rank:
        raise ValueError(f"{tuple(a)} needs {rs.rank} Dynkin labels")
    cart = rs.cartan_matrix
    sign = 1
    low = min(a)
    while low < 0:
        a = [x - low * c for x, c in zip(a, cart[a.index(low)])]
        sign = -sign
        low = min(a)
    return tuple(a), sign if low else 0


# ---------------------------------------------------------------------------
# Scalar quantities


def weyl_dimension(rs: RootSystem, lam) -> int:
    """dim V_lambda = prod_{alpha>0} <alpha, lambda+rho> / <alpha, rho>.

    In integers: <alpha, x> = sum_i c_i h_i x_i for alpha = sum_i c_i alpha_i
    and x given by its Dynkin labels, h being the half-norms.
    """
    a = rs.labels(lam)
    if min(a) < 0:
        raise NonDominantWeightError(f"{a} is not dominant")
    num = den = 1
    for hc, r in rs._dimension_forms:  # r = <alpha, rho>
        num *= sum(map(mul, hc, a)) + r
        den *= r
    if num % den:
        raise InvariantError(f"Weyl dimension {num}/{den} of {a} is not an integer")
    return num // den


def delta_g(rs: RootSystem, x: Sequence) -> Q:
    """prod_{alpha>0} <alpha, x> for x in orthonormal coordinates of the documented realization."""
    xo = qvec(_sized(x, rs.ambient_dim, "orthonormal coordinates"))
    out = Q(1)
    for alpha in rs.positive_roots:
        out *= dot(alpha, xo)
    return out


@dataclass(frozen=True)
class KappaG:
    """kappa_g = prefactor * (2*pi)**two_pi_exponent, plus the ratio factor K.

    The prefactor is 1/Delta(rho) in the normalization <theta,theta> = 2 for
    long roots theta; it equals K / prod_i (exponent_i!).
    """

    prefactor: Q
    two_pi_exponent: int
    K: int


def kappa_constants(rs: RootSystem) -> KappaG:
    theta2 = rs.long_norm2()
    K = Q(1)
    for alpha in rs.positive_roots:
        K *= theta2 / dot(alpha, alpha)
    if K.denominator != 1:
        raise InvariantError(f"ratio factor K = {K} of {rs.name} is not an integer")
    scale = Q(2) / theta2
    delta_norm = delta_g(rs, rs.rho_ortho) * scale ** rs.n_positive
    return KappaG(prefactor=1 / delta_norm, two_pi_exponent=rs.n_positive, K=int(K))


def is_compatible(rs: RootSystem, lam, mu, nu) -> bool:
    """True iff lambda + mu - nu lies in the root lattice; the Dynkin labels are ints or Fractions."""
    a, b, c = (rs.scaled_root(w) for w in (lam, mu, nu))
    return all((x + y - z) % rs.root_scale[0] == 0 for x, y, z in zip(a, b, c))
