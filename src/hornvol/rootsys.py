"""Root systems, integer Weyl groups and exact basis conversions.

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
from math import factorial, gcd
from operator import mul
from typing import Sequence

from ._exact import InconsistentSystemError, InvariantError, Vec, det_adj_bareiss, dot, qvec, vadd, vscale

#: the classical families with their smallest rank, the exceptional ones with their rank
CLASSICAL_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}
FAMILIES = tuple(CLASSICAL_MIN_RANK) + tuple(EXCEPTIONAL_RANK)

#: canonical basis names, with accepted aliases
BASIS_ALIASES = {
    "dynkin": "dynkin",
    "root": "root",
    "simpleroot": "root",
    "simple_root": "root",
    "ortho": "ortho",
    "orthonormal": "ortho",
}


class UnsupportedAlgebraError(ValueError):
    pass


class NonDominantWeightError(ValueError):
    """Not a dominant integral weight: a negative or a non-integral Dynkin label."""


def _canon_basis(basis: str) -> str:
    try:
        return BASIS_ALIASES[basis.lower()]
    except KeyError:
        raise ValueError(f"unknown basis {basis!r}") from None


@dataclass(frozen=True)
class Weight:
    """Exact rational coordinate vector with a declared basis."""

    coords: Vec
    basis: str = "dynkin"

    def __post_init__(self):
        object.__setattr__(self, "coords", qvec(self.coords))
        object.__setattr__(self, "basis", _canon_basis(self.basis))


def as_weight(x, basis: str = "dynkin") -> Weight:
    if isinstance(x, Weight):
        return x
    return Weight(tuple(x), basis)


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
    def positive_roots(self) -> tuple[Vec, ...]:
        """The positive roots in orthonormal coordinates."""
        return tuple(self.root_to_ortho(k) for k in self.positive_roots_rb)

    @property
    def weyl_vector(self) -> Weight:
        """rho, half the sum of the positive roots (Dynkin labels all 1)."""
        return Weight((1,) * self.rank, "dynkin")

    @property
    def rho_ortho(self) -> Vec:
        return self.root_to_ortho(tuple(Q(sum(col), 2) for col in zip(*self.positive_roots_rb)))

    # -- labels and basis conversions ------------------------------------------
    def labels(self, w) -> tuple[int, ...]:
        """The integer Dynkin labels of w, a label sequence or a Weight in any basis.

        Raises ValueError on a wrong number of labels and NonDominantWeightError
        on a non-integral one.
        """
        a = tuple(self.dynkin(w) if isinstance(w, Weight) else w)
        if len(a) != self.rank:
            raise ValueError(f"{a} needs {self.rank} Dynkin labels")
        labels = tuple(map(int, a))
        if labels != a:  # int() truncated a non-integral label
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
        n = self.rank
        c = qvec(c)
        return tuple(sum((c[i] * self.cartan_matrix[i][j] for i in range(n)), Q(0)) for j in range(n))

    def root_to_ortho(self, c: Sequence) -> Vec:
        acc = (Q(0),) * len(self.simple_roots[0])
        for ci, alpha in zip(qvec(c), self.simple_roots):
            acc = vadd(acc, vscale(ci, alpha))
        return acc

    def ortho_to_root(self, x: Sequence) -> Vec:
        """Simple-root coordinates of x; InconsistentSystemError off the root span."""
        c = self.dynkin_to_root(self.ortho_to_dynkin(x))
        if self.root_to_ortho(c) != qvec(x):
            raise InconsistentSystemError(f"{tuple(x)} is not in the root span of {self.name}")
        return c

    def ortho_to_dynkin(self, x: Sequence) -> Vec:
        x = qvec(x)
        return tuple(2 * dot(x, a) / dot(a, a) for a in self.simple_roots)

    def to_basis(self, w: Weight, basis: str) -> Weight:
        basis = _canon_basis(basis)
        if w.basis == basis:
            return w
        if w.basis == "dynkin":
            rb = self.dynkin_to_root(w.coords)
        elif w.basis == "root":
            rb = w.coords
        else:
            rb = self.ortho_to_root(w.coords)
        if basis == "root":
            return Weight(rb, "root")
        if basis == "dynkin":
            return Weight(self.root_to_dynkin(rb), "dynkin")
        return Weight(self.root_to_ortho(rb), "ortho")

    def ortho(self, w) -> Vec:
        return self.to_basis(as_weight(w), "ortho").coords

    def dynkin(self, w) -> Vec:
        return self.to_basis(as_weight(w), "dynkin").coords

    # -- norms ---------------------------------------------------------------
    def long_norm2(self) -> Q:
        """The squared length of a long root: every root is W-conjugate to a simple one."""
        return max(dot(a, a) for a in self.simple_roots)


def _positive_closure(cartan: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, sorted by (height, key).

    The simple roots closed under s_i k = k - <k, alpha_i^vee> alpha_i, with
    <k, alpha_i^vee> = sum_j k_j C[j][i]; s_i permutes the positive roots other
    than alpha_i, and each of them is reached from a simple root this way.
    """
    rank = len(cartan)
    simple = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = simple
    while frontier:
        new = []
        for k in frontier:
            for i in range(rank):
                p = sum(kj * row[i] for kj, row in zip(k, cartan))
                if p and k != simple[i]:
                    image = k[:i] + (k[i] - p,) + k[i + 1:]
                    if image not in seen:
                        seen.add(image)
                        new.append(image)
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


@lru_cache(maxsize=None)
def build_root_system(family: str, rank: int | None = None) -> RootSystem:
    """Construct the root system for a classical family/rank or exceptional name.

    Raises UnsupportedAlgebraError for invalid pairs (A: r>=1, B: r>=2,
    C: r>=2, D: r>=3; exceptional ranks are fixed).
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

    simple = _simple_roots(family, rank)
    norms = [dot(a, a) for a in simple]
    cartan = tuple(tuple(int(2 * dot(a, b) / nb) for b, nb in zip(simple, norms)) for a in simple)
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
        half_norms=tuple(int(v / min(norms)) for v in norms),
        root_scale=_scaled_inverse_transpose(cartan),
    )


# ---------------------------------------------------------------------------
# Weyl group


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as an integer matrix on simple-root coordinates."""

    matrix: tuple[tuple[int, ...], ...]
    sign: int
    label: str = ""

    def act_root(self, c: Sequence) -> Vec:
        c = qvec(c)
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
    return WeylElement(tuple(map(tuple, rows)), -1, f"s{i + 1}")


@lru_cache(maxsize=None)
def weyl_elements(rs_key: tuple[str, int]) -> tuple[WeylElement, ...]:
    """The full Weyl group by closure over the simple reflections (memoized)."""
    rs = build_root_system(*rs_key)
    n = rs.rank
    gens = [simple_reflection(rs, i) for i in range(n)]
    seen = {_identity_matrix(n): (1, "e")}
    frontier = [_identity_matrix(n)]
    while frontier:
        new = []
        for mat in frontier:
            sign, label = seen[mat]
            for g in gens:
                prod = _matmul(g.matrix, mat)
                if prod not in seen:
                    seen[prod] = (sign * g.sign, g.label + ("" if label == "e" else "." + label))
                    new.append(prod)
        frontier = new
    return tuple(WeylElement(m, s, lab) for m, (s, lab) in seen.items())


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


def b2_weyl_element(swap: bool, sign1: int, sign2: int) -> WeylElement:
    """B2 element acting on orthonormal pairs by optional swap then sign flips.

    Its columns are the images of alpha1 = e1 - e2 and alpha2 = e2 in
    simple-root coordinates, where (x1, x2) = x1 alpha1 + (x1 + x2) alpha2.
    """
    eps = B2_SIGNED_PERMUTATIONS[(bool(swap), sign1, sign2)]
    cols = []
    for a, b in ((1, -1), (0, 1)):
        if swap:
            a, b = b, a
        a, b = sign1 * a, sign2 * b
        cols.append((a, a + b))
    return WeylElement(tuple(zip(*cols)), eps, f"b2({int(swap)},{sign1:+d},{sign2:+d})")


def b2_weyl_table() -> tuple[WeylElement, ...]:
    """The eight B2 Weyl elements in the order of B2_SIGNED_PERMUTATIONS."""
    return tuple(b2_weyl_element(*key) for key in B2_SIGNED_PERMUTATIONS)


def apply_weyl(rs: RootSystem, w: WeylElement, x) -> Weight:
    """w . x, returned in the basis x was given in."""
    xw = as_weight(x, "ortho") if not isinstance(x, Weight) else x
    rb = rs.to_basis(xw, "root").coords
    out = Weight(w.act_root(rb), "root")
    return rs.to_basis(out, xw.basis)


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
    for rb in rs.positive_roots_rb:
        hc = tuple(map(mul, rb, rs.half_norms))
        num *= sum(map(mul, hc, a)) + sum(hc)
        den *= sum(hc)
    if num % den:
        raise InvariantError(f"Weyl dimension {num}/{den} of {a} is not an integer")
    return num // den


def delta_g(rs: RootSystem, x) -> Q:
    """prod_{alpha>0} <alpha, x> in the documented orthonormal realization."""
    xo = rs.ortho(as_weight(x, "ortho") if not isinstance(x, Weight) else x)
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
    delta_norm = delta_g(rs, Weight(rs.rho_ortho, "ortho")) * scale ** rs.n_positive
    return KappaG(prefactor=1 / delta_norm, two_pi_exponent=rs.n_positive, K=int(K))


@dataclass(frozen=True)
class KappaTheta:
    """kappa_theta = rational * pi**(sqrt_pi_exponent/2) * (2*pi)**two_pi_exponent."""

    rational: Q
    sqrt_pi_exponent: int
    two_pi_exponent: Q


def _gamma_ratio(theta: Q, j: int) -> tuple[Q, int]:
    """Gamma(1 + j*theta) / Gamma(1 + theta) as (rational, power of sqrt(pi))."""
    if theta == 1:
        return Q(factorial(j)), 0
    if theta == 2:
        return Q(factorial(2 * j), 2), 0
    if theta == Q(1, 2):
        if j % 2 == 0:
            m = j // 2
            return Q(2 * factorial(m)), -1
        m = (j - 1) // 2
        dfact = 1
        for k in range(2 * m + 1, 0, -2):
            dfact *= k
        return Q(dfact, 2**m), 0
    raise ValueError(f"unsupported theta {theta}")


def kappa_theta(theta, n: int) -> KappaTheta:
    """Normalization constant of the diagonalization Jacobian for theta in {1/2, 1, 2}.

    kappa_theta = (2 pi)^{n(n-1) theta / 2} n! / prod_{j=1}^n Gamma(1+j theta)/Gamma(1+theta),
    kept exact as a (rational, sqrt(pi) power, (2 pi) power) triple.
    """
    theta = Q(theta)
    if n < 2:
        raise ValueError("n >= 2 required")
    rat = Q(factorial(n))
    sqrtpi = 0
    for j in range(1, n + 1):
        r, s = _gamma_ratio(theta, j)
        rat /= r
        sqrtpi -= s
    return KappaTheta(rational=rat, sqrt_pi_exponent=sqrtpi, two_pi_exponent=Q(n * (n - 1)) * theta / 2)


def is_compatible(rs: RootSystem, lam, mu, nu) -> bool:
    """True iff lambda + mu - nu lies in the root lattice; labels may be rational.

    Integer label sequences go straight through the integer map scaled_root;
    Weights and rational labels are read by dynkin first.
    """
    def scaled(w) -> tuple:
        if not isinstance(w, Weight):
            w = tuple(w)
            if all(isinstance(v, int) for v in w):
                return rs.scaled_root(w)
        return rs.scaled_root(rs.dynkin(w))

    a, b, c = (scaled(w) for w in (lam, mu, nu))
    return all((x + y - z) % rs.root_scale[0] == 0 for x, y, z in zip(a, b, c))
