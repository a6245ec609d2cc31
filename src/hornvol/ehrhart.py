"""Stretching quasi-polynomials P(s) = C_{s lam, s mu}^{s nu} and their fits.

A quasi-polynomial of period `period` stores one exact coefficient vector per
residue class of s.  Fitting interpolates each class in integers over one
common denominator; redundant samples must reproduce exactly, otherwise the
declared degree or period is wrong and fitting fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm, prod

from . import multiplicity
from .rootsys import RootSystem, polytope_degree


class InsufficientSamplesError(ValueError):
    pass


class InconsistentSamplesError(ValueError):
    pass


class LeadingCoefficientError(ValueError):
    pass


class NoDefaultPeriodError(ValueError):
    pass


@dataclass(frozen=True)
class QuasiPolynomial:
    """period and, per residue class mod period, coefficients (c0, ..., cd)."""

    period: int
    coeffs: dict[int, tuple[Q, ...]]

    @property
    def degree(self) -> int:
        return len(next(iter(self.coeffs.values()))) - 1

    def evaluate(self, s: int) -> Q:
        cs = self.coeffs[s % self.period]
        acc = Q(0)
        p = Q(1)
        for c in cs:
            acc += c * p
            p *= s
        return acc

    def class_is_zero(self, r: int) -> bool:
        return all(c == 0 for c in self.coeffs[r % self.period])

    def to_json_dict(self) -> dict:
        return {
            "period": self.period,
            "degree": self.degree,
            "classes": {str(r): [str(c) for c in cs] for r, cs in sorted(self.coeffs.items())},
        }


@lru_cache(maxsize=32)
def _lagrange_basis(nodes: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(D, rows): the Lagrange basis of the distinct nodes over one common denominator.

    D is the lcm of the node products w_i = prod_{j != i} (s_i - s_j), and
    row i lists the coefficients of (D / w_i) prod_{j != i} (x - s_j),
    constant coefficient first.  It depends on the nodes alone, and every
    fit of a degree and period reuses the same nodes, so the latest few
    bases are kept.
    """
    weights = [prod(si - sj for sj in nodes if sj != si) for si in nodes]
    D = lcm(*weights)
    rows = []
    for si, w in zip(nodes, weights):
        basis = [1]  # prod_{j != i} (x - s_j), constant coefficient first
        for sj in nodes:
            if sj != si:
                basis = [a - sj * b for a, b in zip([0] + basis, basis + [0])]
        rows.append(tuple(D // w * b for b in basis))
    return D, tuple(rows)


def _interpolate(pts: list[tuple[int, int]]) -> tuple[list[int], int]:
    """(N, D) with N(x) / D the polynomial through the points, N integer, D > 0.

    Lagrange interpolation over the common denominator D of the nodes'
    basis (_lagrange_basis, computed once per node tuple): N is the sum of
    the basis rows weighted by the values, listed from the constant
    coefficient up.
    """
    D, rows = _lagrange_basis(tuple(s for s, _ in pts))
    N = [sum(v * c for (_, v), c in zip(pts, column)) for column in zip(*rows)]
    return N, D


def fit_quasi_polynomial(samples: dict[int, int], degree: int, period: int) -> QuasiPolynomial:
    """Exact per-residue-class polynomial fit of integer samples.

    Each class is interpolated through its degree+1 smallest s in integers
    over one common denominator (see _interpolate); the remaining samples of
    the class are checked against the fit.  Raises InsufficientSamplesError
    when a class has fewer than degree+1 samples and InconsistentSamplesError
    when redundant samples do not lie on the fitted polynomial (the signature
    of a wrong degree or period).  A degree below 0 or a period below 1
    raises ValueError.
    """
    if degree < 0:
        raise ValueError(f"the degree must be at least 0, but is {degree}")
    if period < 1:
        raise ValueError(f"the period must be at least 1, but is {period}")
    if 0 in samples and samples[0] != 1:
        raise InconsistentSamplesError("s=0 must evaluate to 1 for a closed convex polytope")
    coeffs: dict[int, tuple[Q, ...]] = {}
    for r in range(period):
        pts = sorted((s, v) for s, v in samples.items() if s % period == r)
        if len(pts) < degree + 1:
            raise InsufficientSamplesError(
                f"residue class {r} mod {period}: {len(pts)} samples for degree {degree}"
            )
        N, D = _interpolate(pts[: degree + 1])
        for s, v in pts[degree + 1:]:
            got = 0
            for c in reversed(N):
                got = got * s + c
            if got != v * D:
                raise InconsistentSamplesError(
                    f"sample P({s}) = {v} clashes with fit {Q(got, D)} (class {r} mod {period})"
                )
        coeffs[r] = tuple(Q(c, D) for c in N)
    return QuasiPolynomial(period=period, coeffs=coeffs)


def leading_coefficient(quasi: QuasiPolynomial) -> Q:
    """The degree-d coefficient, required constant across the nonzero residue classes.

    Residue classes that vanish identically (count 0 at every dilation, as
    for non-compatible shifted triples) are skipped; 0 when every class does.
    Raises LeadingCoefficientError when the other classes disagree.
    """
    leads = {r: cs[-1] for r, cs in quasi.coeffs.items() if not quasi.class_is_zero(r)}
    if not leads:
        return Q(0)
    vals = set(leads.values())
    if len(vals) > 1:
        raise LeadingCoefficientError(f"leading coefficient varies across classes: {leads}")
    return vals.pop()


def default_period(rs: RootSystem) -> int:
    # stretching quasi-polynomials of compatible triples are genuine
    # polynomials for A_r and have period at most 2 for B/C/D; for G2 the
    # period is larger (2, 3 and 4 all misfit (1,1)^3), so the exceptional
    # algebras get no default
    if rs.family == "A":
        return 1
    if rs.family in ("B", "C", "D"):
        return 2
    raise NoDefaultPeriodError(f"no default period for {rs.family}")


def stretching_samples(rs: RootSystem, lam, mu, nu, s_values) -> dict[int, int]:
    """C_{s lam, s mu}^{s nu} for every s in s_values, keyed in their order.

    s = 0 gives 1.  Stretched weight systems outgrow the Freudenthal size
    guard quickly, so every other sample is a Steinberg sum: for B2 one
    multiplicity.lr_steinberg per dilation, on the closed-form Kostant
    function, and for every other algebra multiplicity.lr_steinberg_table
    on the Kostant values at the arguments of all the dilations' sums
    (_steinberg_terms), computed up front by one kostant_values sweep and
    dropped when this call returns.  A weight that is not dominant raises
    NonDominantWeightError, and an s that is not an int >= 0 raises
    ValueError, before any sample is computed.
    """
    lam, mu, nu = (multiplicity._check_dominant(rs, w) for w in (lam, mu, nu))
    dilations = {}
    for s in s_values:
        if type(s) is not int or s < 0:
            raise ValueError(f"stretching_samples dilates by ints s >= 0, not {s!r}")
        dilations[s] = tuple(tuple([s * v for v in w]) for w in (lam, mu, nu))
    if (rs.family, rs.rank) == ("B", 2):
        return {s: multiplicity.lr_steinberg(rs, *t) if s else 1 for s, t in dilations.items()}
    points: set[tuple[int, ...]] = set()
    for s, t in dilations.items():
        if s:
            for sigmas in multiplicity._steinberg_terms(rs, *t):
                points.update(sigmas)
    table = multiplicity.kostant_values(rs, points) if points else {}
    return {s: multiplicity.lr_steinberg_table(rs, *t, table=table) if s else 1 for s, t in dilations.items()}


def stretching_quasi_polynomial(
    rs: RootSystem,
    lam,
    mu,
    nu,
    period: int | None = None,
    smax: int | None = None,
) -> tuple[QuasiPolynomial, dict[int, int]]:
    """Fit P(s) = C_{s lam, s mu}^{s nu} from exact multiplicity evaluations.

    The degree is that of the BZ polytope.  Samples run over
    s = 0 .. period*(degree+1) by default (one redundancy row per class).
    s = 0 contributes its conventional value 1 only when the polytope is
    nonempty, i.e. when some positive dilation has a nonzero count.  The
    default period is default_period(rs) times the order k of lam + mu - nu
    modulo the root lattice: only every k-th dilation is compatible, and
    those are the dilations of the compatible triple k (lam, mu, nu).
    """
    if period is None:
        period = default_period(rs)
        lam, mu, nu = (multiplicity._check_dominant(rs, w) for w in (lam, mu, nu))
        d = rs.root_scale[0]
        period *= d // gcd(d, *rs.scaled_root([x + y - z for x, y, z in zip(lam, mu, nu)]))
    degree = polytope_degree(rs.family, rs.rank)
    if smax is None:
        smax = period * (degree + 1)
    samples = stretching_samples(rs, lam, mu, nu, range(1, smax + 1))
    if any(samples.values()):
        samples[0] = 1
    quasi = fit_quasi_polynomial(samples, degree=degree, period=period)
    return quasi, samples
