"""Squared covolume delta_r of the lattice of integer points in aff(Part(sigma)).

Two independent computations are cross-checked:

* the Gram-determinant construction: express each non-simple positive root
  over the simple ones (matrix A), form G = I + A A^T and take det G;
* the closed formula (h_dual)^r / det(C) * prod_i <theta,theta>/<alpha_i,alpha_i>.

Both are compared against the tabulated closed-form values, which are
extrapolations for the classical families at high rank; a mismatch there
would be a finding about the table, not about the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from ._exact import InvariantError, det_bareiss, dot
from .rootsys import CLASSICAL_MIN_RANK, RootSystem, algebra_key, build_root_system


@dataclass(frozen=True)
class CovolumeReport:
    family: str
    rank: int
    delta_gram: int
    delta_formula: Q
    table1_value: int | None

    @property
    def agree(self) -> bool:
        vals = {self.delta_gram, self.delta_formula}
        if self.table1_value is not None:
            vals.add(self.table1_value)
        return len(vals) == 1

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "delta_gram": self.delta_gram,
            "delta_formula": str(self.delta_formula),
            "table1_value": self.table1_value,
            "agree": self.agree,
        }


def _nonsimple_in_simple_basis(rs: RootSystem) -> list[tuple[int, ...]]:
    # a positive root's simple-basis coefficients are nonnegative integers, summing to 1 only on a simple root
    return [k for k in rs.positive_roots_rb if sum(k) > 1]


def gram_delta(rs: RootSystem) -> int:
    """det(I + A A^T), A the non-simple positive roots over the simple ones, taken
    as the rank-sized det(I + A^T A) by Sylvester's identity."""
    G = [[int(i == j) for j in range(rs.rank)] for i in range(rs.rank)]
    for k in _nonsimple_in_simple_basis(rs):  # G += k^T k over the nonzero coordinates of k
        nonzero = [(i, v) for i, v in enumerate(k) if v]
        for i, a in nonzero:
            row = G[i]
            for j, b in nonzero:
                row[j] += a * b
    d = det_bareiss(G)
    if d < 1:
        raise InvariantError(f"Gram determinant {d} of {rs.name} is below 1")
    return d


def formula_delta(rs: RootSystem) -> Q:
    """(h_dual)^r / det(Cartan) * prod over simple roots of <theta,theta>/<alpha_i,alpha_i>."""
    detC = det_bareiss(rs.cartan_matrix)
    theta2 = rs.long_norm2()
    ratios = Q(1)
    for a in rs.simple_roots:
        ratios *= theta2 / dot(a, a)
    return Q(rs.dual_coxeter_number) ** rs.rank / detC * ratios


def table1_delta(family: str, rank: int | None = None) -> int:
    """The tabulated closed-form squared covolume; a pair that names no algebra raises UnsupportedAlgebraError."""
    family, rank = algebra_key(family, rank)
    if family == "A":
        return (rank + 1) ** (rank - 1)
    if family == "B":
        return (2 * rank - 1) ** rank
    if family == "C":
        return 2 ** (rank - 2) * (rank + 1) ** rank
    if family == "D":
        return 2 ** (rank - 2) * (rank - 1) ** rank
    return {
        "E6": 2**12 * 3**5,
        "E7": 2**6 * 3**14,
        "E8": 2**8 * 3**8 * 5**8,
        "F4": 2**2 * 3**8,
        "G2": 2**4 * 3,
    }[family]


def covolume_report(family: str, rank: int | None = None) -> CovolumeReport:
    rs = build_root_system(family, rank)
    return CovolumeReport(
        family=rs.family,
        rank=rs.rank,
        delta_gram=gram_delta(rs),
        delta_formula=formula_delta(rs),
        table1_value=table1_delta(rs.family, rs.rank),
    )


def covolume_table(max_rank: int = 8) -> list[CovolumeReport]:
    """Reports for the classical families A-D up to max_rank, then G2, F4 and E6.

    A max_rank below every classical family's least rank (1, for A_1)
    raises ValueError: such a table would hold no classical row.
    """
    minimum = min(CLASSICAL_MIN_RANK.values())
    if max_rank < minimum:
        raise ValueError(f"max_rank must be at least {minimum}, but is {max_rank}")
    classical = [covolume_report(fam, r) for fam in "ABCD" for r in range(CLASSICAL_MIN_RANK[fam], max_rank + 1)]
    return classical + [covolume_report(fam) for fam in ("G2", "F4", "E6")]


def covolume_markdown(reports: list[CovolumeReport]) -> str:
    lines = [
        "| algebra | N_r | d_r | delta (Gram) | delta (formula) | tabulated | agree |",
        "|---------|-----|-----|--------------|-----------------|-----------|-------|",
    ]
    for rep in reports:
        rs = build_root_system(rep.family, rep.rank)
        lines.append(
            f"| {rs.name} | {rs.n_positive} | {rs.n_positive - rs.rank} | {rep.delta_gram} "
            f"| {rep.delta_formula} | {rep.table1_value} | {'yes' if rep.agree else 'NO'} |"
        )
    return "\n".join(lines) + "\n"
