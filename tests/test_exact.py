"""The Fraction solvers of hornvol._exact answer or refuse.

The oracle decides singularity and span membership without the elimination
under test: it reads ranks off det_bareiss minors of integer matrices, each
row or vector scaled by the lcm of its denominators, which keeps every rank.
"""

import math
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornvol._exact import InconsistentSystemError, SingularMatrixError, det_bareiss, solve_in_span, solve_square
from refusal import answer_or_refuse

# zero half of the time, so that singular systems come often
entries = st.one_of(st.just(Q(0)), st.fractions(-3, 3, max_denominator=4))


def integral(v) -> list[int]:
    """v times the lcm of its denominators."""
    d = math.lcm(*(x.denominator for x in v))
    return [int(x * d) for x in v]


def rank(columns) -> int:
    """The rank of the matrix with these integer columns: the order of its largest nonzero minor."""
    n = len(columns[0]) if columns else 0
    return max((k for k in range(1, min(n, len(columns)) + 1)
                for cols in combinations(columns, k) for rows in combinations(range(n), k)
                if det_bareiss([[c[i] for c in cols] for i in rows]) != 0), default=0)


def combination(coeffs, vectors, n: int) -> list[Q]:
    return [sum((c * v[i] for c, v in zip(coeffs, vectors)), Q(0)) for i in range(n)]


@st.composite
def matrices(draw, n_rows: int, n_cols: int) -> list[list[Q]]:
    """n_rows x n_cols Fraction matrices; half of them are products L R through r <= min(n_rows, n_cols)."""
    def rows(k, m):
        return draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))

    if draw(st.booleans()):
        return rows(n_rows, n_cols)
    r = draw(st.integers(0, min(n_rows, n_cols)))
    R = rows(r, n_cols)
    return [combination(row, R, n_cols) for row in rows(n_rows, r)]


def ragged(data, rows: list[list[Q]]) -> list[list[Q]]:
    """rows, with one entry appended to one of them now and then."""
    if rows and data.draw(st.integers(0, 4)) == 0:
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i] + [Q(1)]
    return rows


def check_solve_square(data):
    n = data.draw(st.integers(0, 4))
    A = ragged(data, data.draw(matrices(n, n)))
    b = data.draw(st.lists(entries, min_size=n, max_size=n + 1))
    square = len(b) == n and all(len(row) == n for row in A)
    singular = square and det_bareiss([integral(row) for row in A]) == 0
    x = answer_or_refuse(lambda: solve_square(A, b), not square or singular)
    if x is not None:
        assert [sum((a * v for a, v in zip(row, x)), Q(0)) for row in A] == b
    elif singular:
        with pytest.raises(SingularMatrixError):
            solve_square(A, b)


def check_solve_in_span(data):
    n, m = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    vectors = ragged(data, data.draw(matrices(m, n)))
    if data.draw(st.booleans()):
        target = combination(data.draw(st.lists(entries, min_size=m, max_size=m)), vectors, n)
    else:
        target = data.draw(st.lists(entries, min_size=n, max_size=n))
    shaped = all(len(v) == n for v in vectors)
    columns = [integral(v) for v in vectors]
    outside = shaped and rank(columns) < rank(columns + [integral(target)])
    c = answer_or_refuse(lambda: solve_in_span(vectors, target), not shaped or outside)
    if c is not None:
        assert len(c) == m and combination(c, vectors, n) == target
    elif outside:
        with pytest.raises(InconsistentSystemError):
            solve_in_span(vectors, target)


EXACT_ENTRY_POINTS = {check.__name__.removeprefix("check_"): check for check in (
    check_solve_square, check_solve_in_span)}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(EXACT_ENTRY_POINTS)), st.data())
def test_exact_entry_points_answer_or_refuse(entry, data):
    """Each Fraction solver answers exactly or refuses with a ValueError.

    Refused: a matrix that is not square, or a vector or right-hand side of
    another length (ValueError); a singular square matrix
    (SingularMatrixError); a target outside the span of the vectors
    (InconsistentSystemError).  An answer satisfies A x = b, or
    sum c_i v_i = t, exactly.
    """
    EXACT_ENTRY_POINTS[entry](data)
