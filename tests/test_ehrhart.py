from fractions import Fraction as Q

import pytest

from hornvol.bzpolytope import HalfPlane, RationalPolygon, bz_polygon_b2
from hornvol.ehrhart import (
    InconsistentSamplesError,
    InsufficientSamplesError,
    LeadingCoefficientError,
    NoDefaultPeriodError,
    QuasiPolynomial,
    default_period,
    fit_quasi_polynomial,
    leading_coefficient,
    reciprocity_check,
    stretching_quasi_polynomial,
    stretching_samples,
)
from hornvol.multiplicity import lr_klimyk
from hornvol.rootsys import build_root_system

B2 = build_root_system("B", 2)


@pytest.mark.parametrize("family,rank,period", [("A", 3, 1), ("B", 2, 2), ("C", 3, 2), ("D", 4, 2)])
def test_default_period_classical(family, rank, period):
    assert default_period(build_root_system(family, rank)) == period


@pytest.mark.parametrize("family", ["G2", "F4", "E6"])
def test_default_period_refuses_exceptional(family):
    with pytest.raises(NoDefaultPeriodError, match=f"no default period for {family}"):
        default_period(build_root_system(family))


def test_fit_563456():
    quasi, samples = stretching_quasi_polynomial(B2, (5, 6), (3, 4), (5, 6))
    # 6 s^2 + 7s/2 + (3 + (-1)^s)/4
    assert quasi.coeffs[0] == (Q(1), Q(7, 2), Q(6))
    assert quasi.coeffs[1] == (Q(1, 2), Q(7, 2), Q(6))
    assert samples[0] == 1 and samples[1] == 10


def test_fit_563464():
    quasi, _ = stretching_quasi_polynomial(B2, (5, 6), (3, 4), (6, 4))
    assert quasi.coeffs[0] == quasi.coeffs[1] == (Q(1), Q(7, 2), Q(11, 2))


def test_fit_5634210():
    quasi, _ = stretching_quasi_polynomial(B2, (5, 6), (3, 4), (2, 10))
    assert quasi.coeffs[0] == quasi.coeffs[1] == (Q(1), Q(7, 2), Q(7, 2))


def test_fit_475324():
    quasi, samples = stretching_quasi_polynomial(B2, (4, 7), (5, 3), (2, 4))
    assert [samples[s] for s in (0, 2, 4)] == [1, 13, 39]
    assert [samples[s] for s in (1, 3, 5)] == [5, 24, 57]
    assert quasi.coeffs[0] == (Q(1), Q(5, 2), Q(7, 4))
    assert quasi.coeffs[1] == (Q(3, 4), Q(5, 2), Q(7, 4))


def test_constant_samples():
    quasi = fit_quasi_polynomial({0: 1, 1: 1, 2: 1, 3: 1}, degree=0, period=1)
    assert quasi.coeffs[0] == (Q(1),)
    assert quasi.evaluate(17) == 1


def test_leading_coefficients():
    for nu, lead in [((5, 6), 6), ((6, 4), Q(11, 2)), ((2, 10), Q(7, 2))]:
        quasi, _ = stretching_quasi_polynomial(B2, (5, 6), (3, 4), nu)
        assert leading_coefficient(quasi) == lead


def test_leading_coefficient_error_and_skip():
    # shifted non-compatible triple: odd dilations vanish identically
    quasi, _ = stretching_quasi_polynomial(B2, (1, 1), (1, 1), (1, 1))
    with pytest.raises(LeadingCoefficientError):
        leading_coefficient(quasi)
    assert leading_coefficient(quasi, skip_zero_classes=True) == Q(3, 8)


def test_reciprocity_worked_examples():
    for nu, interior in [((5, 6), 3), ((6, 4), 3), ((2, 10), 1)]:
        quasi, _ = stretching_quasi_polynomial(B2, (5, 6), (3, 4), nu)
        P = bz_polygon_b2((5, 6), (3, 4), nu)
        assert quasi.evaluate(-1) == interior
        assert reciprocity_check(quasi, P)


def test_reciprocity_segment_signed():
    quasi, _ = stretching_quasi_polynomial(B2, (5, 6), (3, 4), (0, 10))
    assert quasi.evaluate(-1) == -1
    P = bz_polygon_b2((5, 6), (3, 4), (0, 10))
    assert P.dim == 1
    assert reciprocity_check(quasi, P)  # Q(-1) = (-1)^1 * interior = -1


def test_reciprocity_unit_segment():
    seg = RationalPolygon([
        HalfPlane(1, 0, 0), HalfPlane(-1, 0, -1),
        HalfPlane(0, 1, 0), HalfPlane(0, -1, 0),
    ])
    samples = {s: seg.dilate(s).lattice_count() for s in range(1, 4)}
    samples[0] = 1
    quasi = fit_quasi_polynomial(samples, degree=1, period=1)
    assert quasi.coeffs[0] == (Q(1), Q(1))
    assert reciprocity_check(quasi, seg)  # interior of [0,1] has 0 lattice points


def test_out_of_sample_exactness():
    quasi, _ = stretching_quasi_polynomial(B2, (5, 6), (3, 4), (5, 6))
    for s in (7, 8):
        assert quasi.evaluate(s) == lr_klimyk(B2, (5 * s, 6 * s), (3 * s, 4 * s), (5 * s, 6 * s))


def test_period_one_fit_fails_only_for_genuine_quasi():
    _, samples = stretching_quasi_polynomial(B2, (5, 6), (3, 4), (5, 6))
    with pytest.raises(InconsistentSamplesError):
        fit_quasi_polynomial(samples, degree=2, period=1)
    _, samples2 = stretching_quasi_polynomial(B2, (5, 6), (3, 4), (6, 4))
    quasi = fit_quasi_polynomial(samples2, degree=2, period=1)
    assert quasi.coeffs[0] == (Q(1), Q(7, 2), Q(11, 2))


def test_insufficient_samples():
    with pytest.raises(InsufficientSamplesError):
        fit_quasi_polynomial({0: 1, 2: 32}, degree=2, period=2)


def test_zero_sample_must_be_one():
    with pytest.raises(InconsistentSamplesError):
        fit_quasi_polynomial({0: 7, 1: 1, 2: 1}, degree=0, period=1)


def test_quasi_polynomial_json():
    quasi = QuasiPolynomial(period=2, coeffs={0: (Q(1), Q(7, 2), Q(6)), 1: (Q(1, 2), Q(7, 2), Q(6))})
    d = quasi.to_json_dict()
    assert d == {
        "period": 2,
        "degree": 2,
        "classes": {"0": ["1", "7/2", "6"], "1": ["1/2", "7/2", "6"]},
    }


def test_empty_polytope_fit_is_zero():
    quasi, samples = stretching_quasi_polynomial(B2, (0, 0), (0, 0), (2, 0))
    assert 0 not in samples
    assert all(quasi.evaluate(s) == 0 for s in range(1, 7))
    assert leading_coefficient(quasi, skip_zero_classes=True) == 0


def test_non_integral_labels_are_refused():
    # int() used to truncate (3/2, 2) to (1, 2)
    with pytest.raises(ValueError, match="not an integral weight"):
        stretching_samples(B2, (Q(3, 2), 2), (1, 2), (1, 2), [1, 2])
    with pytest.raises(ValueError, match="not an integral weight"):
        stretching_quasi_polynomial(B2, (Q(3, 2), 2), (1, 2), (1, 2))
    assert stretching_samples(B2, (Q(1), 2), (1, 2), (1, 2), [1, 2]) == {1: 3, 2: 7}
