import re
import tracemalloc
from fractions import Fraction as Q
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornvol import multiplicity
from hornvol._exact import solve_square
from hornvol.bzpolytope import RationalPolygon, bz_polygon_b2, reciprocity_check
from hornvol.ehrhart import (
    InconsistentSamplesError,
    InsufficientSamplesError,
    LeadingCoefficientError,
    NoDefaultPeriodError,
    QuasiPolynomial,
    default_period,
    fit_quasi_polynomial,
    leading_coefficient,
    stretching_quasi_polynomial,
    stretching_samples,
)
from hornvol.multiplicity import lr_klimyk, lr_steinberg, tensor_decompose
from hornvol.rootsys import build_root_system, is_compatible, polytope_degree
from refusal import answer_or_refuse

B2 = build_root_system("B", 2)
B3 = build_root_system("B", 3)


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
    # shifted non-compatible triple: the odd dilations vanish identically and are skipped
    quasi, _ = stretching_quasi_polynomial(B2, (1, 1), (1, 1), (1, 1))
    assert quasi.class_is_zero(1) and not quasi.class_is_zero(0)
    assert leading_coefficient(quasi) == Q(3, 8)
    # two nonzero classes whose leading coefficients differ
    varying = QuasiPolynomial(period=2, coeffs={0: (Q(1), Q(0), Q(1, 2)), 1: (Q(0), Q(1), Q(1, 4))})
    with pytest.raises(LeadingCoefficientError, match="varies across classes"):
        leading_coefficient(varying)
    # a zero class next to them changes nothing, and a lone zero class gives 0
    with pytest.raises(LeadingCoefficientError):
        leading_coefficient(QuasiPolynomial(period=3, coeffs={**varying.coeffs, 2: (Q(0),) * 3}))
    assert leading_coefficient(QuasiPolynomial(period=1, coeffs={0: (Q(0),) * 3})) == 0


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
    seg = RationalPolygon([(1, 0, 0, ""), (-1, 0, -1, ""), (0, 1, 0, ""), (0, -1, 0, "")])
    samples = {s: seg.lattice_count(s=s) for s in range(1, 4)}
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


@pytest.mark.parametrize("period", [0, -2])
def test_period_below_one_is_refused(period):
    with pytest.raises(ValueError, match="period must be at least 1"):
        fit_quasi_polynomial({0: 1, 1: 1, 2: 1}, degree=0, period=period)


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
    assert leading_coefficient(quasi) == 0


def test_default_period_covers_a_triple_off_the_root_lattice():
    # lam + mu - nu = (2, 2, 1) has order 2 modulo the root lattice, so only even
    # dilations are compatible: those of the doubled triple, of period 2 in its own s
    lam, mu, nu = (2, 2, 1), (2, 2, 2), (2, 2, 2)
    with pytest.raises(InconsistentSamplesError):
        stretching_quasi_polynomial(B3, lam, mu, nu, period=2)
    quasi, samples = stretching_quasi_polynomial(B3, lam, mu, nu)
    doubled, _ = stretching_quasi_polynomial(B3, *(tuple(2 * v for v in w) for w in (lam, mu, nu)))
    assert quasi.period == 4 and doubled.period == 2
    assert all(v == 0 for s, v in samples.items() if s % 2)
    assert leading_coefficient(quasi) == Q(35971, 15360) == leading_coefficient(doubled) / 2**6
    quasi, _ = stretching_quasi_polynomial(B2, (3, 1), (2, 2), (2, 2))
    assert quasi.period == 4 and leading_coefficient(quasi) == Q(7, 8)


def test_non_integral_labels_are_refused():
    # int() used to truncate (3/2, 2) to (1, 2)
    with pytest.raises(ValueError, match="not an integral weight"):
        stretching_samples(B2, (Q(3, 2), 2), (1, 2), (1, 2), [1, 2])
    with pytest.raises(ValueError, match="not an integral weight"):
        stretching_quasi_polynomial(B2, (Q(3, 2), 2), (1, 2), (1, 2))
    assert stretching_samples(B2, (Q(1), 2), (1, 2), (1, 2), [1, 2]) == {1: 3, 2: 7}


@pytest.mark.parametrize("rs,weights", [(B2, ((5, 6), (3, 4), (5, 6))), (B3, ((1, 0, 1),) * 3)])
def test_a_dilation_that_is_no_int_at_least_0_is_refused_before_any_steinberg_term(monkeypatch, rs, weights):
    # B2 and the other algebras build their Steinberg terms on different paths
    def unbuilt(*args):
        raise AssertionError("a Steinberg term was built")

    monkeypatch.setattr(multiplicity, "_steinberg_terms", unbuilt)
    for s_values in ([2.0], [1, 2.0], [Q(2)], [True], [-1], [0, 1, -1]):
        bad = next(s for s in s_values if type(s) is not int or s < 0)
        with pytest.raises(ValueError, match=re.escape(f"not {bad!r}") + "$"):
            stretching_samples(rs, *weights, s_values)


# ---------------------------------------------------------------------------
# the integer fit against a Vandermonde solve, and the shared Kostant table


def vandermonde_fit(samples: dict[int, int], degree: int, period: int) -> QuasiPolynomial:
    """Per-class fit by solve_square on a Fraction Vandermonde matrix, with the same checks."""
    coeffs = {}
    for r in range(period):
        pts = sorted((s, v) for s, v in samples.items() if s % period == r)
        base = pts[: degree + 1]
        cs = tuple(solve_square([[Q(s) ** k for k in range(degree + 1)] for s, _ in base], [Q(v) for _, v in base]))
        for s, v in pts[degree + 1:]:
            got = sum((c * Q(s) ** k for k, c in enumerate(cs)), Q(0))
            if got != v:
                raise InconsistentSamplesError(f"sample P({s}) = {v} clashes with fit {got} (class {r} mod {period})")
        coeffs[r] = cs
    return QuasiPolynomial(period=period, coeffs=coeffs)


@st.composite
def integer_samples(draw, spare: int = 0):
    """Samples of an integer-valued quasi-polynomial (binomial basis per class) at random s,
    so the nodes need not be equally spaced, maybe with one redundant sample off; each
    class has at least `spare` redundant samples."""
    period, degree = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    smax = period * (degree + 4)
    samples, redundant = {}, []
    for r in range(period):
        a = [draw(st.integers(-50, 50)) for _ in range(degree + 1)]
        nodes = sorted(draw(st.sets(st.sampled_from(range(r, smax + 1, period)), min_size=degree + 1 + spare)))
        if nodes[0] == 0:
            a[0] = 1  # P(0) = 1, as the fit requires
        samples.update({s: sum(ak * comb(s, k) for k, ak in enumerate(a)) for s in nodes})
        redundant += nodes[degree + 1:]
    if redundant and draw(st.booleans()):
        samples[draw(st.sampled_from(redundant))] += draw(st.sampled_from([-2, -1, 1, 3]))
    return samples, degree, period


@settings(max_examples=300, deadline=None)
@given(integer_samples())
def test_integer_fit_matches_a_vandermonde_solve(case):
    samples, degree, period = case
    try:
        expected = vandermonde_fit(samples, degree, period)
    except InconsistentSamplesError as exc:
        with pytest.raises(InconsistentSamplesError) as got:
            fit_quasi_polynomial(samples, degree, period)
        assert str(got.value) == str(exc)
        return
    assert fit_quasi_polynomial(samples, degree, period) == expected


B3_TRIPLES = [
    ((1, 1, 1), (1, 1, 1), (1, 1, 2)),
    ((1, 0, 2), (0, 1, 1), (1, 1, 1)),
    ((1, 1, 1), (1, 1, 2), (1, 1, 2)),   # lam + mu - nu off the root lattice: odd s give 0
    ((0, 0, 1), (0, 0, 0), (2, 0, 0)),   # lam + mu - nu has a negative coordinate
]


@pytest.mark.parametrize("lam,mu,nu", B3_TRIPLES)
def test_b3_samples_from_one_table_equal_the_recursion(lam, mu, nu, monkeypatch):
    sweeps, calls = [], []
    values, lookup = multiplicity.kostant_values, multiplicity.lr_steinberg_table
    monkeypatch.setattr(multiplicity, "kostant_values", lambda *a: sweeps.append(a) or values(*a))
    monkeypatch.setattr(multiplicity, "lr_steinberg_table", lambda *a, **k: calls.append(a) or lookup(*a, **k))
    s_values = range(1, 7)
    samples = stretching_samples(B3, lam, mu, nu, s_values)
    for s in s_values:
        assert samples[s] == lr_steinberg(B3, *(tuple(s * v for v in w) for w in (lam, mu, nu)))
    assert len(calls) == len(s_values)
    assert len(sweeps) == (0 if nu == (2, 0, 0) else 1)


def test_the_largest_b3_fit_keeps_no_whole_box_table():
    # the s = 14 box of this triple is 99 x 155 x 169 int64 entries, 20.7 MB
    tracemalloc.start()
    try:
        stretching_samples(B3, (2, 2, 2), (2, 2, 1), (1, 1, 1), range(1, 15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_samples_accept_a_one_shot_iterator():
    lam, mu, nu = B3_TRIPLES[0]
    expected = stretching_samples(B3, lam, mu, nu, [0, 1, 2])
    assert stretching_samples(B3, lam, mu, nu, iter([0, 1, 2])) == expected
    assert list(expected) == [0, 1, 2] and expected[0] == 1


# ---------------------------------------------------------------------------
# the public entry points answer or refuse

#: algebra and largest label drawn for the stretching entry points
STRETCH_ALGEBRAS = {"A2": (build_root_system("A", 2), 2), "B2": (B2, 2), "B3": (B3, 1), "G2": (build_root_system("G2"), 1)}
#: every family, the exceptional ones included; the default period is fitted on ranks <= 3
PERIOD_ALGEBRAS = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "D4", "G2", "F4", "E6", "E7", "E8")


def drawn_labels(rank: int, top: int):
    """rank entries, or one fewer or one more: ints in [-1, top] or, a quarter of the time,
    Fractions in [-1, top] of denominator up to 2 (integral ones among them)."""
    entries = st.sampled_from([st.integers(-1, top)] * 3 + [st.fractions(-1, top, max_denominator=2)])
    sizes = st.sampled_from([rank] * 4 + [rank - 1, rank + 1])
    return st.tuples(entries, sizes).flatmap(lambda es: st.lists(es[0], min_size=es[1], max_size=es[1]).map(tuple))


def dominant(rs, weights) -> bool:
    return all(len(w) == rs.rank and all(v >= 0 and Q(v).denominator == 1 for v in w) for w in weights)


def klimyk_stretched(rs, weights, s: int) -> int:
    """C_{s lam, s mu}^{s nu} by Klimyk's route, which reads no Kostant value; 1 at s = 0."""
    return lr_klimyk(rs, *(tuple(s * int(v) for v in w) for w in weights)) if s else 1


def fits(quasi: QuasiPolynomial, samples: dict[int, int], degree: int, period: int) -> bool:
    """Whether quasi has the declared shape and reproduces every sample."""
    return (quasi.period == period and sorted(quasi.coeffs) == list(range(period))
            and all(len(cs) == degree + 1 for cs in quasi.coeffs.values())
            and all(quasi.evaluate(s) == v for s, v in samples.items()))


def fit_refused(samples: dict[int, int], degree: int, period: int) -> bool:
    """Whether no fit of this degree and period exists, decided by the Vandermonde solve."""
    if period < 1 or degree < 0 or samples.get(0, 1) != 1:
        return True
    if any(sum(s % period == r for s in samples) < degree + 1 for r in range(period)):
        return True
    try:
        vandermonde_fit(samples, degree, period)
    except InconsistentSamplesError:
        return True
    return False


def check_fit_quasi_polynomial(data):
    # a spare sample per class lets a slice with a negative degree reproduce the samples
    samples, degree, period = data.draw(integer_samples(spare=1))
    degree = data.draw(st.sampled_from([degree, degree - 1, degree + 1, -2, -1]))
    period = data.draw(st.one_of(st.just(period), st.integers(-1, 3)))
    zero = data.draw(st.sampled_from([None, None, None, 0, 2]))
    if zero is not None:
        samples[0] = zero
    quasi = answer_or_refuse(lambda: fit_quasi_polynomial(samples, degree, period), fit_refused(samples, degree, period))
    assert quasi is None or fits(quasi, samples, degree, period)


def check_leading_coefficient(data):
    period, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    lead = data.draw(st.fractions(-3, 3, max_denominator=4))
    classes = {}
    for r in range(period):
        kind = data.draw(st.sampled_from(["zero", "lead", "other"]))
        low = tuple(data.draw(st.fractions(-3, 3, max_denominator=4)) for _ in range(degree))
        if kind == "zero":
            classes[r] = (Q(0),) * (degree + 1)
        else:
            classes[r] = low + (lead if kind == "lead" else data.draw(st.fractions(-3, 3, max_denominator=4)),)
    leads = {cs[-1] for cs in classes.values() if any(cs)}
    quasi = QuasiPolynomial(period=period, coeffs=classes)
    value = answer_or_refuse(lambda: leading_coefficient(quasi), len(leads) > 1)
    assert value is None or value == (leads.pop() if leads else 0)


def check_default_period(data):
    name = data.draw(st.sampled_from(PERIOD_ALGEBRAS))
    rs = build_root_system(name[0], int(name[1])) if name[0] in "ABCD" else build_root_system(name)
    period = answer_or_refuse(lambda: default_period(rs), rs.family not in ("A", "B", "C", "D"))
    if period is None or rs.rank > 3:
        return
    # the default fits every compatible triple: one drawn from a decomposition
    lam, mu = (data.draw(st.tuples(*[st.integers(0, 1)] * rs.rank)) for _ in range(2))
    nu = data.draw(st.sampled_from(sorted(tensor_decompose(rs, lam, mu))))
    quasi, samples = stretching_quasi_polynomial(rs, lam, mu, nu)
    assert quasi.period == period and fits(quasi, samples, polytope_degree(rs.family, rs.rank), period)


def check_stretching_samples(data):
    rs, top = STRETCH_ALGEBRAS[data.draw(st.sampled_from(sorted(STRETCH_ALGEBRAS)))]
    weights = [data.draw(drawn_labels(rs.rank, top)) for _ in range(3)]
    dilation = st.one_of(st.integers(0, 3), st.integers(-3, -1), st.sampled_from([2.0, Q(2), True]))
    s_values = data.draw(st.one_of(st.lists(dilation, max_size=4), st.sampled_from([[], [0]])))
    refused = not dominant(rs, weights) or any(type(s) is not int or s < 0 for s in s_values)
    got = answer_or_refuse(lambda: stretching_samples(rs, *weights, s_values), refused)
    if got is not None:
        assert list(got) == list(dict.fromkeys(s_values))
        assert got == {s: klimyk_stretched(rs, weights, s) for s in s_values}


def check_stretching_quasi_polynomial(data):
    rs, top = STRETCH_ALGEBRAS[data.draw(st.sampled_from(sorted(STRETCH_ALGEBRAS)))]
    weights = [data.draw(drawn_labels(rs.rank, top)) for _ in range(3)]
    period = data.draw(st.one_of(st.none(), st.integers(-1, 2)))
    smax = data.draw(st.one_of(st.none(), st.integers(-1, 8)))
    degree = polytope_degree(rs.family, rs.rank)
    p = period if period is not None else {"A": 1, "B": 2}.get(rs.family)
    if period is None and p is not None and dominant(rs, weights):
        # the default period times the order of lam + mu - nu modulo the root lattice
        p *= next(k for k in range(1, 5) if is_compatible(rs, *(tuple(k * int(v) for v in w) for w in weights)))
    expected = None
    if dominant(rs, weights) and p is not None and p >= 1:
        n = smax if smax is not None else p * (degree + 1)
        expected = stretching_samples(rs, *weights, range(1, n + 1))
        if any(expected.values()):
            expected[0] = 1
    refused = expected is None or fit_refused(expected, degree, p)
    got = answer_or_refuse(lambda: stretching_quasi_polynomial(rs, *weights, period=period, smax=smax), refused)
    if got is not None:
        quasi, samples = got
        assert samples == expected and fits(quasi, samples, degree, p)
        assert all(samples[s] == klimyk_stretched(rs, weights, s) for s in samples if s <= 2)


EHRHART_ENTRY_POINTS = {check.__name__.removeprefix("check_"): check for check in (
    check_fit_quasi_polynomial, check_leading_coefficient, check_default_period,
    check_stretching_samples, check_stretching_quasi_polynomial)}


@pytest.mark.parametrize("entry", sorted(EHRHART_ENTRY_POINTS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_ehrhart_entry_points_answer_or_refuse(entry, data):
    """Each entry point answers rightly or refuses with a ValueError (or an InvariantError).

    Refused: a degree below 0 or a period below 1, P(0) other than 1, a
    residue class with too few samples, samples no fit of the declared shape
    reproduces, leading coefficients that differ across nonzero classes, an
    algebra without a default period, weights that are not dominant integral
    labels of the algebra's rank, and a dilation s that is not an int >= 0.
    Answers are checked against Klimyk's multiplicities, a Vandermonde solve
    and, for the default period, a fit of a compatible triple.  Nothing else
    escapes.
    """
    EHRHART_ENTRY_POINTS[entry](data)
