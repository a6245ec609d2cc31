"""Acceptance suite: one test and one printed pass/fail line per criterion.

Every criterion runs by default, the B3 kissinger coefficient and the E7/E8
covolumes included.
"""

import itertools
import random
import time
from fractions import Fraction as Q

from hornvol.bzpolytope import (
    boundary_interior_counts,
    bz_polygon_b2,
    lattice_point_count,
    pick_relation_check,
)
from hornvol.covolume import covolume_report, covolume_table
from hornvol.ehrhart import (
    leading_coefficient,
    stretching_quasi_polynomial,
)
from hornvol.multiplicity import lr_klimyk, lr_steinberg, tensor_decompose
from hornvol.rootsys import (
    apply_weyl,
    build_root_system,
    weyl_dimension,
    weyl_group,
)
from hornvol.volume import (
    b2_dynkin_to_ortho,
    horn_polygon,
    j_b2,
    j_lr_shifted,
    j_lr_unshifted,
    kappa_coefficient_sets,
    kissinger_quasi_polynomial,
    pdf_normalization_integral,
    piecewise_analyze_b2,
    singular_lines_b2,
)

from horn_reference import c1_wall_discrepancies
from polygon_reference import contains

B2 = build_root_system("B", 2)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_triple_agreement_exhaustive():
    """Klimyk = Steinberg = BZ count for every compatible B2 triple, labels <= 8."""
    t0 = time.time()
    labels = range(9)
    triples = 0
    for lam in itertools.product(labels, labels):
        for mu in itertools.product(labels, labels):
            td = tensor_decompose(B2, lam, mu)
            parity = (lam[1] + mu[1]) % 2
            for nu in itertools.product(labels, labels):
                if nu[1] % 2 != parity:
                    continue
                triples += 1
                c_klimyk = td.get(nu, 0)
                c_steinberg = lr_steinberg(B2, lam, mu, nu)
                if c_klimyk != c_steinberg:
                    report(1, False, f"Klimyk {c_klimyk} != Steinberg {c_steinberg} at {lam},{mu},{nu}")
                c_bz = lattice_point_count(bz_polygon_b2(lam, mu, nu))
                if c_klimyk != c_bz:
                    report(1, False, f"Klimyk {c_klimyk} != BZ {c_bz} at {lam},{mu},{nu}")
    elapsed = time.time() - t0
    report(1, elapsed < 300, f"{triples} compatible triples agree across all three algorithms in {elapsed:.0f}s (< 5 min)")


def test_criterion_02_reference_multiplicities():
    pinned = [
        ((5, 6), (3, 4), (5, 6), 10),
        ((5, 6), (3, 4), (6, 4), 10),
        ((5, 6), (3, 4), (2, 10), 8),
        ((5, 6), (3, 4), (0, 10), 3),
        ((4, 7), (5, 3), (2, 4), 5),
    ]
    ok = True
    for lam, mu, nu, want in pinned:
        got_k = lr_klimyk(B2, lam, mu, nu)
        got_s = lr_steinberg(B2, lam, mu, nu)
        if not got_k == got_s == want:
            ok = False
    report(2, ok, "C(5,6)(3,4)->{(5,6):10,(6,4):10,(2,10):8,(0,10):3}, C(4,7)(5,3)^(2,4)=5")


def test_criterion_03_quasi_polynomials():
    t0 = time.time()
    pinned = {
        (5, 6): {0: (Q(1), Q(7, 2), Q(6)), 1: (Q(1, 2), Q(7, 2), Q(6))},
        (6, 4): {0: (Q(1), Q(7, 2), Q(11, 2)), 1: (Q(1), Q(7, 2), Q(11, 2))},
        (2, 10): {0: (Q(1), Q(7, 2), Q(7, 2)), 1: (Q(1), Q(7, 2), Q(7, 2))},
    }
    ok = True
    for nu, coeffs in pinned.items():
        quasi, _ = stretching_quasi_polynomial(B2, (5, 6), (3, 4), nu)
        if quasi.coeffs != coeffs:
            ok = False
    quasi, samples = stretching_quasi_polynomial(B2, (4, 7), (5, 3), (2, 4))
    ok &= [samples[s] for s in (0, 2, 4)] == [1, 13, 39]
    ok &= [samples[s] for s in (1, 3, 5)] == [5, 24, 57]
    ok &= quasi.coeffs[0] == (Q(1), Q(5, 2), Q(7, 4))
    ok &= quasi.coeffs[1] == (Q(3, 4), Q(5, 2), Q(7, 4))
    elapsed = time.time() - t0
    report(3, ok and elapsed < 60, f"all four stretching quasi-polynomials match the reference forms ({elapsed:.1f}s)")


def test_criterion_04_four_route_volume_agreement():
    def routes(lam, mu, nu):
        direct = j_b2(b2_dynkin_to_ortho(lam), b2_dynkin_to_ortho(mu), b2_dynkin_to_ortho(nu))
        lr = j_lr_unshifted(lam, mu, nu)
        quasi, _ = stretching_quasi_polynomial(B2, lam, mu, nu)
        ehr = leading_coefficient(quasi)
        P = bz_polygon_b2(lam, mu, nu)
        area = P.area() if P.dim == 2 else Q(0)
        return {direct, lr, ehr, area}

    ok = routes((4, 7), (5, 3), (2, 4)) == {Q(7, 4)}
    ok &= routes((5, 6), (3, 4), (5, 6)) == {Q(6)}
    rng = random.Random(2024)
    swept = 0
    while swept < 200:
        lam = (rng.randint(1, 6), rng.randint(1, 6))
        mu = (rng.randint(1, 6), rng.randint(1, 6))
        nu = (rng.randint(1, 6), rng.randint(1, 6))
        if (lam[1] + mu[1] - nu[1]) % 2:
            continue
        swept += 1
        vals = routes(lam, mu, nu)
        if len(vals) != 1:
            report(4, False, f"route disagreement at {lam},{mu},{nu}: {vals}")
        # the shifted identity: J at rho-shifted arguments equals the K-weighted sum
        shifted = [b2_dynkin_to_ortho(tuple(v + 1 for v in w)) for w in (lam, mu, nu)]
        if j_b2(*shifted) != j_lr_shifted(lam, mu, nu):
            report(4, False, f"shifted J-LR identity fails at {lam},{mu},{nu}")
    report(4, ok, f"direct = LR sum = Ehrhart lead = area (7/4 and 6 pinned; {swept} random triples)")


def test_criterion_05_coefficient_recovery():
    quasi, samples = kissinger_quasi_polynomial(B2, (0, 0))
    ok = quasi.coeffs[0] == (Q(1), Q(3, 4), Q(3, 8))
    ok &= quasi.coeffs[1] == (Q(0), Q(0), Q(0))
    ok &= all(samples[s] == 0 for s in (1, 3, 5))
    ok &= leading_coefficient(quasi) == Q(3, 8)
    quasi_hat, _ = kissinger_quasi_polynomial(B2, (0, 1))
    ok &= leading_coefficient(quasi_hat) == Q(1, 4)

    K2, Khat2 = kappa_coefficient_sets(B2)
    ok &= sum(c * weyl_dimension(B2, k) for k, c in K2.items()) == 1
    ok &= Q(3, 8) * 1 + Q(1, 8) * 5 == 1

    b3 = build_root_system("B", 3)
    K3, Khat3 = kappa_coefficient_sets(b3)
    dims = {k: weyl_dimension(b3, k) for k in K3}
    ok &= sorted(dims.values()) == sorted([1, 7, 21, 27, 35, 105, 189])
    ok &= sum(Q(92160) * c * dims[k] for k, c in K3.items()) == 92160
    dims_hat = {k: weyl_dimension(b3, k) for k in Khat3}
    ok &= sum(c * dims_hat[k] for k, c in Khat3.items()) == 1
    report(5, ok, "c_(0,0)=3/8 (3s^2/8+3s/4+1 even, 0 odd), c-hat_(0,1)=1/4, B2/B3 sum rules exact")


def test_criterion_05_slow_b3_coefficient():
    t0 = time.time()
    b3 = build_root_system("B", 3)
    quasi, _ = kissinger_quasi_polynomial(b3, (0, 0, 0))
    ok = quasi.coeffs[0] == (Q(1), Q(2), Q(523, 192), Q(19, 8), Q(4165, 3072), Q(241, 512), Q(241, 3072))
    ok &= quasi.coeffs[2] == (
        Q(35, 64), Q(19, 16), Q(839, 384), Q(281, 128), Q(4165, 3072), Q(241, 512), Q(241, 3072)
    )
    ok &= quasi.class_is_zero(1) and quasi.class_is_zero(3)
    ok &= leading_coefficient(quasi) == Q(241, 3072)
    elapsed = time.time() - t0
    report(5, ok and elapsed < 1800, f"B3 c_(0,0,0) = 241/3072, both even-class polynomials verbatim ({elapsed:.0f}s)")


def test_criterion_06_reciprocity_and_pick():
    ok = True
    interiors = []
    for nu in ((5, 6), (6, 4), (2, 10)):
        quasi, _ = stretching_quasi_polynomial(B2, (5, 6), (3, 4), nu)
        interiors.append(quasi.evaluate(-1))
        P = bz_polygon_b2((5, 6), (3, 4), nu)
        ok &= quasi.evaluate(-1) == boundary_interior_counts(P)[1]
    ok &= interiors == [3, 3, 1]
    rep1 = pick_relation_check(bz_polygon_b2((5, 6), (3, 4), (5, 6)))
    ok &= rep1.p == Q(3, 4) and rep1.holds
    rep3 = pick_relation_check(bz_polygon_b2((5, 6), (3, 4), (2, 10)))
    ok &= rep3.p == 1 and rep3.holds
    # L = b across a sweep of all dim-2 polygons with labels <= 3
    swept = 0
    for lam in itertools.product(range(4), range(4)):
        for mu in itertools.product(range(4), range(4)):
            for nu in itertools.product(range(4), range(4)):
                if (lam[1] + mu[1] - nu[1]) % 2:
                    continue
                P = bz_polygon_b2(lam, mu, nu)
                if P.dim != 2:
                    continue
                swept += 1
                rep = pick_relation_check(P)
                if rep.L is None or rep.L != rep.boundary:
                    report(6, False, f"L != b at {lam},{mu},{nu}: {rep}")
    report(6, ok, f"Q(-1) = (3,3,1); p = 3/4 and p = 1 (Pick holds); L = b on {swept} swept polygons")


def test_criterion_07_covolumes():
    t0 = time.time()
    reports = covolume_table(max_rank=8)
    bad = [r for r in reports if not r.agree]
    elapsed = time.time() - t0
    report(7, not bad and elapsed < 60,
           f"Gram = formula = table for A-D up to rank 8 and G2, F4, E6 ({len(reports)} cases, {elapsed:.1f}s)")


def test_criterion_07_slow_e7_e8():
    e7 = covolume_report("E7")
    e8 = covolume_report("E8")
    ok = e7.agree and e7.delta_gram == 2**6 * 3**14
    ok &= e8.agree and e8.delta_gram == 2**8 * 3**8 * 5**8
    report(7, ok, "E7 = 2^6 3^14 and E8 = 2^8 3^8 5^8 agree")


def test_criterion_08_piecewise_structure():
    pw = piecewise_analyze_b2((17, 4), (15, 9))
    ok = not pw.violations()
    # every wall is a +-(1/2)Delta^2 ramp, inactive, or linear on the dashed walls
    for w in pw.walls:
        ok &= w.classification in ("quadratic-ramp", "inactive", "boundary-quadratic", "boundary-linear")
    # C1: one-sided finite-difference gradients agree within 10h
    h = Q(1, 10000)
    disc = c1_wall_discrepancies(pw)
    worst = max(d for _, d in disc)
    ok &= bool(disc) and worst <= 10 * h
    # every active non-analyticity lies on a candidate line of the reference list
    candidates = {(l.kind, l.level) for l in singular_lines_b2(pw.alpha, pw.beta)}
    for w in pw.walls:
        if w.classification == "quadratic-ramp" and w.jump_sign != 0:
            ok &= (w.kind, w.level) in candidates
    report(8, ok, f"{len(pw.cells)} quadratic cells, all jumps +-Delta^2/2 or dashed-linear, "
                  f"C1 worst discrepancy {float(worst):.2e} <= 10h = {float(10 * h):.0e}")


def test_criterion_09_pdf_normalization():
    pairs = [
        ((Q(17), Q(4)), (Q(15), Q(9))),
        ((Q(15), Q(3)), (Q(17), Q(8))),
        ((Q(11, 2), Q(3, 2)), (Q(5), Q(2))),
        ((Q(9), Q(4)), (Q(7), Q(2))),
        ((Q(12), Q(5)), (Q(10), Q(3))),
    ]
    ok = True
    for alpha, beta in pairs:
        if pdf_normalization_integral(alpha, beta) != 1:
            ok = False
    report(9, ok, f"exact symbolic PDF integral over the Horn polygon = 1 for {len(pairs)} (alpha, beta) pairs")


def test_criterion_10_monte_carlo():
    from hornvol.sampler import (
        chi_square_vs_pdf,
        ks_distance_so2,
        sample_b2_spectrum,
        so2_samples,
    )

    t0 = time.time()
    N = 10**6
    hist = sample_b2_spectrum((17, 4), (15, 9), N, seed=7, bins=40)
    ok = hist.samples_outside_support == 0
    summary = chi_square_vs_pdf(hist, (17, 4), (15, 9))
    ok &= summary.p_value > 1e-3
    ks = ks_distance_so2(so2_samples(1, 2, N, seed=7), 1, 2)
    ok &= ks < 0.005
    elapsed = time.time() - t0
    report(10, ok and elapsed < 300,
           f"10^6 samples all inside Horn polygon; chi^2 p = {summary.p_value:.3f} > 1e-3; "
           f"SO(2) KS = {ks:.5f} < 0.005 ({elapsed:.0f}s)")


def test_criterion_11_invariant_suites():
    rng = random.Random(77)
    ok = True
    # Weyl skew-invariance and alpha <-> beta symmetry
    for _ in range(6):
        a = (Q(rng.randint(-15, 15), rng.randint(1, 4)), Q(rng.randint(-15, 15), rng.randint(1, 4)))
        b = (Q(rng.randint(-15, 15), rng.randint(1, 4)), Q(rng.randint(-15, 15), rng.randint(1, 4)))
        g = (Q(rng.randint(-15, 15), rng.randint(1, 4)), Q(rng.randint(-15, 15), rng.randint(1, 4)))
        base = j_b2(a, b, g)
        ok &= j_b2(b, a, g) == base
        for w in weyl_group(B2):
            ok &= j_b2(apply_weyl(B2, w, a), b, g) == w.sign * base
    # s^2 homogeneity, rational s > 0
    a, b, g = (Q(17), Q(4)), (Q(15), Q(9)), (Q(20), Q(7))
    base = j_b2(a, b, g)
    for s in (Q(2), Q(1, 2), Q(7, 3)):
        ok &= j_b2((a[0] * s, a[1] * s), (b[0] * s, b[1] * s), (g[0] * s, g[1] * s)) == s * s * base
    # positivity at 500 interior points, zero outside support
    poly = horn_polygon((Q(17), Q(4)), (Q(15), Q(9)))
    inside = outside = 0
    while inside < 500 or outside < 100:
        p = (Q(rng.randint(0, 320), 8), Q(rng.randint(0, 200), 8))
        if contains(poly, p, strict=True):
            inside += 1
            ok &= j_b2(a, b, p) > 0
        elif p[0] >= p[1] >= 0 and not contains(poly, p):
            outside += 1
            ok &= j_b2(a, b, p) == 0
    report(11, ok, "skew-invariance, symmetry, homogeneity, positivity at 500 interior points, "
                   "zero outside support: all exact")
