"""The three benchmark workloads: seeded inputs, the timed call, the checks.

Every workload is a closed loop with one caller: an item starts after the
previous one has finished.  Inputs depend only on the seed and the number of
units; the program receives only the generated inputs.  The size proxies
used to stratify inputs are computed here rather than by hornvol, so the
inputs never depend on the program being measured.  Nothing here imports
hornvol at module import time, so the setup probe can time that import.

A check returns (exact_ok, all_ok).  exact_ok is False when two exact routes
disagree, which makes the run incorrect.  all_ok also covers the statistical
tests and the wall classification; items with all_ok False, and items that
raise, are counted as failed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q


def setup(workload: str) -> None:
    """Import hornvol and build the root systems and Weyl groups the workload uses."""
    import hornvol  # noqa: F401
    from hornvol.rootsys import build_root_system, weyl_group

    algebras = [("B", 2)]
    if workload == "volume_cli":
        import hornvol.cli  # noqa: F401
        algebras.append(("B", 3))
    elif workload == "horn_pdf":
        import hornvol.sampler  # noqa: F401
    for family, rank in algebras:
        weyl_group(build_root_system(family, rank))


def stratified(rng: random.Random, population: list, k: int) -> list:
    """One random member of each of k equal slices of a sorted population, shuffled.

    Sorting the population by a size proxy first gives every seed the same
    spread of sizes, which keeps the per-run figures comparable across seeds.
    """
    edges = [round(j * len(population) / k) for j in range(k + 1)]
    picks = [rng.choice(population[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    rng.shuffle(picks)
    return picks


# ---------------------------------------------------------------------------
# lr_sweep: Klimyk (tensor_decompose) = Steinberg = BZ lattice count


@dataclass(frozen=True)
class Triple:
    lam: tuple[int, ...]
    mu: tuple[int, ...]
    nu: tuple[int, ...]
    first: bool = False          # first triple of its (lam, mu) pair


def _b2_dim(w) -> int:
    a, b = w
    return (a + 1) * (b + 1) * (a + b + 2) * (2 * a + b + 3) // 6


class LrSweep:
    """One unit is one (lam, mu) pair; one item is one triple of it.

    The pairs are a stratified sample of all 81 x 81 pairs, sorted by the
    dimensions of the two factors; the smaller one sets the cost of
    tensor_decompose, which runs in the first triple of each pair.
    """

    name = "lr_sweep"
    units_per_second = 15        # pairs per second of --seconds
    chunk = 500                  # triples per work_per_s chunk

    def inputs(self, seed: int, units: int) -> list[Triple]:
        rng = random.Random(seed)
        weights = [(a, b) for a in range(9) for b in range(9)]
        everything = sorted(
            ((lam, mu) for lam in weights for mu in weights),
            key=lambda p: (min(_b2_dim(p[0]), _b2_dim(p[1])), max(_b2_dim(p[0]), _b2_dim(p[1])), p))
        items = []
        for lam, mu in stratified(rng, everything, units):
            parity = (lam[1] + mu[1]) % 2
            nus = [nu for nu in weights if nu[1] % 2 == parity]
            items.extend(Triple(lam, mu, nu, k == 0) for k, nu in enumerate(nus))
        return items

    def start(self) -> None:
        from hornvol import bzpolytope, multiplicity, rootsys

        self.mod = multiplicity
        self.bz = bzpolytope
        self.b2 = rootsys.build_root_system("B", 2)
        self.decomposition: dict = {}

    def run(self, t: Triple):
        if t.first:
            self.decomposition = self.mod.tensor_decompose(self.b2, t.lam, t.mu)
        klimyk = self.decomposition.get(t.nu, 0)
        steinberg = self.mod.lr_steinberg(self.b2, t.lam, t.mu, t.nu)
        bz = self.bz.lattice_point_count(self.bz.bz_polygon_b2(t.lam, t.mu, t.nu))
        return klimyk, steinberg, bz

    def check(self, t: Triple, out, counters) -> tuple[bool, bool]:
        klimyk, steinberg, bz = out
        counters["multiplicity.triples"] += 1
        counters["multiplicity.nonzero"] += klimyk != 0
        ok = klimyk == steinberg == bz
        return ok, ok


# ---------------------------------------------------------------------------
# volume_cli: hornvol volume (four routes on B2, two on B3) in-process


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    algebra: str
    lam: tuple[int, ...]
    mu: tuple[int, ...]
    nu: tuple[int, ...]


def _b3_stretched_box(lam, mu, nu, s: int = 14) -> Q:
    """Cells of the box [0, s (lam + mu - nu)] in B3 simple-root coordinates."""
    d1, d2, d3 = (l + m - n for l, m, n in zip(lam, mu, nu))
    cells = Q(1)
    for c in (d1 + d2 + Q(d3, 2), d1 + 2 * d2 + d3, d1 + 2 * d2 + Q(3 * d3, 2)):
        cells *= max(s * c + 1, 1)
    return cells


def _labels(w) -> str:
    return ",".join(str(v) for v in w)


class VolumeCli:
    """One unit is a block of `period` CLI calls: one B3 volume call, one
    B3 lr --method steinberg call, and B2 volume calls for the rest.

    B2 labels are 1..8 and B3 labels 1..2, so every weight dominates rho and
    the lr route runs next to ehrhart.  The block size puts about a third of
    the time on B3.  The B3 triples of each kind are a stratified sample of
    all 256 compatible ones, sorted by the box of Kostant arguments of the
    most stretched triple the Ehrhart fit evaluates (s = 14).  The first
    volume call is always one of the triples with the largest box, whose
    Kostant table sets the peak memory of the run.
    """

    name = "volume_cli"
    period = 64
    units_per_second = 0.3       # blocks per second of --seconds
    chunk = period

    def inputs(self, seed: int, units: int) -> list[CliCall]:
        rng = random.Random(seed)
        ones_twos = list(itertools.product((1, 2), repeat=3))
        b3 = sorted(
            ((lam, mu, nu) for lam in ones_twos for mu in ones_twos for nu in ones_twos
             if (lam[2] + mu[2] + nu[2]) % 2 == 0),
            key=lambda t: (_b3_stretched_box(*t), t))
        largest = [t for t in b3 if _b3_stretched_box(*t) == _b3_stretched_box(*b3[-1])]
        volume_b3 = [rng.choice(largest)] + (stratified(rng, b3, units - 1) if units > 1 else [])
        b3_picks = {0: volume_b3, self.period // 2: stratified(rng, b3, units)}
        items = []
        for i in range(units * self.period):
            pos = i % self.period
            if pos in b3_picks:
                lam, mu, nu = b3_picks[pos][i // self.period]
                algebra = "B3"
            else:
                lam = (rng.randint(1, 8), rng.randint(1, 8))
                mu = (rng.randint(1, 8), rng.randint(1, 8))
                parity = (lam[1] + mu[1]) % 2
                nu = (rng.randint(1, 8), rng.choice([v for v in range(1, 9) if v % 2 == parity]))
                algebra = "B2"
            if pos == self.period // 2:
                argv = ("lr", algebra, _labels(lam), _labels(mu), _labels(nu),
                        "--method", "steinberg", "--format", "json")
            else:
                argv = ("volume", algebra, _labels(lam), _labels(mu), _labels(nu), "--format", "json")
            items.append(CliCall(argv, algebra, lam, mu, nu))
        return items

    def start(self) -> None:
        from hornvol import cli

        self.cli = cli

    def run(self, call: CliCall):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(call.argv))
        return code, out.getvalue()

    def check(self, call: CliCall, out, counters) -> tuple[bool, bool]:
        code, text = out
        counters["cli.exit_nonzero"] += code != 0
        if code == 2:
            return True, False
        payload = json.loads(text)
        exact_ok = code == 0 and payload["agree"] is True
        if call.argv[0] == "lr":
            from hornvol.multiplicity import lr_steinberg_table
            from hornvol.rootsys import build_root_system

            value = payload["multiplicity"]["steinberg"]
            reference = lr_steinberg_table(build_root_system("B", 3), call.lam, call.mu, call.nu)
            counters["multiplicity.triples"] += 1
            counters["multiplicity.nonzero"] += value != 0
            exact_ok = exact_ok and value == reference
        return exact_ok, exact_ok


# ---------------------------------------------------------------------------
# horn_pdf: cell analysis, exact PDF integral, Monte Carlo against it


CRITERION_9_PAIRS = (
    ((Q(17), Q(4)), (Q(15), Q(9))),
    ((Q(15), Q(3)), (Q(17), Q(8))),
    ((Q(11, 2), Q(3, 2)), (Q(5), Q(2))),
    ((Q(9), Q(4)), (Q(7), Q(2))),
    ((Q(12), Q(5)), (Q(10), Q(3))),
)


@dataclass(frozen=True)
class HornPair:
    alpha: tuple[Q, Q]
    beta: tuple[Q, Q]
    sample_seed: int


@dataclass
class HornResult:
    cells: int
    walls: int
    violations: int
    integral: Q
    b2_outside: int
    p_value: float
    so2: object
    ks: float


def _candidate_levels(alpha, beta) -> int:
    """Distinct levels among the 20 candidate singular lines (coincident lines merge)."""
    a1, a2 = alpha
    b1, b2 = beta
    kinds = (
        (a1 + b2, a2 + b1, a2 + b2, abs(a1 - b2), abs(a2 - b1)),
        (a2 + b2, abs(a1 - b2), abs(a2 - b1), abs(a2 - b2), abs(a1 - b1)),
        (a1 + a2 + b1 - b2, abs(a1 + a2 - b1 + b2), a1 - a2 + b1 + b2, abs(-a1 + a2 + b1 + b2), a1 - a2 + b1 - b2),
        (abs(-a1 + a2 + b1 + b2), abs(a1 + a2 - b1 + b2), a1 - a2 + b1 - b2, abs(a1 - a2 - b1 + b2), abs(a1 + a2 - b1 - b2)),
    )
    return sum(len(set(levels)) for levels in kinds)


class HornPdf:
    """One unit is a block of five pairs: one criterion-9 pair, in turn, and
    four random regular pairs with coordinates in halves up to 5.

    The random pairs are a stratified sample of all such pairs, sorted by
    how many distinct candidate singular lines they have (fewer lines, fewer
    cells, cheaper) and then by size.  Pairs are not filtered for genericity.
    """

    name = "horn_pdf"
    block = 5
    units_per_second = 1 / 6     # blocks per second of --seconds
    # items take seconds, so a scheduler stall cannot set a chunk; a chunk is
    # one turn through all five criterion-9 pairs, whose costs differ by 2x
    chunk = block * len(CRITERION_9_PAIRS)
    samples = 40_000             # B2 and SO(2) samples per pair
    max_half = 10                # random coordinates are k/2, 1 <= k <= max_half

    def inputs(self, seed: int, units: int) -> list[HornPair]:
        rng = random.Random(seed)
        halves = [(Q(hi, 2), Q(lo, 2)) for hi in range(1, self.max_half + 1) for lo in range(1, hi)]
        pool = sorted(((a, b) for a in halves for b in halves),
                      key=lambda p: (_candidate_levels(*p), sum(p[0]) + sum(p[1]), p))
        random_pairs = iter(stratified(rng, pool, units * (self.block - 1)))
        items = []
        for i in range(units * self.block):
            if i % self.block == 0:
                alpha, beta = CRITERION_9_PAIRS[(i // self.block) % len(CRITERION_9_PAIRS)]
            else:
                alpha, beta = next(random_pairs)
            items.append(HornPair(alpha, beta, rng.randrange(2**31)))
        return items

    def start(self) -> None:
        from hornvol import sampler, volume

        self.sampler = sampler
        self.volume = volume

    def run(self, p: HornPair) -> HornResult:
        vol, smp = self.volume, self.sampler
        pw = vol.piecewise_analyze_b2(p.alpha, p.beta)
        integral = vol.pdf_normalization_integral(p.alpha, p.beta, pw)
        hist = smp.sample_b2_spectrum(p.alpha, p.beta, self.samples, p.sample_seed)
        chi = smp.chi_square_vs_pdf(hist, p.alpha, p.beta, pw=pw)
        a12, b12 = p.alpha[0], p.beta[0]
        so2 = smp.so2_samples(a12, b12, self.samples, p.sample_seed)
        ks = smp.ks_distance_so2(so2, a12, b12)
        return HornResult(len(pw.cells), len(pw.walls), len(pw.violations()), integral,
                          hist.samples_outside_support, chi.p_value, so2, ks)

    def check(self, p: HornPair, r: HornResult, counters) -> tuple[bool, bool]:
        lo, hi = (float(v) for v in self.volume.so2_support(p.alpha[0], p.beta[0]))
        tol = self.sampler.MEMBERSHIP_TOL
        so2_outside = int(((r.so2 < lo - tol) | (r.so2 > hi + tol)).sum())
        counters["volume.piecewise.cells"] += r.cells
        counters["volume.piecewise.walls"] += r.walls
        counters["volume.piecewise.violation_walls"] += r.violations
        counters["sampler.samples"] += 2 * self.samples
        counters["sampler.outside_support"] += r.b2_outside + so2_outside
        # the KS threshold of `hornvol sample so2`
        ks_threshold = max(0.005, 1.949 / self.samples**0.5)
        checks = {
            "pdf_integral": r.integral == 1,
            "outside_support": r.b2_outside == 0 and so2_outside == 0,
            "violation_walls": r.violations == 0,
            "chi_square": r.p_value > 1e-3,
            "ks": r.ks < ks_threshold,
        }
        for name, ok in checks.items():
            counters[f"fail.{name}"] += not ok
        return checks["pdf_integral"] and checks["outside_support"], all(checks.values())


WORKLOADS = {w.name: w for w in (LrSweep, VolumeCli, HornPdf)}
