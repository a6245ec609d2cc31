"""Command-line surface: lr, volume, grid, ehrhart, covolume, sample.

Weights are comma-separated Dynkin labels.  The gamma-plane commands (grid,
sample b2) read alpha and beta in orthonormal coordinates by default, which
is the basis the Horn inequalities and singular lines are stated in; pass
--basis dynkin to convert.  Exact rationals are always printed as p/q.

Every subcommand is deterministic given its flags (plus seed) and exits
nonzero when an internal cross-check fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction as Q
from functools import cache
from json.encoder import encode_basestring_ascii

from ._exact import InvariantError
from .bzpolytope import (
    bz_polygon_b2,
    clip_cell,
    degeneracy_info,
    lattice_point_count,
    pick_relation_check,
)
from .covolume import covolume_markdown, covolume_report, covolume_table
from .ehrhart import NoDefaultPeriodError, leading_coefficient, stretching_quasi_polynomial
from .multiplicity import lr_klimyk, lr_steinberg
from .rootsys import (
    CLASSICAL_MIN_RANK,
    EXCEPTIONAL_RANK,
    build_root_system,
    is_compatible,
)
from .volume import (
    _CHAMBER_WALLS,
    ROUTES,
    _edge_line,
    _in_slabs,
    b2_dynkin_to_ortho,
    delta_b2,
    horn_polygon,
    horn_slabs,
    j_b2,
    pdf_scale,
    piecewise_analyze_b2,
    singular_lines_b2,
    volume_routes,
)

SCHEMA_VERSION = 1


class CliError(Exception):
    pass


def parse_algebra(token: str):
    token = token.strip().upper()
    if token in EXCEPTIONAL_RANK:
        return build_root_system(token)
    if len(token) >= 2 and token[0] in "ABCD" and token[1:].isdigit():
        return build_root_system(token[0], int(token[1:]))
    raise CliError(f"cannot parse algebra {token!r} (expected e.g. B2, A3, G2)")


def _rational(token: str) -> Q:
    try:
        return Q(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse {token!r} as a rational") from exc


def _label(token: str) -> int | Q:
    """The token as an int where int() reads it, else as _rational reads it.

    int() accepts a subset of the tokens Fraction accepts, with the same value.
    """
    try:
        return int(token)
    except ValueError:
        return _rational(token)


def parse_weight(token: str, rank: int) -> tuple[int | Q, ...]:
    parts = token.split(",")
    if len(parts) != rank:
        raise CliError(f"weight {token!r} needs {rank} comma-separated labels")
    return tuple(map(_label, parts))


def parse_pair(token: str) -> tuple[Q, Q]:
    parts = token.split(",")
    if len(parts) != 2:
        raise CliError(f"{token!r}: expected two comma-separated rationals")
    return (_rational(parts[0]), _rational(parts[1]))


def parse_triple(rs, args) -> tuple[tuple[int, ...], ...]:
    """args.lam, args.mu and args.nu as integer Dynkin labels of rs."""
    return tuple(rs.labels(parse_weight(t, rs.rank)) for t in (args.lam, args.mu, args.nu))


def _write_json(obj, out: list[str], pad: str) -> None:
    """Append to out the text json.dumps(obj, indent=2, sort_keys=True) gives, its first line unindented.

    Containers are written here: dicts with their items sorted by key,
    lists and tuples in order, empty ones as {} and [].  Keys must be str (a
    key of another type raises TypeError; json would convert some, but no
    payload has one).  str, int, bool and None leaves are formatted
    directly, str by json's own ASCII escaper (and without a call of their
    own inside a container, the commonest case); every other leaf (floats,
    NaN, +-inf, and whatever json refuses) goes to json.dumps, so it prints
    or raises exactly as there.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in sorted(obj.items()):
            if isinstance(v, str):
                out.append(sep + encode_basestring_ascii(k) + ": " + encode_basestring_ascii(v))
            else:
                out.append(sep + encode_basestring_ascii(k) + ": ")
                _write_json(v, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for v in obj:
            if isinstance(v, str):
                out.append(sep + encode_basestring_ascii(v))
            else:
                out.append(sep)
                _write_json(v, out, inner)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        out.append(json.dumps(obj))


def _emit_json(payload: dict, stream) -> None:
    """Write the payload, with schema_version, as json.dumps(indent=2, sort_keys=True) would, plus a newline.

    _write_json builds the text in a little over half the time of json's
    pure-Python indenting encoder; tests/test_cli.py checks that the two agree.
    """
    out: list[str] = []
    _write_json({"schema_version": SCHEMA_VERSION, **payload}, out, "")
    out.append("\n")
    stream.write("".join(out))


# ---------------------------------------------------------------------------
# lr


def cmd_lr(args) -> int:
    rs = parse_algebra(args.algebra)
    lam, mu, nu = parse_triple(rs, args)
    is_b2 = (rs.family, rs.rank) == ("B", 2)
    if args.method == "all":
        methods = ["klimyk", "steinberg", "bz"] if is_b2 else ["klimyk", "steinberg"]
    else:
        methods = [args.method]
    if "bz" in methods and not is_b2:
        raise CliError("the bz method is only available for B2")
    values = {}
    for m in methods:
        if m == "klimyk":
            values[m] = lr_klimyk(rs, lam, mu, nu)
        elif m == "steinberg":
            values[m] = lr_steinberg(rs, lam, mu, nu)
        else:
            values[m] = lattice_point_count(bz_polygon_b2(lam, mu, nu))
    agree = len(set(values.values())) == 1
    if args.format == "json":
        _emit_json(
            {"algebra": args.algebra, "lam": lam, "mu": mu, "nu": nu,
             "multiplicity": values, "agree": agree},
            sys.stdout,
        )
    else:
        for m in methods:
            print(f"{m}: {values[m]}")
        if len(values) > 1:
            print(f"agree: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# volume


def cmd_volume(args) -> int:
    rs = parse_algebra(args.algebra)
    lam, mu, nu = parse_triple(rs, args)
    routes = None if args.route == "all" else (args.route,)
    if args.route in ("all", "lr", "ehrhart") and not is_compatible(rs, lam, mu, nu):
        raise CliError("routes lr and ehrhart need a compatible triple")
    try:
        vr = volume_routes(lam, mu, nu, routes, rs=rs)
    except NoDefaultPeriodError as exc:
        raise CliError(
            f"{exc}; volume has no --period, run "
            f"'hornvol ehrhart {args.algebra} {args.lam} {args.mu} {args.nu} --period N'"
        ) from exc
    values = vr.values()
    agree = vr.agree()
    payload = {
        "algebra": args.algebra,
        "lam": lam, "mu": mu, "nu": nu,
        "volume": {k: str(v) for k, v in values.items()},
        "agree": agree,
    }
    if vr.skipped:
        payload["skipped"] = vr.skipped
    degen = None
    if (rs.family, rs.rank) == ("B", 2):
        P = vr.bz_polygon or bz_polygon_b2(lam, mu, nu)
        degen = degeneracy_info(P)
        payload["polygon"] = {"degeneracy": str(degen), **P.to_json_dict()}
        if degen.kind == "Full":
            pick = pick_relation_check(P)
            payload["polygon"]["lattice_points"] = pick.count
            payload["polygon"]["boundary_points"] = pick.boundary
            payload["polygon"]["interior_points"] = pick.interior
            payload["polygon"]["pick_p"] = str(pick.p) if pick.p is not None else None
    if args.format == "json":
        _emit_json(payload, sys.stdout)
    else:
        for k, v in values.items():
            print(f"{k}: {v}")
        for k, why in vr.skipped.items():
            print(f"{k}: skipped ({why})")
        if degen is not None:
            print(f"degeneracy: {degen}")
        if len(values) > 1:
            print(f"agree: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# grid


def _gamma_basis_pair(token: str, basis: str) -> tuple[Q, Q]:
    pair = parse_pair(token)
    if basis == "dynkin":
        return b2_dynkin_to_ortho(pair)
    return pair


def cmd_grid(args) -> int:
    if args.res < 1:
        raise CliError("--res must be >= 1")
    alpha = _gamma_basis_pair(args.alpha, args.basis)
    beta = _gamma_basis_pair(args.beta, args.basis)
    slabs = horn_slabs(alpha, beta)
    lines = singular_lines_b2(alpha, beta, within_horn=True)
    (x0, x1), (y0, y1) = slabs["g1"], slabs["g2"]
    res = args.res
    scale = pdf_scale(alpha, beta)

    def write_rows(fh):
        writer = csv.writer(fh)
        writer.writerow(["gamma1", "gamma2", "J", "pdf"])
        for i in range(res + 1):
            for j in range(res + 1):
                g = (x0 + (x1 - x0) * Q(i, res), y0 + (y1 - y0) * Q(j, res))
                jval = j_b2(alpha, beta, g) if _in_slabs(slabs, g) else Q(0)
                pval = scale * abs(delta_b2(g)) * jval
                writer.writerow([str(g[0]), str(g[1]), str(jval), str(pval)])

    if args.csv == "-":
        write_rows(sys.stdout)
    else:
        with open(args.csv, "w", newline="") as fh:
            write_rows(fh)
    pw = piecewise_analyze_b2(alpha, beta) if args.cells else None
    if pw is not None:
        with open(args.cells, "w") as fh:
            _emit_json(pw.to_json_dict(), fh)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(_grid_svg(horn_polygon(alpha, beta), slabs, lines, pw))
    return 0


def _grid_svg(poly, slabs, lines, pw=None) -> str:
    """The polygon, the cells of pw when given, its chamber walls and the singular lines, over its box: the g1
    and g2 slabs."""
    (x0, x1), (y0, y1) = ((float(lo), float(hi)) for lo, hi in (slabs["g1"], slabs["g2"]))
    W, H, M = 600.0, 450.0, 30.0
    sx = (W - 2 * M) / (x1 - x0)
    sy = (H - 2 * M) / (y1 - y0)

    def T(p):
        return (M + (float(p[0]) - x0) * sx, H - M - (float(p[1]) - y0) * sy)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{W:.0f}" height="{H:.0f}">',
    ]
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (T(v) for v in poly.vertices))
    out.append(f'<polygon points="{pts}" fill="#eeeeee" stroke="black" stroke-width="1.5"/>')
    if pw is not None:
        for cell in pw.cells:
            cpts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (T(v) for v in cell.vertices))
            out.append(f'<polygon points="{cpts}" fill="none" stroke="#bbbbbb" stroke-width="0.6"/>')
    # dashed chamber walls where they bound the polygon
    for p, q in zip(poly.vertices, poly.vertices[1:] + poly.vertices[:1]):
        if _edge_line(p, q) in _CHAMBER_WALLS:
            (xa, ya), (xb, yb) = T(p), T(q)
            out.append(
                f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
                'stroke="blue" stroke-width="2" stroke-dasharray="8,5"/>'
            )
    # each line crosses the interior (within_horn), so its chord has two ends
    for ln in lines:
        a, b = ln.normal
        chord = clip_cell(clip_cell(poly.vertices, a, b, ln.level), -a, -b, -ln.level)
        (xa, ya), (xb, yb) = T(min(chord)), T(max(chord))
        out.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            f'stroke="red" stroke-width="1.2"><title>{ln.kind} = {ln.level} ({ln.source})</title></line>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# ehrhart


def cmd_ehrhart(args) -> int:
    rs = parse_algebra(args.algebra)
    lam, mu, nu = parse_triple(rs, args)
    if not is_compatible(rs, lam, mu, nu):
        raise CliError(f"triple {lam}, {mu}, {nu} is not compatible (lam+mu-nu not in the root lattice)")
    try:
        quasi, samples = stretching_quasi_polynomial(rs, lam, mu, nu, period=args.period, smax=args.smax)
    except NoDefaultPeriodError as exc:
        raise CliError(f"{exc}; pass --period") from exc
    payload = {
        "algebra": args.algebra,
        "lam": lam, "mu": mu, "nu": nu,
        "samples": {str(s): v for s, v in sorted(samples.items())},
        "quasi_polynomial": quasi.to_json_dict(),
        "leading_coefficient": str(leading_coefficient(quasi)),
    }
    _emit_json(payload, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# covolume


def cmd_covolume(args) -> int:
    if args.family:
        fam = args.family.upper()
        if fam in EXCEPTIONAL_RANK:
            reports = [covolume_report(fam)]
        elif fam in CLASSICAL_MIN_RANK:
            minimum = CLASSICAL_MIN_RANK[fam]
            if args.max_rank < minimum:
                raise CliError(f"{fam}_r requires r >= {minimum}, but --max-rank is {args.max_rank}")
            reports = [covolume_report(fam, r) for r in range(minimum, args.max_rank + 1)]
        else:
            raise CliError(f"unknown family {args.family!r}")
    else:
        reports = covolume_table(max_rank=args.max_rank)
    ok = all(r.agree for r in reports)
    if args.format == "json":
        _emit_json({"reports": [r.to_json_dict() for r in reports], "agree": ok}, sys.stdout)
    else:
        sys.stdout.write(covolume_markdown(reports))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    from .sampler import (
        MIN_EXPECTED,
        chi_square_vs_pdf,
        ks_distance_so2,
        sample_b2_spectrum,
        so2_histogram,
        so2_samples,
    )

    if args.n_samples < 1:
        raise CliError("N must be >= 1")
    if args.bins < 1:
        raise CliError("--bins must be >= 1")
    n = args.n_samples
    # each mode gives its CSV columns and rows, its report entries and whether its checks pass
    if args.mode == "b2":
        alpha = _gamma_basis_pair(args.alpha, args.basis)
        beta = _gamma_basis_pair(args.beta, args.basis)
        hist = sample_b2_spectrum(alpha, beta, n, args.seed, bins=args.bins)
        summary = chi_square_vs_pdf(hist, alpha, beta)
        if summary.dof < 1:
            raise CliError(f"-N {n} samples on --bins {args.bins} leave the chi-square test no "
                           f"degrees of freedom: only {summary.bins_used} bin classes expect at least "
                           f"{MIN_EXPECTED:g} samples, and it needs two; raise -N or lower --bins")
        ex, ey = hist.edges
        area = (ex[1] - ex[0]) * (ey[1] - ey[0])
        columns = ["gamma1_center", "gamma2_center", "count", "density"]
        rows = [[f"{(ex[i] + ex[i+1]) / 2:.6f}", f"{(ey[j] + ey[j+1]) / 2:.6f}", int(c), f"{c / (n * area):.8g}"]
                for i, counts in enumerate(hist.counts) for j, c in enumerate(counts)]
        entries = {"chi_square": {"statistic": summary.statistic, "dof": summary.dof,
                                  "p_value": summary.p_value, "bins_used": summary.bins_used}}
        passed = summary.p_value > 1e-3
    else:
        # KS critical value at significance 1e-3, never tighter than the 0.005
        # bound used for N = 10^6 runs; at 1 or more it checks nothing
        threshold = max(0.005, 1.949 / n**0.5)
        if threshold >= 1:
            raise CliError(f"-N {n}: KS threshold {threshold:.3f} is above any KS distance; raise -N")
        a12, b12 = _rational(args.alpha12), _rational(args.beta12)
        samples = so2_samples(a12, b12, n, args.seed)
        hist = so2_histogram(samples, a12, b12, bins=args.bins)
        ks = ks_distance_so2(samples, a12, b12)
        edges = hist.edges[0]
        columns = ["gamma12_center", "count", "density"]
        rows = [[f"{(lo + hi) / 2:.6f}", c, f"{c / (n * (hi - lo)):.8g}"]
                for lo, hi, c in zip(edges, edges[1:], map(int, hist.counts))]
        entries = {"support": [str(float(v)) for v in (samples.min(), samples.max())],
                   "ks_distance": ks, "ks_threshold": threshold}
        passed = ks < threshold
    with open(args.out + ".csv", "w", newline="") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION, "N": n, "seed": args.seed, "mode": args.mode}) + "\n")
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)
    report = {"mode": args.mode, "N": n, "seed": args.seed,
              "samples_outside_support": hist.samples_outside_support, **entries}
    with open(args.out + ".json", "w") as fh:
        _emit_json(report, fh)
    print(json.dumps(report, sort_keys=True))
    return 0 if hist.samples_outside_support == 0 and passed else 1


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token of "-" and a digit, such as the weight -1,4, as a value.

    argparse takes a token that starts with "-" for an option unless its
    negative-number pattern matches it, and on Python 3.11 that pattern is
    one plain int or decimal, so -1,4 was read as an unknown option.  No
    hornvol option starts with a digit.  Subparsers are built from the same
    class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The hornvol parser, built once per process: parsing never changes it."""
    ap = _Parser(prog="hornvol", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def triple_parser(name: str, help: str) -> argparse.ArgumentParser:
        """A subcommand that takes the algebra and the triple parse_triple reads."""
        p = sub.add_parser(name, help=help)
        for arg in ("algebra", "lam", "mu", "nu"):
            p.add_argument(arg)
        return p

    p = triple_parser("lr", "tensor-product multiplicity by one or all methods")
    p.add_argument("--method", choices=["klimyk", "steinberg", "bz", "all"], default="all")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_lr)

    p = triple_parser("volume", "BZ-polytope volume by one or all routes")
    p.add_argument("--route", choices=[*ROUTES, "all"], default="all")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("grid", help="CSV/SVG of J and the PDF over the gamma-plane")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("--res", type=int, default=40)
    p.add_argument("--basis", choices=["orthonormal", "dynkin"], default="orthonormal")
    p.add_argument("--csv", default="-")
    p.add_argument("--svg", default=None)
    p.add_argument("--cells", default=None,
                   help="write the piecewise-quadratic cell diagram as JSON and overlay it in the SVG")
    p.set_defaults(func=cmd_grid)

    p = triple_parser("ehrhart", "fit the stretching quasi-polynomial of a triple")
    p.add_argument("--period", type=int, default=None)
    p.add_argument("--smax", type=int, default=None)
    p.set_defaults(func=cmd_ehrhart)

    p = sub.add_parser("covolume", help="Gram vs closed-formula squared covolumes")
    p.add_argument("--family", default=None)
    p.add_argument("--max-rank", type=int, default=8)
    p.add_argument("--format", choices=["md", "json"], default="md")
    p.set_defaults(func=cmd_covolume)

    p = sub.add_parser("sample", help="Monte Carlo histograms vs the analytic laws")
    p.add_argument("mode", choices=["b2", "so2"])
    p.add_argument("--alpha", default="17,4")
    p.add_argument("--beta", default="15,9")
    p.add_argument("--alpha12", default="1")
    p.add_argument("--beta12", default="2")
    p.add_argument("--basis", choices=["orthonormal", "dynkin"], default="orthonormal")
    p.add_argument("-N", "--n-samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--out", default="hornvol_sample")
    p.set_defaults(func=cmd_sample)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        # OSError: an output path (--csv, --svg, --cells, --out) that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        # an internal exact check failed: a disagreement, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
