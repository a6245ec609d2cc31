"""The volume routes stay apart from each other, and so do the multiplicity algorithms.

Agreement between the volume routes, and between the three multiplicity
algorithms, is the correctness argument, so a route or an algorithm that
calls into another one would make the agreement prove less.  Each route runs
alone, through volume_routes(..., routes=(route,)), and each algorithm alone
(Klimyk's lr_klimyk, lr_steinberg, and the BZ count lattice_point_count of
bz_polygon_b2), in a fresh interpreter with cold caches, under
sys.setprofile; the hornvol functions it reaches are recorded, with nested
comprehensions and closures folded into the function that defines them.  The
root system is built before recording.  Two routes, or two algorithms, may
share only the functions of ALLOWED.
"""

import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: what one route may share with another, and why that is safe
ALLOWED = {
    "volume.volume_routes": "the dispatcher that runs each route",
    "volume.b2": "the default B2 root system",
    "multiplicity._check_dominant": "reads the input labels and refuses a non-dominant weight",
    "multiplicity._checked_multiplicity": "refuses a negative signed sum; computes nothing",
    "rootsys.RootSystem.labels": "reads Dynkin labels",
    "rootsys._sized": "the label-count check inside RootSystem.labels",
    "rootsys.RootSystem.scaled_root": "the fixed integer map from Dynkin labels to simple-root coordinates",
}

PROBE = r"""
import json, os, sys
from hornvol import bzpolytope, multiplicity, volume
from hornvol.rootsys import build_root_system

family, rank, name, lam, mu, nu = json.loads(sys.argv[1])
rs = build_root_system(family, rank)
algorithms = {
    "klimyk": lambda: multiplicity.lr_klimyk(rs, lam, mu, nu),
    "steinberg": lambda: multiplicity.lr_steinberg(rs, lam, mu, nu),
    "bz": lambda: bzpolytope.lattice_point_count(bzpolytope.bz_polygon_b2(lam, mu, nu)),
}
run = algorithms.get(name, lambda: volume.volume_routes(lam, mu, nu, routes=(name,), rs=rs))
package = os.path.dirname(volume.__file__) + os.sep
reached = set()


def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package) and code.co_name != "<module>":
        module = frame.f_globals["__name__"].removeprefix("hornvol.")
        reached.add(module + "." + code.co_qualname.split(".<locals>")[0])


sys.setprofile(record)
run()
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


@functools.cache
def reached(family, rank, name, lam, mu, nu) -> frozenset[str]:
    """The hornvol functions that one route or one algorithm reaches on one triple, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    args = json.dumps([family, rank, name, lam, mu, nu])
    out = subprocess.run([sys.executable, "-c", PROBE, args], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return frozenset(json.loads(out.stdout.strip().splitlines()[-1]))


#: the first pinned triple of acceptance criterion 4
B2_TRIPLE = ((4, 7), (5, 3), (2, 4))
needs_qualname = pytest.mark.skipif(sys.version_info < (3, 11), reason="code.co_qualname is new in Python 3.11")


@needs_qualname
@pytest.mark.parametrize("family,rank,others,triple", [
    ("B", 2, ("direct", "ehrhart", "polytope"), B2_TRIPLE),
    ("B", 3, ("ehrhart",), ((2, 2, 2),) * 3),
])
def test_lr_route_meets_the_other_routes_only_in_the_allowlist(family, rank, others, triple):
    lr = reached(family, rank, "lr", *triple)
    assert {"multiplicity.tensor_decompose", "multiplicity.tau_sum"} <= lr
    for route in others:
        theirs = reached(family, rank, route, *triple)
        assert theirs - set(ALLOWED), route
        assert lr & theirs <= set(ALLOWED), (route, sorted(lr & theirs - set(ALLOWED)))


@needs_qualname
@pytest.mark.parametrize("route,other", itertools.combinations(("direct", "ehrhart", "polytope"), 2))
def test_b2_routes_meet_each_other_only_in_the_allowlist(route, other):
    mine, theirs = reached("B", 2, route, *B2_TRIPLE), reached("B", 2, other, *B2_TRIPLE)
    assert mine - set(ALLOWED) and theirs - set(ALLOWED)
    assert mine & theirs <= set(ALLOWED), sorted(mine & theirs - set(ALLOWED))


@needs_qualname
def test_polytope_route_reads_no_part_of_j():
    """The BZ area must equal J without evaluating it: no Weyl sum and no cell quadratic."""
    j_parts = {"volume.j_b2", "volume._weyl_terms", "volume._cell_quadratics"}
    assert not reached("B", 2, "polytope", *B2_TRIPLE) & j_parts


#: each multiplicity algorithm of the probe, by the function it is entered through
ALGORITHMS = {
    "klimyk": "multiplicity.lr_klimyk",
    "steinberg": "multiplicity.lr_steinberg",
    "bz": "bzpolytope.lattice_point_count",
}


@needs_qualname
@pytest.mark.parametrize("family,rank,pair,triple", [
    *(pytest.param("B", 2, pair, B2_TRIPLE, id="B2-" + "-".join(pair))
      for pair in itertools.combinations(ALGORITHMS, 2)),
    pytest.param("B", 3, ("klimyk", "steinberg"), ((2, 2, 2),) * 3, id="B3-klimyk-steinberg"),
])
def test_multiplicity_algorithms_meet_each_other_only_in_the_allowlist(family, rank, pair, triple):
    mine, theirs = (reached(family, rank, name, *triple) for name in pair)
    for name, funcs in zip(pair, (mine, theirs)):
        assert ALGORITHMS[name] in funcs and funcs - set(ALLOWED), name
    assert mine & theirs <= set(ALLOWED), sorted(mine & theirs - set(ALLOWED))
