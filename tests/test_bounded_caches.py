"""Every process-long cache in hornvol is bounded, or listed here with its reason.

The scan reads each module's syntax tree: a function decorated with
functools' `cache`, `lru_cache(maxsize=None)` or `lru_cache(None)` holds one
entry per distinct argument for the life of the process.  Bare `lru_cache`
and `lru_cache(maxsize=n)` are bounded.  `cached_property` lives on an
instance, so it is not scanned.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hornvol"

#: unbounded caches that may stay, (module, function) -> reason
ALLOWED_UNBOUNDED = {
    ("rootsys", "build_root_system"): "per algebra: one entry per (family, rank) asked for",
    ("rootsys", "weyl_elements"): "per algebra: one Weyl group per (family, rank)",
    ("multiplicity", "_weyl_shift_maps"): "per algebra: one shift map per Weyl element",
    ("multiplicity", "_kostant_roots"): "per algebra: the positive roots in the recursion's order",
    ("volume", "_inverse_kappa_b2"): "no arguments: one constant",
    ("cli", "build_parser"): "no arguments: the one parser",
    ("multiplicity", "_kostant_rec"): "known process-long cache (CHANGES.md FOUND line 20); "
                                      "ROADMAP item 2 removes it with the recursion",
    ("multiplicity", "kostant_partition_b2"): "the B2 closed form: an entry is two ints and one int; "
                                              "its bound goes with ROADMAP item 2's one Kostant kernel",
}

CACHE_NAMES = {"cache", "lru_cache"}


def _cache_name(node) -> str | None:
    """'cache' or 'lru_cache' when node names functools' decorator (bare or as functools.x), else None."""
    if isinstance(node, ast.Name) and node.id in CACHE_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES and getattr(node.value, "id", None) == "functools":
        return node.attr
    return None


def _is_unbounded(decorator) -> bool | None:
    """Whether a decorator makes an unbounded cache; None when it is no functools cache."""
    call = decorator if isinstance(decorator, ast.Call) else None
    name = _cache_name(call.func if call else decorator)
    if name is None:
        return None
    if name == "cache":
        return True
    if call is None:
        return False  # bare lru_cache: maxsize 128
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def scan() -> tuple[dict[tuple[str, str], bool], list[str]]:
    """({(module, function): unbounded} for every cached function, the cache uses that are no decorator)."""
    found, stray = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    unbounded = _is_unbounded(dec)
                    if unbounded is not None:
                        found[path.stem, node.name] = unbounded
                        decorators.update(map(id, ast.walk(dec)))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _cache_name(node) and id(node) not in decorators]
    return found, stray


def test_every_unbounded_cache_is_allowed_with_a_reason():
    found, stray = scan()
    assert found, f"no cached function found under {SRC}"
    unbounded = {key for key, is_unbounded in found.items() if is_unbounded}
    assert not stray, f"cache wrappers used other than as a decorator, which this scan cannot read: {stray}"
    allowed = set(ALLOWED_UNBOUNDED)
    assert unbounded <= allowed, f"unbounded caches with no reason here: {unbounded - allowed}"
    # a listed cache that is gone or now bounded leaves the list
    assert allowed <= unbounded, f"stale entries: {allowed - unbounded}"
    assert all(reason.strip() for reason in ALLOWED_UNBOUNDED.values())


def test_the_scan_reads_each_decorator_form():
    source = """
import functools
from functools import cache, lru_cache, cached_property

@cache
def a(): pass

@lru_cache(maxsize=None)
def b(x): pass

@lru_cache(None)
def c(x): pass

@functools.lru_cache(maxsize=None)
def d(x): pass

@lru_cache
def e(x): pass

@lru_cache(maxsize=64)
def f(x): pass

@functools.lru_cache(32)
def g(x): pass

class K:
    @cached_property
    def h(self): pass
"""
    decorators = {node.name: node.decorator_list for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef)}
    assert {name: _is_unbounded(decs[0]) for name, decs in decorators.items()} == {
        "a": True, "b": True, "c": True, "d": True, "e": False, "f": False, "g": False, "h": None}
