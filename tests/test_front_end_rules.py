"""Source rules for the two front ends, the CLI and the verification suites.

Certificates describe themselves, so ``cli.py`` names no certificate
class, and only its ``main`` maps exceptions to exit codes.  Every cone
that ``check`` accepts runs a ``cones`` oracle, so ``cli.py`` computes no
verdict of its own and needs nothing from ``linalg`` but ``Dims``.  Every suite
counts its checks through ``TheoremReport.check``, so no suite function
touches ``report.checks`` or calls ``record_failure`` itself.  The
suites and the Theorem 1 cores take their generator pools as Choi
stacks from ``sampling._generator_pool_chois``, so no ``_suite_*`` or
``_theorem1_*`` function names ``cone_generator_pool``, ``_sample_stack``
or ``_generator_pools``: ``MapRep`` lists are built only at the public
edge.  Behind both front ends, each map-cone oracle in ``cones`` returns
its operator twin's verdict on the Choi matrix unchanged, so none of them
builds a ``Verdict`` or touches ``.info``, and ``check`` prints one line
for a map cone and its twin.
"""

import ast
from pathlib import Path

import pytest

import mapcones
from mapcones import cones

SRC = Path(mapcones.__file__).parent
CERTIFICATES = [
    "MinEigCert",
    "PptSpectra",
    "Decomposition",
    "FWitness",
    "ProductVectorCert",
    "SeparableDecomposition",
    "SeparableBall",
]
#: the exit codes of errors, which ``main`` alone returns
ERROR_EXITS = {"EXIT_PARSE", "EXIT_DIMS", "EXIT_NAME", "EXIT_INTERNAL"}
#: the oracles of the map cones, each its operator twin's verdict
MAP_ORACLES = ["is_cp", "is_cop", "in_P", "is_decomposable", "in_S", "is_positive_map"]


def _functions(name: str) -> list:
    tree = ast.parse((SRC / name).read_text())
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)]


def _names(node) -> set:
    """Every identifier that ``node`` reads, imports or looks up as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


@pytest.mark.parametrize("name", CERTIFICATES)
def test_certificate_describes_itself(name):
    assert "describe" in vars(getattr(cones, name))


def test_cli_names_no_certificate_class():
    assert _names(ast.parse((SRC / "cli.py").read_text())) & set(CERTIFICATES) == set()


def test_every_check_runs_a_cones_oracle():
    # each entry of the cone-to-oracle table calls one public cones oracle,
    # at most after wrapping the operator as a map with map_from_choi
    tree = ast.parse((SRC / "cli.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_CHECKS"]
    )
    assert len(table.values) == len(cones.ConeId)
    for entry in table.values:
        called = {sub.func.id for sub in ast.walk(entry) if isinstance(sub, ast.Call)}
        assert len(called & set(cones.__all__)) == 1, ast.unparse(entry)
        assert called - set(cones.__all__) <= {"map_from_choi"}, ast.unparse(entry)


def test_cli_imports_only_dims_from_linalg():
    tree = ast.parse((SRC / "cli.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
        for alias in node.names
    ]
    assert imported == ["Dims"]


def test_only_main_returns_error_exits():
    users = [fn.name for fn in _functions("cli.py") if _names(fn) & ERROR_EXITS]
    assert users == ["main"]


def test_suites_count_checks_through_the_report():
    suites = [fn for fn in _functions("theorems.py") if fn.name.startswith("_suite_")]
    assert len(suites) == len(mapcones.theorems.SUPPORTED_THEOREMS)
    sites = [
        f"{fn.name}:{sub.lineno}"
        for fn in suites
        for sub in ast.walk(fn)
        if isinstance(sub, ast.Attribute) and sub.attr in ("checks", "record_failure")
    ]
    assert sites == []


def test_suites_take_pools_as_choi_stacks():
    cores = [fn for fn in _functions("theorems.py") if fn.name.startswith(("_suite_", "_theorem1_"))]
    assert {"_suite_T1", "_theorem1_stack"} <= {fn.name for fn in cores}
    sites = [
        f"{fn.name}: {name}"
        for fn in cores
        for name in sorted(_names(fn) & {"cone_generator_pool", "_sample_stack", "_generator_pools"})
    ]
    assert sites == []


def test_map_oracles_return_their_twins_verdict():
    oracles = [fn for fn in _functions("cones.py") if fn.name in MAP_ORACLES]
    assert sorted(fn.name for fn in oracles) == sorted(MAP_ORACLES)
    sites = [
        f"{fn.name}:{sub.lineno}"
        for fn in oracles
        for sub in ast.walk(fn)
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "Verdict")
        or (isinstance(sub, ast.Attribute) and sub.attr == "info")
    ]
    assert sites == []
