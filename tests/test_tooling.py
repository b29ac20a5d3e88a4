"""Guards for the names other code reaches by string: each module's
`__all__`, and the attributes the benchmark tracer wraps. A refactor that
renames or deletes one of them fails here instead of in a traced run. Also
guards on the working set: no cached pipeline stage keeps an array of r^4
entries, r the number of labels, nor an exact linear system or its reduced
form, and `fusioncat verify` loads neither
numpy.random, hashlib nor the catalog, and the package draws no random
number and makes no LAPACK eigenvalue call. And one tower grows every ring
and module, from no label or level written into it, the chiral lift and the
catalog's graph records name no weight, the graph algebra imports nothing
from the splitting layer, and the catalog reads no file whole."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fusioncat

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PACKAGE = Path(fusioncat.__file__).resolve().parent

MODULES = [m.name for m in pkgutil.iter_modules(fusioncat.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    mod = importlib.import_module(f"fusioncat.{name}")
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def _tracer():
    """The tracer module, loaded from its file; nothing is installed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_attribute_resolves():
    tracer = _tracer()
    unresolved = []
    for mod_name, attr, _, _ in tracer.FUNCTIONS:
        owner = importlib.import_module(f"fusioncat.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"{mod_name}.{attr}")
    pl = importlib.import_module("fusioncat.pipeline")
    unresolved += [f"pipeline.{s}" for s in tracer.STAGES if not callable(getattr(pl, s, None))]
    assert unresolved == []


def _reachable(obj, seen):
    """obj and every object reachable from it through dataclass fields,
    dicts, lists, tuples and the attributes of the package's own objects."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    yield obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _reachable(k, seen)
            yield from _reachable(v, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            yield from _reachable(v, seen)
    elif dataclasses.is_dataclass(obj) or type(obj).__module__.startswith("fusioncat."):
        for v in vars(obj).values():
            yield from _reachable(v, seen)


def _stages():
    """name -> the result of every cached pipeline stage."""
    pl = importlib.import_module("fusioncat.pipeline")
    return {name: f() for name, f in vars(pl).items() if hasattr(f, "cache_info")}


def test_no_stage_keeps_an_array_of_r4_entries():
    # the splitting family once kept all 35^4 products N_l M N_m^T; a stage
    # result that holds an array that large again fails here
    stages = _stages()
    assert {"family", "chiral_lift", "slot_map"} <= set(stages)
    limit = len(stages["base_data"].labels) ** 4
    seen = set()
    large = {
        name: a.shape for name, result in stages.items() for a in _reachable(result, seen)
        if isinstance(a, np.ndarray) and a.size >= limit
    }
    assert large == {}


def test_no_stage_keeps_a_linear_system_or_a_reduced_form():
    # the doublet system's reduced form was once a stage of its own, held
    # for the life of the process; a stage result that reaches one again,
    # or a whole system, fails here
    xla = importlib.import_module("fusioncat.exactla")
    held = {
        name for name, result in _stages().items() for o in _reachable(result, set())
        if isinstance(o, (xla.RrefResult, xla.LinearSystem))
    }
    assert held == set()


# argv[1] is an empty catalog; prints what `verify` left loaded and the exit
# codes of the two exports that follow it
_FRESH_CLI = """
import contextlib, io, json, sys
from fusioncat import cli
with contextlib.redirect_stdout(io.StringIO()):
    verify = cli.main(["verify"])
loaded = [m for m in ("numpy.random", "hashlib", "fusioncat.catalog") if m in sys.modules]
with contextlib.redirect_stderr(io.StringIO()):
    exports = [cli.main(["--catalog", sys.argv[1], "export", "--kind", k]) for k in ("oc-graph", "bogus")]
print(json.dumps({"verify": verify, "loaded": loaded, "exports": exports}))
"""


@pytest.fixture(scope="module")
def fresh_cli(tmp_path_factory):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, str(tmp_path_factory.mktemp("empty") / "catalog")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_verify_loads_no_random_no_hashlib_and_no_catalog(fresh_cli):
    assert fresh_cli["verify"] == 0
    assert fresh_cli["loaded"] == []


def test_export_exit_codes_in_a_fresh_process(fresh_cli):
    # the catalog is imported by the export itself: a missing artifact still
    # exits 2, and a kind outside ARTIFACT_KINDS still exits 64
    assert fresh_cli["exports"] == [2, 64]


def test_graphalgebra_subscripts_no_alcove_label():
    # the graph algebra is read off the vacuum rows of the whole annular
    # family, never off labels picked by hand, such as F[(0, 0, 4)]
    pattern = re.compile(r"\[\(\s*\d+(\s*,\s*\d+){2,}\s*\)\]")
    lines = (PACKAGE / "graphalgebra.py").read_text().splitlines()
    assert [n for n, line in enumerate(lines, 1) if pattern.search(line)] == []


def test_one_tower_with_no_literal_label_rank_dispatch_or_level():
    # every ring and module action is grown by fusion.tower from the
    # generators and labels it is given: fusion.py spells out no Dynkin
    # label such as (0, 1, 0) and dispatches on no rank, the su4_tower name
    # is only an alias, and splitting.py grows one tower, the lift's, whose
    # blocks are the components and the annular family, so no module tower
    # can pass a level
    label = re.compile(r"\(\s*-?\d+\s*,(\s*-?\d+\s*,?)*\s*\)")
    lines = (PACKAGE / "fusion.py").read_text().splitlines()
    assert [n for n, line in enumerate(lines, 1) if label.search(line) or "rank ==" in line] == []
    fr = importlib.import_module("fusioncat.fusion")
    assert fr.su4_tower is fr.tower
    sp = importlib.import_module("fusioncat.splitting")
    tree = ast.parse(inspect.getsource(sp))
    towers = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and ast.unparse(n.func) == "fr.tower"]
    assert len(towers) == 1


def test_splitting_names_vertices_by_integers_alone():
    # the vertices are named by integer keys read off the module tower, and
    # the grading is mod N = rank + 1 read off the labels: splitting.py holds
    # no table of float weights, no Perron iteration (the float weights are
    # fusion.perron_weights, for the checks that read them), no grading mod
    # a literal 4 and no float literal
    text = (PACKAGE / "splitting.py").read_text()
    floats = [n.value for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Constant) and type(n.value) is float]
    assert [w for w in ("VERTEX_TARGETS", "perron_vector") if w in text] + re.findall(r"%\s*4\b", text) == []
    assert floats == []


def test_the_chiral_lift_names_no_weight():
    # the lift keeps one generator per fundamental weight of the ring, in a
    # tuple read off the labels: splitting.py holds no label tuple such as
    # (1, 0, 0) or (0, 1, 0), and the package names no field per weight,
    # such as V100 or F001
    tree = ast.parse((PACKAGE / "splitting.py").read_text())
    labels = [
        ast.unparse(n) for n in ast.walk(tree)
        if isinstance(n, ast.Tuple) and n.elts
        and all(isinstance(e, ast.Constant) and type(e.value) is int for e in n.elts)
    ]
    assert labels == []
    names = re.compile(r"\b[VF](100|010|001)\b")
    hits = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if names.search(line)
    ]
    assert hits == []


def test_graphalgebra_imports_nothing_from_splitting():
    # the slot map is read off the essential factorization alone, not off
    # the component naming of the splitting layer
    imports = [n for n in ast.walk(ast.parse((PACKAGE / "graphalgebra.py").read_text()))
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = [n.module or "" for n in imports if isinstance(n, ast.ImportFrom)]
    names += [a.name for n in imports for a in n.names]
    assert [m for m in names if "splitting" in m.split(".")] == []


def test_the_graph_records_name_no_weight():
    # the graph-algebra and oc-graph records draw their edges from the
    # generator tuple and the reach of omega_1, with no label tuple such as
    # (1, 0, 0), so they serve every rank
    cat = importlib.import_module("fusioncat.catalog")
    labels = [
        ast.unparse(n)
        for f in (cat.graph_algebra_record, cat.oc_graph_record)
        for n in ast.walk(ast.parse(inspect.getsource(f)))
        if isinstance(n, ast.Tuple) and n.elts
        and all(isinstance(e, ast.Constant) and type(e.value) is int for e in n.elts)
    ]
    assert labels == []


def test_the_catalog_reads_no_file_whole():
    # Catalog.get hashes and decodes an object file a read at a time; a
    # whole-file read would hold the record's text beside its tensors
    pattern = re.compile(r"read_bytes\(|\.read\(\s*\)")
    lines = (PACKAGE / "catalog.py").read_text().splitlines()
    assert [n for n, line in enumerate(lines, 1) if pattern.search(line)] == []


def test_the_package_draws_no_random_number_and_calls_no_eigensolver():
    pattern = re.compile(r"np\.random|numpy\.random|np\.linalg\.eig|numpy\.linalg\.eig")
    hits = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
