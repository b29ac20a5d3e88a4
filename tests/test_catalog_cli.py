"""Artifact store, canonical serialization, DOT output and the CLI driver.

The store lives under a temp directory through the environment variable, so
these tests never touch a real catalog. The verify command must report
honestly: its PASS/FAIL lines are the release checks' own outcomes, and it
exits 1 exactly when some check fails.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fusioncat import CertificationError
from fusioncat import acceptance as acc
from fusioncat import catalog as cat
from fusioncat import cli
from fusioncat import fusion as fr
from fusioncat import modular as md
from fusioncat import pipeline as pl
from fusioncat import weights as wt

A2 = wt.algebra("A", 2)


@pytest.fixture
def store(tmp_path, monkeypatch):
    monkeypatch.setenv(cat.ENV_ROOT, str(tmp_path / "cat"))
    return cat.Catalog()


def small_record():
    return cat.ArtifactRecord(
        kind="fusion-ring",
        provenance=cat.make_provenance(),
        payload={
            "algebra": "A1",
            "level": 1,
            "labels": [[0], [1]],
            "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        },
    )


def all_flagship_records(graph_algebra, quantum_symmetries, slot_map, module_graph):
    data = pl.base_data()
    return [
        cat.fusion_ring_record(pl.spec(), pl.LEVEL, data.labels, pl.ring()),
        cat.modular_data_record(data),
        cat.invariant_record(pl.invariant(), data, pl.AMBIENT),
        cat.toric_family_record(pl.family(), pl.chiral_lift()),
        cat.graph_algebra_record(graph_algebra, module_graph, pl.quantum_graph()),
        cat.oc_graph_record(quantum_symmetries, slot_map),
    ]


def assert_same_body(got, want, path="body"):
    """Records equal entry for entry: dicts with the same keys; wherever
    either side is an ndarray, the same dtype, shape and values (a list
    compares as the array it reads as); elsewhere the same type and value."""
    if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
        g, w = np.asarray(got), np.asarray(want)
        assert (g.dtype, g.shape) == (w.dtype, w.shape), path
        assert np.array_equal(g, w), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for k in want:
            assert_same_body(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_body(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


# ---------------------------------------------------------------------------
# records and the store
# ---------------------------------------------------------------------------

def test_canonical_hash_is_stable():
    a, b = small_record(), small_record()
    assert a.content_hash == b.content_hash
    assert a.to_json() == b.to_json()
    # sorted keys: serialization is order-independent
    flipped = cat.ArtifactRecord(
        kind=a.kind,
        provenance=a.provenance,
        payload=dict(reversed(list(a.payload.items()))),
    )
    assert flipped.content_hash == a.content_hash
    changed = cat.ArtifactRecord(a.kind, a.provenance, {**a.payload, "level": 2})
    assert changed.content_hash != a.content_hash


def decoded_layout(x):
    """The types of a decoded record, with each array's dtype and shape."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape
    if isinstance(x, dict):
        return {k: decoded_layout(v) for k, v in x.items()}
    if isinstance(x, list):
        return [decoded_layout(v) for v in x]
    return type(x).__name__


def test_every_kind_round_trips(graph_algebra, quantum_symmetries, slot_map, module_graph, store,
                                monkeypatch):
    """Also through the store, read 1, 2, 3 and 7 characters at a time: get
    returns what from_json of the whole text returns, entry for entry."""
    recs = all_flagship_records(graph_algebra, quantum_symmetries, slot_map, module_graph)
    assert sorted(r.kind for r in recs) == sorted(cat.ARTIFACT_KINDS)
    for rec in recs:
        cat.validate_record(rec)
        back = cat.ArtifactRecord.from_json(rec.to_json())
        assert_same_body(back.body(), rec.body())
        assert back.to_json() == rec.to_json()
        assert back.content_hash == rec.content_hash
        h = store.put(rec)
        for size in (1, 2, 3, 7):
            monkeypatch.setattr(cat, "_READ", size)
            got = store.get(h)
            assert decoded_layout(got.body()) == decoded_layout(back.body()), (rec.kind, size)
            assert got.to_json() == rec.to_json()


def _int_matrix_per_entry(m):
    return [[int(x) for x in row] for row in np.asarray(m)]


def _complex_matrix_per_entry(m):
    return [[[float(np.real(z)), float(np.imag(z))] for z in row] for row in np.asarray(m)]


def test_matrix_builders_write_the_per_entry_bytes():
    """The array-native builders serialize exactly as a per-entry
    conversion does: bools as 1 and 0, big integers in full, -0.0 kept."""
    rng = np.random.default_rng(11)
    big = np.array([[2**63, -(2**64) - 5], [3, 2**70]], dtype=object)
    ints = [
        rng.integers(-(2**62), 2**62, size=(5, 7)),
        rng.integers(-(2**31), 2**31, size=(4, 4)).astype(np.int32),
        rng.integers(0, 256, size=(3, 6)).astype(np.uint8),
        rng.integers(0, 2, size=(6, 6)).astype(bool),
        np.array([[2**64 - 1, 0]], dtype=np.uint64),
        big,
        np.zeros((0, 3), dtype=np.int64),
    ]
    for m in ints:
        assert cat.canonical_json(cat.int_matrix(m)) == cat.canonical_json(_int_matrix_per_entry(m))
    assert cat.canonical_json(cat.int_matrix(ints[3][:1, :2] | True)) == "[[1,1]]"
    z = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    z[0, 0], z[1, 1], z[2, 2] = complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0)
    for m in (z, z.astype(np.complex64), z.real, rng.integers(-9, 9, size=(3, 3))):
        assert cat.canonical_json(cat.complex_matrix(m)) == cat.canonical_json(_complex_matrix_per_entry(m))
    assert cat.canonical_json(cat.complex_matrix(z[:1, :1])) == "[[[-0.0,1.0]]]"


def test_store_put_get_find(store):
    rec = small_record()
    h = store.put(rec)
    assert_same_body(store.get(h).body(), rec.body())
    assert store.get(h).to_json() == rec.to_json()
    assert store.find("fusion-ring") == [h]
    assert store.find("oc-graph") == []
    # idempotent: same record stores once
    assert store.put(rec) == h
    assert len(list(store.objects.iterdir())) == 1
    assert store.index.read_text() == f"{h}  fusion-ring\n"


def test_records_hold_arrays(ring, base_data):
    """The fusion ring is one (r, r, r) int64 tensor and reads back as one;
    the s matrix is a float64 (r, r, 2) array."""
    rec = cat.fusion_ring_record(pl.spec(), pl.LEVEL, base_data.labels, ring)
    mats = rec.payload["matrices"]
    r = len(base_data.labels)
    assert mats.dtype == np.int64 and mats.shape == (r, r, r)
    assert all(np.array_equal(mats[i], ring[la]) for i, la in enumerate(base_data.labels))
    s = cat.modular_data_record(base_data).payload["s"]
    assert s.dtype == np.float64 and s.shape == (r, r, 2)
    back = cat.ArtifactRecord.from_json(rec.to_json())
    assert back.payload["matrices"].dtype == np.int64
    assert np.array_equal(back.payload["matrices"], mats)


def test_a_ring_record_needs_the_rings_labels_in_order(ring, base_data):
    with pytest.raises(ValueError, match="labels"):
        cat.fusion_ring_record(pl.spec(), pl.LEVEL, base_data.labels[::-1], ring)


def _traced(fn):
    """fn()'s result and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _a2_ring_record():
    ring = fr.fusion_matrices(A2, 14)
    return ring, cat.fusion_ring_record(A2, 14, wt.enumerate_alcove(A2, 14), ring)


# The largest ring of the benchmark's sweep, 120 labels: its tensor is
# 120**3 int64 entries, 13.8 MB, and its canonical text 3.5 MB. Measured
# peaks under the bounds below: 14.5 MB for the build and the record, 0.28 MB
# for the put, and 1.04 MB above the tensor for the get, which holds a window
# of a few reads of the text and one batch's temporaries.

def test_the_a2_level_14_ring_is_one_tensor_shared_with_its_record():
    (ring, rec), peak = _traced(_a2_ring_record)
    assert ring.tensor.shape == (120, 120, 120) and ring.tensor.flags.c_contiguous
    assert not ring.tensor.flags.writeable
    assert np.shares_memory(rec.payload["matrices"], ring.tensor)
    assert peak < 1.1 * ring.tensor.nbytes


def test_put_of_the_a2_level_14_ring_holds_one_batch_of_text(tmp_path):
    _, rec = _a2_ring_record()
    store = cat.Catalog(tmp_path)
    h, peak = _traced(lambda: store.put(rec))
    assert h == rec.content_hash
    assert peak < 1e6


def test_get_of_the_a2_level_14_ring_holds_the_tensor_and_no_whole_text(tmp_path):
    _, rec = _a2_ring_record()
    store = cat.Catalog(tmp_path)
    h = store.put(rec)
    assert (store.objects / f"{h}.json").stat().st_size > 3e6
    tensor = rec.payload["matrices"].nbytes
    store.get(h)  # the first call fills numpy's and the decoder's caches
    back, peak = _traced(lambda: store.get(h))
    assert back.content_hash == h
    assert peak < tensor + 1.5e6


# the sweep ladder's records, (fusion-ring, modular-data): the first 16 hex
# digits of each hash
LADDER_HASHES = {
    ("A", 1, 30): ("7d8dc418de31012e", "98450d990e95c7bd"),
    ("A", 1, 60): ("5d8080637263775b", "587c96573bcedcd4"),
    ("A", 1, 119): ("d1b29cce53c65481", "e35f84f9349f7433"),
    ("A", 2, 6): ("63b907bd3e67771b", "6c5a0bddda8ad4ac"),
    ("A", 2, 10): ("f13851c28c250a20", "0da0b61a9f4d727d"),
    ("A", 2, 14): ("f909f31bfeaf8b0a", "14946947b9c0e201"),
    ("A", 3, 4): ("af4599e4d623893f", "163dcdaa422b77ee"),
    ("A", 3, 5): ("9232da783aae8e69", "1f6c13237d66338b"),
    ("A", 3, 6): ("1c9afcaa82fc49b3", "880f62f34c2edd9c"),
}


@pytest.mark.parametrize("ring", LADDER_HASHES, ids=lambda r: f"{r[0]}{r[1]}-{r[2]}")
def test_ladder_records_keep_their_hashes(tmp_path, ring):
    family, rank, k = ring
    spec = wt.algebra(family, rank)
    store = cat.Catalog(tmp_path)
    recs = (cat.fusion_ring_record(spec, k, wt.enumerate_alcove(spec, k), fr.fusion_matrices(spec, k)),
            cat.modular_data_record(md.modular_data(spec, k)))
    for rec, want in zip(recs, LADDER_HASHES[ring]):
        h = store.put(rec)
        assert h[:16] == want and h == rec.content_hash
        assert store.get(h).content_hash == h


def test_a_put_that_fails_midstream_leaves_no_file_and_no_index_line(store, base_data):
    rec = cat.modular_data_record(base_data)
    s = rec.payload["s"].copy()
    s[-1, -1, 0] = np.nan  # json's encoder refuses it after the members before "s"
    with pytest.raises(ValueError):
        store.put(cat.ArtifactRecord(rec.kind, rec.provenance, {**rec.payload, "s": s}))
    assert [p for p in store.root.rglob("*") if p.is_file()] == []


def test_a_second_put_does_not_rewrite_the_object(store):
    h = store.put(small_record())
    path = store.objects / f"{h}.json"
    before = path.stat()
    assert store.put(small_record()) == h
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert [p.name for p in store.objects.iterdir()] == [path.name]
    assert store.find("fusion-ring") == [h]


def test_an_object_removed_before_its_read_is_missing(store, capsys, monkeypatch):
    h = store.put(small_record())
    opened, path_open, removed = [], Path.open, []

    def open_object(path, *args, **kwargs):
        if path.parent == store.objects:
            opened.append(path.name)
            if removed:
                raise FileNotFoundError(path)
        return path_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_object)
    assert store.get(h).content_hash == h
    assert opened == [f"{h}.json"]  # one open, both hashed and decoded through
    removed.append(h)
    with pytest.raises(cat.MissingArtifact):
        store.get(h)
    assert cli.main(["export", "--kind", "fusion-ring"]) == 2
    assert "missing artifact" in capsys.readouterr().err


def test_validate_checks_array_rank_and_dtype():
    rec = small_record()
    arr = np.array(rec.payload["matrices"])
    cat.validate_record(cat.ArtifactRecord(rec.kind, rec.provenance, {**rec.payload, "matrices": arr}))
    for bad in (arr[0], arr.astype(np.float64), arr.astype(np.int32), arr[..., None]):
        with pytest.raises(ValueError, match="matrices"):
            cat.validate_record(cat.ArtifactRecord(rec.kind, rec.provenance, {**rec.payload, "matrices": bad}))


def test_get_refuses_a_corrupt_object(store, capsys):
    h = store.put(small_record())
    path = store.objects / f"{h}.json"
    data = bytearray(path.read_bytes())
    at = data.index(b"A1")
    data[at + 1] ^= 1  # "A1" becomes "A0": still valid JSON and schema
    path.write_bytes(bytes(data))
    with pytest.raises(CertificationError, match=f"^catalog: .*{h}.json does not hash to its name"):
        store.get(h)
    assert cli.main(["export", "--kind", "fusion-ring"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and f"{h}.json" in err and "Traceback" not in err


WRITER = """
import sys
from fusioncat import catalog as cat

store = cat.Catalog(sys.argv[1])
worker = int(sys.argv[2])
for i in range(40):
    for level in (1000 * worker + i, i % 8):  # its own record, then a shared one
        store.put(cat.ArtifactRecord("fusion-ring", cat.make_provenance(), {
            "algebra": "A1", "level": level, "labels": [[0], [1]],
            "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
        }))
"""


def test_concurrent_writers_lose_nothing(tmp_path):
    """Three processes put into one catalog at once, partly the same
    records; every object and every index line must survive."""
    root = tmp_path / "shared"
    src = Path(cat.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    procs = [
        subprocess.Popen([sys.executable, "-c", WRITER, str(root), str(w)], env=env,
                         stderr=subprocess.PIPE, text=True)
        for w in (1, 2, 3)
    ]
    for p in procs:
        _, err = p.communicate(timeout=120)
        assert p.returncode == 0, err
    levels = [1000 * w + i for w in (1, 2, 3) for i in range(40)] + list(range(8))
    rec = small_record()
    expect = sorted(
        cat.ArtifactRecord(rec.kind, rec.provenance, {**rec.payload, "level": level}).content_hash
        for level in levels
    )
    store = cat.Catalog(root)
    assert sorted(p.name for p in store.objects.iterdir()) == [f"{h}.json" for h in expect]
    for h in expect:
        assert hashlib.sha256((store.objects / f"{h}.json").read_bytes()).hexdigest() == h
    assert store.find("fusion-ring") == expect
    lines = store.index.read_text().splitlines()
    assert {tuple(line.split()) for line in lines} == {(h, "fusion-ring") for h in expect}


def test_store_missing(store):
    with pytest.raises(cat.MissingArtifact):
        store.get("0" * 64)


def test_validation_rejects_malformed():
    rec = small_record()
    broken = cat.ArtifactRecord(rec.kind, rec.provenance, {"algebra": "A1"})
    with pytest.raises(ValueError, match="missing required key"):
        cat.validate_record(broken)
    with pytest.raises(ValueError):
        cat.load_schema("not-a-kind")


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------

def test_dot_empty_graph():
    assert cat.emit_dot({"vertices": [], "edge_classes": []}) == 'digraph "G" {\n}\n'


def test_dot_quantum_graph(graph_algebra, module_graph):
    rec = cat.graph_algebra_record(graph_algebra, module_graph, pl.quantum_graph())
    text = cat.emit_dot(rec.payload["graph"], name="graph-algebra")
    assert text == cat.emit_dot(rec.payload["graph"], name="graph-algebra")
    lines = text.splitlines()
    assert sum(1 for l in lines if l.endswith('";')) == 12
    red = [l for l in lines if "color=red" in l]
    blue = [l for l in lines if "color=blue" in l]
    assert len(red) == 28  # directed generator edges, with multiplicity
    assert len(blue) == 18  # undirected middle edges, each unordered pair once
    assert all("dir=none" in l for l in blue)
    assert not any("dir=none" in l for l in red)


def test_dot_symmetry_graph(quantum_symmetries, slot_map):
    rec = cat.oc_graph_record(quantum_symmetries, slot_map)
    text = cat.emit_dot(rec.payload["graph"], name="oc-graph")
    lines = text.splitlines()
    assert sum(1 for l in lines if l.endswith('";')) == 48
    dashed = [l for l in lines if "style=dashed" in l]
    assert len(dashed) == len(rec.payload["chiral_pairs"])
    assert len(dashed) > 0
    assert len({c["name"] for c in rec.payload["graph"]["edge_classes"]}) == 3


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

def test_cli_alcove(store, capsys):
    assert cli.main(["alcove", "--algebra", "A3", "--level", "1"]) == 0
    out = capsys.readouterr().out
    assert "4 weights" in out


def test_cli_fusion_stores(store, capsys):
    assert cli.main(["fusion", "--algebra", "A3", "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "stored fusion-ring" in out and "10 matrices" in out
    assert len(store.find("fusion-ring")) == 1


def test_cli_fusion_objects_of_the_low_ranks_are_pinned(store, capsys):
    # taken when these rings still came from rounded Verlinde numbers
    for algebra, level, h in (
        ("A1", "10", "86f6cf69d7bb6c3213acfd9e66e4a182d454b4dc2ee70babaef98afdf9e20657"),
        ("A2", "4", "a88e29cd21e9597e01535a53365e995b4f2eb20ddfb04e842238a08e732deb46"),
    ):
        assert cli.main(["fusion", "--algebra", algebra, "--level", level]) == 0
        assert f"stored fusion-ring {h} " in capsys.readouterr().out
    assert len(store.find("fusion-ring")) == 2


def test_cli_embed_scan(store, capsys):
    assert cli.main(["embed-scan", "--base", "SU(4)"]) == 0
    out = capsys.readouterr().out
    assert "19 embeddings" in out
    assert "Spin(15)" in out


def test_cli_bad_arguments(store, capsys):
    assert cli.main([]) == 64
    assert cli.main(["no-such-command"]) == 64
    assert cli.main(["alcove", "--algebra", "Q4", "--level", "1"]) == 64
    assert cli.main(["verify", "--fixture", "e6"]) == 64
    assert cli.main(["export", "--kind", "bogus"]) == 64
    capsys.readouterr()
    # parse, but outside what the modular layer and the weights cover
    for argv in (
        ["modular", "--algebra", "A4", "--level", "2"],
        ["fusion", "--algebra", "B3", "--level", "1"],
        ["alcove", "--algebra", "A2", "--level", "-1"],
        ["alcove", "--algebra", "C3", "--level", "1"],
    ):
        assert cli.main(argv) == 64, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error:" in err, argv
    assert store.find("modular-data") == [] and store.find("fusion-ring") == []


@pytest.mark.parametrize("argv", [
    ["--catalog", "{file}", "modular", "--algebra", "A1", "--level", "1"],
    ["--catalog", "{file}", "fusion", "--algebra", "A1", "--level", "1"],
    ["--catalog", "{file}", "ocneanu"],
    ["export", "--kind", "modular-data", "--out", "{missing}/x.json"],
], ids=["modular", "fusion", "ocneanu", "export"])
def test_an_unusable_output_path_exits_64_with_one_line(argv, store, tmp_path, capsys):
    # a catalog path that is a regular file, or an --out file in a missing
    # directory: a usage error naming the path, not a failed check
    assert cli.main(["modular", "--algebra", "A1", "--level", "1"]) == 0
    regular = tmp_path / "regular"
    regular.write_text("")
    paths = {"file": regular, "missing": tmp_path / "missing"}
    capsys.readouterr()
    assert cli.main([a.format(**paths) for a in argv]) == 64
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("fusioncat: error: cannot write ") and str(tmp_path) in err
    assert regular.read_text() == "" and not paths["missing"].exists()


def test_flagship_stages_take_no_fixture(store, capsys):
    # only verify names the shipped fixture; the stage commands reject it
    for command in ("split", "realize", "ocneanu"):
        assert cli.main([command, "--fixture", "e4"]) == 64, command
        assert "unrecognized arguments: --fixture" in capsys.readouterr().err
    assert not store.root.exists()


def test_cli_catalog_option_beats_the_environment(store, tmp_path, capsys):
    chosen = tmp_path / "chosen"
    assert cli.main(["--catalog", str(chosen), "modular", "--algebra", "A1", "--level", "1"]) == 0
    assert cli.main(["fusion", "--algebra", "A1", "--level", "1", "--catalog", str(chosen)]) == 0
    capsys.readouterr()
    picked = cat.Catalog(chosen)
    assert len(picked.find("modular-data")) == 1 and len(picked.find("fusion-ring")) == 1
    assert not store.root.exists()
    # without the option the environment variable still decides
    assert cli.main(["modular", "--algebra", "A1", "--level", "1"]) == 0
    assert store.find("modular-data") == picked.find("modular-data")


def test_optimized_interpreter_writes_the_same_objects(store, tmp_path, capsys,
                                                       graph_algebra, quantum_symmetries, slot_map):
    """Under python -O every assert is gone; the certification must not be."""
    assert cli.main(["ocneanu"]) == 0
    capsys.readouterr()
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop(cat.ENV_ROOT, None)
    optimized = tmp_path / "optimized"
    run = subprocess.run(
        [sys.executable, "-O", "-m", "fusioncat.cli", "--catalog", str(optimized), "ocneanu"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    names = sorted(p.name for p in store.objects.iterdir())
    assert len(names) == 6
    assert sorted(p.name for p in (optimized / "objects").iterdir()) == names


# ROADMAP's golden hashes; the provenance of each names fusioncat 0.1.0
GOLDEN = {
    "af4599e4d623893fc81eabc4dc5b54b270b6a6eb0c31182a250dc9df68aa4934": "fusion-ring",
    "52136f0e3b795caba2a3bf2d2701eb5cae861233df46ddfb1cd19578af355943": "invariant",
    "1197a15384cab50dfeed99e4d52b7e34e81ff80c933f898decbc79b46079cee5": "toric-family",
    "41bf156b0cd36d829063f04da990832101a73acd4dc8774d5ebd278b2a5329c1": "graph-algebra",
    "1b7389a4b3d76d138a6bcccb2c8a441672281605086cf67eec64a154e23b24ab": "oc-graph",
    "163dcdaa422b77ee664ffcab7abc5f9cba208a8cf8507a4617e213f9b2ee6f8b": "modular-data",
}


def test_ocneanu_writes_the_golden_objects(store, capsys,
                                           graph_algebra, quantum_symmetries, slot_map):
    """Every record downstream of the modular data names its hash in the
    provenance, so this pins the floats of s and t end to end."""
    assert cli.main(["ocneanu"]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in store.objects.iterdir()) == sorted(f"{h}.json" for h in GOLDEN)
    for h, kind in GOLDEN.items():
        assert store.find(kind) == [h]


def test_ocneanu_puts_each_record_once(store, capsys, monkeypatch,
                                      graph_algebra, quantum_symmetries, slot_map):
    put = cat.Catalog.put
    kinds = []

    def counting_put(self, rec):
        kinds.append(rec.kind)
        return put(self, rec)

    monkeypatch.setattr(cat.Catalog, "put", counting_put)
    assert cli.main(["ocneanu"]) == 0
    capsys.readouterr()
    # dependency order: every record after the records it names as inputs
    assert kinds == ["fusion-ring", "modular-data", "invariant", "toric-family",
                     "graph-algebra", "oc-graph"]
    assert sorted(p.name for p in store.objects.iterdir()) == sorted(f"{h}.json" for h in GOLDEN)


def test_cli_export_missing(store, capsys):
    assert cli.main(["export", "--kind", "oc-graph"]) == 2
    assert "missing artifact" in capsys.readouterr().err


def test_cli_export_json_round_trip(store, capsys):
    assert cli.main(["modular", "--algebra", "A1", "--level", "1"]) == 0
    capsys.readouterr()
    h = store.find("modular-data")[0]
    assert cli.main(["export", "--kind", "modular-data", "--format", "json"]) == 0
    out = capsys.readouterr().out
    back = cat.ArtifactRecord.from_json(out)
    assert back.content_hash == h
    # export by explicit hash agrees
    assert cli.main(["export", "--kind", "modular-data", "--hash", h]) == 0
    assert capsys.readouterr().out == out


def test_cli_pipeline_and_dot_export(store, capsys, tmp_path,
                                     graph_algebra, quantum_symmetries, slot_map):
    assert cli.main(["invariant"]) == 0
    assert cli.main(["split"]) == 0
    assert cli.main(["realize"]) == 0
    assert cli.main(["ocneanu"]) == 0
    out = capsys.readouterr().out
    assert "stored oc-graph" in out
    for kind in ("modular-data", "fusion-ring", "invariant", "toric-family",
                 "graph-algebra", "oc-graph"):
        assert len(store.find(kind)) == 1, kind
    # provenance chain: the family record names its inputs
    fam = store.get(store.find("toric-family")[0])
    assert set(fam.provenance["inputs"]) == {"fusion-ring", "invariant"}
    assert fam.provenance["inputs"]["invariant"] == store.find("invariant")[0]
    # DOT export is deterministic and goes to a file when asked
    p1, p2 = tmp_path / "a.dot", tmp_path / "b.dot"
    assert cli.main(["export", "--kind", "oc-graph", "--format", "dot", "--out", str(p1)]) == 0
    assert cli.main(["export", "--kind", "oc-graph", "--format", "dot", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().count('";') >= 48
    capsys.readouterr()


def verify_lines(capsys):
    code = cli.main(["verify", "--fixture", "e4"])
    out = capsys.readouterr().out
    return code, [l for l in out.splitlines() if l.startswith("criterion ")]


def test_cli_verify_reports_honestly(store, capsys):
    code, lines = verify_lines(capsys)
    results = acc.run_all()
    assert lines == [
        f"criterion {num}: {'PASS' if ok else 'FAIL'} — {name}: {detail}"
        for num, name, ok, detail in results
    ]
    assert len(lines) == 12
    assert code == (0 if all(ok for _, _, ok, _ in results) else 1)


def test_cli_verify_exits_1_on_a_failing_check(store, capsys, monkeypatch):
    # only criterion 11 is forced to fail; the other eleven keep their
    # cached outcomes
    name = next(name for num, name, _ in acc.CRITERIA if num == 11)
    cached = acc.run_criterion
    monkeypatch.setattr(
        acc, "run_criterion",
        lambda num: (num, name, False, "forced failure") if num == 11 else cached(num),
    )
    code, lines = verify_lines(capsys)
    assert code == 1
    assert len(lines) == 12
    assert lines[10] == "criterion 11: FAIL — dimension sums: forced failure"
