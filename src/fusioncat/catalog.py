"""Content-addressed store for computed artifacts, canonical JSON and DOT.

Every artifact is one JSON file named by the sha256 of its canonical form
(sorted keys, compact separators, integer matrices as integer arrays,
complex entries as [re, im] pairs), next to a human-readable index. Objects
are written to a unique temp file in the same directory and renamed into
place; the index only ever gains whole lines, appended. So any number of
writers and readers may share one catalog: concurrent puts of one record
write the same bytes, and an index line is never lost, though a race may
repeat it.
"""

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__

__all__ = [
    "ARTIFACT_KINDS",
    "ENV_ROOT",
    "MissingArtifact",
    "canonical_json",
    "int_matrix",
    "complex_matrix",
    "ArtifactRecord",
    "make_provenance",
    "validate_record",
    "Catalog",
    "edges_of",
    "emit_dot",
    "fusion_ring_record",
    "modular_data_record",
    "invariant_record",
    "toric_family_record",
    "graph_algebra_record",
    "oc_graph_record",
]

ARTIFACT_KINDS = (
    "fusion-ring",
    "modular-data",
    "invariant",
    "toric-family",
    "oc-graph",
    "graph-algebra",
)

ENV_ROOT = "FUSIONCAT_CATALOG"


class MissingArtifact(KeyError):
    """Requested hash or kind is not in the catalog."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def int_matrix(m):
    """Nested lists of Python ints; bool entries encode as 1 and 0."""
    a = np.asarray(m)
    if a.dtype.kind == "b" or (a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)):
        return a.astype(np.int64).tolist()
    # entries past int64 (object arrays, uint64) convert one at a time
    return [[int(x) for x in row] for row in a]


def complex_matrix(m):
    """Nested lists of [re, im] float pairs."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


@dataclass(frozen=True)
class ArtifactRecord:
    kind: str
    provenance: dict
    payload: dict

    def body(self) -> dict:
        return {"kind": self.kind, "provenance": self.provenance, "payload": self.payload}

    @property
    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def to_json(self) -> str:
        return canonical_json(self.body())

    @classmethod
    def from_json(cls, text: str) -> "ArtifactRecord":
        d = json.loads(text)
        return cls(kind=d["kind"], provenance=d["provenance"], payload=d["payload"])


def make_provenance(inputs=None) -> dict:
    return {
        "tool": f"fusioncat {__version__}",
        "inputs": dict(sorted((inputs or {}).items())),
    }


# --- schema checking --------------------------------------------------------
# The shipped schema files are full draft-07 documents for outside consumers;
# internally only the structural subset below is enforced (const, type,
# required, properties), which is all the schemas use.

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


def _check_node(schema, value, path):
    if "const" in schema and value != schema["const"]:
        raise ValueError(f"{path}: expected {schema['const']!r}, got {value!r}")
    if "type" in schema and not isinstance(value, _TYPES[schema["type"]]):
        raise ValueError(f"{path}: expected {schema['type']}, got {type(value).__name__}")
    for key in schema.get("required", []):
        if key not in value:
            raise ValueError(f"{path}: missing required key {key!r}")
    for key, sub in schema.get("properties", {}).items():
        if key in value:
            _check_node(sub, value[key], f"{path}.{key}")


def load_schema(kind: str) -> dict:
    if kind not in ARTIFACT_KINDS:
        raise ValueError(f"unknown artifact kind {kind!r}")
    text = resources.files("fusioncat").joinpath(f"schemas/{kind}.schema.json").read_text()
    return json.loads(text)


def validate_record(rec: ArtifactRecord):
    _check_node(load_schema(rec.kind), rec.body(), rec.kind)


# --- the store --------------------------------------------------------------

class Catalog:
    def __init__(self, root=None):
        self.root = Path(
            root or os.environ.get(ENV_ROOT) or Path.cwd() / "fusioncat-catalog"
        )
        self.objects = self.root / "objects"
        self.index = self.root / "index.txt"

    def put(self, rec: ArtifactRecord) -> str:
        validate_record(rec)
        data = rec.to_json().encode()
        h = hashlib.sha256(data).hexdigest()
        self.objects.mkdir(parents=True, exist_ok=True)
        path = self.objects / f"{h}.json"
        if not path.exists():
            fd, tmp = tempfile.mkstemp(dir=self.objects, prefix=f".{h}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    os.fchmod(fd, 0o644)  # mkstemp makes it private
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        self._index_add(h, rec.kind)
        return h

    def get(self, h: str) -> ArtifactRecord:
        path = self.objects / f"{h}.json"
        if not path.exists():
            raise MissingArtifact(h)
        return ArtifactRecord.from_json(path.read_text())

    def find(self, kind: str) -> list:
        """Hashes of the given kind, lexicographically sorted."""
        return sorted({h for h, k in self._index_entries() if k == kind})

    def _index_entries(self) -> list:
        if not self.index.exists():
            return []
        return [tuple(line.split()) for line in self.index.read_text().splitlines() if line.strip()]

    def _index_add(self, h: str, kind: str):
        if (h, kind) in self._index_entries():
            return
        # one short write in append mode: concurrent writers never clobber
        # each other's lines
        with open(self.index, "a") as fh:
            fh.write(f"{h}  {kind}\n")


# --- DOT emission -----------------------------------------------------------

def edges_of(mat, names, directed=True):
    """Nonzero cells of an adjacency matrix as (source, target, mult)
    triples; an undirected matrix must be symmetric and contributes each
    unordered pair once."""
    M = np.asarray(mat)
    out = []
    if directed:
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                if M[i, j]:
                    out.append([names[i], names[j], int(M[i, j])])
    else:
        if not np.array_equal(M, M.T):
            raise ValueError("undirected edge class needs a symmetric matrix")
        for i in range(M.shape[0]):
            for j in range(i, M.shape[1]):
                if M[i, j]:
                    out.append([names[i], names[j], int(M[i, j])])
    return out


def emit_dot(graph: dict, name: str = "G") -> str:
    """Deterministic DOT text for a payload with vertices and classed edge
    sets. Undirected classes render with dir=none; multiplicity renders as
    parallel edges."""
    lines = [f'digraph "{name}" {{']
    for v in graph.get("vertices", []):
        lines.append(f'  "{v}";')
    for cls in graph.get("edge_classes", []):
        attrs = [f"color={cls['color']}", f"style={cls['style']}"]
        if not cls["directed"]:
            attrs.append("dir=none")
        rendered = ", ".join(attrs)
        for u, v, m in cls["edges"]:
            for _ in range(int(m)):
                lines.append(f'  "{u}" -> "{v}" [{rendered}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- payload builders, one per artifact kind --------------------------------

def fusion_ring_record(spec, level, labels, mats, inputs=None) -> ArtifactRecord:
    payload = {
        "algebra": f"{spec.family}{spec.rank}",
        "level": int(level),
        "labels": [list(l) for l in labels],
        "matrices": [int_matrix(mats[l]) for l in labels],
    }
    return ArtifactRecord("fusion-ring", make_provenance(inputs), payload)


def modular_data_record(data, inputs=None) -> ArtifactRecord:
    payload = {
        "algebra": f"{data.spec.family}{data.spec.rank}",
        "level": int(data.level),
        "labels": [list(l) for l in data.labels],
        "s": complex_matrix(data.s),
        "t_diagonal": [[float(z.real), float(z.imag)] for z in np.diag(data.t)],
        "tol": 1e-9,
        "conformal_dimensions": [str(h) for h in data.hs],
        "central_charge": str(data.central_charge),
    }
    return ArtifactRecord("modular-data", make_provenance(inputs), payload)


def invariant_record(inv, data, ambient_name, inputs=None) -> ArtifactRecord:
    payload = {
        "ambient": ambient_name,
        "algebra": f"{data.spec.family}{data.spec.rank}",
        "level": int(data.level),
        "labels": [list(l) for l in data.labels],
        "matrix": int_matrix(inv.matrix),
        "branches": [[list(lam), [int(c) for c in v]] for lam, v in inv.branches],
    }
    return ArtifactRecord("invariant", make_provenance(inputs), payload)


def toric_family_record(fam, lift, inputs=None) -> ArtifactRecord:
    slot_w = [fam.ws[i] for (i, _) in lift.slots]
    payload = {
        "labels": [list(l) for l in fam.labels],
        "rank": int(fam.rank),
        "multiplicities": [int(m) for m in fam.mult],
        "slots": [[int(i), int(c)] for (i, c) in lift.slots],
        "matrices": [int_matrix(w) for w in slot_w],
    }
    return ArtifactRecord("toric-family", make_provenance(inputs), payload)


def graph_algebra_record(galg, graph, inputs=None) -> ArtifactRecord:
    from . import graphalgebra as ga

    names = [str(a) for a in range(1, 13)]
    payload = {
        "vertices": list(range(1, 13)),
        "matrices": [int_matrix(galg.G[a]) for a in range(1, 13)],
        "twist": [ga.TWIST[a] for a in range(1, 13)],
        "conjugate": [ga.VERTEX_CONJ[a] for a in range(1, 13)],
        "grading": [graph.tau[a] for a in range(1, 13)],
        "doublet_survivors": int(galg.doublet_survivors),
        "graph": {
            "vertices": names,
            "edge_classes": [
                {
                    "name": "left-fundamental",
                    "directed": True,
                    "color": "red",
                    "style": "solid",
                    "edges": edges_of(graph.F100, names, directed=True),
                },
                {
                    "name": "middle-fundamental",
                    "directed": False,
                    "color": "blue",
                    "style": "solid",
                    "edges": edges_of(graph.F010, names, directed=False),
                },
            ],
        },
    }
    return ArtifactRecord("graph-algebra", make_provenance(inputs), payload)


def oc_graph_record(oc, smap, inputs=None) -> ArtifactRecord:
    from . import graphalgebra as ga

    pairs = oc.pairs
    names = [f"{a}x{b}" for (a, b) in pairs]
    chiral = []
    for p in pairs:
        q = ga.chiral_conjugate(oc.galg.G, p)
        i, j = ga.pair_index(p), ga.pair_index(q)
        if i < j:
            chiral.append([names[i], names[j], 1])
    payload = {
        "pairs": [[a, b] for (a, b) in pairs],
        "slots": [[z, list(smap.pair_of[z])] for z in sorted(smap.pair_of)],
        "chiral_pairs": chiral,
        "graph": {
            "vertices": names,
            "edge_classes": [
                {
                    "name": "left-generator",
                    "directed": True,
                    "color": "red",
                    "style": "solid",
                    "edges": edges_of(oc.O[(5, 1)], names, directed=True),
                },
                {
                    "name": "right-generator",
                    "directed": True,
                    "color": "blue",
                    "style": "solid",
                    "edges": edges_of(oc.O[(9, 11)], names, directed=True),
                },
                {
                    "name": "chiral-conjugation",
                    "directed": False,
                    "color": "black",
                    "style": "dashed",
                    "edges": chiral,
                },
            ],
        },
    }
    return ArtifactRecord("oc-graph", make_provenance(inputs), payload)
