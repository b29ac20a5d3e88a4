"""Content-addressed store for computed artifacts, canonical JSON and DOT.

Every artifact is one JSON file named by the sha256 of its canonical form
(sorted keys, compact separators, integer matrices as integer arrays,
complex entries as [re, im] pairs), next to a human-readable index. Records
hold their matrices as int64 and float64 ndarrays, written exactly as
json.dumps writes the nested lists. `get` refuses a file whose bytes do not
hash to its name; in the record it returns, every object member that is a
rectangular integer array is an int64 ndarray. Objects are written to a
unique temp file in the same directory and renamed into place; the index
only ever gains whole lines, appended. So any number of writers and readers
may share one catalog: concurrent puts of one record write the same bytes,
and an index line is never lost, though a race may repeat it.
"""

import hashlib
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import CertificationError, __version__

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


# --- canonical JSON ---------------------------------------------------------
# The text is exactly json.dumps(obj, sort_keys=True, separators=(",", ":"),
# allow_nan=False), with ndarray leaves written as their nested lists would
# be. Integer arrays in int64 range are written by filling one uint8 buffer
# with digits, commas and brackets, about _CHUNK entries at a time; every other
# array goes through json.dumps(a.tolist()).

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode

_CHUNK = 1 << 15  # entries per buffer; keeps the temporaries near 1 MB
_INT64 = np.iinfo(np.int64)
_COMMA, _CLOSE, _OPEN, _MINUS, _ZERO = b",][-0"


def _int_items(a) -> bytes:
    """Canonical text of a nonempty int64 array with ndim >= 1 and no entry
    -2**63 (whose magnitude int64 cannot hold), without the outer brackets.

    Entry i is its sign and digits, then m_i closers, a comma and m_i
    openers, where m_i counts the trailing axes that end at it; the last
    entry has only its closers. After the d - 1 leading openers, entry i's
    separator ends at index base_i = (widths of entries 0..i) + d - 2."""
    d, flat = a.ndim, a.ravel()
    lo, hi = int(flat.min()), int(flat.max())
    v = np.abs(flat) if lo < 0 else flat
    w = np.full(flat.size, 2, np.intp)  # one digit and a comma
    p = 10
    while p <= max(hi, -lo):
        w += v >= p
        p *= 10
    if lo < 0:
        w += flat < 0
    steps = np.cumprod(a.shape[:0:-1])
    for step in steps:
        w[step - 1::step] += 2
    base = np.cumsum(w, out=w)
    base += d - 2
    buf = np.full(int(base[-1]) - d + 1, _COMMA, np.uint8)
    pos = base - 1  # each entry's last digit
    if d > 1:  # the entries that end at least one axis
        ends = slice(steps[0] - 1, None, steps[0])
        m = np.ones(len(pos[ends]), np.intp)
        for step in steps[1:]:
            m[step // steps[0] - 1::step // steps[0]] += 1
        e = base[ends] - 2 * m
        pos[ends] = e - 1
        for j in range(d - 1):
            at = m > j
            buf[e[at] + j] = _CLOSE
            at[-1] = False  # the last entry has no openers
            buf[e[at] + m[at] + 1 + j] = _OPEN
        buf[: d - 1] = _OPEN
    if lo < 0:
        neg = np.flatnonzero(flat < 0)
        buf[np.where(neg > 0, base[neg - 1] + 1, d - 1)] = _MINUS
    while v.size:
        q = v // 10
        digit = (v - 10 * q).astype(np.uint8)
        digit += _ZERO
        buf[pos] = digit
        more = q > 0
        v, pos = q[more], pos[more] - 1
    return buf.tobytes()


def _fast_ints(a) -> bool:
    if a.dtype.kind not in "iu" or a.ndim == 0 or a.size == 0:
        return False
    if a.dtype == np.int64:
        return int(a.min()) > _INT64.min
    return a.dtype.kind == "i" or a.dtype.itemsize < 8 or int(a.max()) <= _INT64.max


def _array_pieces(a):
    if not _fast_ints(a):
        yield _dumps(a.tolist())
        return
    rows = max(1, _CHUNK // (a.size // len(a)))
    for i in range(0, len(a), rows):
        yield "," if i else "["
        yield _int_items(a[i:i + rows].astype(np.int64, copy=False)).decode("ascii")
    yield "]"


def _pieces(obj):
    """Canonical JSON of obj as a sequence of str pieces. json's own encoder
    writes every part that holds no ndarray."""
    if isinstance(obj, np.ndarray):
        yield from _array_pieces(obj)
        return
    try:
        text = _dumps(obj)
    except TypeError:  # an ndarray somewhere inside, or a true type error
        if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
            sep = "{"
            for k in sorted(obj):
                yield f"{sep}{_dumps(k)}:"
                yield from _pieces(obj[k])
                sep = ","
            yield "}"
        elif isinstance(obj, (list, tuple)):
            sep = "["
            for x in obj:
                yield sep
                yield from _pieces(x)
                sep = ","
            yield "]"
        else:
            raise
    else:
        yield text


def canonical_json(obj) -> str:
    return "".join(_pieces(obj))


def _sha256(obj) -> str:
    digest = hashlib.sha256()
    for piece in _pieces(obj):
        digest.update(piece.encode())
    return digest.hexdigest()


# --- decoding ---------------------------------------------------------------
# An array that is an object member (or the whole text) and reads as a
# rectangular integer tensor decodes to an int64 ndarray: np.fromstring on a
# batch of top-level items at a time, with the shape read off the brackets.
# The batch is accepted only if re-encoding it gives back its text byte for
# byte; every other value is left to json's own scanner.

_JSON = json.JSONDecoder()
_OPENERS = re.compile(r"\[+")


def _tensor_at(s, idx):
    """(array, end) for the integer tensor whose text starts at s[idx], or
    None."""
    d = _OPENERS.match(s, idx).end() - idx
    end = s.find("]" * d, idx) + d
    if end < d:
        return None
    shape = []
    for j in range(d - 1, 0, -1):  # trailing axes, read off the first item
        sep = "]" * (j - 1) + "," + "[" * (j - 1)
        first = s.find("]" * j, idx)
        shape.append(s.count(sep, idx, first + j) + 1)
    item = math.prod(shape)
    sep = "]" * (d - 1) + "," + "[" * (d - 1)
    rows = s.count(sep, idx, end) + 1
    if rows * item > (end - idx) // 2:  # each entry needs a digit and a separator
        return None
    try:
        out = np.empty((rows, *shape), np.int64)
    except ValueError:  # more axes than an ndarray holds
        return None
    budget = 2 * _CHUNK  # characters per batch, about _CHUNK entries
    row, pos = 0, idx + 1  # pos: start of the next batch of items
    while row < len(out):
        cut = s.find(sep, pos + budget, end)
        cut = end - 1 if cut < 0 else cut + d - 1  # batch ends before cut
        text = s[pos:cut]
        try:
            vals = np.fromstring(text.replace("[", "").replace("]", ""), np.int64, sep=",")
        except ValueError:  # not a list of integers
            return None
        k, rest = divmod(vals.size, item)
        if rest or k == 0 or row + k > len(out):
            return None
        batch = vals.reshape(k, *shape)
        if _int_items(batch) != text.encode():
            return None
        out[row:row + k] = batch
        row, pos = row + k, cut + 1
    return (out, end) if pos == end else None  # no items left over


def _scan_once(s, idx):
    if s.startswith("{", idx):
        return json.decoder.JSONObject((s, idx + 1), True, _scan_once, None, None, {})
    if s.startswith("[", idx):
        hit = _tensor_at(s, idx)
        if hit is not None:
            return hit
    return _JSON.scan_once(s, idx)


def _loads(text):
    """json.loads(text), with integer tensors decoded as int64 ndarrays."""
    ws = json.decoder.WHITESPACE.match
    idx = ws(text, 0).end()
    try:
        obj, end = _scan_once(text, idx)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", text, err.value) from None
    end = ws(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return obj


def int_matrix(m):
    """An int64 array (bool entries become 1 and 0), or nested lists of
    Python ints for entries past int64."""
    a = np.asarray(m)
    if a.dtype.kind == "b" or (a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64)):
        return a.astype(np.int64, copy=False)
    # entries past int64 (object arrays, uint64) convert one at a time
    return [[int(x) for x in row] for row in a]


def complex_matrix(m):
    """A float64 array of [re, im] pairs along a new last axis."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1)


@dataclass(frozen=True)
class ArtifactRecord:
    kind: str
    provenance: dict
    payload: dict

    def body(self) -> dict:
        return {"kind": self.kind, "provenance": self.provenance, "payload": self.payload}

    @property
    def content_hash(self) -> str:
        return _sha256(self.body())

    def to_json(self) -> str:
        return canonical_json(self.body())

    @classmethod
    def from_json(cls, text: str) -> "ArtifactRecord":
        d = _loads(text)
        return cls(kind=d["kind"], provenance=d["provenance"], payload=d["payload"])


def make_provenance(inputs=None) -> dict:
    return {
        "tool": f"fusioncat {__version__}",
        "inputs": dict(sorted((inputs or {}).items())),
    }


# --- schema checking --------------------------------------------------------
# The shipped schema files are full draft-07 documents for outside consumers;
# internally only the structural subset below is enforced (const, type,
# required, properties), which is all the schemas use, and an ndarray at an
# array node must have the ndim and dtype its nested items describe.

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


# an ndarray stands for nested arrays of these leaf types
_ARRAY_DTYPES = {"integer": (np.int64,), "number": (np.float64, np.int64)}


def _check_array(schema, a, path):
    depth, leaf = 0, schema
    while leaf.get("type") == "array":
        depth, leaf = depth + 1, leaf.get("items", {})
    dtypes = _ARRAY_DTYPES.get(leaf.get("type"), ())
    if a.ndim != depth or a.dtype not in dtypes:
        raise ValueError(f"{path}: expected a {depth}-d {leaf.get('type')} array, got {a.ndim}-d {a.dtype}")


def _check_node(schema, value, path):
    if isinstance(value, np.ndarray) and schema.get("type") == "array":
        return _check_array(schema, value, path)
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
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != h:
            raise CertificationError("catalog", f"{path} does not hash to its name")
        return ArtifactRecord.from_json(data.decode())

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
        "matrices": np.stack([int_matrix(mats[l]) for l in labels]),
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
