"""Content-addressed store for computed artifacts, canonical JSON and DOT.

Every artifact is one JSON file named by the sha256 of its canonical form
(sorted keys, compact separators, integer matrices as integer arrays,
complex entries as [re, im] pairs), next to a human-readable index. Records
hold their matrices as int64 and float64 ndarrays, written exactly as
json.dumps writes the nested lists, with each distinct float formatted once.
`put` streams the text, a batch at a time, into the hash and a unique temp
file in the same directory, renamed into place unless the object exists.
`get` opens the file once, refuses it unless its bytes hash to its name, and
decodes it through a window of a few reads, which drops a tensor's text
batch by batch. In the record, every object member that is a rectangular
array of integers is an int64 ndarray, and one of floats a float64 ndarray.
The index only gains whole lines, appended, so any number of writers and
readers may share one catalog: concurrent puts of one record write the same
bytes, and an index line is never lost, though a race may repeat it.
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

from . import ARTIFACT_KINDS, CertificationError, MissingArtifact, __version__

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

ENV_ROOT = "FUSIONCAT_CATALOG"


# --- canonical JSON ---------------------------------------------------------
# The text is exactly json.dumps(obj, sort_keys=True, separators=(",", ":"),
# allow_nan=False), with ndarray leaves written as their nested lists would
# be. An integer array, or a finite float64 array, with ndim >= 1 and at least
# one entry is written by _items, about _CHUNK entries at a time; every other
# array goes through json.dumps(a.tolist()).

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode

_CHUNK = 1 << 15  # entries per buffer; keeps the temporaries near 1 MB
_COMMA, _CLOSE, _OPEN, _MINUS, _ZERO = b",][-0"


def _group_table():
    """One little-endian word each: entry r < 10**4 is r as four digits,
    and entry 10**4 + r is r without its leading zeros, right-aligned in
    NUL bytes (so "0" for 0)."""
    r, p = np.arange(10**4, dtype=np.uint16)[:, None], 10 ** np.arange(3, -1, -1, dtype=np.uint16)
    digits = (r // p % 10 + _ZERO).astype(np.uint8)
    lead = np.where(np.maximum(r, 1) < p, 0, digits).astype(np.uint8)
    return np.concatenate([digits, lead]).view("<u4").ravel()


_GROUP = _group_table()
_SIGN = np.frombuffer(b"\0\0\0-", "<u4")[0]  # the minus sign, right-aligned


def _digit_groups(flat):
    """The text of each integer of flat, right-aligned in a NUL-padded row
    of uint8: its sign word, if any entry is negative, then its digits four
    at a time, the leading group without leading zeros and the groups above
    it empty."""
    v = flat.astype(np.uint64)
    neg = flat < 0
    np.negative(v, out=v, where=neg)  # the magnitude, also of -2**63
    sign = int(neg.any())
    n = (len(str(int(v.max()))) + 3) // 4
    words = np.zeros((len(v), sign + n), "<u4")
    if sign:
        words[np.flatnonzero(neg), 0] = _SIGN
    rows = np.arange(len(v))  # the entries with digits left
    for col in range(sign + n - 1, sign - 1, -1):
        q = v // 10**4
        r = (v - q * 10**4).astype(np.intp)
        r += 10**4 * (q == 0)  # the leading group
        words[rows, col] = _GROUP[r]
        more = np.flatnonzero(q)
        v, rows = q[more], rows[more]
    return words.view(np.uint8)


def _tokens(flat):
    """The canonical text of each entry of flat, one row of a uint8 array
    each, padded with NUL bytes. A float is formatted as json formats it,
    float.__repr__, once per distinct bit pattern (so -0.0 keeps its own
    text). An integer is str of it, looked up in a table of the batch's
    range when that is narrow, and else built from _GROUP."""
    if flat.dtype.kind == "f":
        bits, where = np.unique(flat.view(np.int64), return_inverse=True)
        text = list(map(float.__repr__, bits.view(np.float64).tolist()))
        return _gather(np.array(text, dtype=bytes), where)
    lo, hi = int(flat.min()), int(flat.max())
    if hi - lo >= flat.size // 16:  # a str costs about what 16 entries from _GROUP cost
        return _digit_groups(flat)
    if flat.dtype.kind == "u":
        where = flat - flat.dtype.type(lo)
    else:
        where = np.subtract(flat, lo, dtype=np.int64)
    return _gather(np.array([str(x) for x in range(lo, hi + 1)], dtype=bytes), where)


def _gather(table, where):
    """Row where[i] of table (an array of bytes) for every i, as a uint8
    array of the table's width."""
    return table.view(f"V{table.itemsize}")[where].view(np.uint8).reshape(len(where), table.itemsize)


def _steps(item, width):
    """step[k]: the bytes from one subitem of axis k to the next in the text
    of an array whose items have the shape `item` and whose tokens are
    `width` bytes each; the number of items does not enter.

    The text is regular: an item over axes k.. is "[", its n_k subitems
    each followed by a comma, and "]" in place of the last comma. Its
    length f_k is n_k (f_{k+1} + 1) + 1, with f_d = width, so the step of
    axis k - 1 is f_k + 1, and subitem j starts j (f_{k+1} + 1) + 1 bytes
    into its item."""
    step = [width + 1]
    for n in reversed(item):
        step.insert(0, n * step[0] + 2)
    return step


def _view(buf, offset, shape, step, tail=()):
    """Strided view of buf from offset: axes of the given shape and steps,
    then contiguous axes of the tail's shape."""
    return np.lib.stride_tricks.as_strided(
        buf[offset:], shape + tail, tuple(step[:len(shape)]) + (1,) * len(tail))


def _layout(shape, tokens) -> bytes:
    """The text of an array of the given shape (ndim >= 1, at least one
    entry) whose entry i has the token in row i of tokens, without the
    outer brackets. Every token is laid out at the width of the rows (see
    _steps): the commas fill the buffer, the brackets and the tokens go in
    through strided views, and the NUL bytes that pad the shorter tokens
    are then dropped."""
    d, width = len(shape), tokens.shape[1]
    step = _steps(shape[1:], width)
    buf = np.full(shape[0] * step[0], _COMMA, np.uint8)  # a comma after the last item too
    for k in range(1, d):  # the brackets of the items over axes k..
        _view(buf, k - 1, shape[:k], step)[...] = _OPEN
        _view(buf, k - 3 + step[k - 1], shape[:k], step)[...] = _CLOSE
    _view(buf, d - 1, shape, step, (width,))[...] = tokens.reshape(*shape, width)
    buf = buf[:-1]
    if not tokens.all():  # some token is shorter than the width
        buf = buf[buf != 0]
    return buf.tobytes()


def _items(a) -> bytes:
    """Canonical text of a nonempty integer or finite float64 array with
    ndim >= 1, without the outer brackets."""
    return _layout(a.shape, _tokens(a.ravel()))


def _fast(a) -> bool:
    if a.ndim == 0 or a.size == 0:
        return False
    return a.dtype.kind in "iu" or (a.dtype == np.float64 and bool(np.isfinite(a).all()))


def _array_pieces(a):
    if not _fast(a):
        yield _dumps(a.tolist())  # raises json's ValueError on nan and inf
        return
    rows = max(1, _CHUNK // (a.size // len(a)))
    for i in range(0, len(a), rows):
        yield "," if i else "["
        yield _items(a[i:i + rows]).decode("ascii")
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
# rectangular tensor of integers or of floats decodes to an int64 or float64
# ndarray: one pass counts its items, a second fills it a batch at a time. A
# batch that holds a "." or an "e" is read without its brackets, as one flat
# list, by json's own scanner and converted by np.array; any other is read as
# integers, with numpy digit arithmetic. A batch is accepted only if _items
# writes its values back to its text byte for byte; every other value, and
# every key, is left to json's own scanner.

_JSON = json.JSONDecoder()
_OPENERS = re.compile(r"\[+")
_WS = json.decoder.WHITESPACE
_READ = 1 << 16  # characters (bytes, for the hash) per read of an object file


class _Window:
    """s: the text from offset base to end not yet dropped, of a text given
    whole or of the text file fh. Offsets count from the start of the text,
    so one stays valid until more() drops the text before it."""

    def __init__(self, text, fh=None):
        self.s, self.base, self.end, self.fh = text, 0, len(text), fh

    def more(self, keep):
        """Drop the text before offset keep and read on, _READ characters or
        as many as the window then holds; False at the end of the text."""
        data = self.fh and self.fh.read(max(_READ, self.end - keep))
        if data:
            self.s, self.base, self.end = self.s[keep - self.base:] + data, keep, self.end + len(data)
        return bool(data)

    def reset(self, mark):
        self.s, self.base, self.end, at = mark
        if self.fh:
            self.fh.seek(at)

    def skip(self, pattern, i):
        """(the character after the match of pattern at offset i, its end)."""
        return self.scan(lambda s, j: (s[(k := pattern.match(s, j).end()):k + 1], k), i)

    def scan(self, fn, i):
        """fn(s, i) in offsets; read on, and again, while fn fails or ends at the window's end."""
        while True:
            try:
                value, end = fn(self.s, i - self.base)
            except (StopIteration, ValueError):
                if not self.more(i):
                    raise
            else:
                if self.base + end < self.end or not self.more(i):
                    return value, self.base + end


def _int_tokens(text):
    """The integers that the runs of digits in text read as, or None for
    no run or for a run of more than 19 digits. A run that is no integer
    token gives a value that _items does not write as it."""
    c = np.frombuffer(f",{text},".encode(), np.uint8)
    digit = c - np.uint8(_ZERO)  # the other bytes wrap past 9
    run = digit < 10
    first, last = run > np.append(False, run[:-1]), run > np.append(run[1:], False)  # of each run
    # np.compress picks the entries of a mask several times faster than
    # indexing by the mask does
    vals = np.compress(last, digit).astype(np.int64)
    if not len(vals):
        return None
    if (last & ~first).any():  # a run of more than one digit
        pos = np.flatnonzero(last)
        width = pos + 1 - np.flatnonzero(first)
        if width.max() > 19:
            return None
        for j in range(1, int(width.max())):  # the digit j places left of the last
            vals += np.multiply(np.where(width > j, digit[pos - j], 0), 10**j, dtype=np.int64)
    if "-" in text:
        np.negative(vals, out=vals, where=np.compress(first[1:], c[:-1] == _MINUS))
    return vals


def _read_items(text, item):
    """The int64 or float64 array of items of shape `item` (a tuple) that
    _items writes as `text`, or None."""
    if "." in text or "e" in text:
        try:
            vals = np.array(_JSON.decode("[" + text.replace("[", "").replace("]", "") + "]"))
        except ValueError:  # not JSON
            return None
        if vals.dtype != np.float64:
            return None
    else:
        vals = _int_tokens(text)
    if vals is None or len(vals) % math.prod(item):
        return None
    vals = vals.reshape(-1, *item)
    return vals if len(vals) and _items(vals) == text.encode() else None


def _tensor_at(w, i, mark):
    """(array, end) for the integer or float tensor whose text starts at
    offset i, or None; mark is the window's there."""
    d = w.skip(_OPENERS, i)[1] - i
    # the first pass: rows - 1 separators of top-level items before lo
    close, sep, lo, rows = "]" * d, "]" * (d - 1) + "," + "[" * (d - 1), i, 1
    while (end := w.s.find(close, lo - w.base)) < 0:
        rows += w.s.count(sep, lo - w.base)
        lo = max(lo, w.end - 2 * d + 2)  # too short to hold a separator
        if not w.more(lo):
            return None
    rows, end = rows + w.s.count(sep, lo - w.base, end), w.base + end + d
    w.reset(mark)
    while (head := w.s.find(sep, i - w.base, end - w.base)) < 0 and w.end < end and w.more(i):
        pass  # the first item is now in the window
    s, idx = w.s, i - w.base  # trailing axes, read off the first item
    shape = [s.count("]" * (j - 1) + "," + "[" * (j - 1), idx, s.find("]" * j, idx) + j) + 1
             for j in range(d - 1, 0, -1)]
    item, head, s = math.prod(shape), end if head < 0 else w.base + head, None
    if rows * item > (end - i) // 2:  # each entry needs a digit and a separator
        return None
    try:
        out = np.empty((rows, *shape), np.int64)
    except ValueError:  # more axes than an ndarray holds
        return None
    # _CHUNK entries less one item: a batch ends at the first item past it
    budget = max(0, _CHUNK - item) * (head - i) // item
    row, pos = 0, i + 1  # pos: start of the next batch of items
    while row < len(out):
        while (cut := w.s.find(sep, pos + budget - w.base, end - w.base)) < 0 and w.end < end and w.more(pos):
            pass  # the window drops the batches before pos
        cut = end - 1 if cut < 0 else w.base + cut + d - 1  # batch ends before cut
        batch = _read_items(w.s[pos - w.base:cut - w.base], tuple(shape))
        if batch is None or row + len(batch) > len(out):
            return None
        if row == 0:
            out = out.view(batch.dtype)
        elif batch.dtype != out.dtype:
            return None
        out[row:row + len(batch)] = batch
        row, pos, batch = row + len(batch), cut + 1, None  # freed before the next batch
    return (out, end) if pos == end else None  # no items left over


def _object(w, i):
    """(dict, end) for the object whose "{" is at offset i, with values read
    by _value; None where the text is no object, for json's scanner."""
    obj, (c, i) = {}, w.skip(_WS, i + 1)
    while c == '"':
        key, i = w.scan(json.decoder.scanstring, i + 1)
        c, i = w.skip(_WS, i)
        if c != ":":
            return None
        obj[key], i = _value(w, *w.skip(_WS, i + 1))
        c, i = w.skip(_WS, i)
        if c == "}":
            return obj, i + 1
        c, i = w.skip(_WS, i + 1) if c == "," else ("", i)
    return (obj, i + 1) if c == "}" and not obj else None


def _value(w, c, i):
    """(value, end) for the value that starts with c at offset i: an object
    or a tensor read here, else what json's scanner reads from i."""
    if c in ("{", "["):
        mark = w.s, w.base, w.end, w.fh and w.fh.tell()
        hit = _object(w, i) if c == "{" else _tensor_at(w, i, mark)
        if hit is not None:
            return hit
        w.reset(mark)  # json's scanner reads it again from its start
    try:
        return w.scan(_JSON.scan_once, i)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", w.s, err.value) from None


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
    def from_json(cls, text: str, fh=None) -> "ArtifactRecord":
        """The record of text, then of the rest of the text file fh."""
        w = _Window(text, fh)
        d, end = _value(w, *w.skip(_WS, 0))
        if (extra := w.skip(_WS, end))[0]:
            raise json.JSONDecodeError("Extra data", w.s, extra[1] - w.base)
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
        self.objects.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.objects, prefix=".", suffix=".tmp")
        digest = hashlib.sha256()
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fd, 0o644)  # mkstemp makes it private
                for data in map(str.encode, _pieces(rec.body())):
                    digest.update(data)
                    fh.write(data)
            h = digest.hexdigest()
            path = self.objects / f"{h}.json"
            if path.exists():  # never rewritten
                os.unlink(tmp)
            else:
                os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        self._index_add(h, rec.kind)
        return h

    def get(self, h: str) -> ArtifactRecord:
        path = self.objects / f"{h}.json"
        try:
            fh = path.open(encoding="utf-8", newline="")
        except FileNotFoundError:
            raise MissingArtifact(h) from None
        with fh:  # hashed through its bytes, then decoded through its text
            digest = hashlib.sha256()
            for data in iter(lambda: fh.buffer.read(_READ), b""):
                digest.update(data)
            if digest.hexdigest() != h:
                raise CertificationError("catalog", f"{path} does not hash to its name")
            fh.seek(0)
            return ArtifactRecord.from_json("", fh)

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
    triples, row by row; an undirected matrix must be symmetric and
    contributes each unordered pair once."""
    M = np.asarray(mat)
    if not directed:
        if not np.array_equal(M, M.T):
            raise ValueError("undirected edge class needs a symmetric matrix")
        M = np.triu(M)
    return [[names[i], names[j], int(M[i, j])] for i, j in zip(*np.nonzero(M))]


def _edge_class(name, color, edges, directed=True, style="solid"):
    return {"name": name, "directed": directed, "color": color, "style": style, "edges": edges}


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

def fusion_ring_record(spec, level, labels, ring, inputs=None) -> ArtifactRecord:
    if [tuple(l) for l in labels] != ring.labels:
        raise ValueError("the labels are not the fusion ring's labels in order")
    payload = {
        "algebra": f"{spec.family}{spec.rank}",
        "level": int(level),
        "labels": [list(l) for l in labels],
        "matrices": ring.tensor,
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


def graph_algebra_record(galg, graph, qg, inputs=None) -> ArtifactRecord:
    vertices = list(galg.G)
    names = [str(a) for a in vertices]
    payload = {
        "vertices": vertices,
        "matrices": [int_matrix(galg.G[a]) for a in vertices],
        "twist": [qg.twist[a] for a in vertices],
        "conjugate": [qg.conj[a] for a in vertices],
        "grading": [graph.tau[a] for a in vertices],
        "doublet_survivors": int(galg.doublet_survivors),
        "graph": {
            "vertices": names,
            "edge_classes": [
                _edge_class("left-fundamental", "red", edges_of(graph.generators[0], names)),
                _edge_class("middle-fundamental", "blue", edges_of(graph.generators[1], names, directed=False),
                            directed=False),
            ],
        },
    }
    return ArtifactRecord("graph-algebra", make_provenance(inputs), payload)


def oc_graph_record(oc, smap, inputs=None) -> ArtifactRecord:
    from . import graphalgebra as ga

    qg, pairs = oc.qg, oc.pairs
    names = [f"{a}x{b}" for (a, b) in pairs]
    chiral = []
    for p in pairs:
        q = ga.chiral_conjugate(qg, p)
        i, j = ga.pair_index(qg, p), ga.pair_index(qg, q)
        if i < j:
            chiral.append([names[i], names[j], 1])
    # the left generator is the vertex the left fundamental label takes 1
    # to, in the unit's sector; the right generator is its chiral conjugate
    left = (qg.reach[(1, 0, 0)], 1)
    right = ga.chiral_conjugate(qg, left)
    payload = {
        "pairs": [[a, b] for (a, b) in pairs],
        "slots": [[z, list(smap.pair_of[z])] for z in sorted(smap.pair_of)],
        "chiral_pairs": chiral,
        "graph": {
            "vertices": names,
            "edge_classes": [
                _edge_class("left-generator", "red", edges_of(oc.O[left], names)),
                _edge_class("right-generator", "blue", edges_of(oc.O[right], names)),
                _edge_class("chiral-conjugation", "black", chiral, directed=False, style="dashed"),
            ],
        },
    }
    return ArtifactRecord("oc-graph", make_provenance(inputs), payload)
