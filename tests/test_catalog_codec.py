"""The catalog's array codec against json itself, on arrays drawn by
hypothesis: canonical_json of an ndarray is json.dumps of its nested lists
for every dtype int_matrix accepts and for finite float64 arrays, and a
record read back re-encodes to the same text and holds the entries
json.loads reads. Texts the fast paths must not take are read exactly as
json.loads reads them. Catalog.get, reading an object file a few characters
at a time, returns what from_json returns for the whole text.

hypothesis is optional: without it this module is skipped.
"""

import hashlib
import json
import tempfile
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

from fusioncat import catalog as cat  # noqa: E402

SETTINGS = hypothesis.settings(
    max_examples=80, deadline=None, derandomize=True, database=None
)

I64 = np.iinfo(np.int64)
EDGES = [0, 1, 9, 10, 99, 100, -1, -9, -10, -100, I64.max, -I64.max, I64.min]
DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
# floats whose shortest repr is signed zero, subnormal, in exponent form or
# at the switch to it, or longer than the literal that made it
SPECIAL = [-0.0, 0.0, 5e-324, 1e-5, 1e-4, 1e16, 1e22, 0.1 + 0.2, -2.2250738585072014e-308]


def reference(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def values(lo, hi):
    """Single digits, multi-digit runs and the int64 edges, within [lo, hi]."""
    return st.one_of(
        st.integers(max(lo, -9), min(hi, 9)),
        st.integers(lo, hi),
        st.sampled_from([v for v in EDGES if lo <= v <= hi]),
    )


shapes = hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4)


@st.composite
def int_arrays(draw):
    """An array of a dtype int_matrix accepts, with entries in int64 range
    (object arrays also past it)."""
    shape = draw(shapes)
    kind = draw(st.sampled_from(["int", "bool", "object"]))
    if kind == "bool":
        return draw(hnp.arrays(np.bool_, shape))
    if kind == "object":
        big = st.one_of(values(int(I64.min), int(I64.max)), st.integers(-(2**70), 2**70))
        flat = draw(st.lists(big, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        a = np.empty(len(flat), dtype=object)
        a[:] = flat
        return a.reshape(shape)
    dt = np.dtype(draw(st.sampled_from(DTYPES)))
    info = np.iinfo(dt)
    return draw(hnp.arrays(dt, shape, elements=values(int(info.min), min(int(info.max), int(I64.max)))))


@st.composite
def float_arrays(draw):
    """A finite float64 array whose entries repeat: drawn from a few floats
    and the values whose text json writes in its own ways."""
    shape = draw(shapes)
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
    return draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(pool + SPECIAL)))


READ_SIZES = [1, 2, 3, 7]


def read_back(text):
    """What Catalog.get returns for an object file that holds text, stored
    under its sha256, read at each of READ_SIZES."""
    with tempfile.TemporaryDirectory() as root:
        store = cat.Catalog(root)
        store.objects.mkdir(parents=True)
        h = hashlib.sha256(text.encode()).hexdigest()
        (store.objects / f"{h}.json").write_bytes(text.encode())
        out = []
        for size in READ_SIZES:
            with mock.patch.object(cat, "_READ", size):
                out.append(store.get(h))
        return out


def assert_same_decoding(got, want, path="text"):
    """The same types throughout, and arrays of the same dtype, shape and
    bytes."""
    assert type(got) is type(want), path
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), path
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for k in want:
            assert_same_decoding(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_decoding(g, w, f"{path}[{i}]")
    else:
        assert repr(got) == repr(want), path


def assert_entrywise(got, want, path="text"):
    """got is what from_json read, want what json.loads read: the same
    entries, with ints and floats told apart and floats to the bit."""
    if isinstance(got, np.ndarray):
        assert got.dtype in (np.int64, np.float64), path
        assert json.dumps(got.tolist()) == json.dumps(want), path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for k in want:
            assert_entrywise(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_entrywise(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and json.dumps(got) == json.dumps(want), path


@pytest.mark.parametrize("dtype", DTYPES + [np.bool_, object])
def test_edge_values_of_every_dtype(dtype):
    """Every edge value the dtype holds, in 1-D and 4-D, and the 0-size
    shapes."""
    if dtype is np.bool_:
        edges = [False, True]
    elif dtype is object:
        edges = EDGES + [2**63, -(2**63) - 1, 2**70]
    else:
        info = np.iinfo(dtype)
        edges = [v for v in EDGES if info.min <= v <= min(info.max, I64.max)]
    flat = np.array(edges * 4, dtype=dtype)
    for a in (flat, flat.reshape(2, 2, len(edges), 1), flat[:0], flat[:0].reshape(3, 0)):
        assert cat.canonical_json(a) == reference(a.tolist())


@SETTINGS
@hypothesis.given(int_arrays())
@hypothesis.example(np.array([I64.min, 5, I64.max]))
@hypothesis.example(np.array([[2**63 - 1, 0]], dtype=np.uint64))
def test_array_leaf_writes_json_of_its_lists(a):
    assert cat.canonical_json(a) == reference(a.tolist())
    assert cat.canonical_json({"b": [a, "x"], "a": a}) == reference({"b": [a.tolist(), "x"], "a": a.tolist()})


@SETTINGS
@hypothesis.given(int_arrays(), int_arrays())
@hypothesis.example(np.array([[I64.min, 5]]), np.array([[-I64.max], [I64.max]]))
def test_record_text_reads_back_entry_for_entry(a, b):
    rec = cat.ArtifactRecord("fusion-ring", cat.make_provenance(), {"a": a, "b": [b, 1], "c": b})
    text = rec.to_json()
    back = cat.ArtifactRecord.from_json(text)
    assert back.to_json() == text
    assert_entrywise(back.body(), json.loads(text))
    for got in read_back(text):
        assert_same_decoding(got.body(), back.body())


def test_integer_tensors_read_as_int64_arrays():
    # both writers (a table of a narrow range, digit groups), with and
    # without signs, and runs of one digit and of several
    narrow = np.arange(4000).reshape(10, 20, 20) % 7
    for a in (narrow, narrow - 3, narrow + 10**9, np.arange(-30, 30).reshape(3, 4, 5) * 10**15,
              np.arange(60).reshape(3, 4, 5)):
        assert cat.canonical_json(a) == reference(a.tolist())
        back = cat.ArtifactRecord.from_json(cat.ArtifactRecord("invariant", {}, {"m": a}).to_json())
        m = back.payload["m"]
        assert isinstance(m, np.ndarray) and m.dtype == np.int64 and np.array_equal(m, a)


def test_int64_minimum_reads_as_an_int64_array():
    text = '{"kind":"k","payload":{"m":[[-9223372036854775808,0]]},"provenance":{}}'
    back = cat.ArtifactRecord.from_json(text)
    m = back.payload["m"]
    assert isinstance(m, np.ndarray) and m.dtype == np.int64 and m.tolist() == [[-(2**63), 0]]
    assert back.to_json() == text


@pytest.mark.parametrize("value", SPECIAL)
def test_special_floats_write_as_json_writes_them(value):
    flat = np.array([value, 1.0, value, -value])
    for a in (flat, flat.reshape(2, 1, 2, 1), flat[:0], flat[:0].reshape(3, 0)):
        assert cat.canonical_json(a) == reference(a.tolist())


@SETTINGS
@hypothesis.given(float_arrays())
@hypothesis.example(np.array([[-0.0, 0.0], [0.0, -0.0]]))
def test_float_leaf_writes_json_of_its_lists(a):
    assert cat.canonical_json(a) == reference(a.tolist())
    assert cat.canonical_json({"b": [a, 0.5], "a": a}) == reference({"b": [a.tolist(), 0.5], "a": a.tolist()})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_floats_raise_as_json_does(bad):
    a = np.array([[1.0, bad], [0.5, 2.0]])
    with pytest.raises(ValueError) as want:
        reference(a.tolist())
    with pytest.raises(ValueError) as got:
        cat.canonical_json({"s": a})
    assert str(got.value) == str(want.value)


@SETTINGS
@hypothesis.given(float_arrays(), int_arrays())
def test_float_tensors_read_back_bit_for_bit(a, b):
    text = cat.ArtifactRecord("modular-data", {}, {"s": a, "m": b}).to_json()
    back = cat.ArtifactRecord.from_json(text)
    assert back.to_json() == text
    assert_entrywise(back.body(), json.loads(text))
    s = back.payload["s"]
    if a.size:
        assert isinstance(s, np.ndarray) and s.dtype == np.float64 and s.shape == a.shape
        assert np.array_equal(s.view(np.int64), a.view(np.int64))


FALLBACK = [
    '{"kind":"k","provenance":{},"payload":{"m":[1, 2]}}',  # whitespace inside
    '{"kind":"k","provenance":{},"payload":{"m":[[1,2],[3]]}}',  # ragged
    '{"kind":"k","provenance":{},"payload":{"m":[[0,[1,1]],[2,[3,4]]]}}',  # mixed depth
    '{"kind":"k","provenance":{},"payload":{"m":"[1,2]","n":"[[3]]"}}',  # digits in strings
    '{"kind":"k","provenance":{},"payload":{"m":[-0,2]}}',  # not canonical
    '{"kind":"k","provenance":{},"payload":{"m":[9223372036854775808]}}',  # past int64
    '{"kind":"k","provenance":{},"payload":{"m":[-9223372036854775809]}}',
    '{"kind":"k","provenance":{},"payload":{"m":[[],[]],"n":[]}}',  # empty
    '{"kind":"k","provenance":{},"payload":{"m":[1.5,2]}}',
    '{"kind":"k","provenance":{},"payload":{"m":[1,2.5]}}',  # an integer among floats
    '{"kind":"k","provenance":{},"payload":{"m":[1e5,2.5]}}',  # floats not as repr writes them
    '{"kind":"k","provenance":{},"payload":{"m":[[1E+05],[0.5]]}}',
    '{"kind":"k","provenance":{},"payload":{"m":[0.50,0.5]}}',
    '{"kind":"k","provenance":{},"payload":{"m":[NaN,0.5],"n":[Infinity,-Infinity]}}',
    '{"kind":"k","provenance":{},"payload":{"m":[[0.5, 1.5],[2.5,3.5]]}}',  # whitespace
    '{"kind":"k","provenance":{},"payload":{"m":[[0.5,1.5],[2.5]]}}',  # ragged
    '{"kind":"k","provenance":{},"payload":{"m":[[0.5,1.5],[2.5,3]]}}',
    '{"kind":"k","provenance":{},"payload":{"m":[[0.5,1.5],[[2.5],3.5]]}}',  # mixed depth
    '{"kind":"k","provenance":{},"payload":{"m":[0.5,"\u00e9"],"n":[0.5,"é"],"o":[1,"é"]}}',  # not ASCII
    '{"kind":"k","provenance":{},"payload":{"m":[[1,2],["3",4]]}}',
    '{"kind":"k","provenance":{},"payload":{"m":' + "[" * 80 + "1" + "]" * 80 + "}}",  # past numpy's axes
]


@pytest.mark.parametrize("text", FALLBACK)
def test_spans_off_the_fast_path_read_as_json_loads(text):
    """Also from an object file, which the window reads again from the
    array's start when the array leaves the fast path."""
    want = json.loads(text)
    for back in [cat.ArtifactRecord.from_json(text)] + read_back(text):
        assert_entrywise(back.body(), want)
        for key, value in back.payload.items():
            assert not isinstance(value, np.ndarray), key


@pytest.mark.parametrize("last", ["[40, -40]", "[40]", "[40,-40.5]"])
def test_a_late_batch_off_the_fast_path_reads_as_json_loads(monkeypatch, last):
    """Batches of two items: when the last item leaves the fast path, the
    window has dropped the earlier batches' text, and json's scanner reads
    the array again from its start."""
    monkeypatch.setattr(cat, "_CHUNK", 4)
    items = ",".join(f"[{k},{-k}]" for k in range(40))
    text = '{"kind":"k","provenance":{},"payload":{"m":[' + items + "," + last + '],"n":[[1,2],[3,4]]}}'
    want = json.loads(text)
    for back in [cat.ArtifactRecord.from_json(text)] + read_back(text):
        assert_entrywise(back.body(), want)
        assert isinstance(back.payload["m"], list) and isinstance(back.payload["n"], np.ndarray)


@pytest.mark.parametrize("text", ['{"kind":"k","provenance":{},"payload":{"m":[01]}}',
                                  '{"kind":"k","provenance":{},"payload":{"m":[1,2,]}}',
                                  '{"kind":"k","provenance":{},"payload":{"m":[1,2]}} x',
                                  # float() reads these tokens, json does not
                                  '{"kind":"k","provenance":{},"payload":{"m":[inf,0.5]}}',
                                  '{"kind":"k","provenance":{},"payload":{"m":[1_0.5,0.5]}}',
                                  '{"kind":"k","provenance":{},"payload":{"m":[.5,0.5]}}',
                                  '{"kind":"k","provenance":{},"payload":{"m":[+1.5,0.5]}}'])
def test_invalid_text_raises_as_json_loads_does(text):
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as got:
        cat.ArtifactRecord.from_json(text)
    assert str(got.value) == str(want.value)
