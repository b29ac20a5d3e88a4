"""The catalog's array codec against json itself, on arrays drawn by
hypothesis: canonical_json of an ndarray is json.dumps of its nested lists
for every dtype int_matrix accepts, and a record read back re-encodes to
the same text and holds the entries json.loads reads. Texts the integer
fast path must not take are read exactly as json.loads reads them.

hypothesis is optional: without it this module is skipped.
"""

import json

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


def assert_entrywise(got, want, path="text"):
    """got is what from_json read, want what json.loads read."""
    if isinstance(got, np.ndarray):
        assert got.dtype == np.int64, path
        assert got.tolist() == want, path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for k in want:
            assert_entrywise(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_entrywise(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, path


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


def test_integer_tensors_read_as_int64_arrays():
    a = np.arange(-30, 30).reshape(3, 4, 5) * 10**15
    back = cat.ArtifactRecord.from_json(cat.ArtifactRecord("invariant", {}, {"m": a}).to_json())
    m = back.payload["m"]
    assert isinstance(m, np.ndarray) and m.dtype == np.int64 and np.array_equal(m, a)


FALLBACK = [
    '{"kind":"k","provenance":{},"payload":{"m":[1, 2]}}',  # whitespace inside
    '{"kind":"k","provenance":{},"payload":{"m":[[1,2],[3]]}}',  # ragged
    '{"kind":"k","provenance":{},"payload":{"m":[[0,[1,1]],[2,[3,4]]]}}',  # mixed depth
    '{"kind":"k","provenance":{},"payload":{"m":"[1,2]","n":"[[3]]"}}',  # digits in strings
    '{"kind":"k","provenance":{},"payload":{"m":[-0,2]}}',  # not canonical
    '{"kind":"k","provenance":{},"payload":{"m":[9223372036854775808]}}',  # past int64
    '{"kind":"k","provenance":{},"payload":{"m":[-9223372036854775808]}}',
    '{"kind":"k","provenance":{},"payload":{"m":[[],[]],"n":[]}}',  # empty
    '{"kind":"k","provenance":{},"payload":{"m":[1.5,2]}}',
    '{"kind":"k","provenance":{},"payload":{"m":[[1,2],["3",4]]}}',
    '{"kind":"k","provenance":{},"payload":{"m":' + "[" * 80 + "1" + "]" * 80 + "}}",  # past numpy's axes
]


@pytest.mark.parametrize("text", FALLBACK)
def test_spans_off_the_fast_path_read_as_json_loads(text):
    back = cat.ArtifactRecord.from_json(text)
    want = json.loads(text)
    assert_entrywise(back.body(), want)
    for key, value in back.payload.items():
        assert not isinstance(value, np.ndarray), key


@pytest.mark.parametrize("text", ['{"kind":"k","provenance":{},"payload":{"m":[01]}}',
                                  '{"kind":"k","provenance":{},"payload":{"m":[1,2,]}}',
                                  '{"kind":"k","provenance":{},"payload":{"m":[1,2]}} x'])
def test_invalid_text_raises_as_json_loads_does(text):
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as got:
        cat.ArtifactRecord.from_json(text)
    assert str(got.value) == str(want.value)
