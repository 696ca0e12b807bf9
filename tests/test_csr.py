"""CsrMatrix against scipy.sparse, bit for bit: assembly, products, differences."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ovskale import compiled
from ovskale.csr import CsrMatrix

from conftest import to_dense

ROOT = Path(__file__).resolve().parents[1]

# exact values, so that coinciding entries can cancel to an explicit zero,
# besides arbitrary ones
_VALUES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, -0.5, 3.25]), st.floats(-10.0, 10.0))


@st.composite
def coo_entries(draw, shape=None):
    """(values, rows, columns, shape): few rows and columns, so entries often coincide."""
    m, n = shape or (draw(st.integers(0, 6)), draw(st.integers(0, 6)))
    index = draw(st.sampled_from([np.int32, np.int64]))
    entries = []
    if m and n:
        cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), _VALUES)
        entries = draw(st.lists(cell, max_size=30))
    rows, cols, vals = (np.array([e[i] for e in entries]) for i in range(3))
    return vals.astype(float), rows.astype(index), cols.astype(index), (m, n)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_matrix(got: CsrMatrix, want) -> bool:
    return got.shape == want.shape and got.nnz == want.nnz and all(
        _same_bits(getattr(got, name), getattr(want, name))
        for name in ("indptr", "indices", "data")
    )


@settings(max_examples=200, deadline=None)
@given(entries=coo_entries())
def test_from_coo_is_scipys_tocsr(entries):
    vals, rows, cols, shape = entries
    got = CsrMatrix.from_coo(vals, rows, cols, shape)
    assert _same_matrix(got, sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr())


def test_from_coo_of_no_entries_and_of_empty_rows():
    empty = np.zeros(0, np.int32)
    for shape in [(0, 0), (0, 4), (4, 0), (3, 5)]:
        got = CsrMatrix.from_coo(np.zeros(0), empty, empty, shape)
        assert _same_matrix(got, sp.coo_matrix((np.zeros(0), (empty, empty)), shape=shape).tocsr())
    # rows 0, 2 and 4 hold nothing, row 3 only a cancelled pair
    rows = np.array([1, 3, 3, 1], np.int32)
    cols = np.array([2, 0, 0, 1], np.int32)
    vals = np.array([1.5, 2.0, -2.0, 0.5])
    got = CsrMatrix.from_coo(vals, rows, cols, (5, 3))
    assert _same_matrix(got, sp.coo_matrix((vals, (rows, cols)), shape=(5, 3)).tocsr())
    assert got.indptr.tolist() == [0, 0, 2, 2, 3, 3]


@st.composite
def products(draw):
    """A matrix's entries and a right-hand side: a vector, or a C- or F-ordered block."""
    vals, rows, cols, shape = draw(coo_entries())
    n = shape[1]
    seed = draw(st.integers(0, 2**32 - 1))
    width = draw(st.one_of(st.none(), st.integers(1, 5)))
    order = draw(st.sampled_from("CF"))
    rng = np.random.default_rng(seed)
    right = rng.normal(size=n if width is None else (n, width))
    return (vals, rows, cols, shape), np.asarray(right, order=order)


@settings(max_examples=200, deadline=None)
@given(case=products())
def test_products_are_scipys(case):
    (vals, rows, cols, shape), right = case
    got = CsrMatrix.from_coo(vals, rows, cols, shape) @ right
    want = sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr() @ right
    assert _same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_abs_difference_is_scipys(data):
    shape = (data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6)))
    a, b = (data.draw(coo_entries(shape)) for _ in range(2))
    ref_a, ref_b = (sp.coo_matrix((v, (r, c)), shape=shape).tocsr() for v, r, c, _ in (a, b))
    want = abs((ref_a - ref_b).tocsr())
    got = CsrMatrix.from_coo(*a).abs_difference(CsrMatrix.from_coo(*b))
    assert _same_matrix(got, want)


def test_abs_difference_drops_what_cancels():
    rows = np.array([0, 1], np.int32)
    cols = np.array([1, 0], np.int32)
    a = CsrMatrix.from_coo(np.array([2.0, -3.0]), rows, cols, (2, 2))
    b = CsrMatrix.from_coo(np.array([2.0, 1.0]), rows, cols, (2, 2))
    diff = a.abs_difference(b)
    assert diff.nnz == 1
    assert to_dense(diff).tolist() == [[0.0, 0.0], [4.0, 0.0]]
    with pytest.raises(ValueError, match="shapes differ"):
        a.abs_difference(CsrMatrix.from_coo(np.zeros(0), rows[:0], cols[:0], (2, 3)))


def test_product_shape_is_checked():
    mat = CsrMatrix.from_coo(np.ones(1), np.zeros(1, np.int32), np.zeros(1, np.int32), (2, 3))
    for right in (np.ones(2), np.ones((2, 2)), np.ones((3, 2, 2))):
        with pytest.raises(ValueError, match="cannot multiply"):
            mat @ right


def test_kernel_load_names_the_paths_it_tried(tmp_path, monkeypatch):
    monkeypatch.setattr(compiled, "_scipy_folder", lambda: str(tmp_path))
    with pytest.raises(ImportError, match=str(tmp_path / "sparse" / "_sparsetools")):
        compiled.load("sparse", "_sparsetools")


def test_kernel_load_without_scipy_is_an_import_error(monkeypatch):
    monkeypatch.setattr(compiled.importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match="scipy is not installed"):
        compiled.load("sparse", "_sparsetools")


# products of one matrix before and after scipy.sparse is imported, and
# scipy's own, in a fresh interpreter: this process has long since loaded it
_BOTH_LOADED = """
import json, sys
import numpy as np
from ovskale.csr import CsrMatrix

rng = np.random.default_rng(5)
rows, cols = rng.integers(0, 40, size=(2, 300)).astype(np.int32)
vals = rng.normal(size=300)
x, block = rng.normal(size=40), rng.normal(size=(40, 6))
mat = CsrMatrix.from_coo(vals, rows, cols, (40, 40))
before = [mat @ x, mat @ block, mat @ block.T.copy().T]
unloaded = "scipy.sparse" not in sys.modules
import scipy.sparse as sp
ref = sp.coo_matrix((vals, (rows, cols)), shape=(40, 40)).tocsr()
after = [mat @ x, mat @ block, mat @ block.T.copy().T]
again = CsrMatrix.from_coo(vals, rows, cols, (40, 40))
print(json.dumps({
    "unloaded": unloaded,
    "same": all(a.tobytes() == b.tobytes() for a, b in zip(before, after)),
    "scipys": all(a.tobytes() == (ref @ r).tobytes() for a, r in zip(after, [x, block, block])),
    "rebuilt": all(
        getattr(again, k).tobytes() == getattr(ref, k).tobytes()
        for k in ("indptr", "indices", "data")
    ),
}))
"""


def test_products_do_not_change_once_scipy_sparse_is_loaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _BOTH_LOADED],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {"unloaded": True, "same": True, "scipys": True, "rebuilt": True}
