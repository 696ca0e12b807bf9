"""Compressed sparse row matrices on scipy's compiled kernels.

`CsrMatrix` holds the three CSR arrays and runs on scipy's `_sparsetools`
extension, loaded by `ovskale.compiled` from the file in scipy's `sparse/`
directory.  Importing the `scipy.sparse` package would cost a hierarchy run
about 0.2 s and 20 MB, nearly all of it spent outside the kernels: its
array-API layer clones numpy and so imports numpy's lazy submodules
(`numpy.f2py`, `numpy.testing`).  No `scipy` module is loaded.  Every
construction and product makes the same kernel calls on the same arrays as
scipy's `coo_matrix(...).tocsr()`, `csr @ x` and `abs((a - b).tocsr())`,
so the results are scipy's bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import compiled

_INT32_MAX = np.iinfo(np.int32).max
_kernels = compiled.load("sparse", "_sparsetools")


def _index_dtype(largest: int):
    """scipy's index type for arrays whose indices and counts reach largest."""
    return np.int32 if largest <= _INT32_MAX else np.int64


def _pruned(array: np.ndarray, size: int) -> np.ndarray:
    """The first size entries; copied, so the rest can be freed, when under half remain."""
    head = array[:size]
    return head.copy() if size < len(array) // 2 else head


class CsrMatrix:
    """A sparse matrix in compressed sparse row form.

    Row i holds the values data[indptr[i]:indptr[i + 1]] at the columns
    indices[indptr[i]:indptr[i + 1]], sorted and distinct in every matrix
    this module builds.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape):
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = tuple(shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @classmethod
    def from_coo(cls, data: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> CsrMatrix:
        """The matrix with the entries (rows, cols) -> data, coinciding ones summed.

        The steps of scipy's `coo_matrix((data, (rows, cols)), shape).tocsr()`:
        a stable bucket by rows, then, unless already canonical, a sort of
        each row's columns, the sum of coinciding entries and a prune.
        """
        m, n = shape
        nnz = len(data)
        index = _index_dtype(max(nnz, m, n))
        indptr = np.empty(m + 1, dtype=index)
        indices = np.empty(nnz, dtype=index)
        values = np.empty(nnz, dtype=data.dtype)
        _kernels.coo_tocsr(
            m, n, nnz, rows.astype(index, copy=False), cols.astype(index, copy=False), data,
            indptr, indices, values,
        )
        if not _kernels.csr_has_canonical_format(m, indptr, indices):
            if not _kernels.csr_has_sorted_indices(m, indptr, indices):
                _kernels.csr_sort_indices(m, indptr, indices, values)
            _kernels.csr_sum_duplicates(m, n, indptr, indices, values)
            size = int(indptr[-1])
            indices, values = _pruned(indices, size), _pruned(values, size)
        return cls(indptr, indices, values, shape)

    def __matmul__(self, other) -> np.ndarray:
        """The product with a vector, or with the columns of a 2-D array."""
        other = np.asarray(other)
        m, n = self.shape
        if other.ndim not in (1, 2) or other.shape[0] != n:
            raise ValueError(f"cannot multiply a {self.shape} matrix by shape {other.shape}")
        dtype = np.result_type(self.data, other)
        if other.ndim == 1 or other.shape[1] == 1:
            out = np.zeros(m, dtype=dtype)
            _kernels.csr_matvec(m, n, self.indptr, self.indices, self.data, np.ravel(other), out)
            return out if other.ndim == 1 else out.reshape(m, 1)
        width = other.shape[1]
        out = np.zeros((m, width), dtype=dtype)
        # csr_matvecs reads the right-hand side row-major and writes out in place
        _kernels.csr_matvecs(
            m, n, width, self.indptr, self.indices, self.data, other.ravel(), out.ravel()
        )
        return out

    def abs_difference(self, other: CsrMatrix) -> CsrMatrix:
        """|self - other| entrywise, without the entries that cancel."""
        if self.shape != other.shape:
            raise ValueError(f"shapes differ: {self.shape} and {other.shape}")
        m, n = self.shape
        most = self.nnz + other.nnz
        wide = any(a.indices.dtype != np.int32 for a in (self, other))
        index = np.int64 if wide else _index_dtype(most)
        indptr = np.empty(m + 1, dtype=index)
        indices = np.empty(most, dtype=index)
        data = np.empty(most, dtype=np.result_type(self.data, other.data))
        _kernels.csr_minus_csr(
            m, n,
            self.indptr.astype(index, copy=False), self.indices.astype(index, copy=False),
            self.data,
            other.indptr.astype(index, copy=False), other.indices.astype(index, copy=False),
            other.data,
            indptr, indices, data,
        )
        size = int(indptr[-1])
        return CsrMatrix(indptr, _pruned(indices, size), np.abs(data[:size]), self.shape)
