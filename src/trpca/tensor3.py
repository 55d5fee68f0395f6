"""Dense real 3-way tensors: storage, slicing, norms, and file I/O.

Storage contract
----------------
A tensor of dims ``(n1, n2, n3)`` is a stack of ``n3`` frontal slices, each an
``n1 x n2`` matrix. The canonical flat layout is slice-major: the frontal
slice index varies slowest, and each slice is stored row-major. This is the
layout used by the binary file format and the CSV import below.

All indices in this package are 0-based; the command line documentation keeps
the same convention.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"TNSR3v1\n"
"""Leading bytes of the binary tensor container (format version 1)."""

NormKind = str  # "frobenius" | "l1" | "linf"

FROBENIUS_SAFE_RANGE = (1e-150, 1e150)
"""A Frobenius norm computed directly is trusted inside this range. Outside
it the squares may have under- or overflowed, and ``norm`` recomputes it
scaled by the largest entry."""


@dataclass(frozen=True, eq=False)
class Tensor3:
    """Immutable dense real 3-way array of shape ``(n1, n2, n3)``.

    Constructors reject non-finite entries; the backing array is copied and
    made read-only, so values are safe to share across threads.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.ndim != 3:
            raise ValueError(f"expected a 3-way array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"all dims must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("tensor entries must be finite (no NaN/Inf)")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def n1(self) -> int:
        return self.data.shape[0]

    @property
    def n2(self) -> int:
        return self.data.shape[1]

    @property
    def n3(self) -> int:
        return self.data.shape[2]

    def frontal_slice(self, i: int) -> np.ndarray:
        """Read-only view of the ``i``-th frontal slice (0-based)."""
        if not 0 <= i < self.n3:
            raise IndexError(f"frontal slice {i} out of range for n3={self.n3}")
        return self.data[:, :, i]

    def __add__(self, other: "Tensor3") -> "Tensor3":
        _check_same_dims(self, other)
        return Tensor3(self.data + other.data)

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        _check_same_dims(self, other)
        return Tensor3(self.data - other.data)

    def __neg__(self) -> "Tensor3":
        return Tensor3(-self.data)

    def __mul__(self, scalar: float) -> "Tensor3":
        return Tensor3(self.data * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Tensor3(dims={self.dims})"


def _check_same_dims(a: Tensor3, b: Tensor3) -> None:
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")


def zeros(n1: int, n2: int, n3: int) -> Tensor3:
    return Tensor3(np.zeros((n1, n2, n3)))


def from_slices(slices) -> Tensor3:
    """Stack frontal slices (a sequence of equally sized 2-D arrays)."""
    mats = [np.asarray(s, dtype=np.float64) for s in slices]
    return Tensor3(np.stack(mats, axis=2))


def from_flat(values, dims: tuple[int, int, int]) -> Tensor3:
    """Build a tensor from slice-major flat data (see module docstring)."""
    n1, n2, n3 = dims
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size != n1 * n2 * n3:
        raise ValueError(f"expected {n1 * n2 * n3} values, got {flat.size}")
    return Tensor3(np.moveaxis(flat.reshape(n3, n1, n2), 0, 2))


def to_flat(t: Tensor3) -> np.ndarray:
    """Flatten to the canonical slice-major layout."""
    return np.ascontiguousarray(np.moveaxis(t.data, 2, 0)).ravel()


def inner(a: Tensor3, b: Tensor3) -> float:
    """Inner product: sum over all entries of the elementwise product."""
    _check_same_dims(a, b)
    return float(np.sum(a.data * b.data))


def norm(t: Tensor3, kind: NormKind = "frobenius") -> float:
    """Tensor norm: ``frobenius`` (root sum of squares), ``l1``, or ``linf``."""
    if kind == "frobenius":
        flat = t.data.ravel()
        with np.errstate(over="ignore"):
            value = float(np.linalg.norm(flat))
        low, high = FROBENIUS_SAFE_RANGE
        if low <= value <= high:
            return value
        peak = float(np.abs(flat).max())
        return peak * float(np.linalg.norm(flat / peak)) if peak > 0 else 0.0
    if kind == "l1":
        return float(np.abs(t.data).sum())
    if kind == "linf":
        return float(np.abs(t.data).max())
    raise ValueError(f"unknown norm kind {kind!r}")


def write_tensor(t: Tensor3, path) -> None:
    """Write the binary container: magic, three u64-LE dims, f64-LE payload."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<3Q", *t.dims))
        f.write(to_flat(t).astype("<f8").tobytes())


def read_tensor(path) -> Tensor3:
    """Read the binary container written by :func:`write_tensor`."""
    with open(path, "rb") as f:
        head = f.read(len(MAGIC))
        if head != MAGIC:
            raise ValueError(f"{path}: not a tensor container (bad magic)")
        dims = f.read(24)
        if len(dims) != 24:
            raise ValueError(
                f"{path}: truncated header ({len(dims)} bytes of dims, expected 24)"
            )
        n1, n2, n3 = struct.unpack("<3Q", dims)
        payload = f.read()
    expected = n1 * n2 * n3 * 8
    if len(payload) != expected:
        raise ValueError(
            f"{path}: truncated payload ({len(payload)} bytes, expected {expected})"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    return from_flat(flat, (n1, n2, n3))


def read_tensor_csv(path) -> Tensor3:
    """Read the CSV fixture format: one frontal slice per blank-line block."""
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    blocks = [blk for blk in text.split("\n\n") if blk.strip()]
    if not blocks:
        raise ValueError(f"{path}: no data blocks found")
    slices = []
    for blk in blocks:
        rows = [
            [float(cell) for cell in line.split(",")]
            for line in blk.splitlines()
            if line.strip()
        ]
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValueError(f"{path}: ragged rows within a slice block")
        slices.append(np.array(rows))
    shapes = {s.shape for s in slices}
    if len(shapes) != 1:
        raise ValueError(f"{path}: frontal slice blocks differ in shape")
    return from_slices(slices)


def load_tensor(path) -> Tensor3:
    """Load a tensor file, accepting either the binary container or CSV."""
    with open(path, "rb") as f:
        head = f.read(len(MAGIC))
    if head == MAGIC:
        return read_tensor(path)
    return read_tensor_csv(path)
