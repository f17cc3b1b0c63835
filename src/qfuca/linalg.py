"""Complex dense-matrix kernel.

Unitary DFT/IDFT matrices, the O(n^2) diagonal of a matrix's DFT
similarity transform (the eigenvalues of a circulant), and integer-order
Bessel functions of the first kind.

All operations are pure and deterministic and never mutate their inputs, so
values can be shared freely between concurrent callers.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

MAX_BESSEL_ORDER = 64
MAX_BESSEL_ARG = 1.0e4

# Bessel evaluation: ascending power series below this argument, trapezoid
# quadrature of the periodic integral form above it.
_SERIES_CUTOFF = 12.0
_MIN_QUAD_NODES = 2048


def idft_matrix(n: int) -> np.ndarray:
    """Unitary n-point IDFT matrix, entry (a, b) = e^{j 2 pi a b / n} / sqrt(n).

    Its conjugate transpose is the (unitary) DFT matrix.
    """
    if n < 1:
        raise DimensionError(f"IDFT matrix needs n >= 1, got {n}")
    a = np.arange(n)
    return np.exp(2j * np.pi / n * np.outer(a, a)) / np.sqrt(n)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT matrix (conjugate transpose of idft_matrix)."""
    return idft_matrix(n).conj().T


def diagonalize_row_blocks(blocks) -> np.ndarray:
    """The diagonal of W^H C W, W = idft_matrix(n), for a square C given as
    its consecutive row blocks, each (rows, n), in O(n^2) time.

    Entry k is (1/n) sum_{a,b} C[a, b] e^{j 2 pi (b - a) k / n}, which
    depends on C only through its wrapped-diagonal sums
    s_d = sum_j C[j, (j + d) mod n]: the diagonal is ifft(s).  For a
    circulant C these are its eigenvalues; for any other C, the gains the
    similarity transform leaves on its diagonal.

    Only one block is held at a time, so `blocks` may be a generator and C
    need never exist whole.  Each block's wrapped rows are added to the
    running sums in one reduction whose first row is those sums; numpy adds
    axis 0 one row at a time, so the result is bit for bit the same however
    C is cut (adding per-block partial sums would round differently).  A
    whole matrix C is the one-block case, `diagonalize_row_blocks([C])`.
    """
    acc, start = None, 0
    for block in blocks:
        block = np.asarray(block, dtype=complex)
        n = acc.size if acc is not None else block.shape[1] if block.ndim == 2 else 0
        if block.ndim != 2 or block.shape[1] != n or start + block.shape[0] > n:
            raise DimensionError(f"row block of shape {block.shape} does not continue "
                                 f"a square {n}-column matrix at row {start}")
        idx = np.arange(n)
        rows = np.arange(block.shape[0])
        wrapped = block[rows[:, None], (start + rows[:, None] + idx) % n]
        acc = np.add.reduce(wrapped if acc is None else np.concatenate([acc[None], wrapped]),
                            axis=0)
        start += block.shape[0]
    if acc is None or start != acc.size:
        raise DimensionError(f"row blocks cover {start} rows of a square matrix, not all")
    return np.fft.ifft(acc)


def _bessel_series(order: int, x: float) -> float:
    # J_l(x) = sum_m (-1)^m (x/2)^{2m+l} / (m! (m+l)!), l >= 0
    half = x / 2.0
    term = 1.0
    for i in range(1, order + 1):
        term *= half / i
    total = term
    m = 1
    while m <= 200:
        term *= -(half * half) / (m * (m + order))
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1e-30):
            break
        m += 1
    return total


def _bessel_quadrature(order: int, x: float) -> float:
    # J_l(x) = (1/2pi) int_0^{2pi} cos(l t - x sin t) dt; the integrand is
    # 2pi-periodic, so the uniform trapezoid rule converges spectrally once
    # the node count clears the integrand's bandwidth (~|x| + order).
    n = max(_MIN_QUAD_NODES, int(4 * (abs(x) + order + 8)))
    t = 2.0 * np.pi * np.arange(n) / n
    return float(np.mean(np.cos(order * t - x * np.sin(t))))


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind J_order(x) for integer order.

    Accurate to about 1e-10 absolute over |order| <= 64, |x| <= 1e4.
    """
    if int(order) != order:
        raise DomainError(f"Bessel order must be an integer, got {order!r}")
    order = int(order)
    x = float(x)
    if abs(order) > MAX_BESSEL_ORDER:
        raise DomainError(f"|order| must be <= {MAX_BESSEL_ORDER}, got {order}")
    if not np.isfinite(x) or abs(x) > MAX_BESSEL_ARG:
        raise DomainError(f"|x| must be <= {MAX_BESSEL_ARG:g}, got {x!r}")
    sign = 1.0
    if order < 0:
        # J_{-l}(x) = (-1)^l J_l(x)
        order = -order
        if order % 2:
            sign = -sign
    if x < 0:
        # J_l(-x) = (-1)^l J_l(x)
        x = -x
        if order % 2:
            sign = -sign
    if x <= _SERIES_CUTOFF:
        return sign * _bessel_series(order, x)
    return sign * _bessel_quadrature(order, x)
