"""Complex dense-matrix kernel.

The O(n^2) diagonal of a matrix's DFT similarity transform (the eigenvalues
of a circulant), and integer-order Bessel functions of the first kind, every
order at once from one FFT of e^{j x sin t} (the Jacobi-Anger expansion), to
about 3e-14 absolute.

All operations are pure and deterministic and never mutate their inputs, so
values can be shared freely between concurrent callers.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError

MAX_BESSEL_ORDER = 64
MAX_BESSEL_ARG = 1.0e4


def diagonalize_row_blocks(blocks) -> np.ndarray:
    """The diagonal of W^H C W, W the unitary n-point IDFT matrix
    (W[a, b] = e^{j 2 pi a b / n} / sqrt(n)), for a square C given as its
    consecutive row blocks, each (rows, n), in O(n^2) time.

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


def bessel_j(order, x: float):
    """Bessel function of the first kind J_order(x) for an integer order, or
    for an int array of orders at the one argument x.

    By the Jacobi-Anger expansion e^{j x sin t} = sum_l J_l(x) e^{j l t},
    bin l mod M of the M-point FFT of e^{j x sin t} is M J_l(x) plus the
    aliases J_{l +- M}(x), which are far below rounding at
    M = 2 (floor|x| + MAX_BESSEL_ORDER + 32).  Negative orders read the
    wrapped bins, and a negative x needs no reflection.  Accurate to about
    3e-14 absolute over |order| <= 64, |x| <= 1e4.
    """
    orders = np.asarray(order)
    if orders.dtype.kind not in "iuf" or not np.all(np.isfinite(orders)) \
            or np.any(orders != np.round(orders)):
        raise DomainError(f"Bessel order must be an integer, got {order!r}")
    x = float(x)
    too_high = orders[(orders < -MAX_BESSEL_ORDER) | (orders > MAX_BESSEL_ORDER)]
    if too_high.size:
        raise DomainError(f"|order| must be <= {MAX_BESSEL_ORDER}, got {int(too_high[0])}")
    if not np.isfinite(x) or abs(x) > MAX_BESSEL_ARG:
        raise DomainError(f"|x| must be <= {MAX_BESSEL_ARG:g}, got {x!r}")
    m = 2 * (int(abs(x)) + MAX_BESSEL_ORDER + 32)
    t = 2 * np.pi * np.arange(m) / m
    values = np.fft.fft(np.exp(1j * x * np.sin(t))).real[orders.astype(int) % m] / m
    return float(values) if values.ndim == 0 else values
