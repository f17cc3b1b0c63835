"""Special functions of the Bessel route.

Integer-order Bessel functions of the first kind, every order at once from
one FFT of e^{j x sin t} (the Jacobi-Anger expansion), to about 3e-14
absolute.

`bessel_j` is pure and deterministic and never mutates its input, so values
can be shared freely between concurrent callers.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

MAX_BESSEL_ORDER = 64
MAX_BESSEL_ARG = 1.0e4


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
