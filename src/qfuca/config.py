"""Scenario configuration: flat key = value text, validated into a Scenario.

Unknown keys are rejected; missing keys fall back to the evaluation defaults
(5.8 GHz carrier, 100 m link, beta = 1, four 4-element cells at ratio 1 on a
1 m antenna, QPSK, equal power allocation, 15 dB SNR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .channel import BESSEL_ORDERS
from .errors import ConfigError
from .txrx import ALPHABETS

_LAMBDA_PATHS = ("exact", "bessel")


@dataclass(frozen=True)
class Scenario:
    """One end-to-end link configuration.

    Both antennas share the cell count (aligned operation), the per-cell
    element count (the mode transform needs V = K) and the antenna radius;
    the per-end cell-radius ratios may differ.
    """

    n_cells: int = 4
    tx_elems: int = 4
    rx_elems: int = 4
    tx_ratio: float = 1.0
    rx_ratio: float = 1.0
    qf_radius_m: float = 1.0
    distance_m: float = 100.0
    freq_hz: float = 5.8e9
    beta: float = 1.0
    constellation: str = "qpsk"
    total_power: float = 1.0
    snr_db: float = 15.0
    seed: int = 1
    lambda_path: str = "exact"
    bessel_order: str = "matched"
    bessel_correction: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # nan passes every range check below, and inf fails only deep in
            # the metrics
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.n_cells < 3:
            raise ConfigError(f"n_cells must be >= 3, got {self.n_cells}")
        for name in ("tx_elems", "rx_elems"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.tx_elems != self.rx_elems:
            raise ConfigError(f"tx_elems ({self.tx_elems}) and rx_elems ({self.rx_elems}) "
                              "must be equal: the mode transform needs V = K")
        for name in ("tx_ratio", "rx_ratio", "qf_radius_m", "distance_m",
                     "freq_hz", "beta", "total_power"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("tx_ratio", "rx_ratio"):
            if getattr(self, name) > 1:
                raise ConfigError(f"{name} must be <= 1")
        if self.constellation not in ALPHABETS:
            raise ConfigError(f"constellation must be one of {tuple(ALPHABETS)}")
        if self.lambda_path not in _LAMBDA_PATHS:
            raise ConfigError(f"lambda_path must be one of {_LAMBDA_PATHS}")
        if self.bessel_order not in BESSEL_ORDERS:
            raise ConfigError(f"bessel_order must be one of {BESSEL_ORDERS}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        try:
            snr = self.snr_linear
        except OverflowError:
            snr = math.inf
        # the noise variance divides by the linear SNR
        if not (math.isfinite(snr) and snr > 0):
            raise ConfigError(f"snr_db {self.snr_db!r} leaves the float range as a linear SNR")

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


_BOOL_WORDS = {"on": True, "off": False, "true": True, "false": False}


def _parse_value(name: str, raw: str, kind, lineno: int):
    try:
        if kind is bool:
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError
            return _BOOL_WORDS[raw.lower()]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"line {lineno}: malformed value for {name!r}: {raw!r}") from None


def parse_config(text: str) -> Scenario:
    """Parse key = value configuration text into a validated Scenario.

    Lines are UTF-8, one pair per line; '#' starts a comment; blank lines are
    ignored; unknown and duplicate keys are errors naming the line.
    """
    kinds = {f.name: type(f.default) for f in fields(Scenario)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in kinds:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, kinds[key], lineno)
    return Scenario(**values)


def serialize_scenario(scenario: Scenario) -> str:
    """Render a Scenario as configuration text that reparses identically."""
    lines = []
    for f in fields(Scenario):
        value = getattr(scenario, f.name)
        if isinstance(value, bool):
            value = "on" if value else "off"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
