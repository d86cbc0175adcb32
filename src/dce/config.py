r"""Flat key=value experiment configuration.

Each ExperimentConfig key is declared once, in KEYS: the parser of its
text, the commands that read it and the help of its flag.  Config files
and the CLI's flags parse through that table, so a value means the same
from either, and validate() is the one value check.  One assignment per
line; ``#`` starts a comment; keys are the flags' names with underscores.
Parsing is strict: unknown or duplicate keys and malformed values raise
ConfigError.  ``gamma`` and ``pave_db`` accept comma-separated sweep lists
(a single value is the one-point sweep) and ``points()`` walks that grid
gamma-outer; ``tau_f`` parses to a list too, which the CLI takes as a plain
override when it holds one value and as the nmse forward-length sweep
otherwise.  Antenna counts are capped at MAX_ANTENNAS and training lengths
at MAX_TRAINING_SLOTS; ``tau_f`` and ``tau_r`` are rejected under the echo
scheme, whose forward phase is pinned to ``n_t`` slots and its uplink phase
to ``n_l``, and ``jensen_variant`` under the reciprocal scheme, whose
closed forms have no Jensen surrogate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import (Callable, Dict, Iterator, NamedTuple, Optional, Tuple,
                    Union)

from .errors import ConfigError
from .nmse import JENSEN_VARIANTS
from .ostbc import SUPPORTED_QAM
from .params import (NON_RECIPROCAL, RECIPROCAL, SCHEMES, SystemParams,
                     db_to_linear, default_params)

FORMATS = ("csv", "json")
_QAM_ORDERS = (", ".join(map(str, SUPPORTED_QAM[:-1]))
               + f" or {SUPPORTED_QAM[-1]}")
# Longest training phase accepted, in slots, and most antennas at any
# terminal: Monte-Carlo blocks hold (trials, tau, n) and (trials, n_t, n_t)
# arrays.  Every training length is a given tau_f or tau_r, or a default
# n_t or n_l (the echo scheme's phases too) that the antenna cap keeps below
# the slot cap.  At the largest geometry admitted, n_t = n_u = 32 and
# tau_f = tau_r = 1024, ``dce nmse --trials 100`` peaks at 298 MB RSS, at
# n_l >= 16 (2-core Xeon VM).
MAX_TRAINING_SLOTS = 1024
MAX_ANTENNAS = 32

FloatSweep = Tuple[float, ...]


def _as_sweep(value: Union[float, int, FloatSweep, list]) -> FloatSweep:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (float(value),)
    return tuple(float(v) for v in value)


@dataclass
class ExperimentConfig:
    scheme: str = RECIPROCAL
    gamma: FloatSweep = (0.1,)
    pave_db: FloatSweep = (20.0,)
    pbar_t_db: float = 30.0
    pbar_l_db: float = 20.0
    n_t: int = 4
    n_l: int = 2
    n_u: int = 2
    tau_r: Optional[int] = None
    tau_f: Optional[int] = None
    trials: Optional[int] = None
    seed: int = 0
    jensen_variant: Optional[str] = None   # None: the echo scheme's "printed"
    modulation: int = 64
    format: str = "csv"
    out: Optional[str] = None

    def __post_init__(self):
        self.gamma = _as_sweep(self.gamma)
        self.pave_db = _as_sweep(self.pave_db)

    def validate(self) -> "ExperimentConfig":
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be '{RECIPROCAL}' or '{NON_RECIPROCAL}'")
        if not self.gamma or any(g <= 0 for g in self.gamma):
            raise ConfigError("gamma must be one or more positive values")
        if not self.pave_db:
            raise ConfigError("pave_db needs at least one value")
        for name in ("gamma", "pave_db", "pbar_t_db", "pbar_l_db"):
            if not all(map(math.isfinite, _as_sweep(getattr(self, name)))):
                raise ConfigError(f"{name} must be finite")
        for name in ("pave_db", "pbar_t_db", "pbar_l_db"):
            try:
                for value in _as_sweep(getattr(self, name)):
                    db_to_linear(value)
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        if self.format not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}")
        if self.jensen_variant is not None:
            if self.jensen_variant not in JENSEN_VARIANTS:
                raise ConfigError(f"jensen_variant must be one of {JENSEN_VARIANTS}")
            if self.scheme == RECIPROCAL:
                raise ConfigError("jensen_variant does not apply to the reciprocal "
                                  "scheme, whose closed forms have no Jensen surrogate")
        if self.modulation not in SUPPORTED_QAM:
            raise ConfigError(f"modulation must be {_QAM_ORDERS}")
        for name in ("n_t", "n_l", "n_u"):
            v = getattr(self, name)
            if v < 1:
                raise ConfigError(f"{name} must be a positive integer")
            if v > MAX_ANTENNAS:
                raise ConfigError(
                    f"{name} must be at most {MAX_ANTENNAS} antennas, got {v}")
        for name in ("tau_r", "tau_f", "trials"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConfigError(f"{name} must be a positive integer")
        for name in ("tau_r", "tau_f"):
            v = getattr(self, name)
            if v is not None and v > MAX_TRAINING_SLOTS:
                raise ConfigError(
                    f"{name} must be at most {MAX_TRAINING_SLOTS} slots, got {v}")
        if self.tau_f is not None and self.scheme == NON_RECIPROCAL:
            raise ConfigError("tau_f does not apply to the non-reciprocal scheme, "
                              "whose forward phase is pinned to n_t slots")
        if self.tau_r is not None and self.scheme == NON_RECIPROCAL:
            raise ConfigError("tau_r does not apply to the non-reciprocal scheme, "
                              "whose uplink phase is pinned to n_l slots")
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        return self

    def jensen(self) -> str:
        """The Jensen variant in force: the given one, else "printed"."""
        return self.jensen_variant or JENSEN_VARIANTS[0]

    def to_params(self, pave_db: float) -> SystemParams:
        """System parameters at one average-power point."""
        try:
            return default_params(
                p_ave_db=pave_db, p_bar_t_db=self.pbar_t_db,
                p_bar_l_db=self.pbar_l_db, n_t=self.n_t, n_l=self.n_l,
                n_u=self.n_u, tau_r=self.tau_r, tau_f=self.tau_f)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def points(self) -> Iterator[Tuple[float, float, SystemParams]]:
        """The sweep grid, gamma outer: (gamma, pave_db, params) per point."""
        for gamma in self.gamma:
            for pave_db in self.pave_db:
                yield gamma, pave_db, self.to_params(pave_db)


def parse_float_list(key: str, raw: str,
                     kind: Callable[[str], Union[int, float]] = float) -> tuple:
    """Comma-separated ``kind`` values -> tuple; empty input is a ConfigError."""
    try:
        values = tuple(kind(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    if not values:
        raise ConfigError(f"{key} given but empty")
    return values


def _scalar(kind: Callable[[str], object]) -> Callable[[str, str], object]:
    def parse(key: str, raw: str):
        try:
            return kind(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return parse


class Key(NamedTuple):
    """One ExperimentConfig key: the parser of its text, the commands that
    read it, and the help of its flag (None: a config-file key only)."""
    name: str
    parse: Callable[[str, str], object]
    commands: Tuple[str, ...]
    help: Optional[str]


COMMANDS = ("alloc", "nmse", "ser", "verify")
_PROTOCOL = ("alloc", "nmse", "ser")
_SAMPLING = ("nmse", "ser", "verify")

# The geometry reaches alloc and verify's echo solve through to_params, n_u
# only the Monte-Carlo draws, and tau_r only the reciprocal protocol.
KEYS = (
    Key("scheme", _scalar(str), _PROTOCOL,
        f"training protocol: {RECIPROCAL} or {NON_RECIPROCAL}"),
    Key("gamma", parse_float_list, COMMANDS,
        "UR NMSE floor (linear); comma list sweeps"),
    Key("pave_db", parse_float_list, COMMANDS,
        "average training power in dB; comma list sweeps"),
    Key("pbar_t_db", _scalar(float), COMMANDS, "transmitter power cap in dB"),
    Key("pbar_l_db", _scalar(float), COMMANDS,
        "legitimate-receiver power cap in dB"),
    Key("n_t", _scalar(int), COMMANDS, None),
    Key("n_l", _scalar(int), COMMANDS, None),
    Key("n_u", _scalar(int), ("nmse", "ser"), None),
    Key("tau_r", _scalar(int), _PROTOCOL, None),
    Key("tau_f", functools.partial(parse_float_list, kind=int), _PROTOCOL,
        "forward training length; a comma list sweeps it (nmse)"),
    Key("trials", _scalar(int), _SAMPLING, "Monte-Carlo trials"),
    Key("seed", _scalar(int), _SAMPLING, "nonnegative RNG seed"),
    Key("jensen_variant", _scalar(str), _PROTOCOL,
        f"echo-scheme NMSE surrogate: {' or '.join(JENSEN_VARIANTS)}"),
    Key("modulation", _scalar(int), ("ser",), f"QAM order: {_QAM_ORDERS}"),
    Key("format", _scalar(str), COMMANDS, f"table format: {' or '.join(FORMATS)}"),
    Key("out", _scalar(str), COMMANDS, "output path (default: stdout)"),
)
KEY_BY_NAME = {key.name: key for key in KEYS}


def read_config(text: str) -> Dict[str, object]:
    """The key=value assignments of a config text, each value parsed."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in KEY_BY_NAME:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = KEY_BY_NAME[key].parse(key, raw.strip())
    return values


def read_config_file(path: str) -> Dict[str, object]:
    """``read_config`` of the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

