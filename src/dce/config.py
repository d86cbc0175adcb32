r"""Flat key=value experiment configuration.

Each ExperimentConfig field is the one declaration of its key (``_key``):
its default, the parser of its text, its flag's help, the commands and the
schemes that read it (the CLI rejects a key given to any other), and the
values it admits, which validate() checks.  KEYS is derived from the fields;
config files and flags parse through it, so a value means the same from
either.  One assignment per line; ``#`` starts a comment; keys are the
flags' names with underscores; unknown or duplicate keys and malformed
values raise ConfigError.  ``gamma`` and ``pave_db`` take comma-separated
sweep lists, which ``points()`` walks gamma-outer; ``tau_f`` parses to a
list too, a plain override when it holds one value and the nmse
forward-length sweep otherwise.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Tuple

from .errors import ConfigError
from .ostbc import SUPPORTED_QAM
from .params import RECIPROCAL, SCHEMES, SystemParams, default_params

FORMATS = ("csv", "json")
COMMANDS = ("alloc", "nmse", "ser")
_SAMPLING = ("nmse", "ser")
# Longest training phase accepted, in slots, and most antennas at any
# terminal.  Monte-Carlo arrays have no pilot-length axis, as each phase
# draws only what its receivers' filters read: a block's arrays are
# (rows, cols, trials), the trial axis last, neither antenna axis longer
# than max(n_t, n_l + n_u).  Every training length is a given tau_f or
# tau_r, or a default n_t or n_l (the echo scheme's phases too) that the
# antenna cap keeps below the slot cap.  At the largest geometry admitted,
# n_t = n_u = 32, n_l = 31 and tau_f = tau_r = 1024, ``dce nmse --trials
# 100`` peaks at 58 MB RSS, and at 92 MB with 1,000 trials (2-core VM).
MAX_TRAINING_SLOTS = 1024
MAX_ANTENNAS = 32
# Highest power accepted, in dB, for pave_db, pbar_t_db and pbar_l_db.  The
# AN basis of the physical frame (echo NMSE, every SER run) nulls the
# estimate's span only to rounding, and past this power that leak, not
# estimation error, sets the empirical NMSE: with all three keys equal
# (default geometry, 2,000 trials) the LR reads within 1.9 sigma of its
# closed form at 250 dB and 6.1 sigma off (echo) at 280 dB.  The reciprocal
# NMSE builds no basis and reads its closed form at 350 dB too.
MAX_POWER_DB = 250.0

FloatSweep = Tuple[float, ...]


# what each declared kind admits from a code caller; a bool is no number
_ADMITS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
           str: (str, "text")}


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_sweep(value) -> FloatSweep:
    """A number is the one-point sweep, and a sweep's numbers are floats;
    anything else is left for validate() to name."""
    if _number(value):
        return (float(value),)
    if isinstance(value, str):
        return value
    try:
        return tuple(float(v) if _number(v) else v for v in value)
    except TypeError:
        return value


def _either(values) -> str:
    """``a, b or c``."""
    *head, last = map(str, values)
    return f"{', '.join(head)} or {last}"


def parse_float_list(key: str, raw: str,
                     kind: Callable[[str], object] = float) -> tuple:
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
    """One ExperimentConfig key: the kind of its values and the parser of
    its text, its default (None: unset is admitted), the help of its flag
    (None: a config-file key only), the commands and schemes that read it,
    and the values it admits."""
    name: str
    kind: type
    parse: Callable[[str, str], object]
    default: object = None
    help: Optional[str] = None
    commands: Tuple[str, ...] = COMMANDS
    schemes: Tuple[str, ...] = SCHEMES
    choices: tuple = ()
    sign: Optional[str] = None           # "positive" or "nonnegative"
    most: Optional[float] = None         # upper bound, in ``unit``
    unit: str = ""

    def check(self, value) -> None:
        """Raise ConfigError unless this key admits ``value``."""
        admits, kind = _ADMITS[self.kind]
        if isinstance(value, bool) or not isinstance(value, admits):
            must = kind
        elif self.choices and value not in self.choices:
            must = _either(self.choices)
        elif isinstance(value, float) and not math.isfinite(value):
            must = "finite"
        elif self.sign and not (value > 0 if self.sign == "positive" else value >= 0):
            must = f"a {self.sign} {'integer' if isinstance(value, int) else 'number'}"
        elif self.most is not None and value > self.most:
            must = f"at most {self.most:g} {self.unit}"
        else:
            return
        raise ConfigError(f"{self.name} must be {must}, got {value!r}")


def _key(default, kind, help=None, sweep=False, **declaration):
    """A field that declares its key, whose text parses to one ``kind`` value
    or, for a ``sweep``, a comma list of them: see Key for the rest of
    ``declaration``."""
    parse = (functools.partial(parse_float_list, kind=kind) if sweep
             else _scalar(kind))
    return field(default=default, metadata=dict(
        kind=kind, parse=parse, help=help, **declaration))


_DB = dict(most=MAX_POWER_DB, unit="dB")
_ANTENNAS = dict(sign="positive", most=MAX_ANTENNAS, unit="antennas")
# the echo scheme pins its forward phase to n_t slots and its uplink phase to n_l
_SLOTS = dict(sign="positive", most=MAX_TRAINING_SLOTS, unit="slots",
              schemes=(RECIPROCAL,))


@dataclass
class ExperimentConfig:
    # n_u reaches only the Monte-Carlo draws, the rest of the geometry every solve
    scheme: str = _key(RECIPROCAL, str,
                       f"training protocol: {_either(SCHEMES)}", choices=SCHEMES)
    gamma: FloatSweep = _key((0.1,), float, sweep=True, sign="positive",
                             help="UR NMSE floor (linear); comma list sweeps")
    pave_db: FloatSweep = _key((20.0,), float, sweep=True, **_DB,
                               help="average training power in dB; comma list sweeps")
    pbar_t_db: float = _key(30.0, float, "transmitter power cap in dB", **_DB)
    pbar_l_db: float = _key(20.0, float, "legitimate-receiver power cap in dB", **_DB)
    n_t: int = _key(4, int, **_ANTENNAS)
    n_l: int = _key(2, int, **_ANTENNAS)
    n_u: int = _key(2, int, commands=_SAMPLING, **_ANTENNAS)
    tau_r: Optional[int] = _key(None, int, **_SLOTS)
    tau_f: Optional[int] = _key(
        None, int, "forward training length; a comma list sweeps it (nmse)",
        sweep=True, **_SLOTS)
    trials: Optional[int] = _key(None, int, "Monte-Carlo trials",
                                 commands=_SAMPLING, sign="positive")
    seed: int = _key(0, int, "nonnegative RNG seed",
                     commands=_SAMPLING, sign="nonnegative")
    modulation: int = _key(64, int, f"QAM order: {_either(SUPPORTED_QAM)}",
                           commands=("ser",), choices=SUPPORTED_QAM)
    format: str = _key("csv", str, f"table format: {_either(FORMATS)}",
                       choices=FORMATS)
    out: Optional[str] = _key(None, str, "output path (default: stdout)")

    def __post_init__(self):
        self.gamma = _as_sweep(self.gamma)
        self.pave_db = _as_sweep(self.pave_db)

    def validate(self) -> "ExperimentConfig":
        """Check every value, each sweep value too, against its key."""
        for key in KEYS:
            value = getattr(self, key.name)
            if value == ():
                raise ConfigError(f"{key.name} needs at least one value")
            for v in value if isinstance(value, tuple) else (value,):
                if v is not None or key.default is not None:
                    key.check(v)
        return self

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


KEYS = tuple(Key(f.name, default=f.default, **f.metadata)
             for f in fields(ExperimentConfig))
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
