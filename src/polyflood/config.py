"""Run configuration: defaults, validation, and flat key = value files.

Config files are one `key = value` per line with `#` comments.  Keys carry
the conventional symbol names of the data set (mu_o, s_ra, alpha0, c0, Q,
dt, ...), so a config file reads like the parameter table it encodes.
Values may be integers, floats, or simple fractions such as 2/3, read by
parse_number, the one number parser of files and flags alike.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .petro import PetroModel
from .pressure import WellConfig

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_number"]


class ConfigError(ValueError):
    """Bad key, bad value, or physically inconsistent configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Complete description of one quarter five-spot run.

    Phase and capillary parameters default to PetroModel's, the classic
    polymer flood data set.  The injection rate is measured in pore
    volumes per unit time; the default floods a noticeable fraction of the
    domain by t = 1, which keeps desk-scale refinement studies meaningful.

    Built by the constructor, dataclasses.replace or parse_config, it checks
    each key's type first and stores the value as that Python type, then
    checks the ranges; a bad value raises ConfigError.
    """

    # discretization
    N: int = 32                 # cells per direction, h = 1/N
    dt: float = 1.0 / 50.0
    tstop: float = 2.0

    # rock and fluids
    phi: float = 1.0
    K: float = 1.0
    mu_w: float = PetroModel.mu_w
    mu_o: float = PetroModel.mu_o
    s_ra: float = PetroModel.s_ra
    s_ro: float = PetroModel.s_ro
    alpha0: float = PetroModel.alpha0
    m: float = PetroModel.m
    beta: float = PetroModel.beta

    # scenario
    Q: float = 2.0              # injection rate (pore volumes per unit time)
    c0: float = 0.1             # injected polymer concentration
    s0: float = 0.21            # initial resident water saturation
    radius: float = 0.44        # initial flooded quarter-disc radius
    well_radius: float = 0.0    # well footprint; 0 = corner point sources
    threshold: float = -1.0     # breakthrough saturation; < 0 means 1 - s0

    # output
    dump_every: int = 0         # dump cadence in steps; 0 = final state only
    out: str = ""

    def __post_init__(self):
        for key, (cast, kind, wanted) in _KEY_TYPES.items():  # before any comparison
            if not isinstance(value := getattr(self, key), kind):
                raise ConfigError(f"config key '{key}' wants {wanted}, got {value!r}")
            # stored as the default's Python type: a numpy float32 dt would
            # run the clock and every step's scalars in single precision; an
            # integer too large for a float is infinite, as in parse_number
            try:
                value = cast(value)
            except OverflowError:
                value = math.inf if value > 0 else -math.inf
            object.__setattr__(self, key, value)
        if self.N < 2:
            raise ConfigError("N must be at least 2")
        if not 0.0 < self.dt < math.inf:
            raise ConfigError("dt must be positive and finite")
        if not 0.0 <= self.tstop < math.inf:
            raise ConfigError("tstop must be nonnegative and finite")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
        if not (self.phi > 0.0 and self.K > 0.0):
            raise ConfigError("phi and K must be positive")
        if not 0.0 < self.radius <= math.sqrt(2.0):
            raise ConfigError("radius must lie in (0, sqrt(2)]")
        if self.dump_every < 0:
            raise ConfigError("dump_every must be nonnegative")
        try:
            model = self.petro()
            self.wells()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        lo, hi = model.mobile_range
        if not lo <= self.s0 <= hi:
            raise ConfigError(f"s0 must lie in the mobile range [{lo}, {hi}]")
        thr = self.breakthrough_threshold
        if not 0.0 < thr < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")

    def petro(self) -> PetroModel:
        return PetroModel(**{f.name: getattr(self, f.name)
                             for f in fields(PetroModel)})

    def wells(self) -> WellConfig:
        return WellConfig(rate=self.Q, c_injected=self.c0,
                          radius=self.well_radius)

    @property
    def breakthrough_threshold(self) -> float:
        return self.threshold if self.threshold >= 0.0 else 1.0 - self.s0


# each key's type is that of its default, which stores the value; the
# check admits numpy's scalars as well
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          str: (str, "a string")}
_KEY_TYPES = {f.name: (type(f.default), *_KINDS[type(f.default)])
              for f in fields(RunConfig)}


def parse_number(text: str):
    """Parse an int, float, or simple fraction like 2/3; anything else
    raises ConfigError."""
    text = text.strip()
    for parse in (int, float):
        try:
            value = parse(text)
        except ValueError:
            continue
        # an integer too large for a float reads as the inf it overflows to
        return value if math.isfinite(float(text)) else float(text)
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"expected a number, got '{text}'")


def parse_config(path, overrides: dict | None = None,
                 base: RunConfig = RunConfig()) -> RunConfig:
    """Read a UTF-8 config file (optional); apply it, then overrides, to
    base, which checks them; bad input raises ConfigError.  A malformed
    line, an unknown key or a non-number in the file names its path:line."""
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError as err:
            raise ConfigError(f"config file not found: {err.filename}") from err
        except OSError as err:  # a directory, say, or no permission to read
            raise ConfigError(f"cannot read config file '{path}': "
                              f"{err.strerror}") from err
        except UnicodeDecodeError as err:
            raise ConfigError(f"cannot read config file '{path}': not UTF-8 "
                              f"({err.reason} at byte {err.start})") from err
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _KEY_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            try:
                values[key] = (val.strip() if _KEY_TYPES[key][0] is str
                               else parse_number(val))
            except ConfigError as err:
                raise ConfigError(f"{path}:{lineno}: key '{key}': {err}") from err
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    for key in values:
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
    return replace(base, **values)
