"""Run configuration: INI files with explicit units in the key names.

The SI-to-scaled boundary lives here and nowhere else: every key that
carries a dimension says so in its name (E0_volts_per_meter,
detuning_per_second), and everything behind the parser works in scaled
units.  Parsing is fail-closed: an unknown section or key is an error,
not a warning, because a silently ignored typo in a rate constant is
the most expensive mistake this package can make.

Parsing then re-serializing is idempotent; serialize_config always
writes the full canonical document with repr-precision floats.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional

from .drive import (
    AnalyticSource,
    DriveParameters,
    FrozenSource,
    NumericSource,
    derive_drive,
)
from .dynamics import AXIS_GUARD_INITIAL
from .engine import IntegratorConfig
from .errors import ConfigError
from .wavefield import SpatialPoint

PRESETS = ("fig1", "fig2")


def _float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            "%s.%s expects a number, got %r" % (section, key, raw)
        ) from None


def _optional_float(section: str, key: str, raw: str) -> Optional[float]:
    if raw.strip().lower() == "none":
        return None
    return _float(section, key, raw)


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            "%s.%s expects an integer, got %r" % (section, key, raw)
        ) from None


def _float_list(section: str, key: str, raw: str) -> tuple:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError("%s.%s must list at least one value" % (section, key))
    return tuple(_float(section, key, p) for p in parts)


def _str_list(section: str, key: str, raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError("%s.%s must list at least one value" % (section, key))
    return tuple(parts)


# A value kind: (read raw text, write the value back).  Every kind
# writes what it reads, so parse(serialize(c)) == c.
_FLOAT = (_float, repr)
_OPTIONAL_FLOAT = (_optional_float, lambda v: "none" if v is None else repr(v))
_INT = (_int, lambda v: "%d" % (v,))
_FLOAT_LIST = (_float_list, lambda v: ", ".join(repr(t) for t in v))
_STR_LIST = (_str_list, ", ".join)
_STR = (lambda section, key, raw: raw.strip(), str)

# Section -> key -> kind, in canonical order.  The parser rejects any
# other section or key; serialize_config writes every one.
_SCHEMA = {
    "drive": {
        "E0_volts_per_meter": _FLOAT,
        "detuning_per_second": _FLOAT,
        "omega0_per_second": _OPTIONAL_FLOAT,
        "nu_override_per_second": _OPTIONAL_FLOAT,
    },
    "initial": {"xi": _FLOAT, "theta": _FLOAT, "phi": _FLOAT},
    "coefficients": {
        "mode": _STR,
        "c1_re": _FLOAT,
        "c1_im": _FLOAT,
        "c2_re": _FLOAT,
        "c2_im": _FLOAT,
    },
    "integrate": {
        "tau_max": _FLOAT,
        "rel_tol": _FLOAT,
        "abs_tol": _FLOAT,
        "max_step": _FLOAT,
        "output_stride": _FLOAT,
    },
    "ensemble": {
        "count": _INT,
        "seed": _INT,
        "tau_targets": _FLOAT_LIST,
        "bins": _INT,
    },
    "output": {"directory": _STR, "formats": _STR_LIST},
}

_MODES = ("analytic", "frozen", "numeric")
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """One run's worth of settings, defaults matching the fig1 preset."""

    E0_volts_per_meter: float = 8.8e7
    detuning_per_second: float = 1.55e12
    omega0_per_second: Optional[float] = 1.549e16
    nu_override_per_second: Optional[float] = -5.1e12
    xi: float = 4.0
    theta: float = 1.0
    phi: float = 0.0
    mode: str = "analytic"
    c1_re: float = 1.0
    c1_im: float = 0.0
    c2_re: float = 0.0
    c2_im: float = 0.0
    tau_max: float = 1.0e4
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 1.0
    output_stride: float = 1.0
    count: int = 10000
    seed: int = 20260819
    tau_targets: tuple = (2000.0,)
    bins: int = 20
    directory: str = "out"
    formats: tuple = ("csv", "json")

    # -- validation --------------------------------------------------

    def validate(self) -> "RunConfig":
        """Check every field against the module preconditions.

        Returns self so calls can chain; raises ConfigError naming the
        offending key otherwise.
        """
        for section, keys in _SCHEMA.items():
            for key in keys:
                value = getattr(self, key)
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigError(
                        "%s.%s must be finite, got %r" % (section, key, value)
                    )
        if not self.E0_volts_per_meter > 0.0:
            raise ConfigError(
                "drive.E0_volts_per_meter must be positive, got %r"
                % (self.E0_volts_per_meter,)
            )
        if self.detuning_per_second < 0.0:
            raise ConfigError(
                "drive.detuning_per_second must be non-negative, got %r"
                % (self.detuning_per_second,)
            )
        if self.omega0_per_second is not None and not self.omega0_per_second > 0.0:
            raise ConfigError(
                "drive.omega0_per_second must be positive, got %r"
                % (self.omega0_per_second,)
            )
        if not self.xi > 0.0:
            raise ConfigError("initial.xi must be positive, got %r" % (self.xi,))
        if not 0.0 < self.theta < math.pi or math.sin(self.theta) < AXIS_GUARD_INITIAL:
            raise ConfigError(
                "initial.theta = %r violates the axis exclusion: the "
                "azimuth is undefined on the z-axis, so sin(theta) must "
                "be at least %g" % (self.theta, AXIS_GUARD_INITIAL)
            )
        if self.mode not in _MODES:
            raise ConfigError(
                "coefficients.mode must be one of %s, got %r"
                % ("/".join(_MODES), self.mode)
            )
        if self.mode == "frozen":
            norm = (
                self.c1_re**2 + self.c1_im**2 + self.c2_re**2 + self.c2_im**2
            )
            if abs(norm - 1.0) > 1e-12:
                raise ConfigError(
                    "coefficients c1, c2 must satisfy |c1|^2 + |c2|^2 = 1 "
                    "for frozen mode; got %r" % (norm,)
                )
        if not self.tau_max > 0.0:
            raise ConfigError(
                "integrate.tau_max must be positive, got %r" % (self.tau_max,)
            )
        if not 0.0 < self.rel_tol < 1.0:
            raise ConfigError(
                "integrate.rel_tol must lie in (0, 1), got %r" % (self.rel_tol,)
            )
        if not self.abs_tol > 0.0:
            raise ConfigError(
                "integrate.abs_tol must be positive, got %r" % (self.abs_tol,)
            )
        if not self.max_step > 0.0:
            raise ConfigError(
                "integrate.max_step must be positive, got %r" % (self.max_step,)
            )
        if not self.output_stride > 0.0:
            raise ConfigError(
                "integrate.output_stride must be positive, got %r"
                % (self.output_stride,)
            )
        if self.count < 1:
            raise ConfigError(
                "ensemble.count must be at least 1, got %r" % (self.count,)
            )
        if self.seed < 0:
            raise ConfigError(
                "ensemble.seed must be non-negative, got %r" % (self.seed,)
            )
        if not self.tau_targets:
            raise ConfigError("ensemble.tau_targets must not be empty")
        for t in self.tau_targets:
            if not (math.isfinite(t) and t >= 0.0):
                raise ConfigError(
                    "ensemble.tau_targets entries must be non-negative, got %r"
                    % (t,)
                )
        if self.bins < 2:
            raise ConfigError("ensemble.bins must be at least 2, got %r" % (self.bins,))
        if not self.directory:
            raise ConfigError("output.directory must not be empty")
        if not self.formats:
            raise ConfigError("output.formats must not be empty")
        for f in self.formats:
            if f not in _FORMATS:
                raise ConfigError(
                    "output.formats entries must be among %s, got %r"
                    % ("/".join(_FORMATS), f)
                )
        return self

    # -- builders ----------------------------------------------------

    def drive(self) -> DriveParameters:
        return derive_drive(
            self.E0_volts_per_meter,
            self.detuning_per_second,
            nu_override_ps=self.nu_override_per_second,
            omega0_ps=self.omega0_per_second,
        )

    def source(self):
        if self.mode == "analytic":
            return AnalyticSource(self.drive())
        if self.mode == "frozen":
            return FrozenSource(
                complex(self.c1_re, self.c1_im),
                complex(self.c2_re, self.c2_im),
            )
        return NumericSource(self.drive(), self.tau_max)

    def initial(self) -> SpatialPoint:
        return SpatialPoint(xi=self.xi, theta=self.theta, phi=self.phi)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            max_step=self.max_step,
            output_stride=self.output_stride,
        )


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> RunConfig:
    """Parse an INI document into a validated RunConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("malformed config: %s" % (exc,)) from None

    updates: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                "unknown config section [%s]; expected one of %s"
                % (section, ", ".join(_SCHEMA))
            )
        allowed = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in allowed:
                raise ConfigError(
                    "unknown key %s.%s; %s accepts %s"
                    % (section, key, section, ", ".join(allowed))
                )
            read, _ = allowed[key]
            updates[key] = read(section, key, raw)
    return replace(RunConfig(), **updates).validate()


def serialize_config(cfg: RunConfig) -> str:
    """Render the full canonical INI document for a RunConfig.

    Every key is written; optional keys holding None carry the literal
    word none.  Floats are written with repr so parse(serialize(c))
    round-trips to c exactly and re-serializing is idempotent.
    """
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append("[%s]" % (section,))
        for key, (_, write) in keys.items():
            lines.append("%s = %s" % (key, write(getattr(cfg, key))))
        lines.append("")
    return "\n".join(lines)


def load_config(path: str) -> RunConfig:
    """Read and parse a config file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from None
    return parse_config_text(text)


def load_preset(name: str) -> RunConfig:
    """Load one of the bundled preset configs by short name."""
    if name not in PRESETS:
        raise ConfigError(
            "unknown preset %r; bundled presets: %s" % (name, ", ".join(PRESETS))
        )
    text = resources.files("pilotwave.presets").joinpath(name + ".cfg").read_text(
        encoding="utf-8"
    )
    return parse_config_text(text)
