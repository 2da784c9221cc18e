"""Line-oriented ``key = value`` run configuration.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Unknown keys, malformed values, and constraint
violations raise :class:`ParseError` naming the offending line and key.
Every constraint is the rule of the library code that uses the value
(:data:`RULES`), checked at parse time, before any numerical work.

Keys and defaults:

====================  =======================  =====================================
key                   default                  meaning
====================  =======================  =====================================
scheme                v_type                   v_type | full_j0_j1
detuning              0.0                      drive detuning (units of gamma)
kr                    100.0                    dimensionless interatomic distance,
                                               10 to 1e150
sweep_s               (none)                   saturation sweep: ``logspace(lo, hi, n)``
                                               or a comma-separated list
rabi                  (none)                   single Rabi frequency (spectrum mode)
n_phase_a             4                        drive-phase grid points, 4 to 64
                                               (see below)
n_phase_p             4                        propagation-phase grid points, 4 to 64
omega_span            auto                     half-width of the frequency grid;
                                               ``auto`` = 2.5 x generalized Rabi
orientation_mode      fixed                    fixed | isotropic interatomic axis
                                               (isotropic: alpha-sweep only)
orientation           1,0,0                    axis used in fixed mode
n_configs             64                       isotropic-average sample count,
                                               1 to 10000
seed                  0                        non-negative RNG seed (isotropic sampling)
output_dir            .                        directory for emitted artifacts
====================  =======================  =====================================

The drive phase a and the propagation phase p are sampled on grids of 4
to 64 points, which leave an aliasing error of order kr^-4 that larger
grids refine; the detection phase b is averaged exactly, so it has no grid
key.  The frequency steps are those of the library's default grid.  A
saturation (of each ``sweep_s`` value, or of ``rabi`` and ``detuning``)
whose raw intensities would near the subnormal range at ``kr`` is
rejected by a joint rule of those keys, and so is a sweep whose detuning
or Rabi frequency exceeds 1e150.
"""

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigurationError, DomainError, ParseError
from . import atoms, cbs, liouvillian, spectra

FIXED = "fixed"
ISOTROPIC = "isotropic"

_LOGSPACE_RE = re.compile(
    r"^logspace\(\s*([^\s,]+)\s*,\s*([^\s,]+)\s*,\s*(\d+)\s*\)$"
)


@dataclass
class RunConfig:
    scheme: str = atoms.V_TYPE
    detuning: float = liouvillian.PhysicalParams.detuning
    kr: float = liouvillian.PhysicalParams.kr
    sweep_s: tuple = None
    rabi: float = None
    n_phase_a: int = cbs.DEFAULT_PHASE_POINTS
    n_phase_p: int = cbs.DEFAULT_PHASE_POINTS
    omega_span: float = None  # None means auto (2.5 x generalized Rabi)
    orientation_mode: str = FIXED
    orientation: tuple = liouvillian.PhysicalParams.orientation
    n_configs: int = cbs.DEFAULT_ORIENTATIONS
    seed: int = 0
    output_dir: str = "."
    source_lines: dict = field(default_factory=dict, repr=False, compare=False)

    def params(self, rabi=None):
        """PhysicalParams for this configuration."""
        return liouvillian.PhysicalParams(rabi=self.rabi if rabi is None else rabi,
                                          detuning=self.detuning, kr=self.kr,
                                          orientation=self.orientation)

    def echo_lines(self):
        """Canonical ``key = value`` lines for metadata blocks."""
        lines = []
        for f in fields(self):
            if f.name == "source_lines":
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name in ("sweep_s", "orientation"):
                value = ",".join(f"{v:.17g}" for v in value)
            lines.append(f"{f.name} = {value}")
        return lines


def _parse_number(raw, line, key, kind=float):
    """``kind(raw)``; whether the value is allowed is the rule of ``key``."""
    try:
        return kind(raw)
    except ValueError:
        what = "a number" if kind is float else "an integer"
        raise ParseError(f"expected {what}, got {raw!r}", line=line, key=key) from None


def _parse_choice(raw, choices, line, key):
    value = raw.strip().lower()
    if value not in choices:
        raise ParseError(f"must be one of {', '.join(choices)}; got {raw!r}",
                         line=line, key=key)
    return value


def _parse_sweep(raw, line, key):
    m = _LOGSPACE_RE.match(raw.strip())
    if m:
        lo, hi = (_parse_number(m.group(i), line, key) for i in (1, 2))
        if not (0 < lo < math.inf and 0 < hi < math.inf):  # as np.geomspace needs
            raise ParseError("logspace bounds must be finite and positive",
                             line=line, key=key)
        n = int(m.group(3))
        try:  # the library's length rule, before geomspace builds n values
            cbs._check_sweep_size(n)
        except ConfigurationError as exc:
            raise ParseError(str(exc), line=line, key=key) from None
        return tuple(np.geomspace(lo, hi, n))
    return _parse_list(raw, line, key)


def _parse_list(raw, line, key):
    return tuple(_parse_number(v, line, key) for v in raw.split(",") if v.strip())


_PARSERS = {
    "scheme": lambda raw, ln: raw.strip().lower(),
    "detuning": lambda raw, ln: _parse_number(raw, ln, "detuning"),
    "kr": lambda raw, ln: _parse_number(raw, ln, "kr"),
    "sweep_s": lambda raw, ln: _parse_sweep(raw, ln, "sweep_s"),
    "rabi": lambda raw, ln: _parse_number(raw, ln, "rabi"),
    "n_phase_a": lambda raw, ln: _parse_number(raw, ln, "n_phase_a", int),
    "n_phase_p": lambda raw, ln: _parse_number(raw, ln, "n_phase_p", int),
    "omega_span": lambda raw, ln: (
        None if raw.strip().lower() == "auto" else _parse_number(raw, ln, "omega_span")),
    "orientation_mode": lambda raw, ln: _parse_choice(
        raw, (FIXED, ISOTROPIC), ln, "orientation_mode"),
    "orientation": lambda raw, ln: _parse_list(raw, ln, "orientation"),
    "n_configs": lambda raw, ln: _parse_number(raw, ln, "n_configs", int),
    "seed": lambda raw, ln: _parse_number(raw, ln, "seed", int),
    "output_dir": lambda raw, ln: raw.strip(),
}


#: The rule of each checked key, or of a tuple of keys checked together:
#: the library call that raises :class:`ConfigurationError` or
#: :class:`DomainError` for a bad value (or tuple of values).
RULES = {
    "scheme": lambda v: cbs._detection_operators(atoms.build_scheme(v)),
    "detuning": lambda v: liouvillian.PhysicalParams(detuning=v),
    "kr": lambda v: liouvillian.PhysicalParams(kr=v),
    "rabi": lambda v: liouvillian.PhysicalParams(rabi=v),
    "orientation": lambda v: liouvillian.PhysicalParams(orientation=v),
    "sweep_s": cbs._check_sweep,
    "n_phase_a": lambda v: cbs._check_sizes(n_a=v),
    "n_phase_p": lambda v: cbs._check_sizes(n_p=v),
    "n_configs": lambda v: cbs._check_sizes(n_configs=v),
    "seed": lambda v: cbs._check_sizes(seed=v),
    "omega_span": spectra._lattice,
    # Raw intensities must stay clear of the subnormal range (joint in s and kr).
    ("sweep_s", "kr"): cbs._check_intensity_scale,
    ("rabi", "detuning", "kr"): cbs._check_drive_scale,
    # A sweep's drive must stay clear of overflow; the detuning is checked (and named) first.
    ("detuning", "sweep_s"): lambda detuning, s_values: cbs._check_sweep_drive((), detuning),
    ("sweep_s", "detuning"): cbs._check_sweep_drive,
}


def check(key, value, line=None, name=None):
    """Apply the rule of ``key`` to ``value`` (of a tuple key to the tuple of
    values); a rejection raises :class:`ParseError` naming ``line`` and
    ``name`` (default ``key``, or the first key of a tuple)."""
    joint = isinstance(key, tuple)
    try:
        RULES[key](*value) if joint else RULES[key](value)
    except (ConfigurationError, DomainError) as exc:
        raise ParseError(str(exc), line=line, key=name or (key[0] if joint else key)) from None


def parse_config(text):
    """Parse configuration text into a fully validated :class:`RunConfig`."""
    cfg = RunConfig()
    seen = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw_line.strip()!r}",
                             line=line_no)
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ParseError(f"unknown key {key!r}", line=line_no, key=key)
        if key in seen:
            raise ParseError(f"duplicate key (first set on line {seen[key]})",
                             line=line_no, key=key)
        if not raw_value:
            raise ParseError("missing value", line=line_no, key=key)
        seen[key] = line_no
        setattr(cfg, key, _PARSERS[key](raw_value, line_no))
    cfg.source_lines = seen
    for key in RULES:
        keys = key if isinstance(key, tuple) else (key,)
        values = tuple(getattr(cfg, k) for k in keys)
        if None not in values:  # None: unset, or omega_span auto
            check(key, values if len(values) > 1 else values[0], line=seen.get(keys[0]))
    return cfg
