"""Line-oriented ``key = value`` run configuration.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Unknown keys, malformed values, and constraint
violations raise :class:`ParseError` naming the offending line and key.
All constraints are checked at parse time, before any numerical work.

Keys and defaults:

====================  =======================  =====================================
key                   default                  meaning
====================  =======================  =====================================
scheme                v_type                   two_level | v_type | full_j0_j1
coupling_mode         vector                   vector | scalar exchange weights
detuning              0.0                      drive detuning (units of gamma)
kr                    100.0                    dimensionless interatomic distance
sweep_s               (none)                   saturation sweep: ``logspace(lo, hi, n)``
                                               or a comma-separated list
rabi                  (none)                   single Rabi frequency (spectrum mode)
n_phase_a             4                        drive-phase grid points
n_phase_b             4                        detection-phase grid points
n_phase_p             4                        propagation-phase grid points
omega_span            auto                     half-width of the frequency grid;
                                               ``auto`` = 2.5 x generalized Rabi
omega_step            0.1                      base frequency spacing
refine_step           0.02                     spacing near predicted peaks
refine_halfwidth      5.0                      half-width of refined windows
orientation_mode      fixed                    fixed | isotropic interatomic axis
orientation           1,0,0                    axis used in fixed mode
n_configs             64                       isotropic-average sample count
seed                  0                        non-negative RNG seed (isotropic sampling)
output_dir            .                        directory for emitted artifacts
====================  =======================  =====================================
"""

import math
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParseError
from . import atoms, liouvillian

FIXED = "fixed"
ISOTROPIC = "isotropic"

_LOGSPACE_RE = re.compile(
    r"^logspace\(\s*([^\s,]+)\s*,\s*([^\s,]+)\s*,\s*(\d+)\s*\)$"
)


@dataclass
class RunConfig:
    scheme: str = atoms.V_TYPE
    coupling_mode: str = liouvillian.VECTOR
    detuning: float = 0.0
    kr: float = 100.0
    sweep_s: tuple = None
    rabi: float = None
    n_phase_a: int = 4
    n_phase_b: int = 4
    n_phase_p: int = 4
    omega_span: float = None  # None means auto (2.5 x generalized Rabi)
    omega_step: float = 0.1
    refine_step: float = 0.02
    refine_halfwidth: float = 5.0
    orientation_mode: str = FIXED
    orientation: tuple = (1.0, 0.0, 0.0)
    n_configs: int = 64
    seed: int = 0
    output_dir: str = "."
    source_lines: dict = field(default_factory=dict, repr=False, compare=False)

    def params(self, rabi=None):
        """PhysicalParams for this configuration (phases at their origins)."""
        return liouvillian.PhysicalParams(
            rabi=self.rabi if rabi is None else rabi,
            detuning=self.detuning,
            kr=self.kr,
            orientation=self.orientation,
            coupling_mode=self.coupling_mode,
        )

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


def _parse_float(raw, line, key):
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"expected a number, got {raw!r}", line=line, key=key) from None
    if not math.isfinite(value):
        raise ParseError(f"value must be finite, got {raw!r}", line=line, key=key)
    return value


def _parse_int(raw, line, key):
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"expected an integer, got {raw!r}", line=line, key=key) from None


def _parse_choice(raw, choices, line, key):
    value = raw.strip().lower()
    if value not in choices:
        raise ParseError(
            f"must be one of {', '.join(choices)}; got {raw!r}", line=line, key=key
        )
    return value


def _parse_sweep(raw, line, key):
    m = _LOGSPACE_RE.match(raw.strip())
    if m:
        lo = _parse_float(m.group(1), line, key)
        hi = _parse_float(m.group(2), line, key)
        n = int(m.group(3))
        if lo <= 0 or hi <= 0:
            raise ParseError("logspace bounds must be positive", line=line, key=key)
        if n < 1:
            raise ParseError("logspace needs at least one point", line=line, key=key)
        return tuple(np.geomspace(lo, hi, n))
    values = tuple(_parse_float(v, line, key) for v in raw.split(",") if v.strip())
    if not values:
        raise ParseError(f"empty sweep specification {raw!r}", line=line, key=key)
    return values


def _parse_vector(raw, line, key):
    parts = [p for p in raw.split(",") if p.strip()]
    if len(parts) != 3:
        raise ParseError(f"expected three comma-separated components, got {raw!r}",
                         line=line, key=key)
    return tuple(_parse_float(p, line, key) for p in parts)


_PARSERS = {
    "scheme": lambda raw, ln: _parse_choice(raw, atoms.SCHEME_KINDS, ln, "scheme"),
    "coupling_mode": lambda raw, ln: _parse_choice(
        raw, liouvillian.COUPLING_MODES, ln, "coupling_mode"),
    "detuning": lambda raw, ln: _parse_float(raw, ln, "detuning"),
    "kr": lambda raw, ln: _parse_float(raw, ln, "kr"),
    "sweep_s": lambda raw, ln: _parse_sweep(raw, ln, "sweep_s"),
    "rabi": lambda raw, ln: _parse_float(raw, ln, "rabi"),
    "n_phase_a": lambda raw, ln: _parse_int(raw, ln, "n_phase_a"),
    "n_phase_b": lambda raw, ln: _parse_int(raw, ln, "n_phase_b"),
    "n_phase_p": lambda raw, ln: _parse_int(raw, ln, "n_phase_p"),
    "omega_span": lambda raw, ln: (
        None if raw.strip().lower() == "auto" else _parse_float(raw, ln, "omega_span")),
    "omega_step": lambda raw, ln: _parse_float(raw, ln, "omega_step"),
    "refine_step": lambda raw, ln: _parse_float(raw, ln, "refine_step"),
    "refine_halfwidth": lambda raw, ln: _parse_float(raw, ln, "refine_halfwidth"),
    "orientation_mode": lambda raw, ln: _parse_choice(
        raw, (FIXED, ISOTROPIC), ln, "orientation_mode"),
    "orientation": lambda raw, ln: _parse_vector(raw, ln, "orientation"),
    "n_configs": lambda raw, ln: _parse_int(raw, ln, "n_configs"),
    "seed": lambda raw, ln: _parse_int(raw, ln, "seed"),
    "output_dir": lambda raw, ln: raw.strip(),
}


def _validate(cfg):
    def fail(key, message):
        raise ParseError(message, line=cfg.source_lines.get(key), key=key)

    if cfg.kr < liouvillian.KR_MIN:
        fail("kr", f"kr >= {liouvillian.KR_MIN:g} required, got {cfg.kr:g}")
    if cfg.rabi is not None and cfg.rabi < 0:
        fail("rabi", "rabi frequency must be non-negative")
    if cfg.sweep_s is not None:
        if any(s <= 0 for s in cfg.sweep_s):
            fail("sweep_s", "sweep saturations must be positive")
        if list(cfg.sweep_s) != sorted(cfg.sweep_s):
            fail("sweep_s", "sweep saturations must be sorted ascending")
    for key in ("n_phase_a", "n_phase_b", "n_phase_p"):
        if getattr(cfg, key) < 4:
            fail(key, "at least 4 phase points are required")
    if cfg.omega_span is not None and cfg.omega_span <= 0:
        fail("omega_span", "omega_span must be positive (or auto)")
    if cfg.omega_step <= 0:
        fail("omega_step", "omega_step must be positive")
    if cfg.refine_step <= 0 or cfg.refine_step > cfg.omega_step:
        fail("refine_step", "refine_step must satisfy 0 < refine_step <= omega_step")
    if cfg.refine_halfwidth <= 0:
        fail("refine_halfwidth", "refine_halfwidth must be positive")
    if cfg.n_configs < 1:
        fail("n_configs", "n_configs must be at least 1")
    if cfg.seed < 0:
        fail("seed", f"seed must be non-negative, got {cfg.seed}")
    if all(abs(c) < 1e-12 for c in cfg.orientation):
        fail("orientation", "orientation vector must be nonzero")
    return cfg


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
    return _validate(cfg)
