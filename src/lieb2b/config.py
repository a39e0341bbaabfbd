"""Run configuration: a plain-text key=value file with a stable hash.

Every exported artifact embeds the hash of the configuration that
produced it, so a fixture can be traced back to its exact settings.
The keys are exactly the settings a CLI flag sets (``--n-max``
ep_n_max, ``--re-min`` ... ``--im-max`` grid_*, ``--points``
grid_points, ``--radius`` loop_radius, ``--trunc`` truncation): a flag
overrides the key it names, is validated here and enters the hash like
a file line; request inputs such as ``--n``, ``--g`` or ``--g0`` do
not.  Numerical tolerances are library constants, not settings.
The hash is taken over a canonical serialization (sorted keys, shortest
round-trip float representation), which makes it stable across
platforms and insensitive to comment or ordering changes in the file.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .bethe import RESIDUAL_TARGET
from .holonomy import MIN_LOOP_RADIUS, TRANSPORT_RTOL


class ConfigError(ValueError):
    """Malformed key, unknown key, or a value violating an invariant."""


@dataclass(frozen=True)
class RunConfig:
    # read-only class constants, not keys: the library defaults
    solver_tol = RESIDUAL_TARGET
    transport_rtol = TRANSPORT_RTOL
    truncation: int = 12
    ep_n_max: int = 8
    loop_radius: float = 1e-3
    grid_re_min: float = -3.0
    grid_re_max: float = 1.0
    grid_im_min: float = -4.0
    grid_im_max: float = 0.5
    grid_points: int = 41

    def __post_init__(self):
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        if self.truncation < 2:
            raise ConfigError("truncation must retain at least two levels")
        if self.ep_n_max < 2:
            raise ConfigError("ep_n_max must be at least 2")
        if not self.loop_radius >= MIN_LOOP_RADIUS:
            raise ConfigError(f"loop_radius {self.loop_radius} is below the floor "
                              f"{MIN_LOOP_RADIUS}")
        if not self.grid_re_min < self.grid_re_max:
            raise ConfigError("grid window is empty along the real axis")
        if not self.grid_im_min < self.grid_im_max:
            raise ConfigError("grid window is empty along the imaginary axis")
        for name in ("grid_re_min", "grid_re_max", "grid_im_min", "grid_im_max"):
            if abs(getattr(self, name)) > 1e6:
                raise ConfigError(f"{name} lies outside the coupling domain |g| <= 1e6")
        if self.grid_points < 2:
            raise ConfigError("grid_points must be at least 2 per axis")

    def canonical_text(self) -> str:
        """Sorted key=value lines with round-trip float formatting."""
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            text = repr(float(value)) if f.type == "float" else str(value)
            parts.append(f"{f.name} = {text}")
        return "\n".join(parts) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("ascii")).hexdigest()


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    """Parse key = value lines; # starts a comment, blank lines ignored."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value) if _FIELD_TYPES[key] == "float" else int(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read())
