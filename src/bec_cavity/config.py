"""Run configuration and bit-stable tabular output.

Configs are flat JSON: the physical parameters (delta_c, kappa, eta, u0,
n_atoms, grid_points) and the option keys its command reads:

  sweep                 spectrum, depletion: a u0 sweep {"parameter": "u0",
                        "from", "to", "points", "scale": "linear" | "log"}
  detunings             depletion: the delta_c values, in order (default:
                        delta_c alone)
  eta_follows_detuning  depletion: eta = -delta_c at each detuning
  nonneg_re_only        spectrum: keep the modes with Re omega >= 0
  out                   groundstate, spectrum, depletion: the output path
  fault_injection       verify: "corrupt-matrix"

Any other key is rejected, and so is an option the command does not
read.  Finite times and the oracle column are the depletion command's
--times and --oracle flags, not config keys.  The chain's numerical
tolerances and its fluctuation frame (the one that rotates with the
chemical potential) are fixed in code, not settable here.  Results are
written as CSV with '#'-prefixed metadata lines (program version,
canonical config echo, timestamp) before the header row; floats carry 17
significant digits so a written table reads back bit-identically.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from typing import Any, TextIO

import numpy as np

from .params import ParameterError, SystemParams, validate


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_PARAM_KEYS = tuple(f.name for f in fields(SystemParams))

# the option keys each command reads besides the parameters
_COMMAND_KEYS = {
    "groundstate": ("out",),
    "spectrum": ("sweep", "nonneg_re_only", "out"),
    "depletion": ("sweep", "detunings", "eta_follows_detuning", "out"),
    "verify": ("fault_injection",),
}
# every key parse_config reads besides the parameters
_OPTION_KEYS = tuple(sorted({key for keys in _COMMAND_KEYS.values() for key in keys}))
_SWEEP_KEYS = ("parameter", "from", "to", "points", "scale")


def _reject_unknown(block: dict, known, where: str) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class SweepSpec:
    """A u0 sweep: points values from start to stop, both included."""

    start: float
    stop: float
    points: int
    scale: str = "linear"


@dataclass
class RunConfig:
    params: SystemParams
    sweep: SweepSpec | None = None
    detunings: list[float] | None = None
    eta_follows_detuning: bool = False
    out: str | None = None
    nonneg_re_only: bool = False
    # set from the depletion command's --times and --oracle, never from the config
    times: list[float] | None = None
    oracle: bool = False
    fault_injection: str | None = None
    raw: dict = field(default_factory=dict, repr=False)

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def refuse_unread_keys(self, command: str) -> None:
        """ConfigError naming the option keys set here that the command does
        not read, and would otherwise drop.

        groundstate and verify solve one point; spectrum writes a u0 sweep at
        one detuning; depletion writes both axes.
        """
        unread = sorted(set(self.raw) & set(_OPTION_KEYS) - set(_COMMAND_KEYS[command]))
        if unread:
            raise ConfigError(f"{command} does not read {', '.join(map(repr, unread))}")


def _require_number(value: Any, name: str) -> float:
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    # the bound also rejects NaN, infinities and integers too large for a float
    if not (numeric and abs(value) <= sys.float_info.max):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _require_count(value: Any, name: str) -> int:
    number = _require_number(value, name)
    if not number.is_integer():
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def _require_flag(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
    _reject_unknown(data, (*_PARAM_KEYS, *_OPTION_KEYS), "config")
    missing = [k for k in _PARAM_KEYS if k not in data]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    try:
        # counts for the int fields of SystemParams (string annotations), numbers else
        params = validate(SystemParams(**{
            f.name: (_require_count if f.type == "int" else _require_number)(data[f.name], f.name)
            for f in fields(SystemParams)
        }))
    except (ParameterError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    cfg = RunConfig(params=params, raw=dict(data))
    if "sweep" in data:
        cfg.sweep = _parse_sweep(data["sweep"])
    if "detunings" in data:
        det = data["detunings"]
        if not isinstance(det, list) or not det:
            raise ConfigError("detunings must be a non-empty list of numbers")
        cfg.detunings = [_require_number(x, "detunings entry") for x in det]
    for flag in ("eta_follows_detuning", "nonneg_re_only"):
        if flag in data:
            setattr(cfg, flag, _require_flag(data[flag], flag))
    if "out" in data:
        if not isinstance(data["out"], str) or not data["out"]:
            raise ConfigError(f"out must be a non-empty file path, got {data['out']!r}")
        cfg.out = data["out"]
    if "fault_injection" in data:
        fault = data["fault_injection"]
        if fault != "corrupt-matrix":  # the one fault analyze_point can inject
            raise ConfigError(f"fault_injection must be 'corrupt-matrix', got {fault!r}")
        cfg.fault_injection = fault
    return cfg


def _parse_sweep(block: Any) -> SweepSpec:
    if not isinstance(block, dict):
        raise ConfigError("sweep must be an object")
    _reject_unknown(block, _SWEEP_KEYS, "sweep")
    for key in ("parameter", "from", "to", "points"):
        if key not in block:
            raise ConfigError(f"sweep is missing '{key}'")
    if block["parameter"] != "u0":
        raise ConfigError(
            f"sweep parameter must be 'u0', got {block['parameter']!r}; "
            "list the delta_c values under 'detunings'"
        )
    start = _require_number(block["from"], "sweep from")
    stop = _require_number(block["to"], "sweep to")
    points = _require_count(block["points"], "sweep points")
    if points < 1:
        raise ConfigError(f"sweep points must be a positive integer, got {block['points']!r}")
    if points > 1 and start == stop:
        raise ConfigError("sweep bounds must differ for more than one point")
    scale = block.get("scale", "linear")
    if scale not in ("linear", "log"):
        raise ConfigError(f"sweep scale must be 'linear' or 'log', got {scale!r}")
    if scale == "log" and (start * stop <= 0):
        raise ConfigError("log-scale sweep bounds must be nonzero and share a sign")
    return SweepSpec(start=start, stop=stop, points=points, scale=scale)


def parse_times(text: str) -> list[float]:
    """The depletion command's --times: comma-separated finite, nonnegative
    times, at least one.  Anything else raises ValueError (a ConfigError
    among them)."""
    times = [_require_number(float(t), "times entry") for t in text.split(",") if t.strip()]
    if not times:
        raise ConfigError("times must be a non-empty list of nonnegative numbers")
    if any(t < 0 for t in times):
        raise ConfigError("times must be nonnegative")
    return times


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def sweep_values(spec: SweepSpec) -> np.ndarray:
    if spec.points == 1:
        return np.array([spec.start])
    if spec.scale == "log":
        return np.geomspace(spec.start, spec.stop, spec.points)
    return np.linspace(spec.start, spec.stop, spec.points)


# ---------------------------------------------------------------------------
# tabular output


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";")  # cells are never quoted
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv(stream: TextIO, columns: list[str], rows: list[tuple], meta: dict[str, str]) -> None:
    """One '# key: value' line per meta entry, the header, then the rows in
    the order given; every float has 17 significant digits, so float()
    reads it back exactly."""
    for key, value in meta.items():
        stream.write(f"# {key}: {value}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row length does not match column count")
        stream.write(",".join(format_cell(v) for v in row) + "\n")
