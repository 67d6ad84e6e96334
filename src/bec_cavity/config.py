"""Run configuration and bit-stable tabular output.

Configs are flat JSON: the physical parameters, optional solver knobs,
an optional sweep block {"parameter", "from", "to", "points", "scale"},
and output options; any other key is rejected.  Results are written as
CSV with '#'-prefixed metadata lines (program version, canonical config
echo, timestamp) before the header row; floats carry 17 significant
digits so a written table reads back bit-identically.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .params import ParameterError, SystemParams, validate


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_PARAM_KEYS = ("delta_c", "kappa", "eta", "u0", "n_atoms", "grid_points")

_SOLVER_DEFAULTS = {
    "itp_dt": 1e-3,
    "tol_phi": 1e-9,
    "tol_alpha": 1e-10,
    "mixing": 0.3,
    "max_iters": 1_000_000,
    "refine": True,
}

_ANALYSIS_DEFAULTS = {
    "subtract_mu": True,
    "tol_pair": 1e-8,
    "tol_noise": 1e-10,
    "tol_zero": 1e-6,
}


# every key parse_config reads besides the parameters and the knobs above
_OPTION_KEYS = (
    "sweep", "detunings", "eta_follows_detuning", "nonneg_re_only", "oracle",
    "times", "out", "fault_injection",
)
_SWEEP_KEYS = ("parameter", "from", "to", "points", "scale")


def _reject_unknown(block: dict, known, where: str) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    points: int
    scale: str = "linear"


@dataclass
class RunConfig:
    params: SystemParams
    itp_dt: float = _SOLVER_DEFAULTS["itp_dt"]
    tol_phi: float = _SOLVER_DEFAULTS["tol_phi"]
    tol_alpha: float = _SOLVER_DEFAULTS["tol_alpha"]
    mixing: float = _SOLVER_DEFAULTS["mixing"]
    max_iters: int = _SOLVER_DEFAULTS["max_iters"]
    refine: bool = True
    subtract_mu: bool = True
    tol_pair: float = _ANALYSIS_DEFAULTS["tol_pair"]
    tol_noise: float = _ANALYSIS_DEFAULTS["tol_noise"]
    tol_zero: float = _ANALYSIS_DEFAULTS["tol_zero"]
    sweep: SweepSpec | None = None
    detunings: list[float] | None = None
    eta_follows_detuning: bool = True
    times: list[float] | None = None
    out: str | None = None
    nonneg_re_only: bool = False
    oracle: bool = False
    fault_injection: str | None = None
    raw: dict = field(default_factory=dict, repr=False)

    def solver_options(self) -> dict:
        return {
            "itp_dt": self.itp_dt,
            "tol_phi": self.tol_phi,
            "tol_alpha": self.tol_alpha,
            "mixing": self.mixing,
            "max_iters": self.max_iters,
            "refine": self.refine,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


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
    _reject_unknown(
        data, (*_PARAM_KEYS, *_SOLVER_DEFAULTS, *_ANALYSIS_DEFAULTS, *_OPTION_KEYS), "config"
    )
    missing = [k for k in _PARAM_KEYS if k not in data]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    try:
        params = validate(
            SystemParams(
                delta_c=_require_number(data["delta_c"], "delta_c"),
                kappa=_require_number(data["kappa"], "kappa"),
                eta=_require_number(data["eta"], "eta"),
                u0=_require_number(data["u0"], "u0"),
                n_atoms=_require_count(data["n_atoms"], "n_atoms"),
                grid_points=_require_count(data["grid_points"], "grid_points"),
            )
        )
    except (ParameterError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    cfg = RunConfig(params=params, raw=dict(data))
    for key, default in {**_SOLVER_DEFAULTS, **_ANALYSIS_DEFAULTS}.items():
        if key in data:
            value = data[key]
            if isinstance(default, bool):
                value = _require_flag(value, key)
            elif isinstance(default, int):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(f"{key} must be an integer, got {value!r}")
            else:
                value = _require_number(value, key)
            setattr(cfg, key, value)
    for knob in ("itp_dt", "tol_phi", "tol_alpha", "tol_pair", "tol_noise", "tol_zero"):
        if getattr(cfg, knob) <= 0:
            raise ConfigError(f"{knob} must be positive")
    if not 0.0 < cfg.mixing <= 1.0:
        raise ConfigError(f"mixing must be in (0, 1], got {cfg.mixing}")
    if cfg.max_iters < 1:
        raise ConfigError("max_iters must be at least 1")

    if "sweep" in data:
        cfg.sweep = _parse_sweep(data["sweep"])
    if "detunings" in data:
        det = data["detunings"]
        if not isinstance(det, list) or not det:
            raise ConfigError("detunings must be a non-empty list of numbers")
        cfg.detunings = [_require_number(x, "detunings entry") for x in det]
    for flag in ("eta_follows_detuning", "nonneg_re_only", "oracle"):
        if flag in data:
            setattr(cfg, flag, _require_flag(data[flag], flag))
    if "times" in data:
        cfg.times = _parse_times(data["times"])
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
    parameter = block["parameter"]
    if parameter not in ("u0", "delta_c"):
        raise ConfigError(f"sweep parameter must be 'u0' or 'delta_c', got {parameter!r}")
    start = _require_number(block["from"], "sweep from")
    stop = _require_number(block["to"], "sweep to")
    points = block["points"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 1:
        raise ConfigError(f"sweep points must be a positive integer, got {points!r}")
    if points > 1 and start == stop:
        raise ConfigError("sweep bounds must differ for more than one point")
    scale = block.get("scale", "linear")
    if scale not in ("linear", "log"):
        raise ConfigError(f"sweep scale must be 'linear' or 'log', got {scale!r}")
    if scale == "log" and (start * stop <= 0):
        raise ConfigError("log-scale sweep bounds must be nonzero and share a sign")
    return SweepSpec(parameter=parameter, start=start, stop=stop, points=points, scale=scale)


def _parse_times(value: Any) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError("times must be a non-empty list of nonnegative numbers")
    times = [_require_number(t, "times entry") for t in value]
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


def _parse_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


@dataclass
class ResultTable:
    """Ordered rows of named columns with a metadata header.

    Rows keep a deterministic order fixed by the producer; write/read
    round-trips every float exactly (17 significant digits).
    """

    columns: list[str]
    rows: list[tuple]
    meta: dict[str, str] = field(default_factory=dict)

    def write_csv(self, stream: io.TextIOBase) -> None:
        for key in self.meta:
            stream.write(f"# {key}: {self.meta[key]}\n")
        stream.write(",".join(self.columns) + "\n")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row length does not match column count")
            stream.write(",".join(format_cell(v) for v in row) + "\n")

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    @classmethod
    def read_csv(cls, stream: io.TextIOBase) -> "ResultTable":
        meta: dict[str, str] = {}
        columns: list[str] | None = None
        rows: list[tuple] = []
        for line in stream:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    meta[key.strip()] = value.strip()
                continue
            if columns is None:
                columns = line.split(",")
                continue
            rows.append(tuple(_parse_cell(cell) for cell in line.split(",")))
        if columns is None:
            raise ValueError("no header row found")
        return cls(columns=columns, rows=rows, meta=meta)
