"""Experiment configuration: a single strict JSON document.

Each section is read from the fields of its config dataclass: a key is a
field's name, its value is parsed by the field's annotated type, and a key
may be omitted exactly when its field has a default.  Unknown keys
anywhere in the document are errors, as are lists of the wrong length and
dimension mismatches, so a typo fails before any simulation starts.  The
parsed object tree is immutable and picklable, which lets sweep workers
receive it directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from ..agents import AgentConfig, Discretizer, NeuromodConfig
from ..core import Tag
from ..envs import INTERNAL_DIM, GridSpec, HomeoGridEnv, SeasonSchedule
from ..errors import ConfigError, require_finite
from ..homeostat import DriveModel


@dataclass(frozen=True)
class RunSettings:
    train_steps: int
    eval_steps: int
    seeds: tuple[int, ...]
    out_dir: str = "out"

    def __post_init__(self) -> None:
        if self.train_steps < 0:
            raise ConfigError("train_steps must be >= 0")
        if self.eval_steps < 1:
            raise ConfigError("eval_steps must be >= 1")
        if not self.seeds:
            raise ConfigError("seed list must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seed list has duplicates: {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {list(self.seeds)}")


@dataclass(frozen=True, kw_only=True)
class BlanketSettings:
    steps: int
    seed: int = 0
    lam: float
    epsilon: float = 1e-3
    tol_lo: float
    tol_hi: float
    env: HomeoGridEnv
    discretizer: Discretizer

    def __post_init__(self) -> None:
        require_finite(self, "lam", "epsilon", "tol_lo", "tol_hi")
        if self.steps < 1:
            raise ConfigError("blanket steps must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"blanket seed must be >= 0, got {self.seed}")
        if self.lam <= 0.0:
            raise ConfigError("blanket lambda must be > 0")
        if self.epsilon <= 0.0:
            raise ConfigError("blanket epsilon must be > 0")
        if not (0.0 < self.tol_lo < self.tol_hi):
            raise ConfigError("need 0 < tol_lo < tol_hi")
        if self.env.leak != 0.0:
            raise ConfigError("the blanket env must be factored (leak 0)")


@dataclass(frozen=True)
class ExperimentConfig:
    env: HomeoGridEnv
    agent: AgentConfig
    discretizer: Discretizer
    neuromod: NeuromodConfig
    run: RunSettings
    blanket: BlanketSettings


# The document's key for a field whose name it spells differently.  The
# drive's exponents (n, m) are one list, `exponents`; see `_drive`.
_KEYS = {"lam": "lambda", "internal_edges": "bins", "placements": "resources"}


def _object(section: Any, allowed: set[str], where: str) -> Mapping[str, Any]:
    if not isinstance(section, Mapping):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return section


def _get(section: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in section:
        raise ConfigError(f"missing key {key!r} in {where}")
    return section[key]


def _int(value: Any, where: str) -> int:
    """An integral JSON number: 7 and 7.0 pass; 7.9, true and "7" do not."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _float(value: Any, where: str) -> float:
    """A finite JSON number: NaN, Infinity, true and "0.5" are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the double range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _bool(value: Any, where: str) -> bool:
    """A JSON true/false; strings such as "false" are rejected, not truth-tested."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _tag(value: Any, where: str) -> Tag:
    if not isinstance(value, str) or value not in Tag.__members__:
        raise ConfigError(f"{where}: unknown resource tag {value!r}")
    return Tag[value]


# How a JSON value becomes a field value, by the field's annotated type.
_PARSERS = {int: _int, float: _float, bool: _bool, str: _str, Tag: _tag}
_hints = cache(get_type_hints)


def _parse(kind: Any, value: Any, where: str) -> Any:
    """`value` read as type `kind`.

    A tuple is a JSON list, of exactly the declared length unless the tuple
    is variadic; a config dataclass is a JSON object.
    """
    if get_origin(kind) is tuple:
        items = get_args(kind)
        variadic = items[-1] is Ellipsis
        if not isinstance(value, list) or not (variadic or len(value) == len(items)):
            shape = "a list" if variadic else f"a list of {len(items)}"
            raise ConfigError(f"{where} must be {shape}, got {value!r}")
        if variadic:
            items = items[:1] * len(value)
        return tuple(_parse(k, v, f"{where}[{i}]") for i, (k, v) in enumerate(zip(items, value)))
    if is_dataclass(kind):
        return _read(kind, _object(value, _keys(kind), where), where)
    return _PARSERS[kind](value, where)


def _keys(cls: type, *given: str) -> set[str]:
    """The document keys of `cls`'s fields, except the fields named in `given`."""
    return {_KEYS.get(f.name, f.name) for f in fields(cls) if f.name not in given}


def _read(cls: type, section: Mapping[str, Any], where: str, **given: Any) -> Any:
    """A `cls` from the keys of `section` that name its fields; `given` fills the others.

    `section`'s keys must already be checked: keys of other classes that
    share the section are ignored here.
    """
    hints = _hints(cls)
    for f in fields(cls):
        if f.name in given:
            continue
        key = _KEYS.get(f.name, f.name)
        if key in section:
            given[f.name] = _parse(hints[f.name], section[key], f"{where}.{key}")
        elif f.default is MISSING:
            raise ConfigError(f"missing key {key!r} in {where}")
    return cls(**given)


def _drive(section: Any, where: str) -> DriveModel:
    """A `DriveModel`; the document gives its exponents (n, m) as one list."""
    d = _object(section, _keys(DriveModel, "n", "m") | {"exponents"}, where)
    if "exponents" in d:
        n, m = _parse(tuple[float, float], d["exponents"], f"{where}.exponents")
        return _read(DriveModel, d, where, n=n, m=m)
    return _read(DriveModel, d, where)


def _env(section: Any, drive_section: Any, where: str, drive_where: str) -> HomeoGridEnv:
    """One `env` object holds the fields of the grid, its schedule and the env itself."""
    nested = ("grid", "schedule", "drive_model")
    allowed = _keys(GridSpec) | _keys(SeasonSchedule) | _keys(HomeoGridEnv, *nested)
    env = _object(section, allowed, where)
    return _read(
        HomeoGridEnv,
        env,
        where,
        grid=_read(GridSpec, env, where),
        schedule=_read(SeasonSchedule, env, where),
        drive_model=_drive(drive_section, drive_where),
    )


def _discretizer(section: Mapping[str, Any], where: str) -> Discretizer:
    disc = _read(Discretizer, section, where)
    if len(disc.internal_edges) != INTERNAL_DIM:
        raise ConfigError(f"{where}.bins needs {INTERNAL_DIM} edge lists")
    return disc


def _blanket(section: Any) -> BlanketSettings:
    """The verifier's settings and its own world: an env, its drive and its bins."""
    b = _object(section, _keys(BlanketSettings, "discretizer") | {"drive", "bins"}, "blanket")
    env = _env(_get(b, "env", "blanket"), _get(b, "drive", "blanket"), "blanket.env", "blanket.drive")
    return _read(BlanketSettings, b, "blanket", env=env, discretizer=_discretizer(b, "blanket"))


_SECTIONS = ("env", "drive", "agent", "neuromod", "run", "blanket")


def parse_config(doc: Any) -> ExperimentConfig:
    top = _object(doc, set(_SECTIONS), "config")
    env, drive, agent, neuromod, run, blanket = (_get(top, key, "config") for key in _SECTIONS)
    agent = _object(agent, _keys(AgentConfig) | _keys(Discretizer), "agent")
    return ExperimentConfig(
        env=_env(env, drive, "env", "drive"),
        agent=_read(AgentConfig, agent, "agent"),
        discretizer=_discretizer(agent, "agent"),
        neuromod=_parse(NeuromodConfig, neuromod, "neuromod"),
        run=_parse(RunSettings, run, "run"),
        blanket=_blanket(blanket),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# The desk-scale default: HomeoGrid-S.
#
# 7x7 grid, three internal dimensions, two seasons of period 500 sharing one
# compact layout: food one step west of the start, water one step east,
# shade on the start cell.  Season 0 is temperate (ambient at the
# temperature set point; shade cells are dangerously cold to camp on);
# season 1 is hot enough that an unshaded body exits the viability zone
# within ten steps, while the shade cell cools all the way to the lower
# viability edge, so survival means weaving consumption trips through
# shade dwells.  All constants below were frozen after calibration runs;
# the README records the headline numbers.
# ---------------------------------------------------------------------------

_RESOURCES = [
    [3, 2, "Food"],
    [3, 4, "Water"],
    [3, 3, "Shade"],
]


def default_config() -> dict:
    """The frozen HomeoGrid-S document; calibration notes live in the README."""
    store_edges = [0.3, 0.95]
    temp_edges = [30.0, 34.0, 38.5, 40.5]
    # Verification bins: one bin per reachable lattice point of the blanket
    # env (store quantum 0.05, edges on half-quanta), one degree for heat.
    ci_store_edges = [round(-0.525 + 0.05 * i, 3) for i in range(62)]
    ci_temp_edges = [19.5 + 1.0 * i for i in range(34)]
    return {
        "env": {
            "rows": 7,
            "cols": 7,
            "start": [3, 3],
            "shade_delta": 12.0,
            "noise_std": 0.0,
            "seasons": [
                {"baseline": 37.0, "resources": _RESOURCES},
                {"baseline": 45.0, "resources": _RESOURCES},
            ],
            "period": 500,
            "order": [0, 1],
            "c_e": 0.02,
            "c_h": 0.02,
            "e_gain": 0.35,
            "w_gain": 0.35,
            "kappa": 0.1,
        },
        "drive": {
            "set_point": [0.6, 0.6, 37.0],
            "weights": [4.0, 4.0, 0.25],
            "exponents": [2.0, 2.0],
            "viability": [[0.1, 1.1], [0.1, 1.1], [33.0, 42.0]],
            "grace_steps": 25,
        },
        "agent": {
            "kind": "HomeostaticQ",
            "alpha": 0.4,
            "gamma": 0.95,
            "tau": 0.08,
            "bins": [store_edges, store_edges, temp_edges],
            "season_visible": False,
            "sense_ambient": True,
        },
        "neuromod": {
            "tau_min": 0.05,
            "tau_max": 0.3,
            "beta_tau": 2.5,
            "beta_g": 1.0,
            "context_gating": True,
        },
        "run": {"train_steps": 150000, "eval_steps": 4000, "seeds": [0, 1, 2], "out_dir": "out"},
        "blanket": {
            "steps": 100000,
            "seed": 0,
            "lambda": 0.2,
            "epsilon": 1e-3,
            "tol_lo": 1e-9,
            "tol_hi": 0.02,
            "env": {
                "rows": 5,
                "cols": 5,
                "start": [2, 2],
                "shade_delta": 8.0,
                "noise_std": 0.5,
                "seasons": [
                    {
                        "baseline": 40.0,
                        "resources": [
                            [0, 0, "Food"],
                            [4, 4, "Water"],
                            [0, 4, "Shade"],
                            [4, 0, "Shade"],
                        ],
                    }
                ],
                "period": 1,
                "order": [0],
                "c_e": 0.05,
                "c_h": 0.0,
                "e_gain": 0.25,
                "w_gain": 0.25,
                "kappa": 1.0,
            },
            "drive": {
                "set_point": [0.6, 0.6, 37.0],
                "weights": [4.0, 4.0, 0.06],
                "exponents": [2.0, 2.0],
                "viability": [[0.05, 1.15], [0.05, 1.15], [20.0, 52.0]],
                "grace_steps": 5,
            },
            "bins": [ci_store_edges, ci_store_edges, ci_temp_edges],
        },
    }
