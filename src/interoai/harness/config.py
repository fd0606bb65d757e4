"""Experiment configuration: a single strict JSON document.

Unknown keys anywhere in the document are errors, as are dimension
mismatches, so a typo fails before any simulation starts.  The parsed
object tree is immutable and picklable, which lets sweep workers receive
it directly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..agents import AgentConfig, Discretizer, NeuromodConfig
from ..core import Tag
from ..envs import INTERNAL_DIM, GridSpec, HomeoGridEnv, SeasonSchedule, SeasonSpec
from ..errors import ConfigError, require_finite
from ..homeostat import DriveModel


@dataclass(frozen=True)
class RunSettings:
    train_steps: int
    eval_steps: int
    seeds: tuple[int, ...]
    out_dir: str

    def __post_init__(self) -> None:
        if self.train_steps < 0:
            raise ConfigError("train_steps must be >= 0")
        if self.eval_steps < 1:
            raise ConfigError("eval_steps must be >= 1")
        if not self.seeds:
            raise ConfigError("seed list must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seed list has duplicates: {list(self.seeds)}")


@dataclass(frozen=True)
class BlanketSettings:
    steps: int
    seed: int
    lam: float
    epsilon: float
    tol_lo: float
    tol_hi: float
    env: HomeoGridEnv
    discretizer: Discretizer

    def __post_init__(self) -> None:
        require_finite(self, "lam", "epsilon", "tol_lo", "tol_hi")
        if self.steps < 1:
            raise ConfigError("blanket steps must be >= 1")
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


def _checked(section: Any, allowed: set[str], where: str) -> Mapping[str, Any]:
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


def _bool(section: Mapping[str, Any], key: str, default: bool, where: str) -> bool:
    """A JSON true/false; strings such as "false" are rejected, not truth-tested."""
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{where}.{key} must be true or false, got {value!r}")
    return value


def _parse_env(section: Any, drive_section: Any, where: str) -> HomeoGridEnv:
    env = _checked(
        section,
        {
            "rows", "cols", "start", "shade_delta", "noise_std", "seasons",
            "period", "order", "c_e", "c_h", "e_gain", "w_gain", "kappa", "leak",
        },
        where,
    )
    seasons = []
    for i, raw in enumerate(_get(env, "seasons", where)):
        s = _checked(raw, {"baseline", "resources"}, f"{where}.seasons[{i}]")
        placements = []
        cell = f"{where}.seasons[{i}].resources"
        for r, c, tag in _get(s, "resources", f"{where}.seasons[{i}]"):
            try:
                placements.append((_int(r, cell), _int(c, cell), Tag[tag]))
            except KeyError:
                raise ConfigError(f"unknown resource tag {tag!r}") from None
        seasons.append(
            SeasonSpec(
                baseline=_float(_get(s, "baseline", where), f"{where}.seasons[{i}].baseline"),
                placements=tuple(placements),
            )
        )
    grid = GridSpec(
        rows=_int(_get(env, "rows", where), f"{where}.rows"),
        cols=_int(_get(env, "cols", where), f"{where}.cols"),
        start=tuple(_int(v, f"{where}.start") for v in _get(env, "start", where)),
        seasons=tuple(seasons),
        noise_std=_float(env.get("noise_std", GridSpec.noise_std), f"{where}.noise_std"),
        shade_delta=_float(env.get("shade_delta", GridSpec.shade_delta), f"{where}.shade_delta"),
    )
    schedule = SeasonSchedule(
        period=_int(_get(env, "period", where), f"{where}.period"),
        order=tuple(_int(v, f"{where}.order") for v in _get(env, "order", where)),
    )
    return HomeoGridEnv(
        grid=grid,
        schedule=schedule,
        drive_model=_parse_drive(drive_section, where + " drive"),
        c_e=_float(_get(env, "c_e", where), f"{where}.c_e"),
        c_h=_float(_get(env, "c_h", where), f"{where}.c_h"),
        e_gain=_float(_get(env, "e_gain", where), f"{where}.e_gain"),
        w_gain=_float(_get(env, "w_gain", where), f"{where}.w_gain"),
        kappa=_float(_get(env, "kappa", where), f"{where}.kappa"),
        leak=_float(env.get("leak", HomeoGridEnv.leak), f"{where}.leak"),
    )


def _parse_drive(section: Any, where: str) -> DriveModel:
    d = _checked(
        section, {"set_point", "weights", "exponents", "viability", "grace_steps"}, where
    )
    exponents = _get(d, "exponents", where)
    if len(exponents) != 2:
        raise ConfigError(f"{where}.exponents must be [n, m]")
    return DriveModel(
        set_point=tuple(_float(v, f"{where}.set_point") for v in _get(d, "set_point", where)),
        weights=tuple(_float(v, f"{where}.weights") for v in _get(d, "weights", where)),
        n=_float(exponents[0], f"{where}.exponents"),
        m=_float(exponents[1], f"{where}.exponents"),
        viability=tuple(
            (_float(lo, f"{where}.viability"), _float(hi, f"{where}.viability"))
            for lo, hi in _get(d, "viability", where)
        ),
        grace_steps=_int(_get(d, "grace_steps", where), f"{where}.grace_steps"),
    )


def _parse_bins(raw: Any, where: str) -> tuple[tuple[float, ...], ...]:
    if len(raw) != INTERNAL_DIM:
        raise ConfigError(f"{where} needs {INTERNAL_DIM} edge lists")
    return tuple(tuple(_float(v, where) for v in edges) for edges in raw)


def parse_config(doc: Any) -> ExperimentConfig:
    top = _checked(doc, {"env", "drive", "agent", "neuromod", "run", "blanket"}, "config")

    env = _parse_env(_get(top, "env", "config"), _get(top, "drive", "config"), "env")

    a = _checked(
        _get(top, "agent", "config"),
        {"kind", "alpha", "gamma", "tau", "bins", "season_visible", "sense_ambient"},
        "agent",
    )
    # Omitted keys take the dataclass defaults, which live in one place.
    agent = AgentConfig(
        kind=str(_get(a, "kind", "agent")),
        alpha=_float(a.get("alpha", AgentConfig.alpha), "agent.alpha"),
        gamma=_float(a.get("gamma", AgentConfig.gamma), "agent.gamma"),
        tau=_float(a.get("tau", AgentConfig.tau), "agent.tau"),
    )
    discretizer = Discretizer(
        internal_edges=_parse_bins(_get(a, "bins", "agent"), "agent.bins"),
        season_visible=_bool(a, "season_visible", Discretizer.season_visible, "agent"),
        sense_ambient=_bool(a, "sense_ambient", Discretizer.sense_ambient, "agent"),
    )

    nm = _checked(
        _get(top, "neuromod", "config"),
        {"tau_min", "tau_max", "beta_tau", "beta_g", "context_gating"},
        "neuromod",
    )
    neuromod = NeuromodConfig(
        tau_min=_float(nm.get("tau_min", NeuromodConfig.tau_min), "neuromod.tau_min"),
        tau_max=_float(nm.get("tau_max", NeuromodConfig.tau_max), "neuromod.tau_max"),
        beta_tau=_float(nm.get("beta_tau", NeuromodConfig.beta_tau), "neuromod.beta_tau"),
        beta_g=_float(nm.get("beta_g", NeuromodConfig.beta_g), "neuromod.beta_g"),
        context_gating=_bool(nm, "context_gating", NeuromodConfig.context_gating, "neuromod"),
    )

    r = _checked(
        _get(top, "run", "config"), {"train_steps", "eval_steps", "seeds", "out_dir"}, "run"
    )
    run = RunSettings(
        train_steps=_int(_get(r, "train_steps", "run"), "run.train_steps"),
        eval_steps=_int(_get(r, "eval_steps", "run"), "run.eval_steps"),
        seeds=tuple(_int(s, "run.seeds") for s in _get(r, "seeds", "run")),
        out_dir=str(r.get("out_dir", "out")),
    )

    b = _checked(
        _get(top, "blanket", "config"),
        {"steps", "seed", "lambda", "epsilon", "tol_lo", "tol_hi", "env", "drive", "bins"},
        "blanket",
    )
    blanket = BlanketSettings(
        steps=_int(_get(b, "steps", "blanket"), "blanket.steps"),
        seed=_int(b.get("seed", 0), "blanket.seed"),
        lam=_float(_get(b, "lambda", "blanket"), "blanket.lambda"),
        epsilon=_float(b.get("epsilon", 1e-3), "blanket.epsilon"),
        tol_lo=_float(_get(b, "tol_lo", "blanket"), "blanket.tol_lo"),
        tol_hi=_float(_get(b, "tol_hi", "blanket"), "blanket.tol_hi"),
        env=_parse_env(_get(b, "env", "blanket"), _get(b, "drive", "blanket"), "blanket.env"),
        discretizer=Discretizer(internal_edges=_parse_bins(_get(b, "bins", "blanket"), "blanket.bins")),
    )

    return ExperimentConfig(
        env=env, agent=agent, discretizer=discretizer, neuromod=neuromod, run=run, blanket=blanket
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
