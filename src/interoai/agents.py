"""Action selection and learning.

Four agent kinds share one tabular substrate:

* ``Random``          -- uniform actions, no learning; the floor baseline.
* ``ExternalRewardQ`` -- conventional baseline: Q-learning on a fixed +1 for
  consuming at any resource cell.  It observes external features only and
  has no access to the internal state.
* ``HomeostaticQ``    -- Q-learning on drive reduction with a fixed softmax
  temperature; reward comes from the internal state.
* ``Neuromod``        -- HomeostaticQ plus a neuromodulatory layer that maps
  the current drive to an exploration temperature and a TD-error gain, and
  (optionally) routes selection and updates to a per-context sub-table
  keyed by the dominant internal deficit.

The temperature mapping is monotone decreasing in drive, so a satiated
agent explores at ``tau_max`` and a needy one exploits near ``tau_min``.
The gain mapping saturates at ``1 + beta_g``.  Context gating is the
tabular analog of selecting a sub-network per contextual cue.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from math import exp
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from .core import ACTIONS, Action, ExternalState, FactoredState, Tag
from .errors import ConfigError, NonFiniteValue, require_finite
# Uncalled here, `drive` and `dominant_deficit` are names bench/bench_trace.py wraps.
from .homeostat import DriveModel, dominant_deficit, drive, drive_and_deficit  # noqa: F401

ObsKey = int

FLUX_CODES = 4  # two flux bits: a flux has two exact levels, so zero vs non-zero is lossless
TAG_CODES = len(Tag)
_CONSUME, _INGESTED = Action.Consume, (Tag.Food, Tag.Water)  # bound once: enum class reads are slow


def flux_bits(food, water):
    """The food bit above the water bit, of one state or of columns of states."""
    return (food != 0.0) * 2 + (water != 0.0)


def external_code(row, col, tag, season, rows, cols):
    """Season, row, column, then the tag under the agent, of one state or of columns of states."""
    return ((season * rows + row) * cols + col) * TAG_CODES + tag


def _bins(edges: tuple[float, ...], values: np.ndarray) -> np.ndarray:
    """`bisect_right` over a column: the count of `edges` at or below each value."""
    return np.searchsorted(edges, values, side="right")


@dataclass(frozen=True)
class Discretizer:
    """The one symbolizer: exact mixed-radix integer codes of a state's parts.

    Each digit is a symbol below its radix, so two states get one code
    exactly when their digits agree.  A digit has a scalar form, for one
    state, and an array form, for columns of states:

    * an internal bin per dimension, radix `len(edges) + 1`: the count of its
      edges at or below the value (`bisect_right`, `_bins`), so a value on
      an edge belongs to the upper bin;
    * the sensed-ambient bin, by the same rule over `ambient_edges`;
    * the two `flux_bits`, and the `external_code`: season, row, column, tag.

    The agent's `key` is, most significant first: the external code (season
    0 unless `season_visible`), the ambient bin (if `sense_ambient`), the
    flux bits and the internal bins.  Its row and column radices come from
    the state's own `resource_map`, and the season on top needs none.
    Without the flux bits the observed process is not Markov: ingestion
    reaches the internal state a step after the boundary registers it.
    Without the ambient bin, seasons share keys: the regime where context
    gating is tested.  The verifier's `internal_codes` and `boundary_codes`
    hold every digit whatever the two switches say.
    """

    internal_edges: tuple[tuple[float, ...], ...]
    season_visible: bool = False
    sense_ambient: bool = True

    def __post_init__(self) -> None:
        if not self.internal_edges:
            raise ConfigError("need at least one edge set: the ambient bin reads the last")
        for edges in self.internal_edges:
            if not all(map(math.isfinite, edges)):
                raise ConfigError(f"bin edges must be finite, got {edges}")
            if any(b <= a for a, b in zip(edges, edges[1:])):
                raise ConfigError("bin edges must be strictly increasing")
        radices = [len(edges) + 1 for edges in self.internal_edges]
        self.__dict__.update(  # not fields, so equality and the config see only the three above
            ambient_edges=self.internal_edges[-1],  # core temperature's: same units
            ambient_radix=radices[-1],
            boundary_size=radices[-1] * FLUX_CODES,
            internal_size=math.prod(radices),
            _places=tuple(math.prod(radices[k + 1 :]) for k in range(len(radices))),
        )

    def external_features(self, state: FactoredState) -> ObsKey:
        """The cell under the agent, below the season when it is visible."""
        return _external_code(state.external, self.season_visible)

    def key(self, state: FactoredState) -> ObsKey:
        b = state.boundary
        values = state.internal.values
        edges = self.internal_edges
        if len(values) != len(edges):
            raise ConfigError(f"{len(values)} internal values vs {len(edges)} edge sets")
        code = _external_code(state.external, self.season_visible)
        if self.sense_ambient:
            code = code * self.ambient_radix + bisect_right(self.ambient_edges, b.sensed_ambient)
        code = code * FLUX_CODES + flux_bits(b.flux_food, b.flux_water)
        return code * self.internal_size + sum(map(mul, map(bisect_right, edges, values), self._places))

    def internal_codes(self, values: np.ndarray) -> np.ndarray:
        """Codes of internal states, one per row of `values` (a column per dimension)."""
        places = enumerate(zip(self.internal_edges, self._places))
        return sum(_bins(edges, values[:, k]) * place for k, (edges, place) in places)

    def boundary_codes(self, sensed_ambient, flux_food, flux_water) -> np.ndarray:
        """Codes of boundary states: the ambient bin above the flux bits."""
        return _bins(self.ambient_edges, sensed_ambient) * FLUX_CODES + flux_bits(flux_food, flux_water)


def _external_code(ext: ExternalState, season_visible: bool) -> int:
    tags = ext.resource_map
    r, c = ext.agent_pos
    return external_code(r, c, tags[r][c], ext.season if season_visible else 0, len(tags), len(tags[0]))


class QTable:
    """Sparse action-value table; unseen entries read as 0.

    One row per observation, a list of values in `actions` order, so reading
    a row is a single dict lookup.  A row is created on its first write.
    """

    __slots__ = ("actions", "values", "_index", "_zeros")

    def __init__(self, actions: tuple[Action, ...] = ACTIONS):
        self.actions = tuple(actions)
        self.values: dict[ObsKey, list[float]] = {}
        self._index = {a: i for i, a in enumerate(self.actions)}
        self._zeros = (0.0,) * len(self.actions)

    def get(self, obs: ObsKey, action: Action) -> float:
        row = self.values.get(obs)
        return 0.0 if row is None else row[self._index[action]]

    def set(self, obs: ObsKey, action: Action, value: float) -> None:
        row = self.values.get(obs)
        if row is None:
            row = self.values[obs] = [0.0] * len(self.actions)
        row[self._index[action]] = value

    def row(self, obs: ObsKey) -> Sequence[float]:
        """Q(obs, .) in `actions` order; the stored row, so read it only."""
        return self.values.get(obs, self._zeros)

    def greedy(self, obs: ObsKey) -> Action:
        row = self.row(obs)
        best = max(row)
        return self.actions[row.index(best)]  # ties break to the lowest index


def q_select(q: QTable, obs: ObsKey, tau: float, rng: np.random.Generator) -> Action:
    """Sample an action from softmax(Q(obs, .) / tau), in one walk.

    Adds each `exp((Q(obs, a) - max) / tau) / z` to a running total in action
    order and returns the first action whose total exceeds `u = rng.random()`.
    """
    if not tau > 0.0:  # also refuses NaN
        raise ConfigError(f"softmax temperature must be > 0, got {tau}")
    row = q.row(obs)
    top = max(row)
    exps = []
    z = 0.0  # added left to right, never by `sum()` (compensated from Python 3.12)
    for v in row:  # a loop, not a comprehension: no frame per call before Python 3.12
        e = exp((v - top) / tau)
        exps.append(e)
        z += e
    u = rng.random()
    acc = 0.0
    i = 0
    for e in exps:
        acc += e / z
        if u < acc:
            return q.actions[i]
        i += 1
    return q.actions[-1]  # u landed in the last slot's rounding slack


def q_update(
    q: QTable,
    transition: tuple[ObsKey, Action, float, ObsKey],
    alpha: float,
    gamma: float,
    g: float,
) -> None:
    """One gain-modulated TD backup of a single entry; only a finite update creates a row."""
    obs, action, reward, obs_next = transition
    rows = q.values
    row = rows.get(obs)
    i = q._index[action]
    old = 0.0 if row is None else row[i]
    row_next = rows.get(obs_next)
    best_next = 0.0 if row_next is None else max(row_next)
    new = old + alpha * g * (reward + gamma * best_next - old)
    if not math.isfinite(new):
        raise NonFiniteValue(f"update for {obs}/{action.name} produced {new}")
    if row is None:
        row = rows[obs] = [0.0] * len(q.actions)
    row[i] = new


class ModulationSignals(NamedTuple):
    """Per-step neuromodulator output."""

    temperature: float
    td_gain: float
    context_id: int


@dataclass(frozen=True)
class NeuromodConfig:
    tau_min: float = 0.05
    tau_max: float = 0.3
    beta_tau: float = 2.5
    beta_g: float = 1.0
    context_gating: bool = True

    def __post_init__(self) -> None:
        require_finite(self, "tau_min", "tau_max", "beta_tau", "beta_g")
        if not (0.0 < self.tau_min < self.tau_max):
            raise ConfigError("need 0 < tau_min < tau_max")
        if self.beta_tau <= 0.0:
            raise ConfigError("beta_tau must be > 0")
        if self.beta_g < 0.0:
            raise ConfigError("beta_g must be >= 0")


def modulate(cfg: NeuromodConfig, d: float, deficit: int) -> ModulationSignals:
    """Map a drive and its dominant deficit to temperature, TD gain, and context.

    tau falls from tau_max (satiated) toward tau_min (needy); the gain rises
    from 1 toward 1 + beta_g; the context is the dominant deficit when
    gating is on, else a single shared context.  `drive_and_deficit` gives
    both inputs in one pass.
    """
    tau = cfg.tau_min + (cfg.tau_max - cfg.tau_min) * exp(-cfg.beta_tau * d)
    g = 1.0 + cfg.beta_g * d / (1.0 + d)
    return ModulationSignals(tau, g, deficit if cfg.context_gating else 0)


AGENT_KINDS = ("Random", "ExternalRewardQ", "HomeostaticQ", "Neuromod")


@dataclass(frozen=True)
class AgentConfig:
    kind: str = "HomeostaticQ"
    alpha: float = 0.25
    gamma: float = 0.95
    tau: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in AGENT_KINDS:
            raise ConfigError(f"unknown agent kind {self.kind!r}")
        require_finite(self, "alpha", "gamma", "tau")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError("alpha must lie in (0, 1]")
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError("gamma must lie in [0, 1)")
        if self.tau <= 0.0:
            raise ConfigError("tau must be > 0")


class RandomAgent:
    """Uniform action choice; never learns."""

    last_signals: ModulationSignals | None = None

    def act(self, state: FactoredState, rng: np.random.Generator) -> Action:
        return ACTIONS[int(rng.integers(0, len(ACTIONS)))]

    def learn(self, state: FactoredState, action: Action, nxt: FactoredState) -> None:
        pass


class TabularQAgent:
    """Shared machinery for the three learning agents.

    What the agent derives from a state -- observation key, drive and
    modulation signals -- is computed once per state (ExternalRewardQ, which
    learns from the external reward, computes no drive).  States are immutable,
    so the facts of the last state seen are kept in one slot and matched by
    identity: in the step loop `act(state)` fills it, `learn(state, a, nxt)`
    reads it and refills it with the facts of `nxt`, and `act(nxt)` reuses them.
    """

    def __init__(
        self,
        cfg: AgentConfig,
        dm: DriveModel,
        disc: Discretizer,
        neuromod: NeuromodConfig | None = None,
    ):
        self.cfg = cfg
        self.dm = dm
        self.disc = disc
        self.neuromod = neuromod
        self.tables: dict[int, QTable] = {}
        self.last_signals: ModulationSignals | None = None
        self._external_only = cfg.kind == "ExternalRewardQ"
        self._fixed_signals = None if cfg.kind == "Neuromod" else ModulationSignals(cfg.tau, 1.0, 0)
        self._state: FactoredState | None = None
        self._facts_of_state: tuple | None = None

    # -- per-state facts -------------------------------------------------------

    def _facts(self, state: FactoredState) -> tuple[ObsKey, float | None, ModulationSignals]:
        """(observation key, drive, signals) of `state`, from memo if it was the last asked."""
        if state is self._state:
            return self._facts_of_state
        if self._external_only:
            facts = (self.disc.external_features(state), None, self._fixed_signals)
        else:
            d, deficit = drive_and_deficit(self.dm, state.internal)
            facts = (self.disc.key(state), d, self._fixed_signals or modulate(self.neuromod, d, deficit))
        self._state, self._facts_of_state = state, facts
        return facts

    def table_for(self, context_id: int) -> QTable:
        table = self.tables.get(context_id)
        if table is None:
            table = QTable()
            self.tables[context_id] = table
        return table

    # -- the act / learn pair ------------------------------------------------

    def act(self, state: FactoredState, rng: np.random.Generator) -> Action:
        obs, _, sig = self._facts(state)
        self.last_signals = sig
        return q_select(self.table_for(sig.context_id), obs, sig.temperature, rng)

    def learn(self, state: FactoredState, action: Action, nxt: FactoredState) -> None:
        obs, d, sig = self._facts(state)
        obs_next, d_next, _ = self._facts(nxt)
        reward = external_reward(state, action) if self._external_only else d - d_next
        table = self.table_for(sig.context_id)
        q_update(table, (obs, action, reward, obs_next), self.cfg.alpha, self.cfg.gamma, sig.td_gain)


def external_reward(state: FactoredState, action: Action) -> float:
    """ExternalRewardQ's reward: +1 for consuming on a food or water cell."""
    tag = state.external.tag_at(state.external.agent_pos)
    return 1.0 if action == _CONSUME and tag in _INGESTED else 0.0


def make_agent(
    cfg: AgentConfig,
    dm: DriveModel,
    disc: Discretizer,
    neuromod: NeuromodConfig | None = None,
):
    if cfg.kind == "Random":
        return RandomAgent()
    if cfg.kind == "Neuromod" and neuromod is None:
        raise ConfigError("Neuromod agent requires a neuromod config")
    return TabularQAgent(cfg, dm, disc, neuromod)
