"""Empirical checks of the internal/external decoupling.

Two independent probes of the same claim:

1. Conditional mutual information.  Collect transitions, bin each
   component to a small alphabet, and estimate

       I( I_{t+1} ; E_t | I_t, B_t, A_t )

   with the plug-in (maximum-likelihood) estimator over the joint counts.
   Under the factored update order the next internal symbol is a function
   of the conditioning symbols alone, so the estimate is exactly zero; any
   leak from the external state shows up as positive information.

2. Jacobian zero blocks.  Central finite differences of each internal
   output with respect to each external temperature value (boundary held
   fixed), and of each external temperature output with respect to each
   internal value.  Both blocks must vanish for the factored model.

The estimator deliberately applies no bias correction: paired with the
exact-enumeration oracle in the test suite and with verdict thresholds
calibrated before being frozen in config, the plain plug-in form is simple
and exactly checkable.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, Mapping

import numpy as np

from .agents import TAG_CODES, Discretizer, external_code
from .core import (
    ACTIONS,
    Action,
    ExternalState,
    FactoredState,
    InternalState,
    TransitionModel,
    internal_update,
    step_factored,
)
from .envs import GridSpec, HomeoGridEnv, SurvivalTracker, respawn, reset, transition_maps
from .errors import ConfigError, EmptyDataset, NegativeWeight, NonFiniteValue
from .homeostat import in_viability
from . import rng
from .rng import BlockStream, stream

Policy = Callable[[FactoredState, BlockStream], Action]


def uniform_random_policy(state: FactoredState, rng: np.random.Generator | BlockStream) -> Action:
    return ACTIONS[int(rng.integers(0, len(ACTIONS)))]


def rollout(env: HomeoGridEnv, policy: Policy, seed: int, policy_purpose: str, env_purpose: str) -> Iterator:
    """The one step loop: yields `(state, action, nxt, ok, dead)` per step, forever.

    `ok` says `nxt`'s body is in the viability zone; `dead`, that it has been
    out of it beyond the grace window, so the next step starts from
    `respawn(env, nxt)`.  The policy and the env draw from their own streams.
    """
    model = transition_maps(env)
    dm = env.drive_model
    rng_env, rng_policy = BlockStream(seed, 0, env_purpose), BlockStream(seed, 0, policy_purpose)
    tracker = SurvivalTracker(dm.grace_steps)
    state = reset(env, seed)
    while True:
        action = policy(state, rng_policy)
        nxt = step_factored(model, state, action, rng_env)
        ok = in_viability(dm, nxt.internal)
        dead = tracker.update(ok)
        following = nxt
        if dead:  # before the yield, so a death on the last step taken respawns too
            following = respawn(env, nxt)
            tracker.reset()
        yield state, action, nxt, ok, dead
        state = following


def blanket_codes(discretizer: Discretizer, grid: GridSpec, i, b, row, col, tag, season, action):
    """(y, z) of one transition or of columns of them: y is e_t's `external_code`;
    z is the internal code, the boundary code, then the action."""
    y = external_code(row, col, tag, season, grid.rows, grid.cols)
    return y, (i * discretizer.boundary_size + b) * len(ACTIONS) + action


@dataclass(frozen=True, eq=False)
class TransitionDataset:
    """Integer-coded transitions plus the joint counts table.

    Transition t has x[t], the internal code of i_{t+1}, and y[t] and z[t],
    the `blanket_codes` of e_t and of (i_t, b_t, a_t), in read-only int64
    arrays.  `counts` maps each distinct (x, y, z) to its number of
    transitions, in the order the keys were first seen; weights sum to the
    number of transitions.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    counts: dict[tuple[int, int, int], float]

    def __len__(self) -> int:
        return len(self.x)


def collect_transitions(
    env: HomeoGridEnv, steps: int, seed: int, discretizer: Discretizer
) -> TransitionDataset:
    """Take `steps` transitions of `uniform_random_policy`'s `rollout`, episodes concatenated.

    Each step only appends its raw facts to flat buffers; every `rng.BLOCK`
    steps the discretizer's array forms code the buffered block and the
    buffers start again, so they never outgrow one block.  The code of
    i_{t+1} is the next step's i_t, unless a respawn replaced the body in
    between, so every internal state is binned once.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    g, d = env.grid, discretizer
    tops = (d.internal_size, d.boundary_size, g.rows, g.cols, TAG_CODES, len(g.seasons), len(ACTIONS))
    size = max(blanket_codes(d, g, *(top - 1 for top in tops))) + 1  # every digit at its top
    if size > 2**63:
        raise ConfigError(f"blanket symbols need {size} codes, more than int64 holds")
    dims = len(env.drive_model.set_point)
    if len(d.internal_edges) != dims:
        raise ConfigError(f"{dims} internal values vs {len(d.internal_edges)} edge sets")
    walk = rollout(env, uniform_random_policy, seed, "blanket-policy", "blanket-env")
    x, y, z = (np.empty(steps, dtype=np.int64) for _ in range(3))
    counts: dict[tuple[int, int, int], float] = {}
    count = counts.get
    i_code = 0  # the code of the last i_{t+1}; the first block starts with a fresh body
    fresh = True  # the state's body was not reached by a step: reset or respawned
    block = rng.BLOCK
    for start in range(0, steps, block):
        n = min(block, steps - start)
        nexts = array("d")  # i_{t+1}, `dims` values a step
        sensed = array("d")  # b_t: sensed ambient, food flux, water flux
        facts = array("q")  # e_t: row, column, tag under the agent, season; then a_t
        fresh_rows = array("q")  # steps whose i_t is a fresh body, and its values:
        bodies = array("d")
        for k in range(n):
            state, action, nxt, _, dead = next(walk)
            if fresh:
                fresh_rows.append(k)
                bodies.extend(state.internal.values)
            b, ext = state.boundary, state.external
            r, c = ext.agent_pos
            sensed.extend((b.sensed_ambient, b.flux_food, b.flux_water))
            facts.extend((r, c, ext.resource_map[r][c], ext.season, action))
            nexts.extend(nxt.internal.values)
            fresh = dead  # a death respawns the next step's body

        nexts.extend(bodies)
        i_codes = d.internal_codes(np.frombuffer(nexts).reshape(-1, dims))
        xb = i_codes[:n]
        ib = np.empty(n, dtype=np.int64)
        ib[0] = i_code
        ib[1:] = xb[:-1]
        ib[np.frombuffer(fresh_rows, dtype=np.int64)] = i_codes[n:]
        i_code = xb[-1]
        b_cols = np.frombuffer(sensed).reshape(n, 3).T
        e_cols = np.frombuffer(facts, dtype=np.int64).reshape(n, 5).T
        yb, zb = blanket_codes(d, g, ib, d.boundary_codes(*b_cols), *e_cols)
        x[start : start + n] = xb
        y[start : start + n] = yb
        z[start : start + n] = zb
        for key in zip(xb.tolist(), yb.tolist(), zb.tolist()):
            counts[key] = count(key, 0.0) + 1.0
    for codes in (x, y, z):
        codes.setflags(write=False)
    return TransitionDataset(x, y, z, counts)


class CmiVerdict(Enum):
    Factored = "Factored"
    Coupled = "Coupled"
    Inconclusive = "Inconclusive"


@dataclass(frozen=True)
class CmiReport:
    cmi_nats: float
    sample_count: int
    alphabet_sizes: tuple[int, int, int]  # |I_{t+1}|, |E_t|, |conditioners|
    verdict: CmiVerdict


def cmi_from_counts(counts: Mapping[tuple, float]) -> float:
    """Plug-in I(X; Y | Z) in nats from weights keyed (x, y, z).

    Accepts arbitrary non-negative weights, so the exact joint distribution
    of an enumerated toy system can be fed in directly; a NaN or infinite
    weight raises NonFiniteValue and a negative one NegativeWeight.
    """
    weights = counts.values()
    if not all(map(math.isfinite, weights)):
        raise NonFiniteValue("counts table holds a non-finite weight")
    if any(c < 0.0 for c in weights):
        raise NegativeWeight("counts table holds a negative weight")
    total = sum(weights)
    if total <= 0.0:
        raise EmptyDataset("counts table is empty")
    n_xz: dict[tuple, float] = {}
    n_yz: dict[tuple, float] = {}
    n_z: dict[tuple, float] = {}
    for (x, y, z), c in counts.items():
        n_xz[(x, z)] = n_xz.get((x, z), 0.0) + c
        n_yz[(y, z)] = n_yz.get((y, z), 0.0) + c
        n_z[z] = n_z.get(z, 0.0) + c
    acc = 0.0
    for (x, y, z), c in counts.items():
        if c <= 0.0:
            continue
        acc += c * math.log((c * n_z[z]) / (n_xz[(x, z)] * n_yz[(y, z)]))
    return max(acc / total, 0.0)


def conditional_mi(ds: TransitionDataset, tol_lo: float, tol_hi: float) -> CmiReport:
    """Estimate I(I_{t+1}; E_t | I_t, B_t, A_t) and classify the result:
    Factored below `tol_lo`, Coupled above `tol_hi`, Inconclusive between."""
    if len(ds) == 0:
        raise EmptyDataset("dataset holds no transitions")
    cmi = cmi_from_counts(ds.counts)
    xs = {k[0] for k in ds.counts}
    ys = {k[1] for k in ds.counts}
    zs = {k[2] for k in ds.counts}
    if cmi < tol_lo:
        verdict = CmiVerdict.Factored
    elif cmi > tol_hi:
        verdict = CmiVerdict.Coupled
    else:
        verdict = CmiVerdict.Inconclusive
    return CmiReport(
        cmi_nats=cmi,
        sample_count=len(ds),
        alphabet_sizes=(len(xs), len(ys), len(zs)),
        verdict=verdict,
    )


@dataclass(frozen=True)
class JacobianReport:
    """Finite-difference sensitivities across the forbidden blocks.

    `internal_wrt_external` maps (internal dim, cell) to the sensitivity of
    the next internal value to the ambient temperature at that cell;
    `external_wrt_internal` maps (cell, internal dim) the other way.  Both
    blocks must be zero for a factored model.
    """

    internal_wrt_external: dict[tuple[int, tuple[int, int]], float]
    external_wrt_internal: dict[tuple[tuple[int, int], int], float]
    forbidden_internal_max: float
    forbidden_external_max: float
    epsilon: float


def _with_ambient(external: ExternalState, cell: tuple[int, int], value: float) -> ExternalState:
    r, c = cell
    row = external.ambient_field[r]
    new_row = row[:c] + (value,) + row[c + 1 :]
    field = external.ambient_field[:r] + (new_row,) + external.ambient_field[r + 1 :]
    return replace(external, ambient_field=field)


def _with_internal(internal: InternalState, dim: int, value: float) -> InternalState:
    vals = internal.values
    return InternalState(vals[:dim] + (value,) + vals[dim + 1 :])


def jacobian_sparsity(
    model: TransitionModel,
    state: FactoredState,
    action: Action,
    epsilon: float,
) -> JacobianReport:
    """Central-difference check of the two forbidden Jacobian blocks."""
    if epsilon <= 0.0:
        raise ConfigError("epsilon must be > 0")
    ext = state.external
    rows = len(ext.ambient_field)
    cols = len(ext.ambient_field[0])
    k = len(state.internal)

    int_wrt_ext: dict[tuple[int, tuple[int, int]], float] = {}
    for r in range(rows):
        for c in range(cols):
            base = ext.ambient_field[r][c]
            e_plus = _with_ambient(ext, (r, c), base + epsilon)
            e_minus = _with_ambient(ext, (r, c), base - epsilon)
            i_plus = internal_update(model, state.internal, state.boundary, e_plus, action)
            i_minus = internal_update(model, state.internal, state.boundary, e_minus, action)
            for dim in range(k):
                grad = (i_plus.values[dim] - i_minus.values[dim]) / (2.0 * epsilon)
                if not math.isfinite(grad):
                    raise NonFiniteValue(f"non-finite sensitivity at cell ({r}, {c})")
                int_wrt_ext[(dim, (r, c))] = grad

    ext_wrt_int: dict[tuple[tuple[int, int], int], float] = {}
    t_next = state.t + 1

    def e_next_given(_internal: InternalState) -> ExternalState:
        # f_e has no internal parameter to thread the perturbation into;
        # differencing through this wrapper records the zero block as a
        # measurement instead of an assumption.
        return model.f_e(ext, state.boundary, action, stream(0, 0, "jacobian-probe"), t_next)

    for dim in range(k):
        base = state.internal.values[dim]
        e_plus = e_next_given(_with_internal(state.internal, dim, base + epsilon))
        e_minus = e_next_given(_with_internal(state.internal, dim, base - epsilon))
        for r in range(rows):
            for c in range(cols):
                grad = (e_plus.ambient_field[r][c] - e_minus.ambient_field[r][c]) / (2.0 * epsilon)
                if not math.isfinite(grad):
                    raise NonFiniteValue(f"non-finite sensitivity at dim {dim}")
                ext_wrt_int[((r, c), dim)] = grad

    return JacobianReport(
        internal_wrt_external=int_wrt_ext,
        external_wrt_internal=ext_wrt_int,
        forbidden_internal_max=max(abs(v) for v in int_wrt_ext.values()),
        forbidden_external_max=max(abs(v) for v in ext_wrt_int.values()),
        epsilon=epsilon,
    )
