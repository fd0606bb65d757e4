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
from functools import cached_property
from itertools import islice
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
    """Integer-coded transitions; their joint table is derived on first use.

    Transition t has x[t], the internal code of i_{t+1}, and y[t] and z[t],
    the `blanket_codes` of e_t and of (i_t, b_t, a_t).  The three columns
    are 1-D arrays of one length and one integer dtype, else ConfigError
    names the column at construction.  `keys` (k x 3 int64) holds each
    distinct (x, y, z) row and `counts` (k int64) its number of transitions,
    both in the order the rows were first seen; the counts sum to the number
    of transitions.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            codes = getattr(self, name)
            if not (isinstance(codes, np.ndarray) and np.issubdtype(codes.dtype, np.integer)):
                kind = getattr(codes, "dtype", type(codes).__name__)
                raise ConfigError(f"dataset column {name} holds {kind} codes, not integers")
            if codes.ndim != 1:
                raise ConfigError(f"dataset column {name} has shape {codes.shape}, not 1-D")
            if len(codes) != len(self.x):
                raise ConfigError(f"dataset column {name} holds {len(codes)} codes, x {len(self.x)}")
            if codes.dtype != self.x.dtype:
                raise ConfigError(f"dataset column {name} is {codes.dtype}, x {self.x.dtype}")

    def __len__(self) -> int:
        return len(self.x)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        columns = (self.x, self.y, self.z)
        n = len(self.x)
        order = np.lexsort(columns[::-1])  # stable: equal rows stay in transition order
        starts = np.zeros(n, dtype=bool)
        starts[:1] = True
        ranked = np.empty(n, dtype=self.x.dtype)  # one buffer for each column in sorted order
        for codes in columns:  # a run of equal rows starts where any column changes
            np.take(codes, order, out=ranked)
            starts[1:] |= ranked[1:] != ranked[:-1]
        del ranked
        runs = np.flatnonzero(starts)
        del starts
        firsts = order[runs]  # each run's first transition
        del order
        seen = np.argsort(firsts)
        keys = np.stack([codes[firsts[seen]] for codes in columns], axis=1, dtype=np.int64)
        counts = np.diff(runs, append=n)[seen]
        for table in (keys, counts):
            table.setflags(write=False)
        return keys, counts

    @property
    def keys(self) -> np.ndarray:
        return self._table[0]

    @property
    def counts(self) -> np.ndarray:
        return self._table[1]


def collect_transitions(
    env: HomeoGridEnv, steps: int, seed: int, discretizer: Discretizer
) -> TransitionDataset:
    """Take `steps` transitions of `uniform_random_policy`'s `rollout`, episodes concatenated.

    Each step only appends its raw facts to flat buffers; every `rng.BLOCK`
    steps the discretizer's array forms code the buffered block and the
    buffers start again, so they never outgrow one block.  A step's i_t and
    i_{t+1} are both binned from its own values: nothing is carried between
    steps or blocks.  The codes are read-only int32 arrays when the code
    space (every digit at its top, plus one) is at most 2**31, else int64;
    a code space beyond 2**63 raises ConfigError before any step.
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
    dtype = np.int32 if size <= 2**31 else np.int64  # one dtype holds every code of all three columns
    x, y, z = (np.empty(steps, dtype=dtype) for _ in range(3))
    block = rng.BLOCK
    for start in range(0, steps, block):
        n = min(block, steps - start)
        bodies = array("d")  # i_t then i_{t+1}, `dims` values each
        sensed = array("d")  # b_t: sensed ambient, food flux, water flux
        facts = array("q")  # e_t: row, column, tag under the agent, season; then a_t
        for state, action, nxt, _, _ in islice(walk, n):
            b, ext = state.boundary, state.external
            r, c = ext.agent_pos
            bodies.extend(state.internal.values)
            bodies.extend(nxt.internal.values)
            sensed.extend((b.sensed_ambient, b.flux_food, b.flux_water))
            facts.extend((r, c, ext.resource_map[r][c], ext.season, action))

        i_codes = d.internal_codes(np.frombuffer(bodies).reshape(-1, dims))
        b_cols = np.frombuffer(sensed).reshape(n, 3).T
        e_cols = np.frombuffer(facts, dtype=np.int64).reshape(n, 5).T
        yb, zb = blanket_codes(d, g, i_codes[0::2], d.boundary_codes(*b_cols), *e_cols)
        x[start : start + n] = i_codes[1::2]
        y[start : start + n] = yb
        z[start : start + n] = zb
    for codes in (x, y, z):
        codes.setflags(write=False)
    return TransitionDataset(x, y, z)


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


def _ranks(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Each code's rank among the distinct codes, and how many there are."""
    distinct, ranks = np.unique(codes, return_inverse=True)
    return ranks.reshape(-1), len(distinct)


def _table_cmi(keys: np.ndarray, weights: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Plug-in I(X; Y | Z) in nats of a weighted table, and its alphabet sizes.

    Row r of `keys` is an integer-coded (x, y, z) of non-negative float64
    weight `weights[r]`, and the total weight is positive.  Each marginal
    weight is added row by row in table order (a weighted `np.bincount`);
    the terms of the rows of positive weight, and the total, are each added
    left to right (`np.cumsum`, not the pairwise `np.sum`), and the logs are
    `math.log`'s, taken one float at a time from the ratios' buffer:
    `blanket.json`'s bytes depend on every bit of the result.  Each rank and
    marginal array is freed after its last use.
    """
    (x, xs), (y, ys), (z, zs) = (_ranks(column) for column in keys.T)
    held = weights > 0.0  # each marginal is read at these rows only
    xz = _ranks(z * xs + x)[0]
    del x
    n_xz = np.bincount(xz, weights)[xz[held]]
    del xz
    yz = _ranks(z * ys + y)[0]
    del y
    den = np.bincount(yz, weights)[yz[held]]  # n_yz, then n_xz * n_yz (a product commutes bit for bit)
    del yz
    den *= n_xz
    del n_xz
    ratios = np.bincount(z, weights)[z[held]]  # n_z, then c * n_z, then the ratio
    del z
    c = weights[held]
    del held
    ratios *= c
    ratios /= den
    del den
    terms = np.fromiter(map(math.log, memoryview(ratios)), dtype=np.float64, count=len(c))
    del ratios
    terms *= c
    cmi = float(np.cumsum(terms)[-1]) / float(np.cumsum(weights)[-1])
    return max(cmi, 0.0), (xs, ys, zs)


def cmi_from_counts(counts: Mapping[tuple, float]) -> float:
    """Plug-in I(X; Y | Z) in nats from weights keyed (x, y, z).

    Accepts arbitrary non-negative weights over hashable symbols, so the
    exact joint distribution of an enumerated toy system can be fed in
    directly; a key that is not an (x, y, z) tuple raises ConfigError, a NaN
    or infinite weight NonFiniteValue, a negative one NegativeWeight, and a
    table of no positive weight EmptyDataset.  Each column's symbols are
    coded in first-seen order and the table is estimated by the same core
    as `conditional_mi`.
    """
    for key in counts:
        if not (isinstance(key, tuple) and len(key) == 3):
            raise ConfigError(f"counts key {key!r} is not an (x, y, z) triple")
    weights = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    if not np.isfinite(weights).all():
        raise NonFiniteValue("counts table holds a non-finite weight")
    if (weights < 0.0).any():
        raise NegativeWeight("counts table holds a negative weight")
    if not weights.any():
        raise EmptyDataset("counts table is empty")
    codes: tuple[dict, dict, dict] = ({}, {}, {})  # per column: symbol -> its first-seen rank
    keys = np.array(
        [[column.setdefault(symbol, len(column)) for column, symbol in zip(codes, key)] for key in counts],
        dtype=np.int64,
    )
    return _table_cmi(keys, weights)[0]


def conditional_mi(ds: TransitionDataset, tol_lo: float, tol_hi: float) -> CmiReport:
    """Estimate I(I_{t+1}; E_t | I_t, B_t, A_t) over the dataset's joint table
    and classify the result: Factored below `tol_lo`, Coupled above `tol_hi`,
    Inconclusive between.  The alphabet sizes count the distinct x, y and z.

    Only the table is read once it is built: a dataset handed straight in,
    with no other reference, is freed, codes and all, before the estimate."""
    n = len(ds)
    if n == 0:
        raise EmptyDataset("dataset holds no transitions")
    keys, counts = ds.keys, ds.counts
    del ds
    cmi, sizes = _table_cmi(keys, counts.astype(np.float64))
    if cmi < tol_lo:
        verdict = CmiVerdict.Factored
    elif cmi > tol_hi:
        verdict = CmiVerdict.Coupled
    else:
        verdict = CmiVerdict.Inconclusive
    return CmiReport(
        cmi_nats=cmi,
        sample_count=n,
        alphabet_sizes=sizes,
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
    if not 0.0 < epsilon < math.inf:
        raise ConfigError(f"epsilon must be finite and > 0, got {epsilon!r}")
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
