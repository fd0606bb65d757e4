"""Independent reference implementations used as test oracles.

Nothing here shares code with the package paths under test: conditional
mutual information is computed from explicit conditional-probability
tables, optimal action values come from value iteration over an
enumerated MDP, and symbols are tuples binned with `bisect_right`.  The
verifier's first plug-in estimator, over tuple-keyed marginal dicts, is
kept as the bitwise reference of the array estimator.  The
learner step's earlier algorithms are kept here as step-by-step references:
the softmax as a probability tuple walked in a second loop, the drive and
the dominant deficit as two passes, and the TD backup as get, max, set.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import product

from interoai.errors import EmptyDataset, NegativeWeight, NonFiniteValue


def brute_force_cmi(joint: dict[tuple, float]) -> float:
    """I(X; Y | Z) in nats from an exact joint p(x, y, z).

    Uses the conditional decomposition
        sum_z p(z) sum_{x,y} p(x,y|z) log [ p(x,y|z) / (p(x|z) p(y|z)) ]
    built from explicit conditional tables.
    """
    total = sum(joint.values())
    zs = {z for (_, _, z) in joint}
    acc = 0.0
    for z in zs:
        cell = {(x, y): p for (x, y, zz), p in joint.items() if zz == z and p > 0.0}
        p_z = sum(cell.values()) / total
        if p_z == 0.0:
            continue
        norm = sum(cell.values())
        p_xy_given_z = {k: v / norm for k, v in cell.items()}
        p_x_given_z: dict = {}
        p_y_given_z: dict = {}
        for (x, y), p in p_xy_given_z.items():
            p_x_given_z[x] = p_x_given_z.get(x, 0.0) + p
            p_y_given_z[y] = p_y_given_z.get(y, 0.0) + p
        inner = 0.0
        for (x, y), p in p_xy_given_z.items():
            inner += p * math.log(p / (p_x_given_z[x] * p_y_given_z[y]))
        acc += p_z * inner
    return acc


def dict_cmi_from_counts(counts) -> float:
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


def entropy_from_counts(counts: dict[tuple, float], component: int) -> float:
    """Marginal entropy (nats) of one key component of a counts table."""
    total = sum(counts.values())
    marg: dict = {}
    for key, c in counts.items():
        marg[key[component]] = marg.get(key[component], 0.0) + c
    return -sum((c / total) * math.log(c / total) for c in marg.values() if c > 0.0)


def softmax_probs(qvalues, tau: float) -> tuple[float, ...]:
    """Softmax with max-subtraction for numerical stability."""
    top = max(qvalues)
    exps = [math.exp((q - top) / tau) for q in qvalues]
    z = sum(exps)
    return tuple([e / z for e in exps])


def softmax_walk(actions, qvalues, tau: float, u: float):
    """The action whose slot of the cumulative softmax holds `u`.

    A `u` beyond the last cumulative total (its rounding slack) picks the
    last action.
    """
    acc = 0.0
    for a, p in zip(actions, softmax_probs(qvalues, tau)):
        acc += p
        if u < acc:
            return a
    return actions[-1]


def two_pass_drive(dm, values) -> float:
    """The drive ( sum_i w_i * |h*_i - h_i|^n ) ** (1/m), summed left to right."""
    total = 0.0
    for w, target, v in zip(dm.weights, dm.set_point, values):
        total += w * abs(target - v) ** dm.n
    return total ** (1.0 / dm.m)


def two_pass_dominant_deficit(dm, values) -> int:
    """Index of the largest weighted deviation; the lowest index wins a tie."""
    best_idx = 0
    best = -1.0
    for i, (w, target, v) in enumerate(zip(dm.weights, dm.set_point, values)):
        contribution = w * abs(target - v) ** dm.n
        if contribution > best:
            best = contribution
            best_idx = i
    return best_idx


def get_max_set_update(q, transition, alpha: float, gamma: float, g: float) -> None:
    """The TD backup through the table's own API: get, max of the next row, set."""
    obs, action, reward, obs_next = transition
    old = q.get(obs, action)
    new = old + alpha * g * (reward + gamma * max(q.row(obs_next)) - old)
    if not math.isfinite(new):
        raise ArithmeticError(f"update for {obs}/{action.name} produced {new}")
    q.set(obs, action, new)


def mixed_radix_code(digits: tuple[int, ...], radices: tuple[int, ...]) -> int:
    """The integer whose digits, most significant first, are `digits` in base `radices`."""
    if len(digits) != len(radices):
        raise ValueError(f"{len(digits)} digits vs {len(radices)} radices")
    code = 0
    for digit, radix in zip(digits, radices):
        if not 0 <= digit < radix:
            raise ValueError(f"digit {digit} outside radix {radix}")
        code = code * radix + digit
    return code


def observation_tuple(disc, state) -> tuple:
    """The agent's observation of `state` under `disc` as a tuple of symbols.

    Row, column, the tag under the agent, the season (only when
    `disc.season_visible`), a bit per flux channel (non-zero or not), the
    sensed-ambient bin over the last edge set (only when `disc.sense_ambient`),
    then one bin per internal dimension: the count of its edges at or below
    the value.
    """
    ext, b = state.external, state.boundary
    r, c = ext.agent_pos
    symbols = [r, c, int(ext.resource_map[r][c])]
    if disc.season_visible:
        symbols.append(ext.season)
    symbols += [int(b.flux_food != 0.0), int(b.flux_water != 0.0)]
    if disc.sense_ambient:
        symbols.append(bisect_right(disc.internal_edges[-1], b.sensed_ambient))
    symbols += [bisect_right(edges, v) for edges, v in zip(disc.internal_edges, state.internal.values)]
    return tuple(symbols)


class BlanketTupleEncoder:
    """Codes of the verifier's symbol tuples, digit by digit.

    Internal symbols are per-dimension bins (radix: edges + 1); boundary
    symbols are (ambient bin, food bit, water bit); external symbols are
    (row, col, tag, season), coded with the season as the top digit, then
    row, column and tag; the conditioner (i, b, a) is the digits of the
    internal symbol, then the boundary symbol, then the action.
    """

    def __init__(self, internal_edges, rows: int, cols: int, n_tags: int, n_seasons: int, n_actions: int):
        self.internal_radices = tuple(len(edges) + 1 for edges in internal_edges)
        self.boundary_radices = (len(internal_edges[-1]) + 1, 2, 2)
        self.external_radices = (n_seasons, rows, cols, n_tags)
        self.n_actions = n_actions

    def internal(self, bins: tuple[int, ...]) -> int:
        return mixed_radix_code(bins, self.internal_radices)

    def boundary(self, symbol: tuple[int, int, int]) -> int:
        return mixed_radix_code(symbol, self.boundary_radices)

    def external(self, symbol: tuple[int, int, int, int]) -> int:
        row, col, tag, season = symbol
        return mixed_radix_code((season, row, col, tag), self.external_radices)

    def conditioner(self, bins: tuple[int, ...], boundary: tuple[int, int, int], action: int) -> int:
        return mixed_radix_code(
            bins + boundary + (action,),
            self.internal_radices + self.boundary_radices + (self.n_actions,),
        )


def two_cell_joint(leak_mix: float, flip_prob: float = 0.2) -> dict[tuple, float]:
    """Exact joint p(i_next, e, (i, b, a)) of a 2-cell, 2-temperature toy system.

    The base state distribution correlates the internal, boundary, and
    external bits; the next internal bit follows the boundary (flipped with
    `flip_prob`) except that with probability `leak_mix` it copies the
    external bit directly.  leak_mix = 0 is a factored system.
    """
    joint: dict[tuple, float] = {}
    for i, b, e, a in product((0, 1), repeat=4):
        p_base = 0.5 * (0.7 if b == i else 0.3) * (0.6 if e == b else 0.4) * 0.5
        for i_next in (0, 1):
            follow = (1.0 - flip_prob) if i_next == b else flip_prob
            copy_e = 1.0 if i_next == e else 0.0
            p_next = (1.0 - leak_mix) * follow + leak_mix * copy_e
            if p_next > 0.0:
                key = (i_next, e, (i, b, a))
                joint[key] = joint.get(key, 0.0) + p_base * p_next
    return joint


def value_iteration(
    n_states: int,
    n_actions: int,
    next_state,
    reward,
    gamma: float,
    tol: float = 1e-13,
    max_iters: int = 100000,
) -> dict[tuple[int, int], float]:
    """Optimal Q for a deterministic enumerated MDP."""
    q = {(s, a): 0.0 for s in range(n_states) for a in range(n_actions)}
    for _ in range(max_iters):
        delta = 0.0
        new_q = {}
        for s in range(n_states):
            for a in range(n_actions):
                s2 = next_state(s, a)
                target = reward(s, a) + gamma * max(q[(s2, a2)] for a2 in range(n_actions))
                new_q[(s, a)] = target
                delta = max(delta, abs(target - q[(s, a)]))
        q = new_q
        if delta < tol:
            break
    return q
