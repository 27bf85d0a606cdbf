"""Minimal spiking workload run on neurocores.

Leaky integrate-and-fire with synchronous steps: per step every neuron j
updates ``v_j <- leak * v_j + sum_i w[i][j]`` over the incoming spikes i,
fires when ``v_j >= v_thresh``, and resets to ``v_reset``. Dense weight
matrices keep desk-scale verification by brute force trivial.

Accumulation order: each potential is leaked first, then the incoming
weight rows are added one at a time in ascending spike-id order. The step
gathers those rows, adds the leaked potentials to the first, and runs
``np.add.accumulate`` down them. IEEE addition is commutative and
``add.accumulate`` adds strictly row after row (it never sums pairwise, as
``add.reduce`` may), so the last row holds exactly the bits of the
one-row-at-a-time loop, and every run gives the same bits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class DimensionMismatch(Exception):
    pass


@dataclass(frozen=True)
class LifParams:
    v_thresh: float = 1.0
    v_reset: float = 0.0
    leak: float = 1.0  # decay factor in (0, 1]

    def __post_init__(self):
        if not (self.v_reset < self.v_thresh):
            raise ValueError("v_reset must be below v_thresh")
        if not (0.0 < self.leak <= 1.0):
            raise ValueError("leak must be in (0, 1]")


@dataclass
class CoreState:
    """Membrane potentials plus the dense input-to-neuron weight matrix."""

    potentials: np.ndarray  # float64[n_neurons]
    weights: np.ndarray  # float64[n_inputs, n_neurons]

    @property
    def n_neurons(self) -> int:
        return self.potentials.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.weights.shape[0]


def make_core_state(
    n_inputs: int,
    n_neurons: int,
    rng=None,
    stream: str = "weights",
    weights: np.ndarray | None = None,
) -> CoreState:
    """Fresh core state; weights drawn uniform [-0.5, 0.5) from the seeded
    stream unless supplied explicitly."""
    if weights is None:
        if rng is None:
            weights = np.zeros((n_inputs, n_neurons))
        else:
            flat = rng.values(stream, n_inputs * n_neurons) - 0.5
            weights = flat.reshape(n_inputs, n_neurons)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n_inputs, n_neurons):
            raise DimensionMismatch(
                f"weights shape {weights.shape} != ({n_inputs}, {n_neurons})"
            )
    return CoreState(
        potentials=np.zeros(n_neurons, dtype=np.float64),
        weights=np.ascontiguousarray(weights),
    )


def step_core(state: CoreState, ids: Sequence[int], params: LifParams) -> tuple[int, ...]:
    """Advance one step on the input spike ``ids``, in any order; mutates
    ``state.potentials`` and returns the ids of the neurons that fired.

    Checks the weight shape and that the input ids are in range and
    distinct, then runs :func:`step_sorted` on them in ascending order.
    """
    if state.weights.shape[1] != state.n_neurons:
        raise DimensionMismatch(
            f"weights shape {state.weights.shape} vs {state.n_neurons} neurons"
        )
    ids = sorted(ids)
    if ids:
        if ids[0] < 0 or ids[-1] >= state.n_inputs:
            raise DimensionMismatch(
                f"input spike id out of range [0, {state.n_inputs})"
            )
        if any(a == b for a, b in zip(ids, ids[1:])):
            raise DimensionMismatch("duplicate input spike ids")
    return tuple(step_sorted(state, ids, params).tolist())


def step_sorted(state: CoreState, ids: Sequence[int], params: LifParams) -> np.ndarray:
    """One step over trusted input ids: distinct, in range and ascending.

    Mutates ``state.potentials`` and returns the ids of the neurons that
    fired. An empty ``ids`` still applies the leak.
    """
    potentials = state.potentials
    if ids:
        rows = state.weights.take(ids, axis=0)
        rows[0] += potentials * params.leak
        np.add.accumulate(rows, axis=0, out=rows)
        potentials[:] = rows[-1]
    else:
        potentials *= params.leak
    fired = (potentials >= params.v_thresh).nonzero()[0]
    if fired.size:
        potentials[fired] = params.v_reset
    return fired


def workload_cost(steps: int, input_rate: int, fan_in: int) -> int:
    """Synaptic-op demand: steps x expected input spikes x fan-in, exact."""
    if steps < 0 or input_rate < 0 or fan_in < 0:
        raise ValueError("task shape fields must be non-negative")
    return steps * input_rate * fan_in
