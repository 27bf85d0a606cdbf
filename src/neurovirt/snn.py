"""Minimal spiking workload run on neurocores.

Leaky integrate-and-fire with synchronous steps: per step every neuron j
updates ``v_j <- leak * v_j + sum_i w[i][j]`` over the incoming spikes i,
fires when ``v_j >= v_thresh``, and resets to ``v_reset``. Dense weight
matrices keep desk-scale verification by brute force trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatch(Exception):
    pass


@dataclass(frozen=True)
class LifParams:
    v_thresh: float = 1.0
    v_reset: float = 0.0
    leak: float = 1.0  # decay factor in (0, 1]
    dt_ticks: int = 1_000  # simulated time per step

    def __post_init__(self):
        if not (self.v_reset < self.v_thresh):
            raise ValueError("v_reset must be below v_thresh")
        if not (0.0 < self.leak <= 1.0):
            raise ValueError("leak must be in (0, 1]")
        if self.dt_ticks <= 0:
            raise ValueError("dt_ticks must be positive")


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


@dataclass(frozen=True)
class SpikeBatch:
    step_index: int
    spiking_neuron_ids: tuple[int, ...]


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


def step_core(state: CoreState, batch: SpikeBatch, params: LifParams) -> SpikeBatch:
    """Advance one step; mutates ``state.potentials`` and returns the output batch."""
    if state.weights.shape[1] != state.n_neurons:
        raise DimensionMismatch(
            f"weights shape {state.weights.shape} vs {state.n_neurons} neurons"
        )
    ids = np.array(batch.spiking_neuron_ids, dtype=np.int64)
    ids.sort()
    if ids.size:
        if ids[0] < 0 or ids[-1] >= state.n_inputs:
            raise DimensionMismatch(
                f"input spike id out of range [0, {state.n_inputs})"
            )
        if (ids[1:] == ids[:-1]).any():
            raise DimensionMismatch("duplicate input spike ids")
    # leak first, then the incoming rows in ascending spike-id order: the
    # accumulation order is fixed, so every run gives the same bits
    potentials = state.potentials
    potentials *= params.leak
    for idx in ids:
        potentials += state.weights[idx]
    fired = np.nonzero(potentials >= params.v_thresh)[0]
    if fired.size:
        potentials[fired] = params.v_reset
    return SpikeBatch(batch.step_index + 1, tuple(fired.tolist()))


def workload_cost(steps: int, input_rate: int, fan_in: int) -> int:
    """Synaptic-op demand: steps x expected input spikes x fan-in, exact."""
    if steps < 0 or input_rate < 0 or fan_in < 0:
        raise ValueError("task shape fields must be non-negative")
    return steps * input_rate * fan_in
