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

``SpikingExecutor`` steps such workloads on the event engine. Its input
picks are the one source of the trusted ids that ``step_sorted`` takes:
distinct, in range and ascending.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

# numpy is imported by the functions that use it, so runs without a
# spiking task never load it
if TYPE_CHECKING:
    import numpy as np

    from neurovirt.engine import Engine, SimEvent


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
    import numpy as np

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


def _add_accumulate(rows, axis, out):
    """``np.add.accumulate``, which this first call imports and binds in its
    place: an import statement in :func:`step_sorted` would cost every step
    ~0.15 us, ~1.5% of a calibration run."""
    global _add_accumulate
    import numpy as np

    _add_accumulate = np.add.accumulate
    return _add_accumulate(rows, axis=axis, out=out)


def step_sorted(state: CoreState, ids: Sequence[int], params: LifParams) -> np.ndarray:
    """One step over trusted input ids: distinct, in range and ascending.

    Mutates ``state.potentials`` and returns the ids of the neurons that
    fired. An empty ``ids`` still applies the leak.
    """
    potentials = state.potentials
    if ids:
        rows = state.weights.take(ids, axis=0)
        rows[0] += potentials * params.leak
        _add_accumulate(rows, axis=0, out=rows)
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


@dataclass
class _SpikingTask:
    """One spiking workload being stepped on a core."""

    task_id: str
    stream: str
    state: object
    n_inputs: int
    n_neurons: int
    rate: int
    remaining: int
    interval: int
    vm: str | None
    detail: str
    next_event: SimEvent | None = None
    # input ids of the pre-drawn steps, one sorted tuple per step
    picks: Iterator[tuple[int, ...]] = iter(())


# pool cells per refill of a task's input picks: bounds the look-ahead
# memory per active task whatever its step count or fan-in
INPUT_BLOCK = 4096


class SpikingExecutor:
    """Steps LIF workloads on the engine and counts synaptic ops."""

    def __init__(self, engine: Engine, params: LifParams | None = None):
        self.engine = engine
        self.params = params if params is not None else LifParams()
        self.active: dict[str, _SpikingTask] = {}
        self.total_synops = 0
        self.output_spikes = 0

    def launch(
        self,
        task_id: str,
        steps: int,
        input_rate: int,
        fan_in: int,
        interval: int,
        at: int,
        vm: str | None = None,
        stream: str | None = None,
    ) -> None:
        n_inputs = max(fan_in, input_rate)
        stream = stream if stream is not None else f"task/{task_id}"
        state = make_core_state(
            n_inputs, fan_in, rng=self.engine.rng, stream=f"{stream}/weights"
        )
        job = _SpikingTask(
            task_id=task_id,
            stream=f"{stream}/inputs",
            state=state,
            n_inputs=n_inputs,
            n_neurons=fan_in,
            rate=input_rate,
            remaining=steps,
            interval=interval,
            vm=vm,
            detail=f"task={task_id}",
        )
        self.active[task_id] = job
        self._schedule_step(job, at)

    def _schedule_step(self, job: _SpikingTask, at: int) -> None:
        # a closure per step, not one kept on the job: job -> next_event ->
        # closure -> job is then the only cycle, and _step breaks it when the
        # job finishes, so a finished job is freed at once
        job.next_event = self.engine.schedule(
            at, "SpikeStep", fn=lambda: self._step(job), detail=job.detail, vm=job.vm
        )

    def _pick_inputs(self, job: _SpikingTask) -> tuple[int, ...]:
        ids = next(job.picks, None)
        if ids is None:
            job.picks = self._draw_picks(job)
            ids = next(job.picks)
        return ids

    def _draw_picks(self, job: _SpikingTask) -> Iterator[tuple[int, ...]]:
        """Input ids of the next block of steps: per step, the sorted prefix
        of a partial Fisher-Yates shuffle of ``range(n_inputs)`` whose swap
        ``k`` targets ``k + floor(u * (n_inputs - k))``.

        The stream is the task's own, so drawing ahead leaves each value
        and its order unchanged. All steps of a block shuffle together: the
        pool holds position ``p`` of step ``s`` at ``p * steps + s``, and
        swap ``k`` is one gather and one scatter across the block, with at
        most ``max(INPUT_BLOCK, n_inputs)`` cells whatever the fan-in.
        """
        import numpy as np

        n, rate = job.n_inputs, job.rate
        steps = min(job.remaining, max(1, INPUT_BLOCK // n))
        u = self.engine.rng.values(job.stream, steps * rate).reshape(steps, rate)
        k = np.arange(rate)
        there = (k + (u * (n - k)).astype(np.int64)).T * steps + np.arange(steps)
        here = np.arange(rate * steps).reshape(rate, steps)
        forth = np.concatenate((here, there), axis=1)
        back = np.concatenate((there, here), axis=1)
        pool = np.repeat(np.arange(n), steps)
        for to, frm in zip(forth, back):
            pool[to] = pool[frm]
        picks = np.sort(pool[: rate * steps].reshape(rate, steps).T, axis=1)
        return map(tuple, picks.tolist())

    def _step(self, job: _SpikingTask) -> None:
        ids = self._pick_inputs(job)
        self.output_spikes += len(step_sorted(job.state, ids, self.params))
        self.total_synops += job.rate * job.n_neurons
        job.remaining -= 1
        if job.remaining > 0:
            self._schedule_step(job, self.engine.now() + job.interval)
        else:
            job.next_event = None
            del self.active[job.task_id]

    def move(self, job: _SpikingTask, new_vm: str, resume_at: int, interval: int) -> None:
        """Re-home an active workload after a migration, stepping every
        ``interval`` ns from ``resume_at``."""
        self.engine.cancel(job.next_event)
        job.vm = new_vm
        job.interval = max(1, interval)
        self._schedule_step(job, max(resume_at, self.engine.now()))
