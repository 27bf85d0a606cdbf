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

``SpikingExecutor`` runs such workloads on the event engine. Each task's
steps are the fires of one counted ``SpikeStep`` event, which only count
the steps; the synaptic ops follow from the count, and they are all that
energy and every CLI output read. The kernel runs when its
results are read: ``output_spikes`` and ``potentials(task_id)`` first
replay every launched task from its last replayed step up to the steps
processed so far, stepping through ``step_core`` with the weights and
input picks that stepping at each event would use. Each task draws only
from its own streams, ``task/<id>/weights`` and ``task/<id>/inputs``, an
id is launched at most once, and no step result feeds back into timing,
so a read, mid-run or at the end, gives those bits exactly, and a run
whose spikes nobody reads never loads numpy.
"""

from __future__ import annotations

from collections.abc import Sequence

from neurovirt.record import FrozenRecord, Record

# not typing's, so that importing the package loads no typing; mypy and
# pyright read a TYPE_CHECKING of their own as true
TYPE_CHECKING = False
# numpy is imported by the functions that use it, so runs without a
# spiking task never load it
if TYPE_CHECKING:
    import numpy as np

    from neurovirt.engine import Engine, SimEvent


class DimensionMismatch(Exception):
    pass


class LifParams(FrozenRecord):
    __slots__ = ("v_thresh", "v_reset", "leak")

    def __init__(self, v_thresh: float = 1.0, v_reset: float = 0.0, leak: float = 1.0):
        setattr_ = object.__setattr__
        setattr_(self, "v_thresh", v_thresh)
        setattr_(self, "v_reset", v_reset)
        setattr_(self, "leak", leak)  # decay factor in (0, 1]
        if not (self.v_reset < self.v_thresh):
            raise ValueError("v_reset must be below v_thresh")
        if not (0.0 < self.leak <= 1.0):
            raise ValueError("leak must be in (0, 1]")


class CoreState(Record):
    """Membrane potentials plus the dense input-to-neuron weight matrix."""

    __slots__ = ("potentials", "weights")

    def __init__(self, potentials: np.ndarray, weights: np.ndarray):
        self.potentials = potentials  # float64[n_neurons]
        self.weights = weights  # float64[n_inputs, n_neurons]

    @property
    def n_neurons(self) -> int:
        return self.potentials.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.weights.shape[0]


def make_core_state(weights: np.ndarray) -> CoreState:
    """Fresh core state on the ``(n_inputs, n_neurons)`` weight matrix,
    with every potential at zero."""
    import numpy as np

    weights = np.ascontiguousarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise DimensionMismatch(f"weights shape {weights.shape} is not 2-D")
    return CoreState(potentials=np.zeros(weights.shape[1]), weights=weights)


def step_core(state: CoreState, ids: Sequence[int], params: LifParams) -> tuple[int, ...]:
    """Advance one step on the input spike ``ids``, in any order; mutates
    ``state.potentials`` and returns the ids of the neurons that fired.

    Checks the weight shape and that the input ids are in range and
    distinct, and adds their weight rows in ascending id order. An empty
    ``ids`` still applies the leak.
    """
    import numpy as np

    if state.weights.shape[1] != state.n_neurons:
        raise DimensionMismatch(
            f"weights shape {state.weights.shape} vs {state.n_neurons} neurons"
        )
    ids = sorted(ids)
    potentials = state.potentials
    if ids:
        if ids[0] < 0 or ids[-1] >= state.n_inputs:
            raise DimensionMismatch(
                f"input spike id out of range [0, {state.n_inputs})"
            )
        if any(a == b for a, b in zip(ids, ids[1:])):
            raise DimensionMismatch("duplicate input spike ids")
        rows = state.weights.take(ids, axis=0)
        rows[0] += potentials * params.leak
        np.add.accumulate(rows, axis=0, out=rows)
        potentials[:] = rows[-1]
    else:
        potentials *= params.leak
    fired = (potentials >= params.v_thresh).nonzero()[0]
    if fired.size:
        potentials[fired] = params.v_reset
    return tuple(fired.tolist())


def workload_cost(steps: int, input_rate: int, fan_in: int) -> int:
    """Synaptic-op demand: steps x expected input spikes x fan-in, exact."""
    if steps < 0 or input_rate < 0 or fan_in < 0:
        raise ValueError("task shape fields must be non-negative")
    return steps * input_rate * fan_in


class _SpikingTask(Record):
    """One spiking workload: its steps on the engine, and the LIF kernel
    that runs behind them as far as a read of spikes or potentials asks."""

    __slots__ = ("task_id", "n_inputs", "n_neurons", "rate", "steps", "next_event",
                 "replayed", "state", "potentials")

    def __init__(
        self,
        task_id: str,
        n_inputs: int,
        n_neurons: int,
        rate: int,
        steps: int,
        next_event: SimEvent | None = None,
        replayed: int = 0,
        state: CoreState | None = None,
        potentials: np.ndarray | None = None,
    ):
        self.task_id = task_id
        self.n_inputs = n_inputs
        self.n_neurons = n_neurons
        self.rate = rate
        self.steps = steps
        # the counted SpikeStep event of every step, which carries the job's
        # VM, its interval and its countdown; None after the last step
        self.next_event = next_event
        self.replayed = replayed  # steps the kernel has run
        # the kernel's state from the first replay until the last step is
        # replayed; its potentials stay readable after that
        self.state = state
        self.potentials = potentials

    @property
    def remaining(self) -> int:
        """Steps the engine has not processed yet."""
        event = self.next_event
        return 0 if event is None else event.repeats + 1


class SpikingExecutor:
    """Runs LIF workloads on the engine: the engine counts their steps, the
    synaptic ops follow from the count, and their kernel runs when it is
    read.

    A job's steps are the fires of one counted event (``every`` its
    interval, ``repeats`` its steps less one), so the engine fires every
    step but the last without a handler call, and ``_step`` runs once, at
    the last step, to settle the job. Its seqs and trace are those of a
    handler that re-armed the event at every step, since such a handler
    queued nothing before its re-arm.
    """

    def __init__(self, engine: Engine, params: LifParams | None = None):
        self.engine = engine
        self.params = params if params is not None else LifParams()
        self.active: dict[str, _SpikingTask] = {}
        self._tasks: dict[str, _SpikingTask] = {}  # every launched task
        self._output_spikes = 0

    def launch(
        self,
        task_id: str,
        steps: int,
        input_rate: int,
        fan_in: int,
        interval: int,
        at: int,
        vm: str | None = None,
    ) -> None:
        self.check_launch(task_id, steps, input_rate, fan_in, interval)
        job = _SpikingTask(
            task_id=task_id,
            n_inputs=max(fan_in, input_rate),
            n_neurons=fan_in,
            rate=input_rate,
            steps=steps,
        )
        self._tasks[task_id] = self.active[task_id] = job
        # one event for all the job's steps, re-armed by the engine and by
        # move: job -> next_event -> fn -> job is the only cycle, and _step
        # breaks it at the last step
        job.next_event = self.engine.schedule(
            at, "SpikeStep", fn=lambda: self._step(job), detail=f"task={task_id}", vm=vm,
            every=interval, repeats=steps - 1,
        )

    def check_launch(self, task_id: str, steps: int, input_rate: int, fan_in: int,
                     interval: int = 1) -> None:
        """Raise the ValueError that :meth:`launch` would raise, launching
        nothing."""
        if steps < 1 or fan_in < 1 or interval < 1 or input_rate < 0:
            raise ValueError(
                f"task {task_id}: steps, fan_in and interval must be >= 1, input_rate >= 0"
            )
        # a task's streams follow its id, so this keeps two tasks off one
        # stream: a replay runs one task at a time and could not give two
        # tasks the draws they interleaved on it
        if task_id in self._tasks:
            raise ValueError(f"task {task_id} is already launched")

    @property
    def total_synops(self) -> int:
        """Synaptic ops over every step processed so far, by all tasks."""
        return sum(job.rate * job.n_neurons * (job.steps - job.remaining)
                   for job in self._tasks.values())

    @property
    def output_spikes(self) -> int:
        """Neurons fired over every step processed so far, by all tasks."""
        self._replay()
        return self._output_spikes

    def potentials(self, task_id: str) -> np.ndarray:
        """A copy of the task's membrane potentials after the steps
        processed so far."""
        self._replay()
        return self._tasks[task_id].potentials.copy()

    def _replay(self) -> None:
        """Run every launched task's kernel forward, from the steps already
        replayed up to the steps processed so far.

        A task draws only from its own streams and no step result feeds
        back into timing, so this gives the bits of stepping at each event.
        A finished task that has caught up keeps only its potentials, so a
        replay holds one finished task's weights at a time.
        """
        for job in self._tasks.values():
            if job.replayed == job.steps:
                continue
            if job.state is None:
                # uniform in [-0.5, 0.5)
                flat = self.engine.rng.values(f"task/{job.task_id}/weights",
                                              job.n_inputs * job.n_neurons) - 0.5
                job.state = make_core_state(flat.reshape(job.n_inputs, job.n_neurons))
                job.potentials = job.state.potentials
            for _ in range(job.steps - job.remaining - job.replayed):
                fired = step_core(job.state, self._pick_inputs(job), self.params)
                self._output_spikes += len(fired)
                job.replayed += 1
            if job.replayed == job.steps:
                job.state = None

    def _pick_inputs(self, job: _SpikingTask) -> tuple[int, ...]:
        """The next replayed step's input ids: the sorted prefix of a partial
        Fisher-Yates shuffle of ``range(n_inputs)`` whose swap ``k`` targets
        ``k + floor(u_k * (n_inputs - k))``, over the step's ``rate``
        uniforms from the task's own stream."""
        n = job.n_inputs
        pool = list(range(n))
        uniforms = self.engine.rng.values(f"task/{job.task_id}/inputs", job.rate).tolist()
        for k, u in enumerate(uniforms):
            j = k + int(u * (n - k))
            pool[k], pool[j] = pool[j], pool[k]
        return tuple(sorted(pool[: job.rate]))

    def _step(self, job: _SpikingTask) -> None:
        """Settle a job at its last step, the one fire of its event that
        runs a handler."""
        job.next_event = None
        del self.active[job.task_id]

    def move(self, job: _SpikingTask, new_vm: str, resume_at: int, interval: int) -> None:
        """Re-home an active workload after a migration, stepping every
        ``interval`` ns from ``resume_at``; its event keeps its countdown."""
        event = job.next_event
        self.engine.cancel(event)
        event.vm = new_vm
        event.every = max(1, interval)
        self.engine.reschedule(event, max(resume_at, self.engine.now()))
