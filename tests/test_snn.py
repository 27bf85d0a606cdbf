import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from neurovirt.engine import Engine
from neurovirt.snn import (
    CoreState,
    DimensionMismatch,
    LifParams,
    make_core_state,
    step_core,
    workload_cost,
)


def _reference_step(potentials, weights, ids, leak, v_thresh, v_reset):
    """Independent brute-force LIF step used as the oracle."""
    out = []
    pots = list(potentials)
    for j in range(len(pots)):
        v = leak * pots[j]
        for i in ids:
            v += weights[i][j]
        if v >= v_thresh:
            out.append(j)
            v = v_reset
        pots[j] = v
    return pots, out


def test_zero_weights_never_spike():
    state = make_core_state(np.zeros((4, 4)))
    params = LifParams()
    for _ in range(10):
        assert step_core(state, (0, 1, 2, 3), params) == ()


def test_single_neuron_unit_weight_fires_and_resets():
    state = make_core_state(np.array([[1.0]]))
    params = LifParams(v_thresh=1.0, v_reset=0.0, leak=1.0)
    out = step_core(state, (0,), params)
    assert out == (0,)
    assert state.potentials[0] == params.v_reset


def test_step_core_basic():
    state = make_core_state(np.array([[1.0, 0.0], [0.0, 0.25]]))
    out = step_core(state, (1, 0), LifParams(leak=1.0))
    assert out == (0,)
    assert state.potentials.tolist() == [0.0, 0.25]


def test_two_step_integration_trace():
    # identity weight 0.6: first input no spike (v=0.6), second crosses (1.2)
    state = make_core_state(np.array([[0.6]]))
    params = LifParams(v_thresh=1.0, v_reset=0.0, leak=1.0)
    first = step_core(state, (0,), params)
    assert first == ()
    assert state.potentials[0] == pytest.approx(0.6)
    second = step_core(state, (0,), params)
    assert second == (0,)
    assert state.potentials[0] == 0.0


def test_workload_cost_examples():
    assert workload_cost(1, 1, 1) == 1
    assert workload_cost(100, 8, 256) == 204_800
    assert workload_cost(0, 5, 5) == 0
    with pytest.raises(ValueError):
        workload_cost(-1, 1, 1)


def test_input_id_validation():
    state = make_core_state(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        step_core(state, (2,), LifParams())
    with pytest.raises(DimensionMismatch):
        step_core(state, (-1,), LifParams())
    with pytest.raises(DimensionMismatch):
        step_core(state, (1, 0, 1), LifParams())


def test_weights_that_are_not_2d_or_do_not_match_the_potentials_are_refused():
    # the matrix's second dimension sizes the potentials
    state = make_core_state([[0.5, 0.0, 1.0]])
    assert (state.n_inputs, state.n_neurons, state.weights.dtype) == (1, 3, np.float64)
    for weights in (np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(DimensionMismatch, match="is not 2-D"):
            make_core_state(weights)
    state = CoreState(np.zeros(3), np.zeros((2, 4)))
    with pytest.raises(DimensionMismatch, match="vs 3 neurons"):
        step_core(state, (0,), LifParams())
    assert state.potentials.tolist() == [0.0] * 3


def test_step_is_pure_function_of_state_and_input():
    eng = Engine(seed=3)
    a = make_core_state(eng.rng.values("w", 64).reshape(8, 8) - 0.5)
    b = CoreState(a.potentials.copy(), a.weights.copy())
    params = LifParams(leak=0.9, v_thresh=0.8)
    out_a = step_core(a, (1, 3), params)
    out_b = step_core(b, (1, 3), params)
    assert out_a == out_b
    assert np.array_equal(a.potentials, b.potentials)


def test_lif_params_validation():
    with pytest.raises(ValueError):
        LifParams(v_thresh=0.0, v_reset=0.0)
    with pytest.raises(ValueError):
        LifParams(leak=0.0)
    with pytest.raises(ValueError):
        LifParams(leak=1.5)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_step_matches_brute_force_oracle_and_reset_discipline(n_in, n_out, seed):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=(n_in, n_out))
    potentials = rng.uniform(-0.5, 0.9, size=n_out)
    ids = tuple(sorted(rng.choice(n_in, size=rng.integers(0, n_in + 1), replace=False)))
    params = LifParams(v_thresh=1.0, v_reset=-0.1, leak=0.95)

    expected_pots, expected_ids = _reference_step(
        potentials.tolist(), weights.tolist(), ids, 0.95, 1.0, -0.1
    )
    state = CoreState(potentials.copy(), np.ascontiguousarray(weights))
    out = step_core(state, ids, params)
    assert list(out) == expected_ids
    # same operation order as the oracle, so the same bits
    assert state.potentials.tolist() == expected_pots
    assert np.all(state.potentials < params.v_thresh)


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(st.integers(0, 63), unique=True, max_size=32).map(sorted),
    extra=st.integers(0, 8),
    n_out=st.integers(1, 12),
    leak=st.sampled_from((1.0, 0.95, 0.5)),
    seed=st.integers(0, 2**32 - 1),
)
@example(ids=[], extra=0, n_out=3, leak=0.5, seed=0)
def test_inner_step_is_bit_exact_and_public_step_agrees(ids, extra, n_out, leak, seed):
    n_in = min(64, (ids[-1] + 1 if ids else 1) + extra)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-0.5, 0.5, size=(n_in, n_out))
    potentials = rng.uniform(-0.5, 0.9, size=n_out)
    params = LifParams(v_thresh=0.8, v_reset=-0.1, leak=leak)

    expected_pots, expected_ids = _reference_step(
        potentials.tolist(), weights.tolist(), ids, leak, 0.8, -0.1
    )
    ascending = CoreState(potentials.copy(), weights.copy())
    assert step_core(ascending, ids, params) == tuple(expected_ids)
    assert ascending.potentials.tolist() == expected_pots

    reversed_ids = CoreState(potentials.copy(), weights.copy())
    assert step_core(reversed_ids, tuple(reversed(ids)), params) == tuple(expected_ids)
    assert reversed_ids.potentials.tobytes() == ascending.potentials.tobytes()
