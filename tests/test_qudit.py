import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcteleport import (
    DenseOperator,
    apply_gxor,
    apply_local,
    apply_two_outcome_kraus,
    fidelity,
    fourier,
    haar_random_state,
    make_state,
    mc_stage,
    measure_computational,
    pauli_x_power,
    pauli_z_power,
    symmetric_family,
)
from mcteleport.qudit import haar_random_states


def test_make_state_basis():
    s = make_state([2], [1, 0])
    np.testing.assert_allclose(s.amplitudes, [1, 0])
    assert s.norm() == pytest.approx(1.0)


def test_make_state_normalizes():
    s = make_state([3], [1, 1, 1])
    np.testing.assert_allclose(s.amplitudes, np.full(3, 1 / np.sqrt(3)))


def test_make_state_bell_normalization():
    s = make_state([2, 2], [1, 0, 0, 1])
    np.testing.assert_allclose(s.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_make_state_rejects_bad_input():
    with pytest.raises(ValueError):
        make_state([2], [1, 0, 0])
    with pytest.raises(ValueError):
        make_state([2, 2], [0, 0, 0, 0])
    with pytest.raises(ValueError):
        make_state([1], [1])


def test_pauli_z_qubit():
    np.testing.assert_allclose(pauli_z_power(2, 1).entries, np.diag([1, -1]), atol=1e-15)


def test_pauli_z_zero_power_is_identity():
    np.testing.assert_allclose(pauli_z_power(4, 0).entries, np.eye(4), atol=1e-15)


def test_pauli_z_direct_exponential():
    # independent route: evaluate the defining exponential entry by entry
    expected = np.diag([cmath.exp(2j * cmath.pi * m * 2 / 3) for m in range(3)])
    np.testing.assert_allclose(pauli_z_power(3, 2).entries, expected, atol=1e-12)


def test_pauli_x_qubit():
    np.testing.assert_allclose(pauli_x_power(2, 1).entries, [[0, 1], [1, 0]])


def test_pauli_x_full_cycle_is_identity():
    np.testing.assert_allclose(pauli_x_power(3, 3).entries, np.eye(3))


def test_pauli_x_wraparound():
    state = make_state([4], [0, 0, 0, 1])
    out = apply_local(state, pauli_x_power(4, 1), 0)
    np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_fourier_qubit_is_hadamard():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(fourier(2).entries, h, atol=1e-15)


def test_fourier_first_column_uniform():
    out = apply_local(make_state([4], [1, 0, 0, 0]), fourier(4), 0)
    np.testing.assert_allclose(out.amplitudes, np.full(4, 0.5), atol=1e-14)


@pytest.mark.parametrize("D", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("p", [0, 1, 2, 5, -1])
def test_gate_constructors_are_unitary(D, p):
    for op in (pauli_z_power(D, p), pauli_x_power(D, p), fourier(D)):
        np.testing.assert_allclose(
            op.entries.conj().T @ op.entries, np.eye(D), atol=1e-12
        )


def test_gxor_qubit_cnot_like():
    state = make_state([2, 2], [0, 0, 1, 0])  # |1>|0>
    out = apply_gxor(state, 0, 1)
    np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1])  # |1>|1>


def test_gxor_subtraction_wraps():
    state = make_state([4, 4], np.eye(16)[1 * 4 + 3])  # |1>|3>
    out = apply_gxor(state, 0, 1)
    expected = np.zeros(16)
    expected[1 * 4 + 2] = 1  # 1 - 3 mod 4 = 2
    np.testing.assert_allclose(out.amplitudes, expected)


def _gxor_big_matrix(D):
    big = np.zeros((D * D, D * D))
    for i in range(D):
        for j in range(D):
            big[i * D + ((i - j) % D), i * D + j] = 1.0
    return big


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_gxor_matches_explicit_matrix(D):
    rng = np.random.default_rng(11 + D)
    big = _gxor_big_matrix(D)
    for _ in range(5):
        psi = haar_random_state(D * D, rng)
        state = make_state([D, D], psi.amplitudes)
        out = apply_gxor(state, 0, 1)
        expected = big @ state.amplitudes
        overlap = abs(np.vdot(expected, out.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        # the gate is an involution
        again = apply_gxor(out, 0, 1)
        assert abs(np.vdot(state.amplitudes, again.amplitudes)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_gxor_rejects_mismatched_dims():
    state = make_state([2, 3], np.eye(6)[0])
    with pytest.raises(ValueError):
        apply_gxor(state, 0, 1)


def test_apply_local_identity_and_eigenphase():
    rng = np.random.default_rng(0)
    state = haar_random_state(3, rng)
    out = apply_local(state, pauli_x_power(3, 0), 0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    basis = make_state([5], np.eye(5)[2])
    phased = apply_local(basis, pauli_z_power(5, 1), 0)
    np.testing.assert_allclose(
        phased.amplitudes[2], np.exp(2j * np.pi * 2 / 5), atol=1e-14
    )


def test_apply_local_shift_squared():
    out = apply_local(make_state([3], [1, 0, 0]), pauli_x_power(3, 2), 0)
    np.testing.assert_allclose(out.amplitudes, [0, 0, 1])


def test_measure_deterministic_outcome():
    rng = np.random.default_rng(1)
    outcome, collapsed, p = measure_computational(make_state([3], [1, 0, 0]), 0, rng)
    assert outcome == 0
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(collapsed.amplitudes, [1, 0, 0])


def test_measure_uniform_probabilities():
    rng = np.random.default_rng(2)
    state = make_state([4], [1, 1, 1, 1])
    for _ in range(12):
        _, _, p = measure_computational(state, 0, rng)
        assert p == pytest.approx(0.25)


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    for dims, sub in [((3, 4), 1), ((2, 3, 2), 0), ((5,), 0)]:
        state = haar_random_state(int(np.prod(dims)), rng)
        state = make_state(dims, state.amplitudes)
        probs = (np.abs(state.tensor()) ** 2).sum(
            axis=tuple(i for i in range(len(dims)) if i != sub)
        )
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        outcome, collapsed, p = measure_computational(state, sub, rng)
        assert p == pytest.approx(probs[outcome], abs=1e-12)
        assert collapsed.norm() == pytest.approx(1.0, abs=1e-10)


def test_measure_samples_born_distribution():
    rng = np.random.default_rng(4)
    state = haar_random_state(3, rng)
    born = np.abs(state.amplitudes) ** 2
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        outcome, _, _ = measure_computational(state, 0, rng)
        counts[outcome] += 1
    for j in range(3):
        sigma = np.sqrt(born[j] * (1 - born[j]) / n)
        assert abs(counts[j] / n - born[j]) < 3 * sigma + 1e-9


def test_measure_rejects_zero_state():
    from mcteleport import QuditState

    rng = np.random.default_rng(5)
    broken = QuditState((2,), np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        measure_computational(broken, 0, rng)


def test_kraus_identity_pair_always_succeeds():
    rng = np.random.default_rng(6)
    state = haar_random_state(3, rng)
    K_s = DenseOperator(3, np.eye(3, dtype=complex))
    K_f = DenseOperator(3, np.zeros((3, 3), dtype=complex))
    branch, out, p = apply_two_outcome_kraus(state, 0, K_s, K_f, rng)
    assert branch == "success"
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)


def test_kraus_equal_coefficients_never_fail():
    rng = np.random.default_rng(7)
    coeffs = np.full(3, 1 / np.sqrt(3))
    stage = mc_stage(coeffs, 4)
    K_s = DenseOperator(4, np.diag(stage.K_s))
    K_f = DenseOperator(4, np.diag(stage.K_f))
    for nu in symmetric_family(coeffs, 4):
        branch, _, p = apply_two_outcome_kraus(nu, 0, K_s, K_f, rng)
        assert branch == "success"
        assert p == pytest.approx(1.0, abs=1e-12)


def test_kraus_success_branch_maps_to_uniform_family():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    D = 4
    stage = mc_stage(coeffs, D)
    uniform = symmetric_family(stage.success_coeffs, D)
    rng = np.random.default_rng(8)
    for l, nu in enumerate(symmetric_family(coeffs, D)):
        direct = np.diag(stage.K_s) @ nu.amplitudes
        direct = direct / np.linalg.norm(direct)
        assert abs(np.vdot(uniform[l].amplitudes, direct)) == pytest.approx(
            1.0, abs=1e-10
        )
        branch, collapsed, p = apply_two_outcome_kraus(
            nu, 0, DenseOperator(D, np.diag(stage.K_s)),
            DenseOperator(D, np.diag(stage.K_f)), rng
        )
        target = uniform[l] if branch == "success" else None
        if branch == "success":
            assert p == pytest.approx(1 - stage.p_fail, abs=1e-12)
            assert fidelity(collapsed, target) == pytest.approx(1.0, abs=1e-10)
        else:
            assert p == pytest.approx(stage.p_fail, abs=1e-12)


def test_kraus_rejects_incomplete_pair():
    rng = np.random.default_rng(9)
    state = haar_random_state(2, rng)
    K = DenseOperator(2, 0.5 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        apply_two_outcome_kraus(state, 0, K, K, rng)


def test_kraus_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(10)
    coeffs = np.sqrt([0.45, 0.35, 0.2])
    stage = mc_stage(coeffs, 5)
    for _ in range(10):
        psi = haar_random_state(5, rng)
        p_s = np.linalg.norm(np.diag(stage.K_s) @ psi.amplitudes) ** 2
        p_f = np.linalg.norm(np.diag(stage.K_f) @ psi.amplitudes) ** 2
        assert p_s + p_f == pytest.approx(1.0, abs=1e-10)


def test_haar_norm_and_first_moment():
    rng = np.random.default_rng(12)
    D = 3
    n = 100_000
    acc = 0.0
    for _ in range(n):
        psi = haar_random_state(D, rng)
        acc += abs(psi.amplitudes[0]) ** 2
    assert haar_random_state(D, rng).norm() == pytest.approx(1.0, abs=1e-12)
    # |c_0|^2 is Beta(1, D-1): mean 1/D, var (D-1)/(D^2 (D+1))
    sigma = np.sqrt((D - 1) / (D**2 * (D + 1)) / n)
    assert abs(acc / n - 1 / D) < 3 * sigma


def test_batched_haar_draw_matches_scalar_stream():
    # One row consumes the generator exactly like the scalar draw, and a
    # block of rows is the scalar draws' real parts, then imaginary parts.
    D = 5
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    row = haar_random_states(D, 1, a)[0]
    np.testing.assert_array_equal(row, haar_random_state(D, b).amplitudes)
    assert a.random() == b.random()
    block = haar_random_states(D, 300, a)
    np.testing.assert_allclose(np.linalg.norm(block, axis=1), 1.0, atol=1e-12)
    z = b.standard_normal((300, D)) + 1j * b.standard_normal((300, D))
    np.testing.assert_allclose(block, z / np.linalg.norm(z, axis=1)[:, None], atol=1e-15)


def test_batched_haar_draw_redraws_zero_rows():
    class ZerosFirst:
        """Gives a zero row among the first draws, normals afterwards."""

        def __init__(self):
            self.calls = 0
            self.rng = np.random.default_rng(0)

        def standard_normal(self, size):
            self.calls += 1
            out = self.rng.standard_normal(size)
            if self.calls <= 2:
                out[1] = 0.0
            return out

    states = haar_random_states(3, 4, ZerosFirst())
    assert np.all(np.isfinite(states))
    np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)


def test_identity_channel_fidelity_is_one():
    rng = np.random.default_rng(13)
    for _ in range(20):
        psi = haar_random_state(4, rng)
        assert fidelity(psi, psi) == pytest.approx(1.0)


def test_fidelity_examples():
    a = make_state([4], np.eye(4)[0])
    b = make_state([4], np.eye(4)[1])
    assert fidelity(a, b) == 0.0
    uniform = make_state([4], np.ones(4))
    assert fidelity(a, uniform) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        fidelity(a, make_state([2], [1, 0]))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0, max_value=2 * np.pi),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fidelity_symmetric_and_phase_invariant(D, phase, seed):
    rng = np.random.default_rng(seed)
    a = haar_random_state(D, rng)
    b = haar_random_state(D, rng)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)
    from mcteleport import QuditState

    rotated = QuditState(a.dims, a.amplitudes * np.exp(1j * phase))
    assert fidelity(rotated, b) == pytest.approx(fidelity(a, b), abs=1e-12)
