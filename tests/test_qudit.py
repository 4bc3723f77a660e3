import cmath
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_circuit as ref
from mcteleport import build_stage_plan, haar_random_state, make_channel, make_state
from mcteleport.qudit import MAX_ARRAY_BYTES, haar_random_states


def test_make_state_basis():
    s = make_state([1, 0])
    np.testing.assert_allclose(s, [1, 0])
    assert np.linalg.norm(s) == pytest.approx(1.0)


def test_make_state_normalizes():
    s = make_state([1, 1, 1])
    np.testing.assert_allclose(s, np.full(3, 1 / np.sqrt(3)))
    # Amplitudes whose squared norm overflows (once the zero vector).
    s = make_state([1e308, 1e308])
    np.testing.assert_allclose(s, np.full(2, 1 / np.sqrt(2)))


def test_make_state_bell_normalization():
    # The Bell-state amplitudes as one D = 4 qudit.
    s = make_state([1, 0, 0, 1])
    np.testing.assert_allclose(s, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_make_state_rejects_bad_input():
    with pytest.raises(ValueError, match="cannot normalize a zero state vector"):
        make_state([0, 0, 0, 0])
    for amplitudes in ([1], []):
        with pytest.raises(ValueError, match="a qudit needs at least 2 amplitudes"):
            make_state(amplitudes)
    # NaN and inf once gave NaN amplitudes; a matrix flattened to D = 4.
    for amplitudes in ([np.inf, 1], [np.nan, 1]):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            make_state(amplitudes)
    with pytest.raises(ValueError, match=re.escape("in 1-D, got shape (2, 2)")):
        make_state([[1, 0], [0, 1]])


@pytest.mark.parametrize("name, call", [
    ("D", lambda v: haar_random_state(v, np.random.default_rng(0))),
    ("D", lambda v: haar_random_states(v, 2, np.random.default_rng(0))),
    ("n", lambda v: haar_random_states(2, v, np.random.default_rng(0))),
], ids=["haar_random_state", "haar_random_states-D", "haar_random_states-n"])
def test_integer_arguments_reject_non_integers_and_accept_numpy_integers(name, call):
    # A float D of the Haar draws once failed with a bare TypeError.
    for value in (2.9, 3.5, 2.0, "2"):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)
    for value in (np.int64(2), np.int32(2), np.uint8(2)):
        got, want = call(value), call(2)
        np.testing.assert_array_equal(got, want)
    # An integer too large to draw: haar_random_state(10**12, rng) once asked
    # NumPy for 7.28 TiB and raised its MemoryError.  At 16 bytes an
    # amplitude, one state of MAX_ARRAY_BYTES // 16 + 1 is over the limit.
    for value in (10**12, MAX_ARRAY_BYTES // 16 + 1):
        with pytest.raises(ValueError, match="MAX_ARRAY_BYTES"):
            call(value)


def _basis(D, n):
    return np.eye(D, dtype=complex)[n]


def _on_sender(v):
    """A register holding ``v`` on the sender half, at b = j = 0."""
    reg = np.zeros((v.size,) * 3, dtype=complex)
    reg[0, :, 0] = v
    return reg


def _shift_matrix(D, p):
    """X^p as a matrix, column by column: X^p = X^-k for k = -p."""
    return np.array([ref.correct(col, -p) for col in np.eye(D)]).T


def test_pauli_z_qubit():
    np.testing.assert_allclose(np.diag(ref.roots(2)[1]), np.diag([1, -1]), atol=1e-15)


def test_pauli_z_zero_power_is_identity():
    np.testing.assert_allclose(np.diag(ref.roots(4)[0]), np.eye(4), atol=1e-15)


def test_pauli_z_direct_exponential():
    # independent route: evaluate the defining exponential entry by entry
    expected = np.diag([cmath.exp(2j * cmath.pi * m * 2 / 3) for m in range(3)])
    np.testing.assert_allclose(np.diag(ref.roots(3)[2]), expected, atol=1e-12)


def test_pauli_x_qubit():
    np.testing.assert_allclose(_shift_matrix(2, 1), [[0, 1], [1, 0]])


def test_pauli_x_full_cycle_is_identity():
    np.testing.assert_allclose(_shift_matrix(3, 3), np.eye(3))


def test_pauli_x_wraparound():
    out = ref.correct(_basis(4, 3), -1)
    np.testing.assert_allclose(out, [1, 0, 0, 0], atol=1e-15)


def test_fourier_qubit_is_hadamard():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    np.testing.assert_allclose(ref.dft(2), h, atol=1e-15)


def test_fourier_first_column_uniform():
    out = ref.dft(4) @ _basis(4, 0)
    np.testing.assert_allclose(out, np.full(4, 0.5), atol=1e-14)


@pytest.mark.parametrize("D", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("p", [0, 1, 2, 5, -1])
def test_gate_constructors_are_unitary(D, p):
    for op in (np.diag(ref.roots(D)[p % D]), _shift_matrix(D, p), ref.dft(D)):
        np.testing.assert_allclose(
            op.conj().T @ op, np.eye(D), atol=1e-12
        )


def test_gxor_qubit_cnot_like():
    reg = np.zeros((2, 2, 2))
    reg[0, 1, 0] = 1  # |1>|0> on the sender half and the input
    out = ref.gxor(reg)
    np.testing.assert_allclose(out[0], [[0, 0], [0, 1]])  # |1>|1>


def test_gxor_subtraction_wraps():
    reg = np.zeros((4, 4, 4))
    reg[0, 1, 3] = 1  # |1>|3>
    expected = np.zeros((4, 4))
    expected[1, 2] = 1  # 1 - 3 mod 4 = 2
    np.testing.assert_allclose(ref.gxor(reg)[0], expected)


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
        reg = haar_random_state(D**3, rng).reshape(D, D, D)
        out = ref.gxor(reg)
        expected = reg.reshape(D, D * D) @ big.T
        overlap = abs(np.vdot(expected, out))
        assert overlap == pytest.approx(1.0, abs=1e-12)
        # the gate is an involution
        again = ref.gxor(out)
        assert abs(np.vdot(reg, again)) == pytest.approx(1.0, abs=1e-12)


def test_apply_local_identity_and_eigenphase():
    rng = np.random.default_rng(0)
    state = haar_random_state(3, rng)
    np.testing.assert_allclose(ref.correct(state, 0), state)

    phased = ref.correct(_basis(5, 2), 0, 1)
    np.testing.assert_allclose(phased[2], np.exp(2j * np.pi * 2 / 5), atol=1e-14)


def test_apply_local_shift_squared():
    np.testing.assert_allclose(ref.correct(_basis(3, 0), -2), [0, 0, 1])


def test_measure_deterministic_outcome():
    rng = np.random.default_rng(1)
    reg = _on_sender(_basis(3, 0))
    outcome, collapsed, p = ref.measure(reg, 1, rng)
    assert outcome == 0
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(collapsed, reg)


def test_measure_uniform_probabilities():
    rng = np.random.default_rng(2)
    reg = _on_sender(np.full(4, 0.5))
    for _ in range(12):
        _, _, p = ref.measure(reg, 1, rng)
        assert p == pytest.approx(0.25)


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(3)
    for D, axis in [(3, 1), (2, 0), (5, 2)]:
        reg = haar_random_state(D**3, rng).reshape(D, D, D)
        probs = (np.abs(np.moveaxis(reg, axis, 0)) ** 2).sum(axis=(1, 2))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        outcome, collapsed, p = ref.measure(reg, axis, rng)
        assert p == pytest.approx(probs[outcome], abs=1e-12)
        assert np.linalg.norm(collapsed) == pytest.approx(1.0, abs=1e-10)


def test_measure_samples_born_distribution():
    rng = np.random.default_rng(4)
    state = haar_random_state(3, rng)
    reg = _on_sender(state)
    born = np.abs(state) ** 2
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        outcome, _, _ = ref.measure(reg, 1, rng)
        counts[outcome] += 1
    for j in range(3):
        sigma = np.sqrt(born[j] * (1 - born[j]) / n)
        assert abs(counts[j] / n - born[j]) < 3 * sigma + 1e-9


def test_kraus_identity_pair_always_succeeds():
    rng = np.random.default_rng(6)
    reg = _on_sender(haar_random_state(3, rng))
    passed, out, p = ref.kraus_filter(reg, np.ones(3), np.zeros(3), rng)
    assert passed
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(out, reg)


def test_kraus_equal_coefficients_never_fail():
    rng = np.random.default_rng(7)
    coeffs = np.full(3, 1 / np.sqrt(3))
    plan = build_stage_plan(make_channel(4, coeffs))
    for nu in ref.family_states(coeffs, 4):
        passed, _, p = ref.kraus_filter(_on_sender(nu), plan.K_s[0], plan.K_f[0], rng)
        assert passed
        assert p == pytest.approx(1.0, abs=1e-12)


def test_kraus_success_branch_maps_to_uniform_family():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    D = 4
    plan = build_stage_plan(make_channel(D, coeffs))
    K_s, K_f, p_fail = plan.K_s[0], plan.K_f[0], plan.p_fail[0]
    uniform = ref.family_states(np.full(3, 1 / np.sqrt(3)), D)
    rng = np.random.default_rng(8)
    for l, nu in enumerate(ref.family_states(coeffs, D)):
        direct = K_s * nu
        direct = direct / np.linalg.norm(direct)
        assert abs(np.vdot(uniform[l], direct)) == pytest.approx(1.0, abs=1e-10)
        passed, collapsed, p = ref.kraus_filter(_on_sender(nu), K_s, K_f, rng)
        if passed:
            assert p == pytest.approx(1 - p_fail, abs=1e-12)
            assert ref.fidelity(collapsed[0, :, 0], uniform[l]) == pytest.approx(1.0, abs=1e-10)
        else:
            assert p == pytest.approx(p_fail, abs=1e-12)


def test_kraus_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(10)
    plan = build_stage_plan(make_channel(5, np.sqrt([0.45, 0.35, 0.2])))
    for _ in range(10):
        psi = haar_random_state(5, rng)
        p_s = np.linalg.norm(np.diag(plan.K_s[0]) @ psi) ** 2
        p_f = np.linalg.norm(np.diag(plan.K_f[0]) @ psi) ** 2
        assert p_s + p_f == pytest.approx(1.0, abs=1e-10)


def test_haar_norm_and_first_moment():
    rng = np.random.default_rng(12)
    D = 3
    n = 100_000
    acc = 0.0
    for _ in range(n):
        psi = haar_random_state(D, rng)
        acc += abs(psi[0]) ** 2
    assert np.linalg.norm(haar_random_state(D, rng)) == pytest.approx(1.0, abs=1e-12)
    # |c_0|^2 is Beta(1, D-1): mean 1/D, var (D-1)/(D^2 (D+1))
    sigma = np.sqrt((D - 1) / (D**2 * (D + 1)) / n)
    assert abs(acc / n - 1 / D) < 3 * sigma


def test_batched_haar_draw_matches_scalar_stream():
    # One row consumes the generator exactly like the scalar draw, and a
    # block of rows is the scalar draws' real parts, then imaginary parts.
    D = 5
    a, b = np.random.default_rng(7), np.random.default_rng(7)
    row = haar_random_states(D, 1, a)[0]
    np.testing.assert_array_equal(row, haar_random_state(D, b))
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
        assert ref.fidelity(psi, psi) == pytest.approx(1.0)


def test_fidelity_examples():
    a, b = np.eye(4)[0], np.eye(4)[1]
    assert ref.fidelity(a, b) == 0.0
    uniform = make_state(np.ones(4))
    assert ref.fidelity(a, uniform) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        ref.fidelity(a, np.array([1, 0]))


@settings(max_examples=50)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0, max_value=2 * np.pi),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fidelity_symmetric_and_phase_invariant(D, phase, seed):
    rng = np.random.default_rng(seed)
    a = haar_random_state(D, rng)
    b = haar_random_state(D, rng)
    assert ref.fidelity(a, b) == pytest.approx(ref.fidelity(b, a), abs=1e-12)
    rotated = a * np.exp(1j * phase)
    assert ref.fidelity(rotated, b) == pytest.approx(ref.fidelity(a, b), abs=1e-12)
