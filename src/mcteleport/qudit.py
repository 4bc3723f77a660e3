"""Dense state vectors and gates for small registers of qudits.

A register state is a complex amplitude vector over one or more d-level
subsystems, flattened row-major with subsystem 0 most significant.  All
values are treated as immutable after construction; anything stochastic
takes an explicit ``numpy.random.Generator`` so runs are reproducible and
safe to parallelize (one generator per worker).

The register operations (``apply_local``, ``measure_computational``,
``apply_two_outcome_kraus``) are the reference implementation that the
engine's tests rebuild each run from; they stay public here, since moving
them under ``tests/`` would not remove any code.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import prod
from typing import Literal

import numpy as np

# Tolerance of the completeness check K_s^+ K_s + K_f^+ K_f = I of a Kraus pair.
KRAUS_ATOL = 1e-10

# Largest array, in bytes, a run may allocate: a complex (D, D, D) array
# fits up to D = 203, and a run holds a few such arrays at once.
MAX_ARRAY_BYTES = 2**27

Branch = Literal["success", "failure"]


@dataclass(frozen=True)
class QuditState:
    """Amplitude vector over subsystems of dimensions ``dims``.

    Public constructors return normalized states; the amplitude array is
    never mutated in place.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (a view)."""
        return self.amplitudes.reshape(self.dims)


@dataclass(frozen=True)
class DenseOperator:
    """Dense square operator acting on a single d-dimensional subsystem."""

    dim: int
    entries: np.ndarray

    def dagger(self) -> "DenseOperator":
        return DenseOperator(self.dim, self.entries.conj().T)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if self.dim != other.dim:
            raise ValueError(f"operator dimensions differ: {self.dim} vs {other.dim}")
        return DenseOperator(self.dim, self.entries @ other.entries)


def make_state(dims, amplitudes) -> QuditState:
    """Build a normalized register state from raw amplitudes.

    Raises ValueError if a dimension is not an integer, the amplitude count
    does not match the register size or the vector is (numerically) zero.
    """
    dims = tuple(check_index("subsystem dimension", d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    expected = prod(dims)
    if amps.size != expected:
        raise ValueError(f"expected {expected} amplitudes for dims {dims}, got {amps.size}")
    norm = np.linalg.norm(amps)
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero state vector")
    return QuditState(dims, amps / norm)


def check_allocation(what: str, nbytes: int) -> None:
    """ValueError naming the size, in MiB rounded up, if ``what`` needs over
    MAX_ARRAY_BYTES (so a size just over the limit never reads as equal to it)."""
    if nbytes > MAX_ARRAY_BYTES:
        raise ValueError(
            f"{what} would need {-(-nbytes // 2**20):,} MiB, more than the "
            f"{MAX_ARRAY_BYTES // 2**20} MiB limit (qudit.MAX_ARRAY_BYTES)"
        )


def check_index(name: str, value) -> int:
    """``value`` as an int (NumPy integers too); ValueError naming ``name`` if not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _phase_table(D: int) -> np.ndarray:
    """The D-th roots of unity, exp(2*pi*i*k/D) for k = 0..D-1."""
    return np.exp(2j * np.pi * np.arange(D) / D)


def pauli_z_power(D: int, p: int) -> DenseOperator:
    """Phase gate Z^p: |m> -> exp(2*pi*i*m*p/D)|m>.  p is reduced mod D."""
    D, p = check_index("D", D), check_index("p", p)
    if D < 2:
        raise ValueError(f"dimension must be >= 2, got {D}")
    roots = _phase_table(D)
    phases = roots[(np.arange(D) * (p % D)) % D]
    return DenseOperator(D, np.diag(phases))


def pauli_x_power(D: int, p: int) -> DenseOperator:
    """Cyclic shift X^p: |m> -> |m + p mod D>.  p is reduced mod D."""
    D, p = check_index("D", D), check_index("p", p)
    if D < 2:
        raise ValueError(f"dimension must be >= 2, got {D}")
    entries = np.zeros((D, D), dtype=complex)
    m = np.arange(D)
    entries[(m + p) % D, m] = 1.0
    return DenseOperator(D, entries)


def fourier(D: int) -> DenseOperator:
    """Discrete Fourier transform, entries exp(2*pi*i*m*n/D)/sqrt(D)."""
    D = check_index("D", D)
    if D < 2:
        raise ValueError(f"dimension must be >= 2, got {D}")
    roots = _phase_table(D)
    m, n = np.meshgrid(np.arange(D), np.arange(D), indexing="ij")
    entries = roots[(m * n) % D] / np.sqrt(D)
    return DenseOperator(D, entries)


def _apply_matrix(state: QuditState, entries: np.ndarray, subsystem: int) -> np.ndarray:
    """Matrix acting on one subsystem; returns the raw amplitude vector."""
    t = state.tensor()
    out = np.tensordot(entries, t, axes=([1], [subsystem]))
    out = np.moveaxis(out, 0, subsystem)
    return np.ascontiguousarray(out).ravel()


def apply_local(state: QuditState, op: DenseOperator, subsystem: int) -> QuditState:
    """Apply ``op`` to one subsystem: (I x ... x op x ... x I) |state>."""
    if not 0 <= subsystem < len(state.dims):
        raise ValueError(f"subsystem {subsystem} out of range for dims {state.dims}")
    if op.dim != state.dims[subsystem]:
        raise ValueError(
            f"operator dim {op.dim} does not match subsystem dim {state.dims[subsystem]}"
        )
    return QuditState(state.dims, _apply_matrix(state, op.entries, subsystem))


def _gxor_permutation(dims: tuple[int, ...], control: int, target: int) -> np.ndarray:
    """Flat index permutation with new[idx] = old[perm[idx]]."""
    coords = list(np.indices(dims, sparse=True))
    coords[target] = (coords[control] - coords[target]) % dims[target]
    return np.ravel_multi_index(coords, dims).ravel()


def apply_gxor(state: QuditState, control: int, target: int) -> QuditState:
    """Generalized controlled-NOT: |i>_c |j>_t -> |i>_c |i - j mod D>_t.

    Both subsystems must share the same dimension.  The map is an
    involution on the computational basis.
    """
    if control == target:
        raise ValueError("control and target must differ")
    n = len(state.dims)
    if not (0 <= control < n and 0 <= target < n):
        raise ValueError(f"subsystem index out of range for dims {state.dims}")
    if state.dims[control] != state.dims[target]:
        raise ValueError(
            f"control dim {state.dims[control]} != target dim {state.dims[target]}"
        )
    perm = _gxor_permutation(state.dims, control, target)
    return QuditState(state.dims, state.amplitudes[perm])


def measure_computational(
    state: QuditState, subsystem: int, rng: np.random.Generator
) -> tuple[int, QuditState, float]:
    """Projective measurement of one subsystem in the computational basis.

    Returns (outcome, collapsed state, Born probability of that outcome).
    The collapsed register keeps its dimensions, with the measured
    subsystem left in the outcome basis state.
    """
    if not 0 <= subsystem < len(state.dims):
        raise ValueError(f"subsystem {subsystem} out of range for dims {state.dims}")
    t = state.tensor()
    weights = np.abs(t) ** 2
    axes = tuple(i for i in range(len(state.dims)) if i != subsystem)
    probs = weights.sum(axis=axes)
    total = probs.sum()
    if total < 1e-12:
        raise ValueError("degenerate state: norm is ~0, cannot measure")
    cum = np.cumsum(probs)
    outcome = int(np.searchsorted(cum, rng.random() * total, side="right"))
    outcome = min(outcome, len(probs) - 1)
    p = float(probs[outcome])
    sel = [slice(None)] * len(state.dims)
    sel[subsystem] = outcome
    collapsed = np.zeros_like(t)
    collapsed[tuple(sel)] = t[tuple(sel)] / np.sqrt(p)
    return outcome, QuditState(state.dims, collapsed.ravel()), p


def apply_two_outcome_kraus(
    state: QuditState,
    subsystem: int,
    K_s: DenseOperator,
    K_f: DenseOperator,
    rng: np.random.Generator,
) -> tuple[Branch, QuditState, float]:
    """Sample one branch of a two-outcome Kraus pair on a subsystem.

    The pair must satisfy K_s^+ K_s + K_f^+ K_f = I (pad the failure
    operator with 1s on inert indices so completeness holds on the whole
    space).  The branch is drawn with probability ||K psi||^2 and the
    collapsed state is K psi renormalized.  This is equivalent to coupling
    a fresh two-level ancilla, entangling it with the subsystem, and
    measuring the ancilla, without ever materializing it.
    """
    if K_s.dim != state.dims[subsystem] or K_f.dim != state.dims[subsystem]:
        raise ValueError("Kraus operator dimension does not match subsystem")
    gram = K_s.entries.conj().T @ K_s.entries + K_f.entries.conj().T @ K_f.entries
    if not np.allclose(gram, np.eye(K_s.dim), atol=KRAUS_ATOL):
        dev = np.max(np.abs(gram - np.eye(K_s.dim)))
        raise ValueError(f"Kraus pair is not complete: max deviation {dev:.3e}")
    psi_s = _apply_matrix(state, K_s.entries, subsystem)
    p_s = float(np.vdot(psi_s, psi_s).real)
    if rng.random() < p_s:
        return "success", QuditState(state.dims, psi_s / np.sqrt(p_s)), p_s
    psi_f = _apply_matrix(state, K_f.entries, subsystem)
    p_f = float(np.vdot(psi_f, psi_f).real)
    return "failure", QuditState(state.dims, psi_f / np.sqrt(p_f)), p_f


def haar_random_states(D: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` single-qudit pure states drawn uniformly (Haar), one per row.

    The real parts of all rows are drawn first, then the imaginary parts,
    so ``n = 1`` consumes the generator exactly like one scalar draw.
    """
    D, n = check_index("D", D), check_index("n", n)
    if D < 1:
        raise ValueError(f"dimension must be >= 1, got {D}")
    z = rng.standard_normal((n, D)) + 1j * rng.standard_normal((n, D))
    norms = np.linalg.norm(z, axis=1)
    bad = np.flatnonzero(norms < 1e-12)
    while bad.size:  # probability zero, but keep the contract total
        z[bad] = rng.standard_normal((bad.size, D)) + 1j * rng.standard_normal((bad.size, D))
        norms[bad] = np.linalg.norm(z[bad], axis=1)
        bad = bad[norms[bad] < 1e-12]
    return z / norms[:, None]


def haar_random_state(D: int, rng: np.random.Generator) -> QuditState:
    """Single-qudit pure state drawn uniformly (Haar) in dimension D."""
    D = check_index("D", D)
    return QuditState((D,), haar_random_states(D, 1, rng)[0])


def fidelity(a: QuditState, b: QuditState) -> float:
    """Pure-state fidelity |<a|b>|^2."""
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
