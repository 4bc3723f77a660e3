"""Single-qudit input states, the shared array guards and the worker map.

A state is the complex amplitude vector of one D-level system, the
protocol's input.  All values are treated as immutable after
construction; anything stochastic takes an explicit
``numpy.random.Generator`` so runs are reproducible and safe to
parallelize (one generator per worker).

The package holds no gate-level register library: the engine works on
the register's Schmidt weights and D x D tables, and the tests check it
against the paper's circuit on a full (D, D, D) register of their own
(``tests/reference_circuit.py``).
"""

from __future__ import annotations

import operator
import os

import numpy as np

# Largest array, in bytes, a command may allocate.  A run holds only (D, D)
# arrays and the oracle length-D ones; the runner's guard counts eight
# complex (D, D) arrays, which fit up to D = 1024.
MAX_ARRAY_BYTES = 2**27


def make_state(amplitudes) -> np.ndarray:
    """Normalized complex amplitude array of one qudit from a 1-D sequence
    of raw amplitudes; its length is the dimension D.

    Raises ValueError if the input is not 1-D, has fewer than two
    amplitudes, holds a NaN or an infinity, or is (numerically) zero.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size < 2:
        raise ValueError(f"a qudit needs at least 2 amplitudes in 1-D, got shape {amps.shape}")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    # Divided by the largest real or imaginary part first, so nothing overflows.
    scale = float(max(np.abs(amps.real).max(), np.abs(amps.imag).max()))
    unit = amps / (scale or 1.0)
    norm = float(np.linalg.norm(unit))
    if scale * norm < 1e-12:
        raise ValueError("cannot normalize a zero state vector")
    return unit / norm


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


def map_slices(fn, seq, workers: int, unit: int = 1) -> list:
    """``fn`` of each of at most min(``workers``, ``os.cpu_count()``,
    ceil(len(seq) / ``unit``)) contiguous, near-equal slices of ``seq``, in
    slice order, one worker process a slice.  With one slice, ``fn(seq)``
    runs in this process and no pool is started."""
    count = min(workers, -(-len(seq) // unit))
    if count > 1:  # CPUs are counted only when a pool is possible
        count = min(count, os.cpu_count() or 1)
    if count <= 1:
        return [fn(seq)]
    # Imported here, so a command that starts no pool never loads
    # multiprocessing (about 17 ms of start-up).
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(0, len(seq), count + 1).astype(int).tolist()
    with ProcessPoolExecutor(max_workers=count) as pool:
        return list(pool.map(fn, [seq[a:b] for a, b in zip(bounds[:-1], bounds[1:])]))


def _phase_table(D: int) -> np.ndarray:
    """The D-th roots of unity, exp(2*pi*i*k/D) for k = 0..D-1."""
    return np.exp(2j * np.pi * np.arange(D) / D)


def haar_random_states(D: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` single-qudit pure states drawn uniformly (Haar), one per row.

    The real parts of all rows are drawn first, then the imaginary parts,
    so ``n = 1`` consumes the generator exactly like one scalar draw.
    """
    D, n = check_index("D", D), check_index("n", n)
    if D < 1:
        raise ValueError(f"dimension must be >= 1, got {D}")
    check_allocation(f"a Haar draw of {n:,} state(s) at D={D:,}", 16 * n * D)
    z = rng.standard_normal((n, D)) + 1j * rng.standard_normal((n, D))
    norms = np.linalg.norm(z, axis=1)
    bad = np.flatnonzero(norms < 1e-12)
    while bad.size:  # probability zero, but keep the contract total
        z[bad] = rng.standard_normal((bad.size, D)) + 1j * rng.standard_normal((bad.size, D))
        norms[bad] = np.linalg.norm(z[bad], axis=1)
        bad = bad[norms[bad] < 1e-12]
    return z / norms[:, None]


def haar_random_state(D: int, rng: np.random.Generator) -> np.ndarray:
    """Amplitudes of a single-qudit pure state drawn uniformly (Haar) in
    dimension D."""
    D = check_index("D", D)
    return haar_random_states(D, 1, rng)[0]
