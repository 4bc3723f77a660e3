"""Every filtering stage reaches the maximum-confidence optimum.

Croke, Andersson, Barnett, Gilson & Jeffers, PRL 96, 070401 (2006): for D
equally likely states psi_l with rho = (1/D) sum_l |psi_l><psi_l|, no
measurement names psi_0 with a confidence above
(1/D) lambda_max(rho^{-1/2} |psi_0><psi_0| rho^{-1/2}).  The elements
Pi_l = c rho^{-1} |psi_l><psi_l| rho^{-1} reach it, and the largest
admissible c = 1/lambda_max(sum_l rho^{-1} |psi_l><psi_l| rho^{-1}) gives
the largest conclusive probability Tr(rho sum_l Pi_l).

The test builds each stage's family from the raw coefficients by its own
recursion and rho from the states alone, with no grouping and no plan.  It
then holds the closed-form confidence, the plan's failure probability and
the plan's own filter to that optimum, and the ``plan`` command's
"useful" column to the paper's criterion (N_k + 1)/(D + 1) > F_me.
"""

import numpy as np
import pytest

import reference_circuit as ref
from conftest import random_multiplicity_pattern
from mcteleport import build_stage_plan, channel_report, make_channel
from mcteleport.cli import main

ATOL = 1e-12


def stage_families(amps) -> list[np.ndarray]:
    """The family entering each stage, normalised and non-increasing.

    Stage 1 sees the coefficients e = a; stage k + 1 sees the survivors
    sqrt(e_m^2 - e_min^2) of stage k.  A uniform family is the last; a
    single survivor admits no stage and is dropped."""
    e = np.sort(np.asarray(amps, dtype=float))[::-1]
    e = e / np.linalg.norm(e)
    families = [e]
    while e.min() < e.max():
        e = np.sqrt(e[e > e.min()] ** 2 - e.min() ** 2)
        e = e / np.linalg.norm(e)
        families.append(e)
    return [f for f in families if f.size >= 2]


def croke_optimum(e: np.ndarray, D: int) -> tuple[float, float]:
    """(best confidence, largest conclusive probability at that confidence)
    for the family ``ref.family_states(e, D)``."""
    psi = ref.family_states(e, D)
    rho = psi.T @ psi.conj() / D
    w, v = np.linalg.eigh(rho)
    keep = w > ATOL * w.max()
    v, w = v[:, keep], w[keep]
    rho_inv = (v / w) @ v.conj().T
    rho_inv_half = (v / np.sqrt(w)) @ v.conj().T
    a = rho_inv_half @ psi[0]
    confidence = np.linalg.eigvalsh(np.outer(a, a.conj())).max() / D
    b = psi @ rho_inv.T  # row l is rho^{-1} psi_l
    total = b.T @ b.conj()  # sum_l rho^{-1} |psi_l><psi_l| rho^{-1}
    c = 1.0 / np.linalg.eigvalsh(total).max()
    return float(confidence), float(np.trace(rho @ (c * total)).real)


def check_stage(p_fail: float, K_s: np.ndarray, confidence: float, e: np.ndarray,
                D: int, atol: float = ATOL) -> None:
    """A stage's closed-form confidence, its failure probability ``p_fail``
    and its Kraus filter diagonal ``K_s`` followed by the minimum-error
    readout all reach the optimum for the family ``e``, within ``atol``."""
    best, p_conclusive = croke_optimum(e, D)
    assert confidence == pytest.approx(best, abs=atol)
    assert 1.0 - p_fail == pytest.approx(p_conclusive, abs=atol)

    filtered = ref.family_states(e, D) * K_s
    assert np.sum(np.abs(filtered) ** 2, axis=1) == pytest.approx(p_conclusive, abs=atol)
    filtered /= np.linalg.norm(filtered, axis=1, keepdims=True)
    f0 = np.full(D, D**-0.5)  # readout outcome 0 of the inverse Fourier transform
    p_outcome0 = np.abs(filtered @ f0) ** 2  # given each psi_l
    assert p_outcome0[0] / p_outcome0.sum() == pytest.approx(best, abs=atol)


def random_tied_amplitudes(rng):
    """D in 2..12 and N <= D normalised amplitudes in at least two groups
    of exactly equal values."""
    D = int(rng.integers(2, 13))
    mults = (1,)
    while len(mults) < 2:
        mults = random_multiplicity_pattern(rng, max_n=D)
    values = rng.permutation(np.arange(1, len(mults) + 1) + rng.uniform(0, 0.5, len(mults)))
    amps = np.repeat(values, mults)
    return D, amps / np.linalg.norm(amps)


def test_every_stage_reaches_the_maximum_confidence_optimum(capsys):
    rng, jitter = np.random.default_rng(2006), np.random.default_rng(16)
    for _ in range(300):
        D, amps = random_tied_amplitudes(rng)
        families = stage_families(amps)
        # Every amplitude also moved by up to 3e-12 relative, within the tie
        # tolerance: the plan must treat the near ties as the exact ones.
        near = amps * (1.0 + jitter.integers(-3, 4, size=amps.size) * 1e-12)
        for given, atol in ((amps, ATOL), (near / np.linalg.norm(near), 1e-9)):
            ch = make_channel(D, given)
            plan = build_stage_plan(ch)
            report = channel_report(ch)
            assert plan.M == len(families)
            for k, e in enumerate(families):
                check_stage(plan.p_fail[k], plan.K_s[k], report.f_mc_s[k], e, D, atol)

        # Stage k is useful exactly where (N_k + 1)/(D + 1) beats F_me.
        f_me = (1.0 + np.sum(amps) ** 2) / (D + 1)
        expected = ["yes" if (e.size + 1) / (D + 1) > f_me else "no" for e in families]
        assert main(["plan", "--D", str(D), "--coeffs", ",".join(map(repr, amps.tolist()))]) == 0
        rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
                if ln.split()[0].isdigit()]
        assert [row[4] for row in rows] == expected


def test_a_weakened_filter_misses_the_optimum():
    amps = np.sqrt([0.5, 0.3, 0.2])
    ch = make_channel(4, amps)
    plan = build_stage_plan(ch)
    e = stage_families(amps)[0]
    f_mc = channel_report(ch).f_mc_s[0]
    check_stage(plan.p_fail[0], plan.K_s[0], f_mc, e, 4)
    for p_fail, K_s in ((plan.p_fail[0], 0.99 * plan.K_s[0]), (1.1 * plan.p_fail[0], plan.K_s[0])):
        with pytest.raises(AssertionError):
            check_stage(p_fail, K_s, f_mc, e, 4)
