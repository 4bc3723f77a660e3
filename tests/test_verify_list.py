"""A fixed list of random verifies, all of which a correct program passes.

The rule: ``np.random.default_rng(20261020)`` draws channels until the
list holds at least 1,000 verifies.  Each channel takes D uniform in
2..16, N uniform in 2..D and squared coefficients from Dirichlet(1); on a
quarter of the channels sq[1] = sq[0]·(1 + 1e-11), renormalised, a near
tie that the default tie tolerance groups.  Each channel is verified at
k_max 1, 2 and 3 and every fallback, 1000 trials, skipping a k_max above
its stage count M, with Monte Carlo seeds 0, 1, 2, ... in list order.
That gives 1,002 verifies.  The 4-sigma normal-approximation band that
the empirical Bernstein band replaced failed 7 of them, on small skewed
buckets.
"""

import contextlib
import io

import numpy as np

from mcteleport import channel_report, make_channel
from mcteleport.cli import main


def _verify_list() -> list[tuple[str, ...]]:
    rng = np.random.default_rng(20261020)
    ops = []
    while len(ops) < 1000:
        D = int(rng.integers(2, 17))
        N = int(rng.integers(2, D + 1))
        sq = rng.dirichlet(np.ones(N))
        if rng.random() < 0.25:
            sq[1] = sq[0] * (1 + 1e-11)
            sq /= sq.sum()
        M = channel_report(make_channel(D, np.sqrt(sq))).M
        coeffs = ",".join(repr(x) for x in sq.tolist())
        for k_max in range(1, min(M, 3) + 1):
            for fallback in ("me", "guess", "discard"):
                ops.append(("verify", "--D", str(D), "--coeffs", coeffs, "--squared",
                            "--trials", "1000", "--seed", str(len(ops)),
                            "--k-max", str(k_max), "--fallback", fallback))
    return ops


def test_every_verify_of_the_list_passes():
    ops = _verify_list()
    assert len(ops) == 1002
    failed = []
    for argv in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        if code != 0 or not out.getvalue().endswith("verdict: PASS\n"):
            failed.append(" ".join(argv))
    assert not failed, failed
