"""Every closed form of a channel report, evaluated at 60 significant digits.

The reference takes a channel's normalised float coefficients as exact and
groups them by the float gap mask of ``channels.tie_gaps``
(ascending order, a new group wherever the gap exceeds the tie
tolerance), so it shares the program's tie decisions and measures its
arithmetic error alone.  Everything after the grouping is stdlib
``decimal`` arithmetic at ``DIGITS`` digits: a group's value is the root
mean square of its members, the success probabilities telescope over the
squared group values, and each failure family is normalised by its own
squared norm, the exact probability that every stage before it failed.
The probabilities are normalised by the exact total weight Σ a_m^2,
which the float coefficients miss by a few ulps.
"""

from decimal import Decimal, localcontext

from mcteleport.analytics import USEFUL_MARGIN

DIGITS = 60


def reference_report(ch) -> dict:
    """The ``ChannelReport`` fields of ``ch`` as Decimals (counts as ints,
    ``useful`` as bools, ``F_me_after_fail`` None when d < 2), plus
    ``overall[(k_max, fallback)]`` for every k_max in 1..M and every
    fallback, ``failure_mass[k]``, the exact probability that stages 1..k
    all fail (k = 0..M), ``gap[k]``, the smallest excess v_{k+1}^2 - v_k^2
    of the failure family after stage k (k = 1..d - 1), and
    ``useful_margin``, each stage's surviving count less (Σ_m a_m)^2."""
    floats = sorted(ch.coeffs.tolist())
    cuts = [i + 1 for i, (lo, hi) in enumerate(zip(floats, floats[1:]))
            if hi - lo > ch.tie_tolerance]
    edges = [0, *cuts, len(floats)]
    with localcontext() as ctx:
        ctx.prec = DIGITS
        squares = [Decimal(a) ** 2 for a in floats]
        mults = [b - a for a, b in zip(edges, edges[1:])]
        # w[j] is the squared value of group j + 1; w[0] = 0 precedes stage 1.
        w = [Decimal(0)] + [sum(squares[a:b]) / (b - a) for a, b in zip(edges, edges[1:])]
        d, N, D = len(mults), len(floats), ch.D
        M = d - 1 if mults[-1] == 1 else d
        support = [sum(mults[k:]) for k in range(d)]
        total = sum(squares)
        sum_a = sum(m * w[j + 1].sqrt() for j, m in enumerate(mults))

        def family(k):
            """(Σ e_m, Σ e_m^2) of the unnormalised failure family after
            stage k: e_m = sqrt(a_m^2 - v_k^2) over the surviving groups."""
            tail = list(zip(mults[k:], w[k + 1:]))
            return (sum(m * (v - w[k]).sqrt() for m, v in tail),
                    sum(m * (v - w[k]) for m, v in tail))

        def f_me_of(s, norm):
            return (1 + s * s / norm) / (D + 1)

        mass = [family(k)[1] / total for k in range(M + 1)]
        F_mc = [Decimal(1 + support[k]) / (D + 1) for k in range(M)]
        p_success = [support[k] * (w[k + 1] - w[k]) / total for k in range(M)]
        F_clas = Decimal(2) / (D + 1)

        overall = {}
        for k in range(1, M + 1):
            base = sum(p * F for p, F in zip(p_success[:k], F_mc[:k]))
            overall[k, "discard"] = base / (1 - mass[k])
            overall[k, "guess"] = base + mass[k] * F_clas
            overall[k, "me"] = base + (mass[k] * f_me_of(*family(k)) if k < d else 0)
        F_me = (1 + sum_a * sum_a) / (D + 1)
        margin = [support[k] - sum_a * sum_a for k in range(M)]
        return {
            "D": D, "N": N, "d": d, "M": M,
            "F_me": F_me, "f_me": sum_a * sum_a / D, "F_clas": F_clas,
            "F_mc_s": F_mc, "f_mc_s": [Decimal(support[k]) / D for k in range(M)],
            "p_fail": [mass[k] / mass[k - 1] for k in range(1, M + 1)],
            "p_success": p_success,
            "P_smc": [1 - mass[k] for k in range(1, M + 1)],
            "useful": [m > USEFUL_MARGIN for m in margin],
            "F_me_after_fail": f_me_of(*family(1)) if d >= 2 else None,
            "overall_me": overall[1, "me"] if M else F_me,
            "overall_smc": overall[M, "guess"] if M else F_me,
            "overall": overall,
            "failure_mass": mass,
            "useful_margin": margin,
            "gap": [None] + [w[k + 1] - w[k] for k in range(1, d)],
        }
