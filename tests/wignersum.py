"""Explicit factorial sum for the Wigner small-d elements.

An independent referee for `homleap.walk.wigner_d_column`: the textbook
alternating sum over k, evaluated with log-domain magnitudes.  Its own
cancellation grows with the spin, so it is only trusted at small spins.
"""
import math


def _log_factorial(n: int) -> float:
    return math.lgamma(n + 1)


def wigner_sum(two_s: int, two_m1: int, two_m2: int, beta: float) -> float:
    """d^s_{m1,m2}(beta) with doubled integer indices, summed term by term."""
    c = math.cos(beta / 2.0)
    s = math.sin(beta / 2.0)
    pref = 0.5 * (
        _log_factorial((two_s + two_m1) // 2)
        + _log_factorial((two_s - two_m1) // 2)
        + _log_factorial((two_s + two_m2) // 2)
        + _log_factorial((two_s - two_m2) // 2)
    )
    terms = []
    for k in range(two_s + 1):
        e1 = (two_s + two_m2) // 2 - k          # (s + m2 - k)!
        e2 = (two_m1 - two_m2) // 2 + k         # (m1 - m2 + k)!
        e3 = (two_s - two_m1) // 2 - k          # (s - m1 - k)!
        if e1 < 0 or e2 < 0 or e3 < 0:
            continue
        ec = two_s + (two_m2 - two_m1) // 2 - 2 * k
        es = (two_m1 - two_m2) // 2 + 2 * k
        if (c == 0.0 and ec > 0) or (s == 0.0 and es > 0):
            continue
        sign = -1.0 if e2 % 2 else 1.0
        if c < 0.0 and ec % 2:
            sign = -sign
        if s < 0.0 and es % 2:
            sign = -sign
        log_mag = (
            pref
            - _log_factorial(e1)
            - _log_factorial(k)
            - _log_factorial(e2)
            - _log_factorial(e3)
        )
        if ec:
            log_mag += ec * math.log(abs(c))
        if es:
            log_mag += es * math.log(abs(s))
        terms.append(sign * math.exp(log_mag))
    return math.fsum(terms)
