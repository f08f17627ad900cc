"""Exact repeated float addition on the binade lattice.

Simulated clocks advance by adding one constant over and over: a port's
busy time by a frame's wire time, a core's idle grid by its idle-loop
delay.  Inside the binade ``[lo, hi)`` of a positive normal float ``t``
every float is an integer multiple of ``u = ulp(t)``, and ``t + d``
rounds to ``t + M*u`` with ``M = round(d / u)`` while the sum stays below
``hi``, unless ``d / u`` is an odd multiple of one half: ties-to-even then
makes each step depend on the parity of ``t / u``.  So ``n`` additions of
``d`` equal ``t + n*(M*u)`` exactly while that stays below ``hi``, and the
polls of a grid below a bound can be counted by division on those
integer positions.

A :class:`Lattice` caches ``(d, lo, hi, step)`` (and :func:`grid`'s
``(u, M)``) for one call site.  The site tests
``d == lat.d and lat.lo <= t`` and its sum or bound against ``lat.hi``
inline, so the common case makes no Python call; otherwise it calls
:meth:`Lattice.add` or :meth:`Lattice.polls`, which refit the cache and
run the literal loop where the kernel declines: on a tie, on a zero or
subnormal ``t``, and at the binade top.
"""

from __future__ import annotations

from math import inf, ulp

#: A binade holds the positions ``[2**52, 2**53)`` in units of its ulp.
_BOTTOM = 4503599627370496.0
_TOP = 9007199254740992.0
_MIN_NORMAL = 2.2250738585072014e-308


def grid(t: float, d: float) -> tuple[float, int] | None:
    """``(u, M)`` for adding ``d`` inside ``t``'s binade, or None.

    ``u = ulp(t)`` and ``t + d`` rounds to ``t + M*u`` for every ``t``
    of the binade whose sum stays in it.  None when ``t`` is zero,
    subnormal or not finite, when ``d`` is not positive, when one
    addition leaves the binade, on a tie, and when ``M`` is 0 (the sum
    rounds back onto ``t``).
    """
    if not (_MIN_NORMAL <= t < inf and d > 0.0):
        return None
    u = ulp(t)
    ratio = d / u  # exact: u is a power of two
    if not ratio < _BOTTOM:
        return None  # d >= lo: one addition reaches the top (or d is inf)
    m = int(ratio)
    frac = ratio - m
    if frac == 0.5:
        return None
    if frac > 0.5:
        m += 1
    if not m:
        return None
    return u, m


class Lattice:
    """One call site's cached lattice for adding ``d``.

    From any ``t`` in ``[lo, hi)``, ``n`` additions of ``d`` equal
    ``t + n*step`` while that stays below ``hi``; ``(u, m)`` is
    :func:`grid`'s answer, so ``step = m*u``.  A fresh or declined
    lattice has ``lo = inf``, which no ``t`` passes.
    """

    __slots__ = ("d", "lo", "hi", "step", "u", "m")

    def __init__(self) -> None:
        self.d = 0.0
        self.lo = inf
        self.hi = 0.0
        self.step = 0.0
        self.u = 0.0
        self.m = 0

    def fit(self, t: float, d: float) -> bool:
        """Refit to ``t``'s binade for ``d``; False when :func:`grid` declines."""
        self.d = d
        found = grid(t, d)
        if found is None:
            self.lo = inf
            return False
        self.u, self.m = u, m = found
        self.lo = u * _BOTTOM
        self.hi = u * _TOP
        self.step = m * u
        return True

    def add(self, t: float, d: float, n: int) -> float:
        """``t`` after ``n`` additions of ``d``, bit-identical to the loop."""
        if self.fit(t, d):
            end = t + n * self.step
            if end < self.hi:
                return end
        for _ in range(n):
            t += d
        return t

    def polls(
        self, p: float, d: float, bound: float, end: float
    ) -> tuple[int, float | None, float]:
        """The polls of the grid ``p``, ``p + d``, ``(p + d) + d``, ... that
        lie below ``bound`` and at or below ``end``.

        Returns ``(n, last, head)``: their count, the last one (None when
        ``n`` is 0) and the grid's first poll past them, each
        bit-identical to the literal loop.  In a binade the polls sit at
        positions ``P, P + M, ...``; ``ceil((B - P) / M)`` of them lie
        below a bound at position ``B`` (the binade top when the bound
        lies past it) and ``floor((E - P) / M) + 1`` at or below an end
        at ``E``.  The head past a binade's last poll comes from a float
        addition, and the count goes on in the next binade.
        """
        n = 0
        last = None
        while p < bound and p <= end and self.fit(p, d):
            hi = self.hi
            step = self.step
            # Float floor division is exact here: both operands are
            # integer multiples of u below 2**53 u.
            k = -((p - (bound if bound < hi else hi)) // step)
            if end < hi:
                below_end = (end - p) // step + 1
                if below_end < k:
                    k = below_end
            k = int(k)
            n += k
            last = p + (k - 1) * step
            p = last + d
        while p < bound and p <= end:
            n += 1
            last = p
            p += d
        return n, last, p
