"""Reference approximation of alpha: its Fraction isolating interval,
bisected in place, and the interval enclosure of an element over it.

`interval_of` and `_refine` are the code `NumberField` decided every
undecided sign, floor, rounding and double with before all of them went
through the fixed-point enclosures of alpha at growing precision
(`NumberField.decide`).  Tests compare the enclosures against it.
"""

from fractions import Fraction

from slopechar.numfield import poly_eval


class IntervalOracle:
    """alpha of `field`, as a rational interval of its own that only
    `_refine` shrinks; the field itself is left alone."""

    def __init__(self, field):
        self.minpoly = field.minpoly
        self.degree = field.degree
        self._lo, self._hi = field.root_interval
        self._sign_at_lo = 1 if poly_eval(self.minpoly, self._lo) > 0 else -1

    @property
    def root_interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def _refine(self) -> None:
        """One bisection step on the cached isolating interval: keep the half
        that holds alpha."""
        if self.degree > 1:
            mid = (self._lo + self._hi) / 2
            if (poly_eval(self.minpoly, mid) > 0) == (self._sign_at_lo > 0):
                self._lo = mid
            else:
                self._hi = mid

    def interval_of(self, coeffs) -> tuple[Fraction, Fraction]:
        """Interval enclosure of sum coeffs[i] * alpha^i at current precision."""
        lo = hi = Fraction(0)
        for c in reversed(coeffs):
            # (lo,hi) * (alo,ahi) + c  with directed rounding on endpoints
            cands = (lo * self._lo, lo * self._hi, hi * self._lo, hi * self._hi)
            lo, hi = min(cands) + c, max(cands) + c
        return lo, hi

    def sign(self, coeffs) -> int:
        """Sign of sum coeffs[i] * alpha^i by refinement alone."""
        if all(c == 0 for c in coeffs):
            return 0
        while True:
            lo, hi = self.interval_of(coeffs)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._refine()
