"""Seeded random constructors for property tests.

Everything here produces exact-rational maps. Coefficients live on a single
axis (real or imaginary, either sign), so every magnitude a membership sum
needs is an exact Fraction; that is what lets the closure and neighborhood
properties be checked with zero tolerance. Slot plans can be shared across
several draws so that sums of maps stay axis-aligned too.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .classes import weight
from .exact import Record, Scalar, as_scalar
from .series import Coefficient, Key, PolyharmonicMap, make_map

AXES = ("re", "im")


def random_fraction(rng: random.Random, max_den: int = 16, lo=0, hi=1) -> Fraction:
    """Uniform-ish rational in [lo, hi] with denominator <= max_den."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(1, max_den)
    lo_n = -((-lo.numerator * den) // lo.denominator)  # ceil(lo*den)
    hi_n = (hi.numerator * den) // hi.denominator      # floor(hi*den)
    if hi_n < lo_n:
        return lo
    return Fraction(rng.randint(lo_n, hi_n), den)


def random_simplex(rng: random.Random, parts: int, max_den: int = 12) -> list[Fraction]:
    """Exact nonnegative rationals summing to 1."""
    raw = [random_fraction(rng, max_den, Fraction(1, max_den), 1) for _ in range(parts)]
    total = sum(raw)
    return [x / total for x in raw]


def axis_coefficient(magnitude: Scalar, axis: str, sign: int = 1) -> Coefficient:
    value = sign * as_scalar(magnitude)
    return Coefficient(value, 0) if axis == "re" else Coefficient(0, value)


def _matching_axis(c: Coefficient, rng: random.Random) -> str:
    if c.is_zero:
        return rng.choice(AXES)
    return "im" if c.re == 0 else "re"


class SlotPlan(Record):
    """Which coefficient slots a member may occupy, and on which axis each sits:
    ``first_slots`` holds (letter, k>=2, axis) at n=1, ``row1_slots`` (letter, n>=2, k, axis)."""

    __slots__ = ("b11_axis", "first_slots", "row1_slots")


def random_plan(rng: random.Random, p: int, normalized: bool,
                max_slots: int = 6, max_degree: int = 8) -> SlotPlan:
    b11_axis = None
    first: list[tuple[str, int, str]] = []
    if not normalized:
        if rng.random() < 0.7:
            b11_axis = rng.choice(AXES)
        if p >= 2 and rng.random() < 0.5:
            for k in rng.sample(range(2, p + 1), k=min(2, p - 1)):
                first.append((rng.choice("ab"), k, rng.choice(AXES)))
    nslots = rng.randint(1, max_slots)
    seen: set[tuple[str, int, int]] = set()
    row1: list[tuple[str, int, int, str]] = []
    for _ in range(nslots):
        slot = (rng.choice("ab"), rng.randint(2, max_degree), rng.randint(1, p))
        if slot in seen:
            continue
        seen.add(slot)
        row1.append((*slot, rng.choice(AXES)))
    return SlotPlan(b11_axis, tuple(first), tuple(row1))


def random_member(rng: random.Random, p: int, lam, normalized: bool = True,
                  tight: bool = False, plan: SlotPlan | None = None,
                  max_slots: int = 6, max_degree: int = 8) -> PolyharmonicMap:
    """Exact member of hs-lambda(lam) with p layers; margin 0 when tight.

    Spends a random share of the row-1 budget across the plan's slots, with
    magnitudes divided by the slot weight so the weighted sum is controlled
    exactly. Normalized members live in the superscript-0 subclass.
    """
    lam = as_scalar(lam)
    plan = plan or random_plan(rng, p, normalized, max_slots, max_degree)
    a: dict[Key, Coefficient] = {}
    b: dict[Key, Coefficient] = {}

    b11 = Fraction(0)
    if plan.b11_axis is not None:
        b11 = random_fraction(rng, 16, 0, Fraction(1, 2))
        if b11:
            b[(1, 1)] = axis_coefficient(b11, plan.b11_axis, rng.choice((1, -1)))

    first_total = Fraction(0)  # sum over k>=2 of (2k-1)(|a[1,k]|+|b[1,k]|)
    if plan.first_slots:
        q = random_fraction(rng, 8, 0, Fraction(3, 4)) * (1 - b11)
        shares = random_simplex(rng, len(plan.first_slots))
        for (letter, k, axis), share in zip(plan.first_slots, shares):
            mag = q * share / (2 * k - 1)
            if not mag:
                continue
            first_total += (2 * k - 1) * mag
            target = a if letter == "a" else b
            target[(1, k)] = axis_coefficient(mag, axis, rng.choice((1, -1)))

    budget = 2 - (1 + b11 + first_total)  # row-1 budget, strictly positive
    fill = Fraction(1) if tight else random_fraction(rng, 12)
    if plan.row1_slots and fill:
        shares = random_simplex(rng, len(plan.row1_slots))
        for (letter, n, k, axis), share in zip(plan.row1_slots, shares):
            mag = fill * budget * share / weight(n, k, lam)
            if not mag:
                continue
            target = a if letter == "a" else b
            target[(n, k)] = axis_coefficient(mag, axis, rng.choice((1, -1)))

    return make_map(p, a=a, b=b)


def random_valid_map(rng: random.Random, p: int = 1, max_degree: int = 8,
                     max_slots: int = 6, allow_offaxis: bool = False) -> PolyharmonicMap:
    """Arbitrary valid map (members and non-members alike)."""
    a: dict[Key, Coefficient] = {}
    b: dict[Key, Coefficient] = {}
    if rng.random() < 0.6:
        if allow_offaxis:
            b[(1, 1)] = Coefficient(random_fraction(rng, 16, 0, Fraction(1, 2)),
                                    random_fraction(rng, 16, 0, Fraction(1, 2)))
        else:
            b[(1, 1)] = axis_coefficient(random_fraction(rng, 16, 0, Fraction(3, 4)),
                                         rng.choice(AXES), rng.choice((1, -1)))
    for _ in range(rng.randint(0, max_slots)):
        letter = rng.choice("ab")
        n = rng.randint(1, max_degree)
        k = rng.randint(1, p)
        if (letter, n, k) == ("a", 1, 1) or (letter == "b" and (n, k) == (1, 1)):
            continue
        mag = random_fraction(rng, 24, 0, 2) / (n + 2 * k)
        if allow_offaxis:
            c = Coefficient(mag, random_fraction(rng, 24, 0, Fraction(1, 2)))
        else:
            c = axis_coefficient(mag, rng.choice(AXES), rng.choice((1, -1)))
        if c.is_zero:
            continue
        (a if letter == "a" else b)[(n, k)] = c
    return make_map(p, a=a, b=b)


def random_certified_map(rng: random.Random, max_degree: int = 8) -> PolyharmonicMap:
    """Single-layer map passing the convex-coefficient certificate 2|A_n|<=n+1, 2|B_n|<=n-1."""
    a: dict[Key, Coefficient] = {}
    b: dict[Key, Coefficient] = {}
    for n in range(2, max_degree + 1):
        if rng.random() < 0.7:
            mag = random_fraction(rng, 8) * Fraction(n + 1, 2)
            if mag:
                a[(n, 1)] = axis_coefficient(mag, rng.choice(AXES), rng.choice((1, -1)))
        if rng.random() < 0.7:
            mag = random_fraction(rng, 8) * Fraction(n - 1, 2)
            if mag:
                b[(n, 1)] = axis_coefficient(mag, rng.choice(AXES), rng.choice((1, -1)))
    return make_map(1, a=a, b=b)


def random_perturbation(rng: random.Random, F: PolyharmonicMap, budget) -> PolyharmonicMap:
    """A map within neighborhood distance ``budget`` of F, exactly.

    Perturbation directions align with the axis of the coefficient they touch,
    so both the distance and the perturbed map's membership sums stay exact.
    """
    budget = as_scalar(budget)
    fill = random_fraction(rng, 12)
    nslots = rng.randint(1, 5)
    a = dict(F.a)
    b = dict(F.b)
    shares = random_simplex(rng, nslots)
    for share in shares:
        letter = rng.choice("ab")
        n = rng.randint(1, F.max_degree + 1)
        k = rng.randint(1, F.p)
        if letter == "a" and n == 1 and k == 1:
            letter = "b"
        mag = fill * budget * share / weight(n, k, 0)  # the neighborhood weight, 1 for b11
        if not mag:
            continue
        table = a if letter == "a" else b
        old = table.get((n, k), Coefficient(0, 0))
        axis = _matching_axis(old, rng)
        delta = axis_coefficient(mag, axis, rng.choice((1, -1)))
        new = old + delta
        if new.is_zero:
            table.pop((n, k), None)
        else:
            table[(n, k)] = new
    return make_map(F.p, a=a, b=b)
