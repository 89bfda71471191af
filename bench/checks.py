"""Output checks for the benchmark, independent of any stored program output.

Every check returns a list of problems; an empty list means the output passed.
The checks compare the program's answers with closed forms, with values the
benchmark computes itself (brute force or exact enumeration), or with
properties the method must have.  Monte Carlo means are compared with the
exact distribution of the same game, found by enumeration, at a Bernstein
tolerance whose failure probability is 1e-12 per check, so no correct program
fails on any seed the benchmark may be given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

MC_FAILURE_PROB = 1e-12
FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class Exact:
    """The exact distribution of one game's mistake count: its mean, its
    variance and the smallest and largest count it takes."""

    mean: Fraction
    var: Fraction
    lo: int
    hi: int

    @classmethod
    def uniform_over(cls, counts) -> "Exact":
        """Equally likely cases (tapes, hidden labels), one count each."""
        counts = list(counts)
        mean = Fraction(sum(counts), len(counts))
        var = sum((c - mean) ** 2 for c in counts) / len(counts)
        return cls(mean, var, min(counts), max(counts))

    @classmethod
    def binomial(cls, n: int, p: Fraction) -> "Exact":
        return cls(n * p, n * p * (1 - p), 0, n)


def bernstein_tolerance(exact: Exact, trials: int, p: float = MC_FAILURE_PROB) -> float:
    """Half-width eps with P(|mean - E| >= eps) <= p for the mean of `trials`
    iid draws from `exact` (Bernstein's inequality with the exact variance)."""
    mu = float(exact.mean)
    b = max(exact.hi - mu, mu - exact.lo)  # largest deviation of one draw
    log = math.log(2.0 / p)
    linear = 2.0 * b * log / 3.0
    return (linear + math.sqrt(linear**2 + 8.0 * trials * float(exact.var) * log)) / (2.0 * trials)


def brute_class_error(table, seq) -> int:
    """Fewest rounds any row of `table` misses, counted row by row."""
    return min(sum(row[ex.x] not in ex.allowed for ex in seq) for row in table)


def capacity_ceiling(k: int, ldim: int) -> float:
    """The realizable bandit mistake ceiling 4*k*ln(k)*ldim(H)."""
    return 4.0 * k * math.log(k) * ldim


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def full_class_dims(n: int, k: int) -> tuple[int, int]:
    """(ldim, bldim) of the class of all functions [n] -> [k]."""
    return n, (k - 1) * n


def dimension_problems(
    label: str,
    mode: str,
    value: int,
    size: int,
    shattered=None,
    expected: int | None = None,
    ldim: int | None = None,
) -> list[str]:
    """Check one dimension solve.

    mode "L" (ldim) or "BL" (bldim); `size` is the number of distinct rows;
    `shattered(depth)` answers whether a complete shattered tree of that depth
    exists, from a separately built class; `expected` is a closed form;
    `ldim` (for mode "BL") is the Littlestone dimension of the same class.
    """
    out = []
    if expected is not None and value != expected:
        out.append(f"{label}: {mode} dimension {value}, closed form {expected}")
    if shattered is not None:
        if value >= 0 and not shattered(value):
            out.append(f"{label}: {mode} dimension {value} but depth {value} is not shattered")
        if shattered(value + 1):
            out.append(f"{label}: {mode} dimension {value} but depth {value + 1} is shattered")
    if mode == "L":
        ceiling = size.bit_length() - 1  # floor(log2 |H|)
        if not 0 <= value <= ceiling:
            out.append(f"{label}: ldim {value} outside [0, floor(log2 {size})] = [0, {ceiling}]")
    else:
        low = 0 if ldim is None else ldim
        if not low <= value <= size - 1:
            out.append(f"{label}: bldim {value} outside [ldim, |H|-1] = [{low}, {size - 1}]")
    return out


# ---------------------------------------------------------------------------
# games
# ---------------------------------------------------------------------------


def transcript_problems(label: str, transcript, T: int, realizable: bool, table, program_error) -> list[str]:
    """A run_game transcript against its own rounds and a brute-force class error."""
    out = []
    rounds = transcript.rounds
    if len(rounds) > T:
        out.append(f"{label}: {len(rounds)} rounds for horizon {T}")
    wrong = sum(not r.correct for r in rounds)
    if transcript.mistakes != wrong:
        out.append(f"{label}: {transcript.mistakes} mistakes reported, {wrong} wrong rounds")
    seq = transcript.justification
    if seq is None:
        return out + [f"{label}: no sequence to justify the run"]
    if [ex.x for ex in seq] != [r.x for r in rounds]:
        out.append(f"{label}: justification instances differ from the rounds played")
    brute = brute_class_error(table, seq)
    if program_error != brute:
        out.append(f"{label}: class_error {program_error}, brute force {brute}")
    if realizable and brute != 0:
        out.append(f"{label}: realizable run has class error {brute}")
    return out


def minimax_problems(label: str, learner: str, mistakes: int, T: int, bldim: int, ldim: int, k: int) -> list[str]:
    """Mistakes forced by the minimax adversary: exactly min(T, bldim) for bsoa;
    at least that, and below the capacity ceiling, for the capacity learner."""
    forced = min(T, bldim)
    if learner == "bsoa" and mistakes != forced:
        return [f"{label}: bsoa made {mistakes} mistakes, expected min(T, bldim) = {forced}"]
    if learner == "capacity":
        out = []
        if mistakes < forced:
            out.append(f"{label}: capacity made {mistakes} mistakes, below the floor {forced}")
        if mistakes >= capacity_ceiling(k, ldim):
            out.append(f"{label}: capacity made {mistakes} mistakes, not below {capacity_ceiling(k, ldim):g}")
        return out
    return []


def capacity_step_problems(label: str, k: int, before: int, after: int) -> list[str]:
    """One capacity-learner mistake: C' <= (1 - 1/(2k)) * C in exact integers."""
    if 2 * k * after > (2 * k - 1) * before:
        return [f"{label}: capacity went {before} -> {after}, above (1 - 1/(2k)) * C"]
    return []


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------


def floor_problems(label: str, exact: Fraction, floor: Fraction, attains: bool = False) -> list[str]:
    """An exact expectation against its floor (equal to it when `attains`)."""
    if exact < floor:
        return [f"{label}: exact expectation {exact} below the floor {floor}"]
    if attains and exact != floor:
        return [f"{label}: exact expectation {exact} does not attain the floor {floor}"]
    return []


def mc_problems(label: str, mean: float, exact: Exact, trials: int, floor: Fraction) -> list[str]:
    """A Monte Carlo mean against the exact distribution of the same game,
    and against the floor every learner must meet, both at the tolerance."""
    eps = bernstein_tolerance(exact, trials) + FLOAT_TOL
    out = []
    if abs(mean - float(exact.mean)) > eps:
        out.append(
            f"{label}: Monte Carlo mean {mean:g} over {trials} trials is {abs(mean - float(exact.mean)):g} "
            f"from the exact {float(exact.mean):g} (tolerance {eps:g})"
        )
    if mean < float(floor) - eps:
        out.append(f"{label}: Monte Carlo mean {mean:g} below the floor {float(floor):g} (tolerance {eps:g})")
    return out


def best_expert_problems(label: str, excess: float, expected: int | None = None) -> list[str]:
    """A best-expert row (best expert's loss minus the best hypothesis's, worst
    trial): never positive, and equal to the excess found by replaying every
    expert when that is given."""
    out = []
    if excess > 0:
        out.append(f"{label}: best expert loses to the best hypothesis by {excess:g}")
    if expected is not None and excess != expected:
        out.append(f"{label}: best-expert excess {excess:g}, enumerated experts give {expected}")
    return out


# ---------------------------------------------------------------------------
# margin constructions
# ---------------------------------------------------------------------------


def roots_of_unity_gap(k: int) -> float:
    """The closed-form minimum gap k^2 (1 - cos(2 pi / k)), written out here
    apart from the program's own."""
    return k**2 * (1.0 - math.cos(2.0 * math.pi / k))


def linear_row_problems(row) -> list[str]:
    """The exact rows of thm4-linear against closed forms: gaps, squared norms
    and the Perceptron's 2*D^2 ceiling."""
    kind, shape = row.klass.split(":")
    a, k = (int(v) for v in shape.split("x"))
    if kind == "bijections":
        gap, norm_sq = roots_of_unity_gap(k), float(a * k**5)
    elif kind == "labelings":
        gap, norm_sq = 1.0, float(a)
    else:
        return [f"{row.klass}: unknown construction"]
    label = f"{row.klass} {row.learner} {row.adversary}"
    value = row.mean_mistakes
    if row.adversary == "min-gap" and abs(value - gap) > FLOAT_TOL * max(1.0, gap):
        return [f"{label}: minimum gap {value!r}, closed form {gap!r}"]
    if row.adversary == "norm-sq" and abs(value - norm_sq) > FLOAT_TOL * max(1.0, norm_sq):
        return [f"{label}: squared norm {value!r}, closed form {norm_sq!r}"]
    if row.learner == "perceptron" and value > 2.0 * norm_sq / gap**2 * (1 + FLOAT_TOL):
        return [f"{label}: {value:g} Perceptron mistakes above 2*D^2 = {2.0 * norm_sq / gap**2:g}"]
    return []
