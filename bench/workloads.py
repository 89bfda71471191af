"""The three benchmark workloads.

Each workload builds a fixed list of timed calls into banditlab's exported
API from the workload seed, then plays that list round after round, on
freshly built classes, until the run's time is up.  An operation is one game
or one dimension solve.  After the timed rounds, `check` compares every
recorded output with values the benchmark computes itself (checks.py), and a
traced run adds the calls that only the per-layer metrics need (`replay`).
"""

from __future__ import annotations

import math
import statistics
import traceback
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, permutations, product
from time import perf_counter

import numpy as np

import banditlab as bl
from banditlab import catalog

import checks
import hostspeed
from spans import Tracer

REPLAYS = 5  # alternating run_game / protocol timings per traced run; the fastest counts
SPEED_EVERY_S = 0.1  # a host speed point follows any call or game round ending this long after the last one
SPEED_WINDOW_S = 0.2  # a piece's host speed: the speed points within this or its own length of it

Round = namedtuple("Round", "x prediction correct")
UNTRACED = Tracer(False)
Transcript = namedtuple("Transcript", "rounds mistakes justification")


@dataclass
class Call:
    """One timed call into the program and what it returned.

    `pieces` splits the call's time into parts that repeat exactly from one
    round to the next (the rounds of a game played through the protocol);
    a single program call is one piece.  A piece is (start, seconds).
    """

    kind: str  # the end-to-end part the call's time counts toward
    round: int
    op: int  # position of the call in its round
    pieces: list[tuple[float, float]]
    games: int  # operations inside the call
    out: object
    info: dict = field(default_factory=dict)
    failed: bool = False

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.pieces)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def fast_half(values) -> float:
    """Mean of the fastest half (rounded up) of a piece's scaled repeats."""
    values = sorted(values)
    return statistics.fmean(values[: (len(values) + 1) // 2])


def per_call(totals, *names, scale=1e6) -> float:
    """Mean duration of one call (sum over the named spans per call of the
    first), in 1/scale seconds; 0 when no such call was made."""
    count = totals.get(names[0], (0, 0.0))[0]
    if not count:
        return 0.0
    return sum(totals.get(n, (0, 0.0))[1] for n in names) / count * scale


def signature(out):
    """What must repeat exactly when a call is repeated on the same inputs."""
    if isinstance(out, list):  # game transcripts
        return [(t.mistakes, [(r.x, r.prediction, r.correct) for r in t.rounds]) for t in out]
    if hasattr(out, "to_csv"):  # preset reports
        return out.to_csv()
    return out


def play(tracer, lname, learner, akind, adversary, T, rng, watch=None, pause=None):
    """One bandit game through the learner/adversary protocol, round by round
    as run_game plays it; `watch(before, after)` sees every learner update and
    `pause()` runs between rounds, untimed.  Returns the final learner and,
    per round, (Round, start, seconds)."""
    rounds = []
    for _ in range(T):
        if pause is not None:
            pause()
        start = perf_counter()
        x = tracer.call(f"adversaries.{akind}_next", adversary.next_instance)
        if x is None:
            break
        pred = tracer.call(f"learners.{lname}_predict", learner.predict, x, rng)
        reply = tracer.call(f"adversaries.{akind}_respond", adversary.respond, pred)
        nxt = tracer.call(
            f"learners.{lname}_update", learner.update, x, pred, bl.BanditFeedback(reply.correct)
        )
        rounds.append((Round(x, pred, reply.correct), start, perf_counter() - start))
        if watch is not None:
            watch(learner, nxt)
        learner = nxt
    return learner, rounds


def oracle_dim(fc, mode: str) -> int:
    """A dimension found by the shattered-tree search alone."""
    d = 0
    while bl.shatter_oracle(fc.full_space(), d + 1, mode, depth_cap=d + 1):
        d += 1
    return d


def spec_dims(spec: str, cache: dict) -> tuple[int, int]:
    """(ldim, bldim) of a builtin class: closed form for full classes,
    shattered-tree search otherwise; cached per spec."""
    if spec not in cache:
        kind, shape = spec.split(":")
        a, b = (int(v) for v in shape.split("x"))
        if kind == "full":
            cache[spec] = checks.full_class_dims(a, b)
        else:
            fc = catalog.parse_spec(spec)
            cache[spec] = (oracle_dim(fc, "L"), oracle_dim(fc, "BL"))
    return cache[spec]


def preset_games(report) -> int:
    """Games a preset played: the trials of each distinct row that asserts a
    bound on games (information rows and best-expert rows add no games)."""
    seen = {}
    for row in report.rows:
        if row.direction == "info" or row.learner in ("-", "best-expert"):
            continue
        seen[(row.klass, row.learner, row.adversary)] = row.trials
    return sum(seen.values())


class Workload:
    """A fixed list of timed calls, built from the seed and repeated round
    after round.

    On a shared host the same call's time swings by up to 2x with the
    neighbours' load, both in bursts of tens of milliseconds and in spells
    of seconds to minutes.  So the workload measures the host's speed
    (hostspeed.py) every SPEED_EVERY_S between calls and game rounds, and
    scales each piece's time by the mean of the speed points within
    SPEED_WINDOW_S or the piece's own length of it, which removes the
    spells.  Load only ever adds time, so each piece of a call then costs
    the mean of the fastest half of its scaled repeats, which removes the
    bursts, and a round costs the sum of those.  The shorter the pieces, the
    steadier the sum.
    """

    name = ""
    parts: tuple[tuple[str, str], ...] = ()  # (end-to-end part, unit)

    def __init__(self, seed: int, tracer):
        self.seed = seed
        self.tracer = tracer
        self.calls: list[Call] = []
        self.problems: list[str] = []
        self.memo_after: list[int] = []
        self._games: dict[str, int] = {}
        self._kept: set[int] = set()  # positions whose inputs are kept for the checks
        self._round = self._op = 0
        self.speed_times: list[float] = []
        self.speed_points: list[float] = []  # kernel seconds, measured at speed_times
        self._next = self.prepare()

    def seeds(self, count: int) -> list[int]:
        return [int(s) for s in np.random.SeedSequence(self.seed).generate_state(count)]

    def build(self, fn, *args):
        return self.tracer.call("catalog.build", fn, *args)

    def run_round(self, r: int) -> float:
        """Play round r; returns the seconds its timed calls took."""
        inputs = self._next if self._next is not None else self.prepare()
        self._next = None
        self._round, self._op = r, 0
        before = len(self.calls)
        self.speed_point()
        self.tracer.call("round", self.round, inputs)
        self.speed_point()
        return sum(c.seconds for c in self.calls[before:])

    def speed_point(self) -> None:
        start = perf_counter()
        self.speed_points.append(hostspeed.speed_point())
        self._speed_at = perf_counter()
        self.speed_times.append((start + self._speed_at) / 2)

    def tick(self) -> None:
        if perf_counter() - self._speed_at >= SPEED_EVERY_S:
            self.speed_point()

    def scaled(self, piece: tuple[float, float]) -> float:
        """A piece's seconds at the reference host speed: scaled by the mean
        kernel time of the speed points within max(its length,
        SPEED_WINDOW_S) of it, and always the last one before it and the
        first one after it."""
        start, seconds = piece
        end, width = start + seconds, max(seconds, SPEED_WINDOW_S)
        times = self.speed_times
        near = set(range(bisect_left(times, start - width), bisect_right(times, end + width)))
        near |= {bisect_right(times, start) - 1, min(bisect_left(times, end), len(times) - 1)}
        return hostspeed.scale(seconds, statistics.fmean(self.speed_points[i] for i in near))

    def record(self, kind, pieces, games, out, info, failed) -> Call:
        if failed:
            n = self._games.get(kind, 1)
        else:
            n = games(out) if callable(games) else (games or 1)
            self._games.setdefault(kind, n)
            if self._op in self._kept:
                # only the first successful repeat is checked in full; the
                # others keep what must repeat, so memory does not grow per round
                info, out = {}, signature(out)
            self._kept.add(self._op)
        call = Call(kind, self._round, self._op, pieces, n, out, info, failed)
        self._op += 1
        self.calls.append(call)
        self.tick()
        return call

    def timed(self, kind: str, span: str, fn, *args, games=None, **info) -> Call:
        start = perf_counter()
        try:
            out = self.tracer.call(span, fn, *args)
            failed = False
        except Exception:
            traceback.print_exc()
            out, failed = None, True
        return self.record(kind, [(start, perf_counter() - start)], games, out, info, failed)

    def reject(self, call: Call, problems: list[str]) -> None:
        if problems:
            call.failed = True
            self.problems.extend(f"{self.name} round {call.round}: {p}" for p in problems)

    def check_all(self) -> None:
        """Check the first successful call at each position in full, then
        those calls together; their repeats must return the same output."""
        first: dict[int, Call] = {}
        for call in self.calls:
            if not call.failed and call.op not in first:
                first[call.op] = call
        for call in first.values():
            try:
                problems = self.check(call)
            except Exception as err:
                traceback.print_exc()
                problems = [f"{call.kind}: checker raised {err!r}"]
            self.reject(call, problems)
        self.check_together(list(first.values()))
        for call in self.calls:
            ref = first.get(call.op)
            if call.failed or call is ref:
                continue
            if ref.failed:
                problems = [f"{call.kind}: repeats a rejected output"]
            elif call.out != signature(ref.out):
                problems = [f"{call.kind}: output differs from round {ref.round} on the same inputs"]
            else:
                problems = []
            self.reject(call, problems)

    def check_together(self, calls: list[Call]) -> None:
        pass

    def costs(self) -> list[tuple[Call, float]]:
        """Per call of the round: its first successful repeat and its cost,
        the sum over its pieces of each piece's fast-half mean."""
        repeats: dict[int, tuple[Call, list[list[float]]]] = {}
        for c in self.calls:
            if c.failed:
                continue
            scaled = [self.scaled(p) for p in c.pieces]
            if c.op not in repeats:
                repeats[c.op] = (c, [[s] for s in scaled])
            else:
                for piece, s in zip(repeats[c.op][1], scaled):
                    piece.append(s)
        return [(c, sum(map(fast_half, pieces))) for c, pieces in (repeats[op] for op in sorted(repeats))]

    def round_time(self) -> float:
        return sum(cost for _, cost in self.costs())

    def repeats(self) -> list[list]:
        """[kind, [seconds of each successful repeat], [the same scaled to
        the reference host speed]] per call of the round."""
        out: dict[int, list] = {}
        for c in self.calls:
            if not c.failed:
                entry = out.setdefault(c.op, [c.kind, [], []])
                entry[1].append(c.seconds)
                entry[2].append(sum(self.scaled(p) for p in c.pieces))
        return [out[op] for op in sorted(out)]

    def timeline(self) -> dict:
        """Every speed point as [time, kernel seconds] and every timed piece
        of a successful call as [call position, piece, start, seconds], to
        re-examine how a run was scaled."""
        return {
            "speed": [[t, k] for t, k in zip(self.speed_times, self.speed_points)],
            "pieces": [[c.op, i, *p] for c in self.calls if not c.failed for i, p in enumerate(c.pieces)],
        }

    def part_values(self) -> dict[str, float]:
        """The workload's named end-to-end parts: seconds per round, or a rate."""
        out = {}
        for part, unit in self.parts:
            costs = [(c, cost) for c, cost in self.costs() if c.kind == part]
            seconds = sum(cost for _, cost in costs)
            if unit == "s":
                out[part] = seconds
            else:
                out[part] = sum(self.work(c) for c, _ in costs) / seconds if seconds else 0.0
        return out

    def work(self, call: Call) -> int:
        return call.games

    def replay(self) -> None:
        pass

    def layer_metrics(self, totals) -> dict[str, float]:
        return {}

    def common_layers(self, totals) -> dict[str, float]:
        return {
            "hypotheses.class_error_ms": per_call(totals, "hypotheses.class_error", scale=1e3),
            "catalog.build_ms": per_call(totals, "catalog.build", scale=1e3),
            "dimensions.memo_after_games": median_or_zero(self.memo_after),
        }

    def class_error(self, fc, seq) -> int:
        return self.tracer.call("hypotheses.class_error", fc.full_space().class_error, seq)


# ---------------------------------------------------------------------------
# agnostic-exp4: the expert pool of thm3-agnostic
# ---------------------------------------------------------------------------


class AgnosticExp4(Workload):
    """thm3-agnostic at one trial per call, plus an Exp4Learner game on
    full:2x3 played through the protocol.  The deviation-expert pool does
    nearly all the work; full:2x3 at T=200 has 179,701 experts."""

    name = "agnostic-exp4"
    parts = (("thm3-agnostic_s", "s"), ("exp4-play_rounds_per_s", "1/s"))
    T = 200
    PRESET_TRIALS = 1
    PRESET_CLASSES = ("full:1x3", "full:2x3")
    PRESET_ADVERSARIES = ("random-realizable:1", "noise:1")
    GAME = ("full:2x3", "noise:1")

    def prepare(self):
        preset_seed, game_seed = self.seeds(2)
        return preset_seed, game_seed, self.build(catalog.parse_spec, self.GAME[0])

    def round(self, inputs):
        preset_seed, game_seed, fc = inputs
        self.timed(
            "thm3-agnostic_s", "harness.run_experiment", bl.run_experiment,
            "thm3-agnostic", preset_seed, self.PRESET_TRIALS, self.T,
            games=preset_games, seed=preset_seed,
        )
        self.timed_game(fc, game_seed)
        self.memo_after.append(len(fc.ldim_cache) + len(fc.bldim_cache))

    def timed_game(self, fc, seed):
        """An exp4 game through the protocol, seeded as run_game seeds its
        first trial.  Pieces: making the adversary and learner, then each
        round."""
        cfg = bl.GameConfig(self.GAME[0], "exp4", self.GAME[1], self.T, 1, seed)
        adv_ss, lrn_ss = np.random.SeedSequence(seed).spawn(1)[0].spawn(2)
        start = perf_counter()
        try:
            adversary = bl.make_adversary(cfg.adversary, fc, cfg.T, np.random.default_rng(adv_ss))
            learner = self.tracer.call("learners.exp4_make", bl.make_learner, "exp4", fc, cfg.T)
            made = (start, perf_counter() - start)
            learner, rounds = play(
                self.tracer, "exp4", learner, "sequence", adversary, cfg.T, np.random.default_rng(lrn_ss),
                pause=self.tick,
            )
            out = [Transcript([r for r, _, _ in rounds], learner.mistakes, adversary.sequence())]
            pieces, failed = [made] + [(t, s) for _, t, s in rounds], False
        except Exception:
            traceback.print_exc()
            out, pieces, failed = None, [(start, perf_counter() - start)], True
        return self.record("exp4-play_rounds_per_s", pieces, 1, out, {"cfg": cfg}, failed)

    def work(self, call):
        if call.kind == "exp4-play_rounds_per_s":
            return sum(len(t.rounds) for t in call.out)
        return call.games

    def check(self, call):
        if call.kind == "exp4-play_rounds_per_s":
            cfg = call.info["cfg"]
            fc = self.build(catalog.parse_spec, cfg.klass)
            out = []
            for t in call.out:
                err = self.class_error(fc, t.justification)
                out += checks.transcript_problems(f"exp4 vs {cfg.adversary}", t, cfg.T, False, fc.table, err)
                if len(t.rounds) != cfg.T:
                    out.append(f"exp4 vs {cfg.adversary}: {len(t.rounds)} rounds, horizon {cfg.T}")
            return out
        return self.check_preset(call.out, call.info["seed"])

    def preset_sequences(self, seed):
        """The sequences thm3-agnostic draws from its seed: per class and
        adversary, one spawned stream per trial, whose first child drives the
        sampler (the seeding the harness documents)."""
        ss = np.random.SeedSequence(seed)
        for spec in self.PRESET_CLASSES:
            fc = self.build(catalog.parse_spec, spec)
            for adv in self.PRESET_ADVERSARIES:
                for child in ss.spawn(self.PRESET_TRIALS):
                    rng = np.random.default_rng(child.spawn(2)[0])
                    if adv.startswith("noise"):
                        seq = self.tracer.call("adversaries.sample", bl.sample_noise_sequence, fc, self.T, rng)
                    else:
                        seq, _ = self.tracer.call(
                            "adversaries.sample", bl.sample_realizable_sequence, fc, self.T, rng
                        )
                    yield spec, fc, adv, seq

    def check_preset(self, report, seed):
        out = []
        excess = {}  # (class, adversary) -> enumerated best-expert excess per trial
        for spec, fc, adv, seq in self.preset_sequences(seed):
            brute = checks.brute_class_error(fc.table, seq)
            err = self.class_error(fc, seq)
            if err != brute:
                out.append(f"{spec} {adv}: class_error {err}, brute force {brute}")
            if adv.startswith("random-realizable") and brute != 0:
                out.append(f"{spec} {adv}: realizable sequence has class error {brute}")
            if spec == "full:1x3":
                excess.setdefault((spec, adv), []).append(self.best_expert_loss(fc, seq) - brute)
        for row in report.rows:
            if row.learner == "best-expert":
                expected = excess.get((row.klass, row.adversary))
                out += checks.best_expert_problems(
                    f"{row.klass} {row.adversary}", row.mean_mistakes, max(expected) if expected else None
                )
        return out

    def best_expert_loss(self, fc, seq) -> int:
        """Fewest misses of any deviation expert, each replayed on its own:
        every choice of at most ldim rounds and forced labels there."""
        L = checks.full_class_dims(fc.n, fc.k)[0]
        xs = [ex.x for ex in seq]
        count = 0
        best = len(seq)
        for j in range(L + 1):
            for rounds in combinations(range(len(seq)), j):
                for labels in product(range(fc.k), repeat=j):
                    advice = bl.Expert(rounds, labels).advice_sequence(fc, xs)
                    best = min(best, sum(y not in ex.allowed for y, ex in zip(advice, seq)))
                    count += 1
        expected = sum(math.comb(len(seq), j) * fc.k**j for j in range(L + 1))
        if count != expected:
            raise AssertionError(f"enumerated {count} experts, expected {expected}")
        return best

    def layer_metrics(self, totals):
        return {
            "learners.exp4_make_s": per_call(totals, "learners.exp4_make", scale=1.0),
            "learners.exp4_predict_us": per_call(totals, "learners.exp4_predict"),
            "learners.exp4_update_us": per_call(totals, "learners.exp4_update"),
            "adversaries.sample_ms": per_call(totals, "adversaries.sample", scale=1e3),
        }


def fastest_pair(first, second) -> tuple[float, float]:
    """The fastest of REPLAYS alternating timings of two functions."""
    times = [(first(), second()) for _ in range(REPLAYS)]
    return min(a for a, _ in times), min(b for _, b in times)


def run_game_self_us(run_game_s: float, protocol_s: float, rounds: int) -> float:
    """run_game's own time per round: its time minus that of the same games
    played through the protocol."""
    return (run_game_s - protocol_s) / rounds * 1e6


# ---------------------------------------------------------------------------
# exact-dims: cold ldim / bldim solves on a fixed ladder
# ---------------------------------------------------------------------------


def _catalog_rung(name, builder, args, size):
    """A builtin class; `size` is its row count."""
    return name, 1, lambda rng: (lambda: builder(*args), size)


def _random_rung(name, count, rows, n, k):
    """`count` seeded random tables of `rows` rows over n instances and k labels."""

    def draw(rng):
        table = rng.integers(0, k, size=(rows, n)).tolist()
        return (lambda: bl.FiniteClass(name, n, k, table)), len(set(map(tuple, table)))

    return name, count, draw


LDIM_LADDER = (
    _catalog_rung("full-3x3", catalog.full_class, (3, 3), 3**3),
    _catalog_rung("full-2x4", catalog.full_class, (2, 4), 4**2),
    _catalog_rung("perm-1x4", catalog.permutation_class, (1, 4), 24),
    _catalog_rung("perm-2x3", catalog.permutation_class, (2, 3), 6**2),
    _catalog_rung("perm-3x3", catalog.permutation_class, (3, 3), 6**3),
    _catalog_rung("perm-2x4", catalog.permutation_class, (2, 4), 24**2),
    _random_rung("rand-b16x24", 12, 16, 24, 2),
)

BLDIM_LADDER = (
    _catalog_rung("full-3x3", catalog.full_class, (3, 3), 3**3),
    _catalog_rung("full-2x4", catalog.full_class, (2, 4), 4**2),
    _catalog_rung("perm-1x4", catalog.permutation_class, (1, 4), 24),
    _catalog_rung("perm-2x3", catalog.permutation_class, (2, 3), 6**2),
    _random_rung("rand-k3-30x5", 8, 30, 5, 3),
    _random_rung("rand-k4-18x5", 32, 18, 5, 4),
)

LADDERS = (("ldim", "L", bl.ldim, LDIM_LADDER), ("bldim", "BL", bl.bldim, BLDIM_LADDER))


class ExactDims(Workload):
    """Cold ldim and bldim solves: every solve gets a freshly built class, so
    no memo carries over, and no learner runs."""

    name = "exact-dims"
    parts = (("ldim_s", "s"), ("bldim_s", "s"))

    def prepare(self):
        rng = np.random.default_rng(self.seeds(1)[0])
        solves = []
        for dim, mode, fn, ladder in LADDERS:
            for rung, count, draw in ladder:
                for _ in range(count):
                    make, size = draw(rng)
                    solves.append((dim, mode, fn, rung, make, size, self.build(make)))
        return solves

    def round(self, solves):
        for i, (dim, mode, fn, rung, make, size, fc) in enumerate(solves):
            call = self.timed(
                f"{dim}_s", f"dimensions.{dim}", fn, fc.full_space(),
                rung=rung, mode=mode, make=make, size=size,
            )
            call.info["memo"] = len(fc.ldim_cache if mode == "L" else fc.bldim_cache)
            solves[i] = None  # free the class and its memo

    def check(self, call):
        info = call.info
        label = f"{info['rung']} {call.kind[:-2]}"
        fc = info["make"]()  # built apart from the solved class, with its own memos
        if info["rung"].startswith("full-"):
            dims = checks.full_class_dims(fc.n, fc.k)
            expected = dims[0] if info["mode"] == "L" else dims[1]
            return checks.dimension_problems(label, info["mode"], call.out, info["size"], expected=expected)

        def shattered(depth):
            return bl.shatter_oracle(fc.full_space(), depth, info["mode"], depth_cap=max(depth, 1))

        ldim = bl.ldim(fc.full_space()) if info["mode"] == "BL" else None
        return checks.dimension_problems(label, info["mode"], call.out, info["size"], shattered, ldim=ldim)

    def layer_metrics(self, totals):
        """Per rung: summed seconds (as in round_s) and memo entries."""
        out = {}
        for c, cost in self.costs():
            dim = c.kind[:-2]
            for key, value in (("s", cost), ("memo", c.info["memo"])):
                name = f"dimensions.{dim}_{key}.{c.info['rung']}"
                out[name] = out.get(name, 0) + value
        return out


# ---------------------------------------------------------------------------
# bandit-games: many short games
# ---------------------------------------------------------------------------

PRESET_CALLS = (  # (preset, calls per round, trials per call)
    ("thm2-realizable", 1, 20),
    ("claim-permutation", 3, 100),
    ("claim-guessing", 8, 500),
    ("thm4-linear", 2, 250),
)
MINIMAX_CLASSES = ("perm:1x4", "perm:2x3", "full:3x3")
MINIMAX_LEARNERS = ("capacity", "bsoa")
MINIMAX_TRIALS = 3
DETERMINISTIC = ("capacity", "soa-bandit", "bsoa", "constant", "cycling")
GUESSERS = ("nonrepeating", "constant", "cycling", "random")


class BanditGames(Workload):
    """Four presets at reduced trial counts, each split into calls of a few
    tenths of a second, plus capacity and bsoa games against the minimax
    adversary through run_game."""

    name = "bandit-games"
    parts = tuple((f"{p}_s", "s") for p, _, _ in PRESET_CALLS) + (("minimax_games_per_s", "1/s"),)

    def __init__(self, seed, tracer):
        self._dims: dict[str, tuple[int, int]] = {}
        self._exact: dict[tuple, checks.Exact] = {}  # exact distributions, shared by repeated presets
        self._mc: dict[tuple, tuple] = {}  # Monte Carlo row -> (label, exact, floor)
        self.collection_max = 0
        super().__init__(seed, tracer)

    def prepare(self):
        calls = sum(n for _, n, _ in PRESET_CALLS)
        seeds = self.seeds(calls + 1)
        horizons = [int(T) for T in np.random.default_rng(seeds[-1]).integers(3, 10, size=3)]
        classes = [(spec, self.build(catalog.parse_spec, spec)) for spec in MINIMAX_CLASSES]
        return seeds[:-1], horizons, classes

    def round(self, inputs):
        seeds, horizons, classes = inputs
        seeds = iter(seeds)
        for preset, calls, trials in PRESET_CALLS:
            for _ in range(calls):
                self.timed(
                    f"{preset}_s", "harness.run_experiment", bl.run_experiment,
                    preset, next(seeds), trials, None, games=preset_games,
                )
        for spec, fc in classes:
            for lname in MINIMAX_LEARNERS:
                for T in horizons:
                    cfg = bl.GameConfig(fc, lname, "minimax", T, MINIMAX_TRIALS, self.seed)
                    self.timed(
                        "minimax_games_per_s", "harness.run_game", bl.run_game, cfg,
                        games=MINIMAX_TRIALS, cfg=replace(cfg, klass=spec),
                    )
        self.memo_after.append(sum(len(fc.ldim_cache) + len(fc.bldim_cache) for _, fc in classes))

    def check(self, call):
        if call.kind == "minimax_games_per_s":
            cfg = call.info["cfg"]
            spec, fc = cfg.klass, self.build(catalog.parse_spec, cfg.klass)
            ldim, bldim = spec_dims(spec, self._dims)
            out = []
            for t in call.out:
                label = f"{cfg.learner} vs minimax on {spec}, T={cfg.T}"
                err = self.class_error(fc, t.justification)
                out += checks.transcript_problems(label, t, cfg.T, True, fc.table, err)
                out += checks.minimax_problems(label, cfg.learner, t.mistakes, cfg.T, bldim, ldim, fc.k)
            return out
        preset = call.kind[:-2]
        return getattr(self, "check_" + preset.replace("-", "_"))(call.out)

    def check_thm2_realizable(self, report):
        out = []
        for row in report.rows:
            if row.learner != "capacity":
                continue
            ldim, _ = spec_dims(row.klass, self._dims)
            k = int(row.klass.split("x")[1])
            ceiling = checks.capacity_ceiling(k, ldim)
            if abs(row.bound - ceiling) > checks.FLOAT_TOL * ceiling:
                out.append(f"{row.klass}: ceiling {row.bound:g}, expected 4*k*ln(k)*ldim = {ceiling:g}")
            if not (row.mean_mistakes < ceiling and row.passed):
                out.append(f"{row.klass}: capacity mean {row.mean_mistakes:g}, some game not below {ceiling:g}")
        return out

    def mc_row_problems(self, kind, row, label, exact, floor) -> list[str]:
        """A Monte Carlo row's mean against its exact expectation and floor.
        The row is kept for `check_together`."""
        self._mc[(kind, row.klass, row.learner, row.direction)] = (label, exact, floor)
        return checks.mc_problems(label, row.mean_mistakes, exact, row.trials, floor)

    def check_together(self, calls):
        """Pool each Monte Carlo row over the round's calls of its preset,
        each made with its own seed, and check the pooled mean at the tighter
        tolerance its larger trial count gives."""
        for kind in sorted({c.kind for c in calls if c.kind != "minimax_games_per_s"}):
            group = [c for c in calls if c.kind == kind]
            pooled: dict[tuple, tuple[float, int]] = {}
            for c in group:
                for row in c.out.rows:
                    key = (kind, row.klass, row.learner, row.direction)
                    if key in self._mc:
                        total, trials = pooled.get(key, (0.0, 0))
                        pooled[key] = (total + row.mean_mistakes * row.trials, trials + row.trials)
            problems = []
            for key, (total, trials) in pooled.items():
                label, exact, floor = self._mc[key]
                problems += checks.mc_problems(f"{label}, pooled", total / trials, exact, trials, floor)
            if problems:
                self.reject(group[0], problems)
                for c in group:
                    c.failed = True

    def check_claim_permutation(self, report):
        out = []
        for row in report.rows:
            delta, k = (int(v) for v in row.klass.split(":")[1].split("x"))
            horizon = delta * k * (k - 1) // 2
            label = f"{row.klass} {row.learner}"
            if row.learner == "random":  # each prediction misses w.p. (k-1)/k, independently
                exact = checks.Exact.binomial(horizon, Fraction(k - 1, k))
            elif row.learner in DETERMINISTIC:
                exact = self.permutation_expectation(delta, k, row.learner, out)
            else:
                out.append(f"{label}: no exact expectation for this learner")
                continue
            floor = Fraction(delta * (k - 1) * k, 4)
            out += checks.floor_problems(label, exact.mean, floor)
            out += self.mc_row_problems("claim-permutation_s", row, label, exact, floor)
        return out

    def permutation_expectation(self, delta, k, lname, problems) -> checks.Exact:
        """Exact mistake distribution of a deterministic learner over all
        (k!)^delta tapes of the block schedule, each game played through the
        protocol; capacity games that break their ceiling or shrinkage go to
        `problems`."""
        key = ("perm", delta, k, lname)
        if key not in self._exact:
            fc = self.build(catalog.permutation_class, delta, k)
            ldim, _ = spec_dims(fc.name, self._dims)
            ceiling = checks.capacity_ceiling(k, ldim)
            rng = np.random.default_rng(0)
            counts = []
            for tape in product(permutations(range(k)), repeat=delta):
                adversary = bl.PermutationAdversary(fc, delta, tape=tape)
                learner = bl.make_learner(lname, fc, delta * k * (k - 1) // 2)
                label = f"{fc.name} tape {tape}"
                watch = self.capacity_watch(label, problems) if lname == "capacity" else None
                learner, _ = play(self.tracer, lname, learner, "permutation", adversary, adversary.length, rng, watch)
                if lname == "capacity" and learner.mistakes >= ceiling:
                    problems.append(f"{label}: capacity made {learner.mistakes} mistakes, not below {ceiling:g}")
                counts.append(learner.mistakes)
            self._exact[key] = checks.Exact.uniform_over(counts)
        return self._exact[key]

    def capacity_watch(self, label, problems):
        """Checks C' <= (1 - 1/(2k)) C on every capacity-learner mistake."""

        def watch(before, after):
            self.collection_max = max(self.collection_max, len(after.collection))
            if after.mistakes > before.mistakes:
                c0 = self.tracer.call("dimensions.capacity", bl.capacity, before.collection)
                c1 = self.tracer.call("dimensions.capacity", bl.capacity, after.collection)
                problems.extend(checks.capacity_step_problems(label, before.k, c0, c1))

        return watch

    def check_claim_guessing(self, report):
        out = []
        for row in report.rows:
            k = int(row.klass.split("=")[1])
            label = f"k={k} {row.learner} {row.direction}"
            exact = self.guessing_expectation(k, row.learner)
            floor = Fraction(k - 1, 2)
            out += checks.floor_problems(label, exact.mean, floor, row.learner == "nonrepeating")
            out += self.mc_row_problems("claim-guessing_s", row, label, exact, floor)
        return out

    def guessing_expectation(self, k, name) -> checks.Exact:
        """Exact distribution of wrong guesses: deterministic guessers are
        played against every hidden label; the random guesser misses each of
        its k-1 guesses w.p. (k-1)/k, independently."""
        if name == "random":
            return checks.Exact.binomial(k - 1, Fraction(k - 1, k))
        counts = []
        for hidden in range(k):
            guesser = bl.make_guesser(name, k)
            wrong = 0
            for _ in range(k - 1):
                guess = guesser.next_guess()
                wrong += guess != hidden
                guesser.observe(guess, guess == hidden)
            counts.append(wrong)
        return checks.Exact.uniform_over(counts)

    def check_thm4_linear(self, report):
        out = []
        for row in report.rows:
            if row.direction == "info":
                continue
            if row.learner == "bandit-perceptron":
                delta, k = (int(v) for v in row.klass.split(":")[1].split("x"))
                exact = self.embedded_expectation(delta, k)
                label = f"{row.klass} bandit-perceptron"
                floor = Fraction(delta * (k - 1) * k, 4)
                out += checks.floor_problems(label, exact.mean, floor)
                out += self.mc_row_problems("thm4-linear_s", row, label, exact, floor)
            else:
                out += checks.linear_row_problems(row)
        return out

    def embedded_expectation(self, delta, k) -> checks.Exact:
        """Exact mistake distribution of the bandit Perceptron on the block schedule
        over every tape, with instance (j, m) embedded as the m-th k-th root of
        unity on complex coordinate j."""
        key = ("embedded", delta, k)
        if key not in self._exact:
            fc = self.build(catalog.permutation_class, delta, k)
            points = {}
            for j in range(delta):
                for m in range(k):
                    x = np.zeros(2 * delta)
                    x[2 * j], x[2 * j + 1] = math.cos(2 * math.pi * m / k), math.sin(2 * math.pi * m / k)
                    points[j * k + m] = x
            counts = []
            for tape in product(permutations(range(k)), repeat=delta):
                adversary = bl.PermutationAdversary(fc, delta, tape=tape)
                learner = bl.BanditPerceptron.zeros(k, 2 * delta)
                while (x := adversary.next_instance()) is not None:
                    pred = self.tracer.call("linear.bandit_perceptron_predict", learner.predict, points[x])
                    reply = adversary.respond(pred)
                    learner = self.tracer.call(
                        "linear.bandit_perceptron_update", learner.update, points[x], pred, reply.correct
                    )
                counts.append(learner.mistakes)
            self._exact[key] = checks.Exact.uniform_over(counts)
        return self._exact[key]

    def replay(self):
        """Time the minimax games through run_game and through the protocol,
        alternately and untraced, to split off run_game's own time; play them
        once more, traced, for the per-call spans; then time single guessing
        games and Perceptron runs."""
        calls = [c for c, _ in self.costs() if c.kind == "minimax_games_per_s"]

        def through_run_game():
            classes = {spec: catalog.parse_spec(spec) for spec in MINIMAX_CLASSES}
            start = perf_counter()
            for c in calls:
                bl.run_game(replace(c.info["cfg"], klass=classes[c.info["cfg"].klass]))
            return perf_counter() - start

        def through_protocol(tracer=UNTRACED):
            classes = {spec: catalog.parse_spec(spec) for spec in MINIMAX_CLASSES}
            start = perf_counter()
            for c in calls:
                cfg = c.info["cfg"]
                for _ in range(cfg.trials):
                    learner = bl.make_learner(cfg.learner, classes[cfg.klass], cfg.T)
                    adversary = bl.make_adversary("minimax", classes[cfg.klass], cfg.T, None)
                    play(tracer, cfg.learner, learner, "minimax", adversary, cfg.T, None)
            return perf_counter() - start

        rounds = sum(len(t.rounds) for c in calls for t in c.out)
        self.replayed = (*fastest_pair(through_run_game, through_protocol), rounds)
        through_protocol(self.tracer)

        rng = np.random.default_rng(self.seed)
        for k in range(2, 9):
            for name in GUESSERS:
                for _ in range(50):
                    self.tracer.call("adversaries.guessing_game", bl.guessing_game, k, bl.make_guesser(name, k, rng), rng)
        for delta, k in ((1, 3), (2, 4), (3, 5)):
            table = [list(rng.permutation(k)) for _ in range(delta)]
            _, graph = bl.roots_of_unity_embedding(table)
            for _ in range(20):
                stream = [graph[int(i)] for i in rng.integers(len(graph), size=60)]
                self.tracer.call("linear.perceptron_run", bl.multiclass_perceptron, stream, k, 2 * delta)

    def layer_metrics(self, totals):
        return {
            "dimensions.capacity_us": per_call(totals, "dimensions.capacity"),
            "learners.capacity_predict_us": per_call(totals, "learners.capacity_predict"),
            "learners.capacity_update_us": per_call(totals, "learners.capacity_update"),
            "learners.capacity_collection_max": self.collection_max,
            "learners.bsoa_predict_us": per_call(totals, "learners.bsoa_predict"),
            "adversaries.minimax_next_us": per_call(totals, "adversaries.minimax_next"),
            "adversaries.minimax_respond_us": per_call(totals, "adversaries.minimax_respond"),
            "adversaries.permutation_round_us": per_call(
                totals, "adversaries.permutation_respond", "adversaries.permutation_next"
            ),
            "adversaries.guessing_game_us": per_call(totals, "adversaries.guessing_game"),
            "linear.perceptron_run_ms": per_call(totals, "linear.perceptron_run", scale=1e3),
            "linear.bandit_perceptron_round_us": per_call(
                totals, "linear.bandit_perceptron_predict", "linear.bandit_perceptron_update"
            ),
            "harness.run_game_self_us": run_game_self_us(*self.replayed),
        }


WORKLOADS = {w.name: w for w in (AgnosticExp4, ExactDims, BanditGames)}


def _rung_layers():
    out = []
    for dim, _, _, ladder in LADDERS:
        for key, unit in (("s", "s"), ("memo", "count")):
            out += [(f"dimensions.{dim}_{key}.{rung[0]}", unit) for rung in ladder]
    return out


# Every per-layer metric, with its unit.  A workload that makes no call a
# metric describes reports it as 0.
PER_LAYER = (
    [
        ("hypotheses.class_error_ms", "ms"),
        ("catalog.build_ms", "ms"),
    ]
    + _rung_layers()
    + [
        ("dimensions.capacity_us", "us"),
        ("dimensions.memo_after_games", "count"),
        ("learners.exp4_make_s", "s"),
        ("learners.exp4_predict_us", "us"),
        ("learners.exp4_update_us", "us"),
        ("learners.capacity_predict_us", "us"),
        ("learners.capacity_update_us", "us"),
        ("learners.capacity_collection_max", "count"),
        ("learners.bsoa_predict_us", "us"),
        ("adversaries.sample_ms", "ms"),
        ("adversaries.minimax_next_us", "us"),
        ("adversaries.minimax_respond_us", "us"),
        ("adversaries.permutation_round_us", "us"),
        ("adversaries.guessing_game_us", "us"),
        ("linear.perceptron_run_ms", "ms"),
        ("linear.bandit_perceptron_round_us", "us"),
        ("harness.run_game_self_us", "us"),
    ]
)
