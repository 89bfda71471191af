import math
from dataclasses import fields
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab import PermutationAdversary, permutation_class, permutation_sequence, play
from banditlab.linear import (
    BanditPerceptron,
    EmbeddedLearner,
    check_margin_realization,
    embedding_norm_report,
    frobenius_norm,
    margin_gap,
    multiclass_perceptron,
    perceptron_mistakes,
    roots_of_unity_embedding,
    roots_of_unity_gap,
    standard_basis_embedding,
)
from perceptron_oracle import multiclass_perceptron as scalar_perceptron


# ---------------------------------------------------------------------------
# gap arithmetic
# ---------------------------------------------------------------------------


def test_identity_rows_give_unit_gap():
    w = np.eye(2)
    assert margin_gap(w, np.array([1.0, 0.0]), 0) == pytest.approx(1.0)


def test_zero_matrix_has_zero_gap_everywhere():
    w = np.zeros((3, 4))
    x = np.array([0.3, -0.1, 0.5, 0.0])
    for y in range(3):
        assert margin_gap(w, x, y) == 0.0


@settings(max_examples=50)
@given(
    st.floats(min_value=0.01, max_value=100.0),
    st.integers(0, 2),
)
def test_gap_homogeneity(c, y):
    rng = np.random.default_rng(42)
    w = rng.normal(size=(3, 4))
    x = rng.normal(size=4)
    x /= max(1.0, np.linalg.norm(x))
    assert margin_gap(c * w, x, y) == pytest.approx(c * margin_gap(w, x, y), rel=1e-9)
    assert np.argmax(c * w @ x) == np.argmax(w @ x)


def test_check_margin_realization_reports_minimum():
    w, graph = standard_basis_embedding([0, 1, 0], k=2)
    ok, min_gap = check_margin_realization(w, graph)
    assert ok and min_gap == pytest.approx(1.0)
    scaled_ok, scaled_gap = check_margin_realization(w / min_gap, graph)
    assert scaled_ok and scaled_gap == pytest.approx(1.0, abs=1e-12)
    bad_ok, bad_gap = check_margin_realization(np.zeros_like(w), graph)
    assert not bad_ok and bad_gap == 0.0


# ---------------------------------------------------------------------------
# standard-basis embedding
# ---------------------------------------------------------------------------


def test_basis_embedding_two_points():
    w, graph = standard_basis_embedding([0, 1], k=2)
    assert np.array_equal(w, np.eye(2))
    assert frobenius_norm(w) == pytest.approx(math.sqrt(2))
    for x, y in graph:
        assert margin_gap(w, x, y) == pytest.approx(1.0)


@pytest.mark.parametrize("L,k", [(3, 2), (4, 3), (5, 5)])
def test_basis_embedding_any_labeling(L, k):
    rng = np.random.default_rng(L * k)
    f = [int(v) for v in rng.integers(k, size=L)]
    w, graph = standard_basis_embedding(f, k)
    ok, min_gap = check_margin_realization(w, graph)
    assert ok and min_gap == pytest.approx(1.0)
    assert frobenius_norm(w) ** 2 == pytest.approx(L)


# ---------------------------------------------------------------------------
# roots-of-unity embedding
# ---------------------------------------------------------------------------


def test_roots_gap_closed_form_k3():
    assert roots_of_unity_gap(3) == pytest.approx(13.5)


@pytest.mark.parametrize("delta,k", [(1, 3), (2, 4), (3, 5)])
def test_roots_embedding_exact_gap_and_norm(delta, k):
    rng = np.random.default_rng(delta + k)
    table = [list(rng.permutation(k)) for _ in range(delta)]
    w, graph = roots_of_unity_embedding(table)
    ok, min_gap = check_margin_realization(w, graph)
    assert ok
    assert abs(min_gap - roots_of_unity_gap(k)) <= 1e-9
    assert abs(frobenius_norm(w) ** 2 - delta * k**5) <= 1e-9 * delta * k**5
    for x, _ in graph:
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)


def test_roots_scores_match_the_hermitian_form():
    # real-embedded scores equal k^2 * cos(2*pi*(m - m')/k): the inner product
    # depends on the point phases, not on the labels they map to
    k, delta = 5, 2
    rng = np.random.default_rng(2)
    table = [list(rng.permutation(k)) for _ in range(delta)]
    w, graph = roots_of_unity_embedding(table)
    for j in range(delta):
        for m in range(k):
            x = graph[j * k + m][0]
            scores = w @ x
            for mp in range(k):
                expected = k**2 * math.cos(2 * math.pi * (m - mp) / k)
                assert scores[table[j][mp]] == pytest.approx(expected, abs=1e-10)


def test_roots_embedding_validation():
    with pytest.raises(ValueError):
        roots_of_unity_embedding([[0, 0, 1]])  # not a bijection


def test_taylor_floor_keeps_the_gap_above_one():
    for k in range(3, 65):
        gap = roots_of_unity_gap(k)
        assert gap >= math.pi**2 - 1e-9  # the Taylor floor k^2 * (2*pi/k)^2 / 4
        assert gap > 1.0
    assert roots_of_unity_gap(2) > 1.0


def test_norm_report_flags_large_k():
    small = embedding_norm_report(2, 4)
    assert small["fits_threshold"]
    big = embedding_norm_report(2, 40)
    assert not big["fits_threshold"]  # the quoted threshold stops covering it


@pytest.mark.parametrize("delta, k, message", [(1, 1, "k=1"), (1, 0, "k=0"), (0, 3, "delta=0"), (-2, 3, "delta=-2")])
def test_norm_report_refuses_degenerate_constructions(delta, k, message):
    # k = 1 divided by a zero gap; delta = 0 reported an empty construction
    with pytest.raises(ValueError, match=message):
        embedding_norm_report(delta, k)
    if delta >= 1:
        with pytest.raises(ValueError, match=message):
            roots_of_unity_gap(k)


# ---------------------------------------------------------------------------
# the perceptron
# ---------------------------------------------------------------------------


def test_perceptron_empty_stream():
    result = multiclass_perceptron([], k=3, d=2)
    assert result.mistakes == 0 and not result.weights.any()


def test_perceptron_repeated_point_converges():
    w, graph = standard_basis_embedding([1], k=2)
    stream = graph * 20
    result = multiclass_perceptron(stream, k=2, d=1)
    assert result.mistakes <= 2  # 2*D^2 with D^2 = 1


@pytest.mark.parametrize("L", [2, 3, 4])
def test_perceptron_bound_on_basis_streams(L):
    k = 3
    rng = np.random.default_rng(L)
    for _ in range(20):
        f = [int(v) for v in rng.integers(k, size=L)]
        _, graph = standard_basis_embedding(f, k)
        idx = rng.integers(len(graph), size=50)
        stream = [graph[int(i)] for i in idx]
        result = multiclass_perceptron(stream, k, L)
        assert result.mistakes <= 2 * L


@pytest.mark.parametrize("delta,k", [(1, 3), (2, 4)])
def test_perceptron_bound_on_roots_streams(delta, k):
    rng = np.random.default_rng(delta * 10 + k)
    gap = roots_of_unity_gap(k)
    d_sq = delta * k**5 / gap**2  # squared norm after normalizing the gap to 1
    for _ in range(20):
        table = [list(rng.permutation(k)) for _ in range(delta)]
        _, graph = roots_of_unity_embedding(table)
        idx = rng.integers(len(graph), size=60)
        stream = [graph[int(i)] for i in idx]
        result = multiclass_perceptron(stream, k, 2 * delta)
        assert result.mistakes <= 2 * d_sq


@pytest.mark.parametrize("L,k", [(2, 3), (3, 3)])
def test_dimension_sandwich_through_the_embedding(L, k):
    """The margin ball of squared radius L holds every labeling of L basis
    points, so its dimension is at least ldim of the full class on L points;
    the perceptron keeps realizable runs within 2*L from above."""
    from itertools import product

    from banditlab import full_class, ldim, shatter_witness

    for f in product(range(k), repeat=L):
        w, graph = standard_basis_embedding(list(f), k)
        ok, _ = check_margin_realization(w, graph)
        assert ok and frobenius_norm(w) ** 2 == pytest.approx(L)
    embedded = full_class(L, k)
    assert ldim(embedded.full_space()) == L
    assert shatter_witness(embedded.full_space(), L, "L") is not None
    rng = np.random.default_rng(L)
    for _ in range(10):
        f = [int(v) for v in rng.integers(k, size=L)]
        _, graph = standard_basis_embedding(f, k)
        stream = [graph[int(i)] for i in rng.integers(L, size=40)]
        assert multiclass_perceptron(stream, k, L).mistakes <= 2 * L


@st.composite
def perceptron_batches(draw):
    """(graphs, picks, k, d): run r plays graphs[r][i] for each i in picks[r].

    Graphs come from either embedding, or are arbitrary float points (the zero
    point among them, so scores can stay tied past the all-zero start) with
    arbitrary labels; every pool is small, so points repeat."""
    runs = draw(st.integers(1, 8))
    source = draw(st.sampled_from(["basis", "roots", "floats"]))
    if source == "basis":
        k, d = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        labelings = st.lists(st.integers(0, k - 1), min_size=d, max_size=d)
        graphs = [standard_basis_embedding(draw(labelings), k)[1] for _ in range(runs)]
    elif source == "roots":
        k, delta = draw(st.integers(1, 5)), draw(st.integers(1, 3))
        d = 2 * delta
        tables = st.lists(st.permutations(range(k)), min_size=delta, max_size=delta)
        graphs = [roots_of_unity_embedding(draw(tables))[1] for _ in range(runs)]
    else:
        k, d = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        coords = st.lists(st.floats(-4.0, 4.0, allow_subnormal=False), min_size=d, max_size=d)
        pool = [np.zeros(d)] + [np.array(x) for x in draw(st.lists(coords, min_size=1, max_size=3))]
        graphs = [[(x, draw(st.integers(0, k - 1))) for x in pool] for _ in range(runs)]
    T = draw(st.integers(0, 40))
    picks = [draw(st.lists(st.integers(0, len(g) - 1), min_size=T, max_size=T)) for g in graphs]
    return graphs, picks, k, d


@settings(max_examples=300, deadline=None)
@given(perceptron_batches())
def test_batched_perceptron_matches_the_scalar_runs(batch):
    graphs, picks, k, d = batch
    streams = [[g[i] for i in idx] for g, idx in zip(graphs, picks)]
    T = len(picks[0])
    points = np.array([[x for x, _ in s] for s in streams]).reshape(len(streams), T, d)
    labels = np.array([[y for _, y in s] for s in streams], dtype=np.int64).reshape(len(streams), T)
    mistakes, weights = perceptron_mistakes(points, labels, k)
    assert mistakes.shape == (len(streams),) and weights.shape == (len(streams), k, d)
    for r, stream in enumerate(streams):
        expected_mistakes, expected_weights = scalar_perceptron(stream, k, d)
        assert mistakes[r] == expected_mistakes
        assert np.array_equal(weights[r], expected_weights)
    one = multiclass_perceptron(streams[0], k, d)
    assert one.mistakes == mistakes[0] and np.array_equal(one.weights, weights[0])


def test_embedded_learner_declares_its_trait_on_the_class():
    """thm4-linear counts each tape once along one game tree, which is right
    only for a learner whose class says it is deterministic; its predictions
    must then ignore the rng."""
    assert EmbeddedLearner.deterministic is True
    assert "deterministic" not in {f.name for f in fields(EmbeddedLearner)}  # a ClassVar
    rng = np.random.default_rng(0)
    points = {x: p for x, p in enumerate(rng.normal(size=(6, 4)))}
    learner = EmbeddedLearner(BanditPerceptron(rng.normal(size=(3, 4))), points)
    for x in points:
        assert learner.predict(x, None) == learner.predict(x, np.random.default_rng(x))


def test_bandit_perceptron_updates_only_on_mistakes():
    learner = BanditPerceptron.zeros(3, 2)
    x = np.array([1.0, 0.0])
    same = learner.update(x, 1, correct=True)
    assert same.mistakes == 0 and not same.weights.any()
    moved = learner.update(x, 1, correct=False)
    assert moved.mistakes == 1 and moved.weights[1, 0] == -1.0


@pytest.mark.parametrize("delta, k", [(1, 3), (2, 3)])
def test_embedded_learner_through_play_matches_the_direct_loop(delta, k):
    fc = permutation_class(delta, k)
    total = 0
    for tape in product(permutations(range(k)), repeat=delta):
        _, graph = roots_of_unity_embedding([list(row) for row in tape])
        points = {x: graph[x][0] for x in range(delta * k)}
        seq = permutation_sequence(fc, delta, tape)
        # reference: the Perceptron walked over the sequence's points and labels
        direct = BanditPerceptron.zeros(k, 2 * delta)
        for ex in seq:
            (y,) = ex.allowed
            pred = direct.predict(points[ex.x])
            direct = direct.update(points[ex.x], pred, pred == y)
        adversary = PermutationAdversary(fc, delta, tape=tape)
        learner = EmbeddedLearner(BanditPerceptron.zeros(k, 2 * delta), points)
        learner, rounds = play(learner, adversary, adversary.length, None)
        assert len(rounds) == len(seq)
        assert learner.mistakes == direct.mistakes
        assert np.array_equal(learner.inner.weights, direct.weights)
        total += direct.mistakes
    assert total > 0
