import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import banditlab
from banditlab import cli, harness, run_experiment


PLAY = [
    "play", "--class", "full:1x3", "--learner", "capacity", "--adversary", "minimax",
    "--T", "6", "--trials", "2",
]


def test_play_exit_code_follows_the_bound(monkeypatch, capsys):
    assert cli.main(PLAY) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["0,2,2.0,true", "1,2,2.0,true"]
    monkeypatch.setattr(harness, "play_bound", lambda cfg, fc: (-1.0, "<="))
    assert cli.main(PLAY) == 1
    assert capsys.readouterr().out.splitlines()[1:] == ["0,2,-1.0,false", "1,2,-1.0,false"]


def test_play_without_a_bound_exits_zero(capsys):
    args = ["play", "--class", "full:1x3", "--learner", "cycling", "--adversary", "noise:1", "--T", "4"]
    assert cli.main(args) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("0,") and row.endswith(",,")


def test_soa_on_multi_label_runs_claims_no_ceiling(capsys):
    # with two-label sets SOA can miss twice on full:1x3, whose ldim is 1
    args = [
        "play", "--class", "full:1x3", "--learner", "soa", "--adversary", "random-realizable:2",
        "--T", "10", "--trials", "20", "--seed", "1",
    ]
    assert cli.main(args) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 20 and all(row.endswith(",,") for row in rows)
    assert max(int(row.split(",")[1]) for row in rows) == 2


def test_experts_counts_without_enumerating(capsys):
    assert cli.main(["experts", "--class", "full:4x2", "--T", "1000"]) == 0
    out = capsys.readouterr().out
    assert "experts: 664005332001 (ceiling (T*k+1)^ldim = 16032024008001)" in out
    assert "note" not in out
    assert "gamma = " in out
    with pytest.raises(SystemExit):
        cli.main(["experts", "--class", "full:1x3", "--T", "10", "--cap", "100"])


def _play_perm_1x3(learner, adversary):
    return ["play", "--class", "perm:1x3", "--learner", learner, "--adversary", adversary, "--T", "3"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["play", "--class", "full:1x3", "--learner", "soa", "--adversary", "minimax", "--T", "3"],
         "revealed no label set"),
        (["dim", "nope:1x3"], "unknown class kind 'nope'"),
        (["dim", "full:+1x 3"], "bad class spec 'full:+1x 3'"),
        (["dim", "full:1x3x2"], "bad class spec 'full:1x3x2'"),
        (["dim", "full"], "bad class spec 'full'"),
        (["experts", "--class", "full:1x3", "--T", "0"], "horizon T must be >= 1, got T=0"),
        (["experts", "--class", "full:1x3", "--T", "-3"], "horizon T must be >= 1, got T=-3"),
        (["linear-check", "--delta", "1", "--k", "1"], "need at least two labels, got k=1"),
        (["linear-check", "--delta", "0", "--k", "3"], "need at least one block, got delta=0"),
        (_play_perm_1x3("cycling", "guessing:9"), "adversary 'guessing' takes no argument"),
        (_play_perm_1x3("cycling", "minimax:3"), "adversary 'minimax' takes no argument"),
        (_play_perm_1x3("cycling", "permutation:"), "takes the form permutation:<delta>"),
        (_play_perm_1x3("cycling", "permutation:x"), "takes the form permutation:<delta>"),
        (_play_perm_1x3("cycling", "noise:+1"), "takes the form noise:<setsize>"),
        (_play_perm_1x3("constant:abc", "permutation:1"), "learner 'constant' takes the form constant:<label>"),
        (_play_perm_1x3("constant:", "permutation:1"), "learner 'constant' takes the form constant:<label>"),
        (["experiment", "dim-ratio", "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["dim", "{tmp}"], "Is a directory"),
        (["play", "--class", "{tmp}", "--learner", "cycling", "--adversary", "noise:1", "--T", "2"],
         "Is a directory"),
        (["experiment", "dim-ratio", "--out", "{tmp}"], "Is a directory"),
        (_play_perm_1x3("cycling", "permutation:1") + ["--out", "{tmp}/missing/x.csv"],
         "No such file or directory"),
        (_play_perm_1x3("cycling", "permutation:1") + ["--out", "{tmp}"], "Is a directory"),
        (["experiment", "dim-ratio", "--out", "{tmp}/missing/x.csv"], "No such file or directory"),
    ],
)
def test_rejected_input_exits_two_with_a_message(argv, message, tmp_path, capsys):
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("banditlab: error: ") and message in err


def test_well_formed_counts_and_their_defaults_still_play(capsys):
    for learner, adversary in (("constant:2", "permutation:1"), ("constant", "permutation")):
        assert cli.main(_play_perm_1x3(learner, adversary)) == 0
    assert capsys.readouterr().err == ""


def test_a_zero_padded_set_size_keeps_the_single_label_ceiling(capsys):
    args = ["play", "--class", "full:1x3", "--learner", "soa", "--T", "4", "--adversary"]
    for adversary in ("random-realizable:1", "random-realizable:01", "random-realizable"):
        assert cli.main(args + [adversary]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",1.0,true")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["full:2x3"], "ldim full:2x3 = 2\nbldim full:2x3 = 4\n"),
        (["full:2x3", "--mode", "bl"], "bldim full:2x3 = 4\n"),
        (
            ["full:1x3", "--mode", "l", "--witness"],
            "ldim full:1x3 = 1\nx=0\n  y=0 ->\n    leaf\n  y=1 ->\n    leaf\n",
        ),
    ],
)
def test_dim_prints_the_same_bytes(argv, expected, capsys):
    assert cli.main(["dim", *argv]) == 0
    assert capsys.readouterr().out == expected


def test_dim_prints_both_witness_trees_byte_for_byte(capsys):
    assert cli.main(["dim", "perm:1x3", "--witness"]) == 0
    out = capsys.readouterr().out
    # 94 lines: the ldim line and its tree, then the bldim line and its tree
    lines = out.splitlines()
    assert len(lines) == 94
    assert lines[0] == "ldim perm:1x3 = 2" and lines.index("bldim perm:1x3 = 3") == 14
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e77e774f92899325441070aa383d5c506fd2c0c4efb5eccc9490f4708657f153"
    )


def test_claim_guessing_does_not_fail_by_chance(capsys):
    # at three sample standard errors the k=4 non-repeating "=" row failed
    # here, reading 2.02 over 50 sampled games against 1.5, though the
    # guesser's mean is exactly 1.5; the row is now that exact mean, over 13
    # games per hidden label
    argv = ["experiment", "claim-guessing", "--seed", "2", "--trials", "50"]
    assert cli.main(argv) == 0
    assert "k=4,nonrepeating,guessing,3,52,2,1.5,0.0,1.5,=,true" in capsys.readouterr().out


@pytest.mark.parametrize(
    "preset, option",
    [
        ("claim-guessing", "T"),
        ("claim-permutation", "T"),
        ("dim-ratio", "T"),
        ("dim-ratio", "trials"),
    ],
)
def test_presets_refuse_a_size_they_do_not_take(preset, option, capsys):
    with pytest.raises(ValueError, match=f"preset '{preset}' takes no {option}, got {option}=3"):
        run_experiment(preset, seed=1, **{option: 3})
    assert cli.main(["experiment", preset, f"--{option}", "3"]) == 2
    assert f"banditlab: error: preset '{preset}' takes no {option}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "preset, seed",
    [
        ("claim-permutation", "313"),
        ("claim-permutation", "527"),
        ("claim-guessing", "129"),
        ("claim-guessing", "151"),
    ],
)
def test_rows_on_the_floor_do_not_fail_by_chance(preset, seed, capsys):
    # judged by three sample standard errors these failed, each on a row
    # whose exact mean is its floor: soa-bandit on perm:2x4 read 5.37 against
    # 6 (seed 313), soa-bandit and bsoa on perm:1x3 1.24 against 3/2 (527),
    # and the k=2 cycling and random guessers 0.33 and 0.34 against 1/2
    # (129 and 151)
    assert cli.main(["experiment", preset, "--seed", seed, "--trials", "100"]) == 0
    assert "# overall: pass" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = str(Path(banditlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["experiment", "thm4-linear", "--trials", "10", "--seed", "7"]
    done = subprocess.run(
        [sys.executable, "-m", "banditlab", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == harness.CSV_COLUMNS
