import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import balgame
from balgame import balance, cli, fixtures, game
from balgame.cli import main
from balgame.core import (VectorFamily, canonical_family, enumerate_psum,
                          format_family, format_pointset)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_threshold_table(capsys):
    code, out, _ = run(capsys, "threshold")
    assert code == 0
    assert "M_crit" in out
    rows = [ln for ln in out.splitlines()[1:] if ln]
    assert len(rows) == 11  # n = 2..12


def test_threshold_single_json(capsys):
    code, out, _ = run(capsys, "threshold", "--n", "8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["M_crit"] == 47
    assert doc[0]["class"] == "pow2"


def test_threshold_rejects_n_zero(capsys):
    code, out, err = run(capsys, "threshold", "--n", "0")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("margin", ["-1", "0"])
def test_threshold_verify_rejects_margin_below_one(capsys, margin):
    # margin -1 sweeps nothing and margin 0 sweeps M_crit alone; neither
    # can see the flip
    code, out, err = run(capsys, "threshold", "--n", "3",
                         "--margin=" + margin, "--verify", "--json")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_threshold_verify(capsys):
    code, out, _ = run(capsys, "threshold", "--n", "3", "--verify", "--json")
    assert code == 0
    assert json.loads(out)[0]["cross_validated"]


def test_threshold_verify_refuses_n_above_four(capsys):
    code, out, err = run(capsys, "threshold", "--n", "7", "--verify")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: cross_validate covers n <= 4")


def test_threshold_table_verifies_small_n(capsys):
    code, out, _ = run(capsys, "threshold", "--verify", "--json")
    assert code == 0
    rows = json.loads(out)
    assert [r.get("cross_validated", False) for r in rows] == \
        [r["n"] <= 4 for r in rows]


def test_signs_odd(capsys):
    code, out, _ = run(capsys, "signs", "--odd", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["signed_sum"] == [6] * 5
    assert len(doc["table"]) == 16


def test_signs_middle_verified(capsys):
    code, out, _ = run(capsys, "signs", "--middle", "6", "--verify")
    assert code == 0
    assert "# defect: [0, 0, 0, 0, 0, 0]" in out


def test_signs_odd_verify(capsys):
    code, out, _ = run(capsys, "signs", "--odd", "5", "--verify")
    assert code == 0
    assert len(out.splitlines()) == 16


def test_signs_middle_verify_json(capsys):
    code, out, _ = run(capsys, "signs", "--middle", "6", "--verify", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"]
    assert "fixture_verified" not in doc
    assert doc["defect"] == [0] * 6


def test_signs_verify_rejects_a_wrong_row(capsys, monkeypatch):
    real = fixtures.format_sign_table

    def flip_first(rows):
        return real([(-rows[0][0], rows[0][1])] + rows[1:])

    monkeypatch.setattr(fixtures, "format_sign_table", flip_first)
    for mode in (["--odd", "5"], ["--middle", "6"]):
        code, out, err = run(capsys, "signs", *mode, "--verify")
        assert code == 1
        assert out == ""
        assert "FAILED" in err


def test_signs_requires_mode(capsys):
    code, _, _ = run(capsys, "signs")
    assert code == 2


@pytest.mark.parametrize("n", ["0", "4", "-3"])
def test_signs_odd_rejects_bad_n(capsys, n):
    # --odd 0 used to fall through to the middle-layer branch
    code, out, err = run(capsys, "signs", "--odd", n)
    assert code == 2
    assert out == ""
    assert err == "error: n must be odd and >= 3, got %s\n" % n


@pytest.mark.parametrize("argv", [
    ("signs", "--middle", "22"), ("signs", "--odd", "23"),
    ("simulate", "--n", "22"), ("play", "--n", "22"),
    ("play", "--n", "24", "--human", "chooser"),
])
def test_construction_size_limit_is_usage_error(capsys, monkeypatch, argv):
    # the limit is checked before a family of 2^(n-1) members is built
    def no_family(n):
        raise AssertionError("canonical_family(%d) was built" % n)

    monkeypatch.setattr(cli, "canonical_family", no_family)
    monkeypatch.setattr(balance, "canonical_family", no_family)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: n = %s is above the construction limit 21\n" \
        % argv[2]


def test_coloring(capsys, tmp_path):
    dest = tmp_path / "design.txt"
    code, out, _ = run(capsys, "coloring", "--m", "3", "--out", str(dest),
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    assert doc["defect_class"] == "balanced"
    lines = dest.read_text().strip().splitlines()
    assert len(lines) == 20


def test_witness(capsys, tmp_path):
    f = canonical_family(2)
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text(format_family(f))
    set_path = tmp_path / "set.txt"
    set_path.write_text(format_pointset(enumerate_psum(f)))
    code, out, _ = run(capsys, "witness", "--family", str(fam_path),
                       "--set", str(set_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["witnesses"]
    assert all(w.get("verified") or "skipped" in w for w in doc["witnesses"])


def test_witness_point_of_wrong_dimension(capsys, tmp_path):
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text(format_family(canonical_family(2)))
    set_path = tmp_path / "set.txt"
    set_path.write_text("0,0\n1,1,1\n")
    code, out, err = run(capsys, "witness", "--family", str(fam_path),
                         "--set", str(set_path))
    assert code == 2
    assert out == ""
    assert err == "error: point (1, 1, 1) does not have dimension 2\n"


def test_maximal(capsys, tmp_path):
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text(format_family(canonical_family(2)))
    code, out, _ = run(capsys, "maximal", "--family", str(fam_path),
                       "--window=-6:1;-6:1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["origin_safe"]
    code, out, _ = run(capsys, "maximal", "--family", str(fam_path),
                       "--window=-6:0;-6:0", "--json")
    assert code == 0
    assert not json.loads(out)["origin_safe"]


@pytest.mark.parametrize("family,window", [
    (format_family(canonical_family(2)), "0:1;0:1;0:1"),
    ("dim\n1,1\n", "0:1;0:1"),
    ("dim 3\n1x1\n", "0:1;0:1;0:1"),
    # volume 4.0e8 is over the window limit (SizeLimitError)
    (format_family(canonical_family(2)), "0:20000;0:20000"),
    # volume 4.0e6 is under it, but the deletion takes a round per row
    # along the long side: over the work limit at round 834, not
    # 800000 rounds later (SizeLimitError)
    ("dim 2\n-2,0\n0,1\n-2,-1\n", "0:4;0:799999"),
    # 257 members, the last parallel to the first (ValueError)
    pytest.param(format_family(VectorFamily(
        9, canonical_family(9).members + ((-1,) * 9,), strict=False)),
        ";".join(["0:1"] * 9), id="parallel-member-257"),
])
def test_maximal_bad_input_is_usage_error(capsys, tmp_path, family, window):
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text(family)
    code, out, err = run(capsys, "maximal", "--family", str(fam_path),
                         "--window", window)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


def test_output_independent_of_hash_seed(tmp_path):
    f = canonical_family(3)
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text(format_family(f))
    set_path = tmp_path / "set.txt"
    set_path.write_text(format_pointset(enumerate_psum(f)))
    src = str(Path(balgame.__file__).resolve().parent.parent)
    commands = [
        ["maximal", "--family", str(fam_path), "--window=-9:1;-9:1;-9:1",
         "--dump"],
        ["witness", "--family", str(fam_path), "--set", str(set_path)],
        ["signs", "--middle", "8"],
        # n = 14 takes the partial-coloring pipeline
        ["signs", "--middle", "14"],
        ["coloring", "--m", "3"],
        ["simulate", "--n", "4", "--rounds", "200", "--seed", "1"],
    ]
    for argv in commands:
        outs = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            res = subprocess.run([sys.executable, "-m", "balgame.cli"]
                                 + argv, env=env, capture_output=True,
                                 check=True, timeout=120)
            outs.add(res.stdout)
        assert len(outs) == 1, argv


def test_simulate_survives(capsys):
    code, out, _ = run(capsys, "simulate", "--n", "4", "--rounds", "2000",
                       "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "survived"
    assert doc["M"] == 3


def test_simulate_rank_pusher_window_too_large(capsys):
    # the n = 5 window has 35^5 cells, far above the volume limit
    code, out, err = run(capsys, "simulate", "--n", "5", "--pusher", "rank")
    assert code == 2
    assert out == ""
    assert err == ("error: window volume %d exceeds limit %d\n"
                   % (35 ** 5, game.WINDOW_VOLUME_LIMIT))


def test_simulate_rank_pusher_large_M(capsys):
    # M = 11 is far above M_crit(3) = 1: Chooser wins, so there is no
    # rank Pusher to play
    code, out, err = run(capsys, "simulate", "--n", "3", "--pusher", "rank",
                         "--M", "11")
    assert code == 2
    assert out == ""
    assert err == "rank pusher unavailable: Chooser wins this region\n"


@pytest.mark.parametrize("cmd", ["simulate", "play"])
def test_negative_rounds_is_usage_error(capsys, cmd):
    code, out, err = run(capsys, cmd, "--n", "3", "--rounds", "-5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("simulate", "--n", "3", "--M", "-1"),
    ("simulate", "--n", "3", "--M", "-1", "--pusher", "rank"),
    ("play", "--n", "3", "--M", "-1"),
    ("play", "--n", "3", "--M", "-1", "--human", "chooser"),
])
def test_negative_M_is_usage_error(capsys, monkeypatch, argv):
    # the region x <= M misses the origin; rejected before a family is
    # built or a game is played
    def no_family(n):
        raise AssertionError("canonical_family(%d) was built" % n)

    monkeypatch.setattr(cli, "canonical_family", no_family)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == ("error: region must contain the origin: --M must be "
                   ">= 0, got -1\n")


@pytest.mark.parametrize("human", ["pusher", "chooser"])
def test_play_input_ends(capsys, monkeypatch, human):
    def no_input(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", no_input)
    code, out, err = run(capsys, "play", "--n", "3", "--human", human)
    assert code == 2
    assert out.startswith("balancing game: n=3, M=1")
    assert err == "error: input ended before the game did\n"


def test_simulate_deterministic(capsys):
    _, out1, _ = run(capsys, "simulate", "--n", "3", "--rounds", "500",
                     "--seed", "9")
    _, out2, _ = run(capsys, "simulate", "--n", "3", "--rounds", "500",
                     "--seed", "9")
    assert out1 == out2


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "maximal", "--family", "/nonexistent",
                       "--window", "0:1;0:1")
    assert code == 2
    assert "error:" in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
