import json
import random

import pytest

from cliquegames.circuit import parse_circuit, evaluate
from cliquegames.cli import main

P4 = "c path\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
C5 = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.col"
    path.write_text(P4)
    return str(path)


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.col"
    path.write_text(C5)
    return str(path)


class TestOracleCommand:
    def test_text_golden(self, p4_file, capsys):
        assert main(["oracle", p4_file, "--output", "text"]) == 0
        assert capsys.readouterr().out == "omega=2 omega_b=3 mc=3 edge_biclique=2\n"

    def test_json(self, c5_file, capsys):
        assert main(["oracle", c5_file]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"omega": 2, "omega_b": 3, "mc": 5, "edge_biclique": 2}


class TestPlayCommand:
    def test_json_output(self, p4_file, capsys):
        assert main(["play", p4_file, "--game", "biclique", "--a", "1,2", "--b", "3,4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["game"] == "biclique"
        assert obj["a"] == [1, 2] and obj["b"] == [3, 4]
        assert sorted(obj["nonedge"]) == obj["nonedge"]
        assert obj["promise_verified"] is True

    def test_byte_identical_runs(self, p4_file, capsys):
        main(["play", p4_file, "--game", "biclique", "--a", "1,2", "--b", "3,4"])
        first = capsys.readouterr().out
        main(["play", p4_file, "--game", "biclique", "--a", "1,2", "--b", "3,4"])
        assert capsys.readouterr().out == first

    def test_clique_game_text(self, c5_file, capsys):
        assert (
            main(["play", c5_file, "--game", "clique", "--a", "1,3", "--b", "5",
                  "--output", "text"])
            == 0
        )
        out = capsys.readouterr().out
        assert "kind_of_answer=within_a" in out

    def test_promise_violation_exit(self, p4_file, capsys):
        assert main(["play", p4_file, "--game", "biclique", "--a", "1", "--b", "4"]) == 1
        assert "rejected input" in capsys.readouterr().err

    def test_star_stripped_vertex_named(self, tmp_path, capsys):
        path = tmp_path / "star.col"
        path.write_text("p edge 4 3\ne 1 2\ne 1 3\ne 1 4\n")
        code = main(["play", str(path), "--game", "biclique", "--a", "1", "--b", "2"])
        assert code == 1
        assert "removed by star stripping" in capsys.readouterr().err


class TestBuildCircuitCommand:
    def test_round_trip(self, p4_file, capsys):
        assert (
            main(["build-circuit", p4_file, "--game", "biclique", "--k", "2",
                  "--output", "text"])
            == 0
        )
        circ = parse_circuit(capsys.readouterr().out, var_count=3)
        # incidence vector of {0,1} accepted, complement of {2,3} rejected
        assert evaluate(circ, (1, 1, 1)) == 1
        assert evaluate(circ, (0, 0, 0)) == 0

    def test_json_metadata(self, p4_file, capsys):
        assert main(["build-circuit", p4_file, "--game", "biclique", "--k", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["depth"] == 4 and obj["k"] == 2
        parse_circuit(obj["circuit"], var_count=3)

    @pytest.mark.parametrize("game", ["clique", "relaxed-clique"])
    def test_clique_games_rejected_on_bipartite_graph(self, tmp_path, capsys, game):
        path = tmp_path / "bip.col"
        path.write_text("p edge 5 4\nb 3\ne 1 4\ne 2 4\ne 2 5\ne 3 5\n")
        assert main(["build-circuit", str(path), "--game", game, "--k", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "clique games need the full nonedge space" in captured.err


class TestStatsCommand:
    def test_p4(self, p4_file, capsys):
        assert main(["stats", p4_file, "--game", "biclique"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["max_bits"] == 7 and obj["bound"] == 7


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        assert main(["verify", "--suite", "induced-clique", "--n-max", "4"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is True and obj["failures"] == []


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["play", "nofile", "--game", "nonsense", "--a", "1", "--b", "2"])
        assert err.value.code == 2

    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 2 1\ne 1 5\n")
        assert main(["oracle", str(bad)]) == 3
        assert "out of range" in capsys.readouterr().err

    def test_missing_file_is_3(self, capsys):
        assert main(["oracle", "/does/not/exist.col"]) == 3

    def test_oracle_limit_is_4(self, tmp_path, capsys):
        lines = ["p edge 18 17"] + [f"e {i} {i + 1}" for i in range(1, 18)]
        big = tmp_path / "big.col"
        big.write_text("\n".join(lines) + "\n")
        assert main(["oracle", str(big)]) == 4
        assert "oracle limit" in capsys.readouterr().err

    def test_bad_env_value_is_2(self, p4_file, capsys, monkeypatch):
        monkeypatch.setenv("CLIQUEGAMES_SEED", "abc")
        assert main(["oracle", p4_file]) == 2
        assert "CLIQUEGAMES_SEED" in capsys.readouterr().err

    def test_bad_vertex_label_is_2(self, p4_file, capsys):
        assert main(["play", p4_file, "--game", "biclique", "--a", "x", "--b", "3,4"]) == 2
        assert "--a" in capsys.readouterr().err

    def test_env_override(self, p4_file, capsys, monkeypatch):
        monkeypatch.setenv("CLIQUEGAMES_OUTPUT", "text")
        assert main(["oracle", p4_file]) == 0
        assert capsys.readouterr().out.startswith("omega=")

    def test_env_value_outside_choices_is_2(self, p4_file, capsys, monkeypatch):
        monkeypatch.setenv("CLIQUEGAMES_OUTPUT", "xml")
        assert main(["oracle", p4_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "CLIQUEGAMES_OUTPUT='xml'" in captured.err and "json, text" in captured.err

    def test_removed_builder_flag_is_a_usage_error(self, p4_file):
        with pytest.raises(SystemExit) as err:
            main(["play", p4_file, "--game", "biclique", "--a", "1", "--b", "3", "--builder", "x"])
        assert err.value.code == 2

    @pytest.mark.parametrize("k", ["0", "6", "-1"])
    def test_k_outside_range_is_2(self, c5_file, capsys, k):
        assert main(["build-circuit", c5_file, "--game", "biclique", "--k", k]) == 2
        assert "--k" in capsys.readouterr().err

    def test_unknown_vertex_label_is_2(self, c5_file, capsys):
        assert main(["play", c5_file, "--game", "biclique", "--a", "9", "--b", "1"]) == 2
        assert "unknown vertex label 9" in capsys.readouterr().err

    @pytest.mark.parametrize("game, bound", [("edge-biclique", "-1"), ("biclique", "2")])
    def test_bad_edge_bound_is_2(self, c5_file, capsys, game, bound):
        argv = ["play", c5_file, "--game", game, "--a", "1,2", "--b", "4", "--edge-bound", bound]
        assert main(argv) == 2
        assert "--edge-bound" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["1", "0", "-3"])
    def test_n_max_below_2_is_2(self, capsys, n_max):
        assert main(["verify", "--suite", "induced-clique", "--n-max", n_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--n-max" in captured.err

    @pytest.mark.parametrize(
        "argv, env, name",
        [
            (["play", "--game", "clique", "--a", "1", "--b", "3", "--oracle-limit", "-1"], None, "--oracle-limit"),
            (["oracle", "--oracle-limit", "-1"], None, "--oracle-limit"),
            (["oracle", "--clique-cap", "-1"], None, "--clique-cap"),
            (["oracle"], "-1", "--oracle-limit"),
        ],
        ids=["play", "oracle", "clique-cap", "env"],
    )
    def test_negative_limit_is_2(self, c5_file, capsys, monkeypatch, argv, env, name):
        if env is not None:
            monkeypatch.setenv("CLIQUEGAMES_ORACLE_LIMIT", env)
        assert main([argv[0], c5_file, *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{name}: -1 is negative" in captured.err

    def test_oracle_limit_0_turns_validation_off(self, c5_file, capsys):
        argv = ["play", c5_file, "--game", "biclique", "--a", "1,2", "--b", "3,4", "--oracle-limit", "0"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["promise_verified"] is False

    def test_non_utf8_graph_is_3(self, tmp_path, capsys):
        bad = tmp_path / "latin1.col"
        bad.write_bytes(b"c caf\xe9\np edge 2 1\ne 1 2\n")
        assert main(["oracle", str(bad)]) == 3
        assert "not UTF-8" in capsys.readouterr().err


def _mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    """One seeded edit: replace, insert or delete a byte, or cut the tail."""
    i = rng.randrange(len(data))
    op = rng.randrange(4)
    if op == 0:
        return data[:i] + bytes([rng.randrange(256)]) + data[i + 1 :]
    if op == 1:
        return data[:i] + bytes([rng.choice(b"0123456789 \nepbc-\t\xff")]) + data[i:]
    if op == 2:
        return data[:i] + data[i + 1 :]
    return data[:i]


def test_mutated_graph_files_exit_with_documented_codes(tmp_path, capsys):
    """A mutated graph file ends in one of the documented exit codes, never a traceback."""
    rng = random.Random(2024)
    bases = [P4.encode(), C5.encode(), b"p edge 4 3\nb 2\ne 1 3\ne 1 4\ne 2 4\n"]
    commands = [
        ["oracle"],
        ["play", "--game", "biclique", "--a", "1,2", "--b", "3,4"],
        ["play", "--game", "clique", "--a", "1,2", "--b", "4"],
        ["stats", "--game", "biclique"],
    ]
    path = tmp_path / "mutant.col"
    codes = set()
    for trial in range(600):
        data = bytes(bases[trial % len(bases)])
        for _ in range(rng.randrange(1, 4)):
            data = _mutate_bytes(data, rng) or b"\n"
        path.write_bytes(data)
        cmd = commands[trial % len(commands)]
        code = main([cmd[0], str(path)] + cmd[1:])
        capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), (data, cmd)
        codes.add(code)
    assert {0, 3} <= codes
