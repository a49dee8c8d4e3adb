import argparse
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    circuit_to_json_dict,
    dump_json,
    ensemble_to_json_dict,
    matrix_to_json,
    net_to_json_dict,
    random_phase,
    save_matrix_bin,
)
from prulab import cli
from prulab.cli import build_parser, main
from prulab.linalg import RandomSeed, haar_unitary
from prulab.serialize import (
    circuit_from_json_dict,
    ensemble_from_json_dict,
    load_matrix_bin,
    matrix_from_json,
    net_from_json_dict,
)
from prulab.truncation import DiagonalOracleCircuit


class TestSerialization:
    def test_matrix_json_round_trip(self):
        u = haar_unitary(3, RandomSeed(1))
        assert np.array_equal(matrix_from_json(matrix_to_json(u)), u)

    def test_matrix_binary_round_trip(self, tmp_path):
        u = haar_unitary(4, RandomSeed(2))
        path = tmp_path / "u.bin"
        save_matrix_bin(path, u)
        assert np.array_equal(load_matrix_bin(path, 4), u)

    def test_binary_size_validation(self, tmp_path):
        path = tmp_path / "u.bin"
        save_matrix_bin(path, haar_unitary(2, RandomSeed(3)))
        with pytest.raises(ValueError):
            load_matrix_bin(path, 3)

    def test_ensemble_manifest_round_trip(self):
        from prulab.ensembles import reference_design

        ens = reference_design("pauli-1-design", 1)
        back = ensemble_from_json_dict(ensemble_to_json_dict(ens))
        assert back.dim == 2 and len(back) == 4
        for a, b in zip(ens.unitaries, back.unitaries):
            assert np.array_equal(a, b)

    def test_net_manifest_round_trip(self):
        from prulab.nets import NetSpec

        net = NetSpec.haar_sample(2, 5, RandomSeed(4))
        back = net_from_json_dict(net_to_json_dict(net))
        assert len(back) == 5

    def test_circuit_manifest_round_trip(self):
        from prulab.truncation import DiagonalOracleCircuit

        rng = RandomSeed(5).generator()
        circ = DiagonalOracleCircuit(
            3, 2, [random_phase(2, rng)],
            [("fixed", haar_unitary(8, RandomSeed(6))), ("oracle", 0)])
        back = circuit_from_json_dict(circuit_to_json_dict(circ))
        assert back.n == 3 and back.call_count == 1
        assert np.allclose(back.materialize(), circ.materialize())


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


EYE_2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
TWICE_EYE_2 = [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]


def readme_commands():
    """The argv of each `prulab` line in README's CLI block, continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("prulab ")]


def leaf_parsers(parser, command=None):
    """(command, parser) for each parser that takes flags and no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(command, parser)]
    return [leaf for name, p in subs[0].choices.items()
            for leaf in leaf_parsers(p, command or name)]


# the base command line of each command or formula that lost flags, and the
# flags it no longer accepts because it never read them
UNREAD_FLAGS = {
    "bounds prior-support --d 2 --t 1": "--eps --eta --kappa --q --m --alpha-impl "
    "--c-diamond --c-design --additive-slack --poly-budget --seed --stream --mem-budget",
    "bounds improved-support --d 4 --t 8": "--eps --eta --kappa --q --m --alpha-impl "
    "--c-diamond --additive-slack --poly-budget --seed --stream --mem-budget",
    "bounds rom-input-length --d 4 --t 8": "--eta --kappa --q --m --alpha-impl --c-diamond "
    "--c-design --poly-budget --log --seed --stream --mem-budget",
    "bounds trivial-rompru --d 4 --kappa 3": "--t --sweep-t --delta --eps --eta --q --m "
    "--alpha-impl --c-diamond --c-design --additive-slack --poly-budget --log --seed "
    "--stream --mem-budget",
    "bounds scalable-check --d 16 --kappa 3 --q 4 --m 2 --t 8": "--eps --eta --c-diamond "
    "--c-design --additive-slack --log --seed --stream --mem-budget",
    "bounds net-size --d 2 --eps 0.5": "--t --sweep-t --delta --kappa --q --m --alpha-impl "
    "--c-design --additive-slack --poly-budget --seed --stream --mem-budget",
    "design-distance --ensemble pauli-1 --t 1": "--seed --stream",
    "truncate-diag --k 4": "--seed --stream",
}
FLAG_VALUES = {"--t": "3", "--sweep-t": "1,2", "--delta": "0", "--eps": "0.5", "--eta": "0",
               "--kappa": "3", "--q": "3", "--m": "3", "--alpha-impl": "0",
               "--c-diamond": "1", "--c-design": "1", "--additive-slack": "1",
               "--poly-budget": "2", "--seed": "1", "--stream": "2", "--mem-budget": "1"}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_bounds_prior_support_value(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "prior-support", "--d", "2", "--t", "1", "--delta", "0"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["value"] == pytest.approx(4.0)
        assert "config_hash" in rep

    def test_bounds_prior_support_accepts_delta_one(self, capsys):
        # max{(1 - 1) C(2, 1)^2, 2^2 / (2 * 1!)} = 2
        code, out, err = run_cli(
            ["bounds", "prior-support", "--d", "2", "--t", "1", "--delta", "1"], capsys)
        assert code == 0, err
        assert json.loads(out)["result"]["value"] == pytest.approx(2.0)

    def test_largest_seed_and_stream_accepted(self, capsys):
        top = str(2**64 - 1)
        code, _, err = run_cli(["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks",
                                "5", "--seed", top, "--stream", top], capsys)
        assert code == 0, err

    def test_design_distance_pauli(self, capsys):
        code, out, _ = run_cli(["design-distance", "--ensemble", "pauli-1", "--t", "1"],
                               capsys)
        assert code == 0
        assert json.loads(out)["result"]["lambda_tpe"] <= 1e-10

    def test_design_distance_matrix_files_relative_to_manifest(self, tmp_path, monkeypatch,
                                                               capsys):
        from prulab.ensembles import reference_design

        names = []
        for i, u in enumerate(reference_design("pauli-1-design", 1).unitaries):
            names.append(f"u{i}.bin")
            save_matrix_bin(tmp_path / names[-1], u)
        dump_json(tmp_path / "m.json", {"dim": 2, "matrix_files": names})
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        code, out, err = run_cli(["design-distance", "--ensemble-file",
                                  str(tmp_path / "m.json"), "--t", "1"], capsys)
        assert code == 0, err
        assert json.loads(out)["result"]["lambda_tpe"] <= 1e-10

    def test_net_coverage_matrix_files_relative_to_manifest(self, tmp_path, monkeypatch,
                                                            capsys):
        save_matrix_bin(tmp_path / "u.bin", np.eye(2, dtype=complex))
        dump_json(tmp_path / "net.json", {"dim": 2, "matrix_files": ["u.bin"]})
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        code, out, err = run_cli(["net-coverage", "--net-file", str(tmp_path / "net.json"),
                                  "--eps", "2.0", "--samples", "40", "--seed", "5"], capsys)
        assert code == 0, err
        assert json.loads(out)["result"]["eta_hat"] == 0.0

    @pytest.mark.parametrize("command, manifest, key", [
        (["design-distance", "--t", "1", "--ensemble-file"], {"matrices": []}, "'dim'"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--net-file"],
         {"matrices": []}, "'dim'"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [[0.0, 0.5]]}, "'sequence'"),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [[1, 2]]}, "[re, im]"),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [[[["a", 0], [0, 0]], [[0, 0], [1, 0]]]]}, "[re, im]"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [[0.0, 0.5]], "sequence": [{"fixed": [[1, 0], [0, 1]]}]},
         "[re, im]"),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [EYE_2, TWICE_EYE_2]},
         "ensemble element 1 is not unitary: max |U U^dag - I| is 3"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--net-file"],
         {"dim": 2, "matrices": [EYE_2, TWICE_EYE_2]},
         "net element 1 is not unitary: max |U U^dag - I| is 3"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [[0.0, 0.5]],
          "sequence": [{"oracle": 0}, {"fixed": TWICE_EYE_2}]},
         "circuit sequence item 1 is not unitary: max |U U^dag - I| is 3"),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "weights": [1.0], "matrices": [EYE_2, [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]},
         "weights of shape (1,) for 2 unitaries"),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "weights": [float("nan"), 1.0], "matrices": [EYE_2, EYE_2]},
         "weight 0 is nan, not a finite number"),
    ], ids=["ensemble-no-dim", "net-no-dim", "circuit-no-sequence", "matrix-row-of-numbers",
            "matrix-entry-not-numeric", "circuit-fixed-of-numbers", "ensemble-not-unitary",
            "net-not-unitary", "circuit-fixed-not-unitary", "ensemble-weights-length",
            "ensemble-weights-nan"])
    def test_manifest_missing_key_is_a_usage_error(self, command, manifest, key, tmp_path,
                                                   capsys):
        dump_json(tmp_path / "m.json", manifest)
        code, out, err = run_cli([*command, str(tmp_path / "m.json")], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and key in err

    def test_net_coverage_single_element_diameter(self, tmp_path, capsys):
        from prulab.nets import NetSpec

        net_file = tmp_path / "net.json"
        dump_json(net_file, net_to_json_dict(NetSpec(2, [np.eye(2, dtype=complex)])))
        code, out, _ = run_cli(
            ["net-coverage", "--net-file", str(net_file), "--eps", "2.0",
             "--samples", "40", "--seed", "5"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["eta_hat"] == 0.0

    def test_truncate_diag_ok(self, tmp_path, capsys):
        from prulab.truncation import DiagonalOracleCircuit

        rng = RandomSeed(7).generator()
        circ = DiagonalOracleCircuit(
            2, 2, [random_phase(2, rng)],
            [("oracle", 0), ("fixed", haar_unitary(4, RandomSeed(8))), ("oracle", 0)])
        path = tmp_path / "circ.json"
        dump_json(path, circuit_to_json_dict(circ))
        code, out, _ = run_cli(["truncate-diag", "--circuit-file", str(path),
                                "--k", "8"], capsys)
        assert code == 0
        rep = json.loads(out)["result"]
        assert rep["distance"] <= rep["bound"]

    def test_pfc_distinguish_roundtrip_and_warning(self, tmp_path, capsys):
        out_file = tmp_path / "rep.json"
        code = main(["pfc-distinguish", "--n", "2", "--trials", "3",
                     "--k-blocks", "20", "--seed", "11", "--out", str(out_file)])
        err = capsys.readouterr().err
        assert code == 0
        assert "warning" in err
        rep = json.loads(out_file.read_text())
        assert rep["result"]["params"]["t"] == 2

    def test_reports_reproducible_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["pfc-distinguish", "--n", "3", "--trials", "4",
                         "--k-blocks", "25", "--seed", "21", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pfc_distinguish_dense_haar_mode(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["pfc-distinguish", "--n", "6", "--trials", "5", "--k-blocks", "200",
                         "--haar-mode", "dense", "--seed", "7", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        rep = json.loads(paths[0].read_text())["result"]
        assert 0.0 <= rep["haar_verdict_rate"] <= 1.0
        assert 0.0 <= rep["pfc_verdict_rate"] <= 1.0

    def test_stochastic_requires_seed(self, capsys):
        code, out, err = run_cli(["pfc-distinguish", "--n", "3", "--trials", "2"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: the following arguments are required: --seed")

    def test_unknown_flag_rejected(self, capsys):
        code, out, err = run_cli(
            ["bounds", "prior-support", "--d", "2", "--t", "1", "--bogus", "3"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: unrecognized arguments: --bogus 3")

    @pytest.mark.parametrize("base, flag", [
        pytest.param(base, flag, id=base.split(" --")[0].removeprefix("bounds ") + flag)
        for base, unread in UNREAD_FLAGS.items() for flag in unread.split()])
    def test_flag_the_command_does_not_read_is_rejected(self, base, flag, tmp_path, capsys):
        # every command accepted the output, budget and seed flags, and every
        # bounds formula all 20 bounds flags, whether it read them or not
        argv = shlex.split(base) + [flag] + ([] if flag == "--log" else [FLAG_VALUES[flag]])
        if argv[0] == "truncate-diag":
            dump_json(tmp_path / "c.json", circuit_to_json_dict(DiagonalOracleCircuit(
                1, 1, [random_phase(1, RandomSeed(7).generator())], [("oracle", 0)])))
            argv += ["--circuit-file", str(tmp_path / "c.json")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), err
        assert err.startswith(f"error: unrecognized arguments: {flag}")

    def test_bounds_inputs_are_the_formulas_own_flags(self, capsys):
        code, out, err = run_cli(["bounds", "prior-support", "--d", "2", "--t", "1"], capsys)
        assert code == 0, err
        assert json.loads(out)["config"]["inputs"] == {
            "d": 2, "t": 1.0, "delta": 0.0, "log": False}

    @pytest.mark.parametrize("argv, cause", [
        (["pfc-distinguish", "--n", "31", "--trials", "1", "--seed", "1"], "--n"),
        (["design-distance", "--t", "1"], "--ensemble and --ensemble-file"),
        (["design-distance", "--ensemble", "pauli-1", "--ensemble-file", "m.json",
          "--t", "1"], "--ensemble and --ensemble-file"),
        (["design-distance", "--ensemble", "bogus", "--t", "1"], "--ensemble 'bogus'"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1"], "--net-file"),
        (["bounds", "prior-support", "--d", "2"], "--t"),
        (["bounds", "trivial-rompru", "--d", "4"], "--kappa"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "1", "--mem-budget", "0"],
         "--mem-budget"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "1", "--mem-budget", "-1"],
         "--mem-budget"),
        (["bounds", "net-size", "--d", "2"], "--eps"),
        (["bounds", "scalable-check", "--d", "4", "--t", "1", "--kappa", "1"], "--q"),
        (["bounds", "prior-support", "--d", "2", "--t", "1.5"], "integer --t"),
        (["bounds", "prior-support", "--d", "2", "--sweep-t", "1,1.5"], "integer --sweep-t"),
        (["net-coverage", "--haar-net-size", "2", "--dim", "2", "--eps", "0.5",
          "--samples", "2", "--seed", "1", "--sweep-eps", "0.1,x"], "--sweep-eps '0.1,x'"),
        (["bounds", "improved-support", "--d", "4", "--sweep-t", "1,y"], "--sweep-t '1,y'"),
        (["bounds", "prior-support", "--d", "2", "--t", "-1"], "--t"),
        (["bounds", "improved-support", "--d", "2", "--t", "inf"], "--t"),
        (["bounds", "improved-support", "--d", "2", "--t", "nan"], "--t"),
        (["bounds", "improved-support", "--d", "2", "--sweep-t", "1,nan"], "--sweep-t"),
        (["net-coverage", "--haar-net-size", "5", "--dim", "2", "--eps", "nan",
          "--samples", "5", "--seed", "1"], "--eps"),
        (["bounds", "improved-support", "--d", "64", "--t", "1e300"], "--log"),
        (["bounds", "prior-support", "--d", "1000", "--t", "200"], "--log"),
        (["bounds", "net-size", "--d", "100", "--eps", "0.001"], "--log"),
        (["bounds", "trivial-rompru", "--d", "4", "--kappa", "2000"], "--kappa"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "8", "--q", "1e300",
          "--m", "1e300", "--t", "8"], "--q and --m"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "8", "--q", "1e300",
          "--m", "1e300", "--t", "8", "--format", "csv"], "--q and --m"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "8", "--q", "4", "--m", "2",
          "--t", "8", "--poly-budget", "1000"], "--poly-budget"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "0", "--q", "4", "--m", "2",
          "--t", "8", "--poly-budget", "-1"], "--poly-budget"),
        (["bounds", "rom-input-length", "--d", "4", "--t", "1e-320"], "--d and --t"),
        (["bounds", "rom-input-length", "--d", "4", "--eps", "1e-320", "--t", "2"], "--eps"),
        (["bounds", "rom-input-length", "--d", "4", "--eps", "1e-320", "--t", "2",
          "--format", "csv"], "--eps"),
        (["bounds", "rom-input-length", "--d", "0", "--t", "8"], "--d"),
        (["bounds", "improved-support", "--d", "0", "--t", "2"], "--d"),
        (["bounds", "prior-support", "--d", "0", "--t", "2"], "--d"),
        (["bounds", "trivial-rompru", "--kappa", "3", "--d", "1" + "0" * 200], "--d"),
        (["bounds", "net-size", "--d", "0", "--eps", "0.1"], "--d"),
        (["bounds", "rom-input-length", "--d", "-3", "--t", "8"], "--d"),
        (["bounds", "scalable-check", "--d", "1", "--kappa", "1", "--q", "1", "--m", "1",
          "--t", "2"], "--d"),
        (["bounds", "prior-support", "--d", str(2**500 + 1), "--t", "2", "--log"], "--d"),
        (["pfc-distinguish", "--n", "20", "--trials", "1", "--k-blocks", "1", "--seed", "1",
          "--mem-budget", "0.0005"], "PFC permutation needs 8.39e+06 bytes, budget is 536870"),
        (["net-coverage", "--haar-net-size", "2", "--dim", "2", "--samples", "2", "--seed", "1"],
         "--eps or --sweep-eps"),
        (["net-coverage", "--haar-net-size", "2", "--dim", "0", "--eps", "0.5",
          "--samples", "2", "--seed", "1"], "--dim must be at least 1, got 0"),
        (["net-coverage", "--haar-net-size", "2", "--dim", "-2", "--eps", "0.5",
          "--samples", "2", "--seed", "1"], "--dim must be at least 1, got -2"),
        (["net-coverage", "--haar-net-size", "-5", "--dim", "2", "--eps", "0.5",
          "--samples", "2", "--seed", "1"], "--haar-net-size must be at least 1, got -5"),
        (["bounds", "rom-input-length", "--d", "4", "--t", "1000", "--delta", "5"],
         "--delta in [0, 1), got 5.0"),
        (["bounds", "improved-support", "--d", "4", "--t", "8", "--delta", "1"],
         "--delta in [0, 1), got 1.0"),
        (["net-coverage", "--haar-net-size", "3", "--dim", "2", "--eps", "-1",
          "--samples", "5", "--seed", "1"], "--eps must be nonnegative, got -1.0"),
        (["net-coverage", "--haar-net-size", "3", "--dim", "2", "--sweep-eps", "0.3,-1",
          "--samples", "5", "--seed", "1"], "--sweep-eps must be nonnegative, got -1.0"),
        (["bounds", "improved-support", "--d", "4", "--t", "8", "--sweep-t", ""],
         "--sweep-t '' is not a comma list of numbers"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--trials", "0"], "--trials must be at least 1, got 0"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--t", "1"], "--t must be at least 2, got 1"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--k-blocks", "0"], "--k-blocks must be at least 1, got 0"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--alpha", "-1"], "--alpha must be positive, got -1.0"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--alpha", "0"], "--alpha must be positive, got 0.0"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--seed", "-1"], "--seed must be in [0, 2^64), got -1"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--seed", str(2**64)], f"--seed must be in [0, 2^64), got {2**64}"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--stream", "-1"], "--stream must be in [0, 2^64), got -1"),
        (["net-coverage", "--haar-net-size", "3", "--dim", "2", "--eps", "0.5",
          "--samples", "5", "--seed", "-1"], "--seed must be in [0, 2^64), got -1"),
        (["net-coverage", "--haar-net-size", "3", "--dim", "2", "--eps", "0.5",
          "--samples", "0", "--seed", "1"], "--samples must be at least 1, got 0"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--d", "0"], "--d must be at least 1, got 0"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--eps", "-1"], "--eps must be positive, got -1.0"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--eta", "1"], "--eta must be in (0, 1), got 1.0"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--eta", "0"], "--eta must be in (0, 1), got 0.0"),
        (["bounds", "prior-support", "--d", "4", "--t", "2", "--delta", "5"],
         "bounds prior-support needs --delta in [0, 1], got 5.0"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "0"], "--t must be in 1..4, got 0"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "5"], "--t must be in 1..4, got 5"),
        (["truncate-diag", "--circuit-file", "c.json", "--k", "-1"],
         "--k must be in 0..1023, got -1"),
        (["truncate-diag", "--circuit-file", "c.json", "--k", "2000"],
         "--k must be in 0..1023, got 2000"),
        (["pfc-distinguish", "--n", "5", "--trials", "1", "--k-blocks", "2", "--seed", "1",
          "--t", "100000000000"], "collision test outcomes needs 4.8e+12 bytes"),
        (["pfc-distinguish", "--n", "3", "--trials", "1", "--k-blocks", "2", "--seed", "1",
          "--t", "100000000000"], "collision test outcomes needs 4.8e+12 bytes"),
        (["bounds", "net-size", "--d", "2", "--eps", "0.5", "--t", "3"],
         "unrecognized arguments: --t 3\nusage: prulab bounds net-size"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "4", "--mem-budget", "0.00001"],
         "moment superoperator needs 3.15e+06 bytes, budget is 10737 (raise it with --mem-budget"),
        (["bounds", "--d", "2", "net-size", "--eps", "0.5"],
         "--d goes after the formula name (prulab bounds net-size --d ...)\nusage: prulab bounds"),
    ], ids=["n-out-of-range", "no-ensemble", "both-ensembles", "unknown-ensemble",
            "no-net", "no-t", "no-kappa", "zero-mem-budget", "negative-mem-budget",
            "net-size-no-eps", "scalable-check-no-q", "fractional-t", "fractional-sweep-t",
            "bad-sweep-eps", "bad-sweep-t", "negative-t", "infinite-t", "nan-t",
            "nan-sweep-t", "nan-eps", "improved-support-overflow", "prior-support-overflow",
            "net-size-overflow", "trivial-rompru-kappa-overflow", "scalable-check-qm",
            "scalable-check-qm-csv", "scalable-check-budget",
            "scalable-check-budget-zero-base", "rom-input-length-m-design-1",
            "rom-input-length-m-net", "rom-input-length-m-net-csv",
            "rom-input-length-d-zero", "improved-support-d-zero", "prior-support-d-zero",
            "trivial-rompru-d-201-digits", "net-size-d-zero", "rom-input-length-d-negative",
            "scalable-check-d-one", "prior-support-d-beyond-limit",
            "pfc-permutation-over-budget", "net-coverage-no-eps", "net-coverage-dim-zero",
            "net-coverage-dim-negative", "net-coverage-net-size-negative",
            "rom-input-length-delta", "improved-support-delta-one", "net-coverage-negative-eps",
            "net-coverage-negative-sweep-eps", "empty-sweep-t", "pfc-trials-zero",
            "pfc-t-one", "pfc-k-blocks-zero", "pfc-alpha-negative", "pfc-alpha-zero",
            "pfc-seed-negative", "pfc-seed-2-64", "tomo-stream-negative",
            "net-coverage-seed-negative", "net-coverage-samples-zero", "tomo-d-zero",
            "tomo-eps-negative", "tomo-eta-one", "tomo-eta-zero", "prior-support-delta",
            "design-distance-t-zero", "design-distance-t-five", "truncate-k-negative",
            "truncate-k-2000", "pfc-outcomes-over-budget", "pfc-small-n-outcomes-over-budget",
            "unknown-flag-shows-formula-usage", "budget-error-names-mem-budget",
            "flag-before-formula"])
    def test_usage_error_names_its_cause(self, argv, cause, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and cause in err

    @pytest.mark.parametrize("argv", [
        ["bounds", "improved-support", "--d", "64", "--t", "1e300"],
        ["bounds", "prior-support", "--d", "1000", "--t", "200"],
        ["bounds", "net-size", "--d", "100", "--eps", "0.001"],
    ], ids=["improved-support", "prior-support", "net-size"])
    def test_overflowing_bound_is_finite_with_log(self, argv, capsys):
        code, out, err = run_cli(argv + ["--log"], capsys)
        assert code == 0, err
        assert np.isfinite(strict_json(out)["result"]["value"])

    @pytest.mark.parametrize("argv", [
        ["bounds", "improved-support", "--d", "2", "--t", "5e-324"],
        ["bounds", "improved-support", "--d", "2", "--t", "5e-324", "--log"],
        ["bounds", "improved-support", "--d", "2", "--t", "1e-300", "--c-design", "1e-30"],
        ["bounds", "improved-support", "--d", "2", "--t", "1e-300", "--c-design", "1e-30",
         "--log"],
        ["bounds", "trivial-rompru", "--d", str(2**200), "--kappa", "500"],
    ], ids=["improved-support-underflow", "improved-support-underflow-log",
            "improved-support-tiny-c-design", "improved-support-tiny-c-design-log",
            "trivial-rompru-support-nan"])
    def test_bound_past_float_range_is_finite(self, argv, capsys):
        # the improved-support ratio underflows to 0, and t and k are both
        # past 2^256 at d = 2^200, kappa = 500
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        rep = strict_json(out)["result"]
        assert all(np.isfinite(v) for v in rep.values() if isinstance(v, float))

    def test_scalable_check_beyond_float_kappa(self, capsys):
        code, out, err = run_cli(["bounds", "scalable-check", "--d", "16", "--kappa", "2000",
                                  "--q", "4", "--m", "2", "--t", "8"], capsys)
        assert code == 0, err
        rep = strict_json(out)["result"]
        assert rep["qm_budget"] == pytest.approx(8000.0**2)
        assert (rep["queries_ok"], rep["alpha_ok"], rep["passes"]) == (False, True, False)

    def test_runs_as_python_module(self, capsys):
        argv = ["bounds", "prior-support", "--d", "2", "--t", "1", "--delta", "0"]
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "prulab", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        code, out, err = run_cli(argv, capsys)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert code == 0 and out

    def test_readme_commands_parse(self):
        for argv in readme_commands():
            build_parser().parse_args(argv)

    def test_every_declared_flag_is_read(self):
        # each flag a command's leaf parser declares is read by its handler,
        # or by the shared code every handler goes through
        shared = "".join(inspect.getsource(f) for f in (cli.main, cli._emit, cli._seed_of))
        for command, leaf in leaf_parsers(build_parser()):
            source = inspect.getsource(cli._DISPATCH[command]) + shared
            for action in leaf._actions:
                if action.option_strings and action.dest != "help":
                    assert re.search(rf"\bargs\.{action.dest}\b", source), (
                        command, leaf.prog, action.dest)

    def test_readme_bounds_commands_emit_strict_json(self, capsys):
        # every `prulab bounds` example in README's CLI block runs as written,
        # and its JSON report holds no NaN or Infinity
        commands = [argv for argv in readme_commands() if argv[0] == "bounds"]
        assert commands
        for argv in commands:
            code, _, err = run_cli(argv, capsys)
            assert code == 0, (argv, err)
            code, out, err = run_cli(argv + ["--format", "json"], capsys)
            assert code == 0, (argv, err)
            strict_json(out)

    def test_mem_budget_is_restored(self, capsys):
        from prulab.linalg import memory_budget_bytes

        before = memory_budget_bytes()
        assert main(["design-distance", "--ensemble", "pauli-1", "--t", "1",
                     "--mem-budget", "0.5"]) == 0
        assert memory_budget_bytes() == before
        assert main(["design-distance", "--t", "1", "--mem-budget", "0.5"]) == 1
        assert memory_budget_bytes() == before

    @pytest.mark.parametrize("argv, header", [
        (["pfc-distinguish", "--n", "2", "--trials", "1", "--k-blocks", "2", "--seed", "1"],
         "n,params,trials,haar_verdict_rate,pfc_verdict_rate,haar_ci_half,pfc_ci_half,"
         "advantage,advantage_ci_half"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "1"],
         "dim,order,lambda_tpe,diamond_upper,diamond_lower,eps_relative,not_relative,symmetric"),
        (["net-coverage", "--haar-net-size", "2", "--dim", "2", "--eps", "0.5",
          "--samples", "2", "--seed", "1"], "epsilon,eta_hat,vol_hat,samples,ci_half"),
        (["truncate-diag", "--k", "4", "--circuit-file"], "s_calls,k,distance,bound"),
        (["bounds", "rom-input-length", "--d", "4", "--t", "8", "--eps", "0.1"],
         "t,m_design_1,m_design_2,m_net,regime_notes"),
        (["bounds", "trivial-rompru", "--d", "4", "--kappa", "3"],
         "d,kappa,t,support_size_log2,q,m,q_upper"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "3", "--q", "4", "--m", "2",
          "--t", "8"], "efficiency_ok,alpha_ok,queries_ok,advantage_ok,qm,qm_budget,"
         "induced_design_t,induced_design_delta,passes"),
    ], ids=["pfc-distinguish", "design-distance", "net-coverage", "truncate-diag",
            "rom-input-length", "trivial-rompru", "scalable-check"])
    def test_csv_header_is_the_report_fields(self, argv, header, tmp_path, capsys):
        if argv[-1] == "--circuit-file":
            from prulab.truncation import DiagonalOracleCircuit

            path = tmp_path / "circ.json"
            phase = random_phase(2, RandomSeed(7).generator())
            dump_json(path, circuit_to_json_dict(
                DiagonalOracleCircuit(2, 2, [phase], [("oracle", 0)])))
            argv = argv + [str(path)]
        code, out, err = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0, err
        assert out.splitlines()[0] == header

    def test_net_coverage_sweep_emits_rows(self, capsys):
        # --sweep-eps wins over --eps and needs none, and gives rows even for
        # one value, as --sweep-t does in bounds
        base = ["net-coverage", "--haar-net-size", "3", "--dim", "2", "--samples", "5",
                "--seed", "1"]
        code, out, err = run_cli(base + ["--sweep-eps", "0.5"], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["config"]["eps"] == [0.5]
        assert [row["epsilon"] for row in report["result"]["rows"]] == [0.5]
        code, swept, err = run_cli(base + ["--eps", "0.1", "--sweep-eps", "0.5"], capsys)
        assert code == 0, err
        assert swept == out
        code, out, err = run_cli(base + ["--eps", "0.5"], capsys)
        assert code == 0, err
        assert json.loads(out)["result"]["epsilon"] == 0.5

    def test_csv_sweep_one_param_per_row(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "improved-support", "--d", "4", "--sweep-t", "100,200,400",
             "--format", "csv"], capsys)
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if ln]
        assert len(lines) == 4  # header + 3 rows
        assert lines[0].startswith("t,")

    def test_tomo_demo(self, capsys):
        code, out, _ = run_cli(["tomo-demo", "--d", "2", "--eps", "0.5",
                                "--eta", "0.2", "--seed", "31"], capsys)
        assert code == 0
        rep = json.loads(out)["result"]
        assert rep["queries_used"] > 0

    def test_scalable_check_subcommand(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "scalable-check", "--d", "16", "--kappa", "3", "--q", "4",
             "--m", "2", "--t", "8", "--delta", "0.125"], capsys)
        assert code == 0
        rep = json.loads(out)["result"]
        assert rep["passes"] is True

    def test_net_size_subcommand(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "net-size", "--d", "2", "--eps", "0.5", "--eta", "0"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(8.0)

    def test_property_violation_exits_2(self, tmp_path, capsys, monkeypatch):
        from prulab.linalg import PropertyViolationError
        import prulab.cli as cli_mod

        def boom(args):
            raise PropertyViolationError("synthetic violation")

        monkeypatch.setitem(cli_mod._DISPATCH, "tomo-demo", boom)
        code = main(["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.2",
                     "--seed", "1"])
        assert code == 2
        assert "property violation" in capsys.readouterr().err
