import argparse
import contextlib
import copy
import csv
import functools
import hashlib
import inspect
import io
import json
import math
import operator
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    FUZZ_COUNTS,
    FUZZ_NUMBERS,
    FUZZ_VALUES,
    circuit_to_json_dict,
    dump_json,
    ensemble_to_json_dict,
    matrix_to_json,
    mp_log_net_size_lower_bound,
    mp_log_prior_support_bound,
    mp_rom_input_length_bounds,
    random_phase,
    readme_commands,
    save_matrix_bin,
)
from prulab import cli
from prulab.cli import build_parser, main
from prulab.ensembles import REFERENCE_DESIGNS
from prulab.linalg import RandomSeed, haar_unitary
from prulab.serialize import (
    circuit_from_json_dict,
    ensemble_from_json_dict,
    load_matrix_bin,
    matrix_from_json,
)
from prulab.truncation import DiagonalOracleCircuit


class TestSerialization:
    def test_matrix_json_round_trip(self):
        u = haar_unitary(3, RandomSeed(1))
        assert np.array_equal(matrix_from_json(matrix_to_json(u), "matrix"), u)

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

        ens = reference_design("pauli-1")
        back = ensemble_from_json_dict(ensemble_to_json_dict(ens))
        assert back.dim == 2 and len(back) == len(ens)
        assert np.array_equal(back.unitaries, ens.unitaries)
        assert np.array_equal(back.weights, ens.weights)

    def test_net_manifest_round_trip(self):
        # a Haar net is an ensemble, so the ensemble manifest holds it
        from prulab.ensembles import EnsembleSpec

        net = EnsembleSpec.haar_sample(2, 5, RandomSeed(4))
        back = ensemble_from_json_dict(ensemble_to_json_dict(net))
        assert back.dim == 2 and len(back) == 5
        assert np.array_equal(back.unitaries, net.unitaries)
        assert np.array_equal(back.weights, net.weights)

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


def leaf_parsers(parser, command=None):
    """(command, parser) for each parser that takes flags and no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(command, parser)]
    return [leaf for name, p in subs[0].choices.items()
            for leaf in leaf_parsers(p, command or name)]


# the base command line of each command or formula that lost flags, and the
# flags it no longer accepts: those it never read, and --sweep-t and
# --sweep-eps, whose comma lists --t and --eps now take
UNREAD_FLAGS = {
    "bounds prior-support --d 2 --t 1": "--eps --eta --kappa --q --m --alpha-impl "
    "--c-diamond --c-design --additive-slack --poly-budget --seed --stream --mem-budget "
    "--sweep-t",
    "bounds improved-support --d 4 --t 8": "--eps --eta --kappa --q --m --alpha-impl "
    "--c-diamond --additive-slack --poly-budget --seed --stream --mem-budget --sweep-t",
    "bounds rom-input-length --d 4 --t 8": "--eta --kappa --q --m --alpha-impl --c-diamond "
    "--c-design --poly-budget --log --seed --stream --mem-budget --sweep-t",
    "bounds trivial-rompru --d 4 --kappa 3": "--t --sweep-t --delta --eps --eta --q --m "
    "--alpha-impl --c-diamond --c-design --additive-slack --poly-budget --log --seed "
    "--stream --mem-budget",
    "bounds scalable-check --d 16 --kappa 3 --q 4 --m 2 --t 8": "--eps --eta --c-diamond "
    "--c-design --additive-slack --log --seed --stream --mem-budget --sweep-t",
    "bounds net-size --d 2 --eps 0.5": "--t --sweep-t --delta --kappa --q --m --alpha-impl "
    "--c-design --additive-slack --poly-budget --seed --stream --mem-budget",
    "design-distance --ensemble pauli-1 --t 1": "--seed --stream",
    "truncate-diag --k 4": "--seed --stream",
    "pfc-distinguish --n 6 --trials 1 --k-blocks 5 --seed 1": "--estimator",
    "net-coverage --eps 0.5 --samples 2 --seed 1": "--sweep-eps",
}
FLAG_VALUES = {"--t": "3", "--sweep-t": "1,2", "--delta": "0", "--eps": "0.5", "--eta": "0",
               "--kappa": "3", "--q": "3", "--m": "3", "--alpha-impl": "0",
               "--c-diamond": "1", "--c-design": "1", "--additive-slack": "1",
               "--poly-budget": "2", "--seed": "1", "--stream": "2", "--mem-budget": "1",
               "--estimator": "median", "--haar-net-size": "3", "--dim": "2", "--sweep-eps": "0.5"}
# the base command line of a command (net-coverage's gets a --ensemble-file),
# and flags it reads, but never together with one that line gives
EXCLUSIVE_FLAGS = {
    "net-coverage --eps 0.5 --samples 2 --seed 1": "--haar-net-size --dim",
}
# the dests of the output flags, which a report's config leaves out
OUTPUT_DESTS = ("out", "format", "mem_budget")


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

    def test_builtin_ensembles_are_the_reference_designs(self):
        (parser,) = [p for name, p in leaf_parsers(build_parser()) if name == "design-distance"]
        (action,) = [a for a in parser._actions if a.dest == "ensemble"]
        assert action.choices == REFERENCE_DESIGNS

    def test_design_distance_matrix_files_relative_to_manifest(self, tmp_path, monkeypatch,
                                                               capsys):
        from prulab.ensembles import reference_design

        names = []
        for i, u in enumerate(reference_design("pauli-1").unitaries):
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
        code, out, err = run_cli(["net-coverage", "--ensemble-file", str(tmp_path / "net.json"),
                                  "--eps", "2.0", "--samples", "40", "--seed", "5"], capsys)
        assert code == 0, err
        assert json.loads(out)["result"]["eta_hat"] == 0.0

    @pytest.mark.parametrize("command, manifest, key", [
        (["design-distance", "--t", "1", "--ensemble-file"], {"matrices": []}, "'dim'"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--ensemble-file"],
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
         {"dim": 2, "matrices": [[[], [[0, 0], [1, 0]]]]},
         "manifest matrices item 0 must be square: row 0 has 0 entries for 2 rows"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [[0.0, 0.5]],
          "sequence": [{"fixed": [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]}]},
         "circuit sequence item 0 fixed must be square: row 1 has 3 entries for 2 rows"),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [EYE_2, TWICE_EYE_2]},
         "ensemble element 1 is not unitary: max |U U^dag - I| is 3"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [EYE_2, TWICE_EYE_2]},
         "ensemble element 1 is not unitary: max |U U^dag - I| is 3"),
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
        (["design-distance", "--t", "1", "--ensemble-file"], 5,
         "ensemble manifest must be an object, got 5"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--ensemble-file"], 5,
         "ensemble manifest must be an object, got 5"),
        (["truncate-diag", "--k", "4", "--circuit-file"], 5, "circuit must be an object, got 5"),
        (["design-distance", "--t", "1", "--ensemble-file"], {"dim": [2], "matrices": [EYE_2]},
         "ensemble manifest dim must be an integer, got [2]"),
        (["design-distance", "--t", "1", "--ensemble-file"], {"dim": None, "matrices": [EYE_2]},
         "ensemble manifest dim must be an integer, got null"),
        (["design-distance", "--t", "1", "--ensemble-file"], {"dim": 2, "matrices": None},
         "manifest matrices must be an array, got null"),
        (["design-distance", "--t", "1", "--ensemble-file"], {"dim": 2, "matrix_files": [5]},
         "manifest matrix_files item 0 must be a string, got 5"),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "weights": "ab", "matrices": [EYE_2]},
         'ensemble manifest weights must be an array, got "ab"'),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [[0.0, 0.5]], "sequence": [5]},
         "circuit sequence item 0 must be an object, got 5"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": None, "sequence": []},
         "circuit oracles must be an array, got null"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": [1], "oracles": [[0.0, 0.5]], "sequence": [{"oracle": 0}]},
         "circuit m must be an integer, got [1]"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": -1, "m": -1, "oracles": [], "sequence": []},
         "circuit n must be nonnegative, got -1"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [[0.0, 0.5]], "sequence": [{"oracle": "x"}]},
         'circuit sequence item 0 oracle must be an integer, got "x"'),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [["a", 0.5]], "sequence": [{"oracle": 0}]},
         'circuit oracles item 0 item 0 must be a number, got "a"'),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": -1, "matrix_files": ["a.bin"]},
         "ensemble manifest dim must be at least 1, got -1"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--ensemble-file"],
         {"dim": -1, "matrix_files": ["a.bin"]},
         "ensemble manifest dim must be at least 1, got -1"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--ensemble-file"],
         {"dim": 0, "matrix_files": ["a.bin"]}, "ensemble manifest dim must be at least 1, got 0"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--ensemble-file"],
         {"dim": 2, "weights": [0.5, 0.25], "matrices": [EYE_2, EYE_2]},
         "weights must be nonnegative and sum to 1, got sum 0.75"),
        # every JSON number has one rule: no true or false, no integer past float range
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [[[[True, 0], [0, 0]], [[0, 0], [True, 0]]]]},
         "manifest matrices item 0 row 0 entry 0 [re, im] item 0 must be a number, got true"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [[0.0, 0.5]],
          "sequence": [{"oracle": 0}, {"fixed": [[[1, 0], [0, 0]], [[0, 0], [1, False]]]}]},
         "circuit sequence item 1 fixed row 1 entry 1 [re, im] item 1 must be a number, "
         "got false"),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "weights": [10**400], "matrices": [EYE_2]},
         "ensemble manifest weights item 0 must be a number within float range, got 1000"),
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, -10**400]]]]},
         "manifest matrices item 0 row 1 entry 1 [re, im] item 1 must be a number within "
         "float range, got -1000"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [EYE_2, [[[2**1024, 0], [0, 0]], [[0, 0], [1, 0]]]]},
         "manifest matrices item 1 row 0 entry 0 [re, im] item 0 must be a number within "
         "float range, got 1797"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [[0.0, 10**400]], "sequence": [{"oracle": 0}]},
         "circuit oracles item 0 item 1 must be a number within float range, got 1000"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 10**18, "m": 1, "oracles": [[0.0, 0.5]], "sequence": [{"oracle": 0}]},
         "dense circuit comparison capped at total dim 2^10"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 10**18, "m": 1, "oracles": [[0.0, 0.5]],
          "sequence": [{"oracle": 0}, {"fixed": EYE_2}]},
         "fixed layer has wrong dimension: (2, 2) for n = 1000000000000000000 qubits"),
    ], ids=["ensemble-no-dim", "net-no-dim", "circuit-no-sequence", "matrix-row-of-numbers",
            "matrix-entry-not-numeric", "circuit-fixed-of-numbers", "ensemble-matrix-ragged",
            "circuit-fixed-ragged", "ensemble-not-unitary",
            "net-not-unitary", "circuit-fixed-not-unitary", "ensemble-weights-length",
            "ensemble-weights-nan", "ensemble-number", "net-number", "circuit-number",
            "ensemble-dim-list", "ensemble-dim-null", "matrices-null", "matrix-files-number",
            "ensemble-weights-string", "circuit-sequence-item-number", "circuit-oracles-null",
            "circuit-m-list", "circuit-n-negative", "circuit-oracle-string",
            "circuit-phase-string", "ensemble-dim-negative", "net-dim-negative",
            "net-dim-zero", "net-weights-sum", "ensemble-matrix-true", "circuit-fixed-false",
            "ensemble-weights-1e400", "ensemble-matrix-1e400", "net-matrix-2-1024",
            "circuit-phase-1e400", "circuit-n-1e18", "circuit-n-1e18-fixed"])
    def test_manifest_missing_key_is_a_usage_error(self, command, manifest, key, tmp_path,
                                                   capsys):
        # a.bin holds two float64s, one complex entry, for the matrix_files rows
        (tmp_path / "a.bin").write_bytes(bytes(16))
        dump_json(tmp_path / "m.json", manifest)
        code, out, err = run_cli([*command, str(tmp_path / "m.json")], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and key in err

    @pytest.mark.parametrize("command, manifest, key", [
        (["design-distance", "--t", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [[[[1e300, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "ensemble element 0"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1", "--ensemble-file"],
         {"dim": 2, "matrices": [EYE_2, [[[1e300, 0], [0, 0]], [[0, 0], [1e300, 0]]]]},
         "ensemble element 1"),
        (["truncate-diag", "--k", "4", "--circuit-file"],
         {"n": 1, "m": 1, "oracles": [[0.0, 0.5]],
          "sequence": [{"oracle": 0}, {"fixed": [[[1e300, 1e300], [0, 0]], [[0, 0], [1, 0]]]}]},
         "circuit sequence item 1"),
    ], ids=["ensemble", "net", "circuit-fixed"])
    def test_overflowing_matrix_is_not_unitary_without_warnings(self, command, manifest, key,
                                                                 tmp_path, capsys):
        # the unitarity deviation of a 1e300 entry overflows; the warnings
        # numpy would print before the error line are errors here
        dump_json(tmp_path / "m.json", manifest)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli([*command, str(tmp_path / "m.json")], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {key} is not unitary: max |U U^dag - I| is ")

    def test_net_coverage_single_element_diameter(self, tmp_path, capsys):
        from prulab.ensembles import EnsembleSpec

        net_file = tmp_path / "net.json"
        dump_json(net_file, ensemble_to_json_dict(EnsembleSpec(2, [np.eye(2, dtype=complex)])))
        code, out, _ = run_cli(
            ["net-coverage", "--ensemble-file", str(net_file), "--eps", "2.0",
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

    @pytest.mark.parametrize("base, flag, message", [
        pytest.param(base, flag, message(flag),
                     id=base.split(" --")[0].removeprefix("bounds ") + flag)
        for flags, message in (
            (UNREAD_FLAGS, lambda flag: f"unrecognized arguments: {flag}"),
            (EXCLUSIVE_FLAGS, lambda flag: f"argument {flag}: not allowed with "))
        for base, unread in flags.items() for flag in unread.split()])
    def test_flag_the_command_does_not_read_is_rejected(self, base, flag, message, tmp_path,
                                                        capsys):
        # every command accepted the output, budget and seed flags, and every
        # bounds formula all 20 bounds flags, whether it read them or not; and
        # net-coverage ignores one flag of a pair it reads
        from prulab.ensembles import EnsembleSpec

        argv = shlex.split(base) + [flag] + ([] if flag == "--log" else [FLAG_VALUES[flag]])
        if argv[0] == "truncate-diag":
            dump_json(tmp_path / "c.json", circuit_to_json_dict(DiagonalOracleCircuit(
                1, 1, [random_phase(1, RandomSeed(7).generator())], [("oracle", 0)])))
            argv += ["--circuit-file", str(tmp_path / "c.json")]
        if argv[0] == "net-coverage":
            dump_json(tmp_path / "n.json",
                      ensemble_to_json_dict(EnsembleSpec(2, [np.eye(2, dtype=complex)])))
            argv[1:1] = ["--ensemble-file", str(tmp_path / "n.json")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, ""), err
        assert err.startswith(f"error: {message}")

    def test_pfc_config_holds_exactly_the_experiments_inputs(self, capsys):
        # a knob deleted from the library cannot stay in the hashed config, and
        # a config key cannot name an input the library never receives
        from prulab.distinguisher import pfc_distinguish_experiment

        code, out, err = run_cli(["pfc-distinguish", "--n", "6", "--trials", "1", "--t", "8",
                                  "--k-blocks", "5", "--seed", "1"], capsys)
        assert code == 0, err
        config = json.loads(out)["config"]
        assert set(config) - {"command", "stream"} == set(
            inspect.signature(pfc_distinguish_experiment).parameters)

    def test_config_is_the_flags_the_command_read(self, tmp_path, monkeypatch, capsys):
        # each README line's config is its parsed flags, output flags and
        # flags it was not given aside, and its hash is the sha1 of that
        # config's canonical JSON; the slow lines run at small sizes
        from prulab.ensembles import EnsembleSpec

        dump_json(tmp_path / "net.json",
                  ensemble_to_json_dict(EnsembleSpec.haar_sample(2, 3, RandomSeed(4))))
        dump_json(tmp_path / "circuit.json", fuzz_manifests()["{circuit}"])
        monkeypatch.chdir(tmp_path)
        small = {"--trials": "2", "--k-blocks": "5", "--haar-net-size": "5", "--samples": "5"}
        for argv in readme_commands():
            argv = [small.get(prev, word) for prev, word in zip([None, *argv], argv)]
            argv += ["--format", "json"]
            code, out, err = run_cli(argv, capsys)
            assert code == 0, (argv, err)
            report = json.loads(out)
            flags = vars(build_parser().parse_args(argv))
            assert report["config"] == {k: v for k, v in flags.items()
                                        if k not in OUTPUT_DESTS and v is not None}, argv
            canonical = json.dumps(report["config"], sort_keys=True, separators=(",", ":"))
            assert report["config_hash"] == hashlib.sha1(canonical.encode()).hexdigest()

    @pytest.mark.parametrize("argv, cause", [
        (["pfc-distinguish", "--n", "31", "--trials", "1", "--seed", "1"],
         "argument --n: must be in [1, 30], got 31"),
        (["design-distance", "--t", "1"],
         "one of the arguments --ensemble-file --ensemble is required"),
        (["design-distance", "--ensemble", "pauli-1", "--ensemble-file", "m.json",
          "--t", "1"], "argument --ensemble-file: not allowed with argument --ensemble"),
        (["design-distance", "--ensemble", "bogus", "--t", "1"],
         "argument --ensemble: invalid choice: 'bogus'"),
        (["net-coverage", "--eps", "0.5", "--samples", "10", "--seed", "1"],
         "one of the arguments --ensemble-file --haar-net-size is required"),
        (["bounds", "prior-support", "--d", "2"], "the following arguments are required: --t"),
        (["bounds", "trivial-rompru", "--d", "4"], "--kappa"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "1", "--mem-budget", "0"],
         "argument --mem-budget: must be in [2^-30, 2^994), got 0.0"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "1", "--mem-budget", "-1"],
         "argument --mem-budget: must be in [2^-30, 2^994), got -1.0"),
        (["bounds", "net-size", "--d", "2"], "--eps"),
        (["bounds", "scalable-check", "--d", "4", "--t", "1", "--kappa", "1"], "--q"),
        (["bounds", "prior-support", "--d", "2", "--t", "1.5"],
         "argument --t: must be a whole number, got 1.5"),
        (["bounds", "prior-support", "--d", "2", "--t", "1,1.5"],
         "argument --t: must be a whole number, got 1.5"),
        (["net-coverage", "--haar-net-size", "2", "--dim", "2", "--eps", "0.5",
          "--samples", "2", "--seed", "1", "--eps", "0.1,x"],
         "argument --eps: must be a number, got 'x'"),
        (["bounds", "improved-support", "--d", "4", "--t", "1,y"],
         "argument --t: must be a number, got 'y'"),
        (["bounds", "prior-support", "--d", "2", "--t", "-1"],
         "argument --t: must be in [0, inf), got -1.0"),
        (["bounds", "improved-support", "--d", "2", "--t", "inf"],
         "argument --t: must be a finite number, got inf"),
        (["bounds", "improved-support", "--d", "2", "--t", "nan"],
         "argument --t: must be a finite number, got nan"),
        (["bounds", "improved-support", "--d", "2", "--t", "1,nan"],
         "argument --t: must be a finite number, got nan"),
        (["net-coverage", "--haar-net-size", "5", "--dim", "2", "--eps", "nan",
          "--samples", "5", "--seed", "1"], "argument --eps: must be a finite number, got nan"),
        (["bounds", "improved-support", "--d", "64", "--t", "1e300"], "--log"),
        (["bounds", "prior-support", "--d", "1000", "--t", "200"], "--log"),
        (["bounds", "net-size", "--d", "100", "--eps", "0.001"], "--log"),
        (["bounds", "trivial-rompru", "--d", "4", "--kappa", "2000"],
         "argument --kappa: must be in [0, 1024), got 2000"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "8", "--q", "1e300",
          "--m", "1e300", "--t", "8"], "--q and --m"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "8", "--q", "1e300",
          "--m", "1e300", "--t", "8", "--format", "csv"], "--q and --m"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "8", "--q", "4", "--m", "2",
          "--t", "8", "--poly-budget", "1000"], "--poly-budget"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "0", "--q", "4", "--m", "2",
          "--t", "8", "--poly-budget", "-1"], "--poly-budget"),
        (["bounds", "prior-support", "--d", "2", "--t", "1e306"], "pass --log"),
        (["bounds", "prior-support", "--d", "2", "--t", "1.7e308"], "pass --log"),
        (["bounds", "rom-input-length", "--d", "0", "--t", "8"],
         "argument --d: must be in [2, 2^500], got 0"),
        (["bounds", "improved-support", "--d", "0", "--t", "2"],
         "argument --d: must be in [2, 2^500], got 0"),
        (["bounds", "prior-support", "--d", "0", "--t", "2"],
         "argument --d: must be in [2, 2^500], got 0"),
        (["bounds", "trivial-rompru", "--kappa", "3", "--d", "1" + "0" * 200],
         "argument --d: must be in [2, 2^500], got 1" + "0" * 200),
        (["bounds", "net-size", "--d", "0", "--eps", "0.1"],
         "argument --d: must be in [2, 2^500], got 0"),
        (["bounds", "rom-input-length", "--d", "-3", "--t", "8"],
         "argument --d: must be in [2, 2^500], got -3"),
        (["bounds", "scalable-check", "--d", "1", "--kappa", "1", "--q", "1", "--m", "1",
          "--t", "2"], "argument --d: must be in [2, 2^500], got 1"),
        (["bounds", "prior-support", "--d", str(2**500 + 1), "--t", "2", "--log"],
         f"argument --d: must be in [2, 2^500], got {2**500 + 1}"),
        (["pfc-distinguish", "--n", "20", "--trials", "1", "--k-blocks", "1", "--seed", "1",
          "--mem-budget", "0.0005"], "PFC permutation needs 8.39e+06 bytes, budget is 536870"),
        (["net-coverage", "--haar-net-size", "2", "--dim", "2", "--samples", "2", "--seed", "1"],
         "the following arguments are required: --eps"),
        (["net-coverage", "--haar-net-size", "2", "--dim", "0", "--eps", "0.5",
          "--samples", "2", "--seed", "1"], "argument --dim: must be in [1, inf), got 0"),
        (["net-coverage", "--haar-net-size", "2", "--dim", "-2", "--eps", "0.5",
          "--samples", "2", "--seed", "1"], "argument --dim: must be in [1, inf), got -2"),
        (["net-coverage", "--haar-net-size", "-5", "--dim", "2", "--eps", "0.5",
          "--samples", "2", "--seed", "1"], "argument --haar-net-size: must be in [1, inf), got -5"),
        (["bounds", "rom-input-length", "--d", "4", "--t", "1000", "--delta", "5"],
         "argument --delta: must be in [0, 1), got 5.0"),
        (["bounds", "improved-support", "--d", "4", "--t", "8", "--delta", "1"],
         "argument --delta: must be in [0, 1), got 1.0"),
        (["net-coverage", "--haar-net-size", "3", "--dim", "2", "--eps", "-1",
          "--samples", "5", "--seed", "1"], "argument --eps: must be in [0, inf), got -1.0"),
        (["net-coverage", "--haar-net-size", "3", "--dim", "2", "--eps", "0.3,-1",
          "--samples", "5", "--seed", "1"], "argument --eps: must be in [0, inf), got -1.0"),
        (["bounds", "improved-support", "--d", "4", "--t", ""],
         "argument --t: must be a number, got ''"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--trials", "0"], "argument --trials: must be in [1, inf), got 0"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--t", "1"], "argument --t: must be in [2, inf), got 1"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--k-blocks", "0"], "argument --k-blocks: must be in [1, inf), got 0"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--alpha", "-1"], "argument --alpha: must be in (0, inf), got -1.0"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--alpha", "0"], "argument --alpha: must be in (0, inf), got 0.0"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--seed", "-1"], "argument --seed: must be in [0, 2^64), got -1"),
        (["pfc-distinguish", "--n", "6", "--trials", "1", "--k-blocks", "5", "--seed", "1", "--seed", str(2**64)], f"argument --seed: must be in [0, 2^64), got {2**64}"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--stream", "-1"], "argument --stream: must be in [0, 2^64), got -1"),
        (["net-coverage", "--haar-net-size", "3", "--dim", "2", "--eps", "0.5",
          "--samples", "5", "--seed", "-1"], "argument --seed: must be in [0, 2^64), got -1"),
        (["net-coverage", "--haar-net-size", "3", "--dim", "2", "--eps", "0.5",
          "--samples", "0", "--seed", "1"], "argument --samples: must be in [1, inf), got 0"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--d", "0"], "argument --d: must be in [1, inf), got 0"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--eps", "-1"], "argument --eps: must be in (0, inf), got -1.0"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--eta", "1"], "argument --eta: must be in (0, 1), got 1.0"),
        (["tomo-demo", "--d", "2", "--eps", "0.5", "--eta", "0.1", "--seed", "1", "--eta", "0"], "argument --eta: must be in (0, 1), got 0.0"),
        (["bounds", "prior-support", "--d", "4", "--t", "2", "--delta", "5"],
         "argument --delta: must be in [0, 1], got 5.0"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "0"],
         "argument --t: must be in [1, 4], got 0"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "5"],
         "argument --t: must be in [1, 4], got 5"),
        (["truncate-diag", "--circuit-file", "c.json", "--k", "-1"],
         "argument --k: must be in [0, 1023], got -1"),
        (["truncate-diag", "--circuit-file", "c.json", "--k", "2000"],
         "argument --k: must be in [0, 1023], got 2000"),
        (["pfc-distinguish", "--n", "5", "--trials", "1", "--k-blocks", "2", "--seed", "1",
          "--t", "100000000000"], "collision test outcomes needs 1.28e+13 bytes"),
        (["pfc-distinguish", "--n", "3", "--trials", "1", "--k-blocks", "2", "--seed", "1",
          "--t", "100000000000"], "collision test outcomes needs 1.28e+13 bytes"),
        (["bounds", "net-size", "--d", "2", "--eps", "0.5", "--t", "3"],
         "unrecognized arguments: --t 3\nusage: prulab bounds net-size"),
        (["design-distance", "--ensemble", "pauli-1", "--t", "4", "--mem-budget", "0.00001"],
         "design distance needs 4.19e+06 bytes, budget is 10737 (raise it with --mem-budget"),
        (["bounds", "--d", "2", "net-size", "--eps", "0.5"],
         "--d goes after the formula name (prulab bounds net-size --d ...)\nusage: prulab bounds"),
        (["tomo-demo", "--d", "8", "--eps", "1.9", "--eta", "0.5", "--seed", "1",
          "--mem-budget", "0.00001"],
         "tomography working set needs 5.32e+06 bytes, budget is 10737"),
        (["tomo-demo", "--d", "3", "--eps", "1e-300", "--eta", "0.5", "--seed", "1"],
         "tomography needs over 2^53 queries, cap is 2000000"),
        (["tomo-demo", "--d", "3", "--eps", "1e-160", "--eta", "0.5", "--seed", "1"],
         "tomography needs over 2^53 queries, cap is 2000000"),
        (["tomo-demo", "--d", "3", "--eps", "0.001", "--eta", "1e-320", "--seed", "1"],
         "tomography needs 49803338761 queries, cap is 2000000"),
        (["bounds", "net-size", "--d", "4", "--eps", "-1"],
         "argument --eps: must be in (0, inf), got -1.0"),
        (["bounds", "net-size", "--d", "4", "--eps", "0.5", "--c-diamond", "0"],
         "argument --c-diamond: must be in (0, inf), got 0.0"),
        (["bounds", "trivial-rompru", "--d", "4", "--kappa", "-1"],
         "argument --kappa: must be in [0, 1024), got -1"),
        (["bounds", "improved-support", "--d", "4", "--t", "0"],
         "argument --t: must be in (0, inf), got 0.0"),
        (["bounds", "improved-support", "--d", "4", "--t", "8", "--c-design", "-1"],
         "argument --c-design: must be in (0, inf), got -1.0"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", "3", "--q", "4", "--m", "2",
          "--t", "8", "--delta", "-1"], "argument --delta: must be in [0, inf), got -1.0"),
        (["net-coverage", "--haar-net-size", "2000", "--dim", "16", "--eps", "0.5",
          "--samples", "2", "--seed", "1", "--mem-budget", "0.001"],
         "Haar net needs 8.21e+06 bytes, budget is 1073741"),
        (["net-coverage", "--net-file", "net.json", "--haar-net-size", "2", "--dim", "2",
          "--eps", "0.5", "--samples", "2", "--seed", "1"],
         "unrecognized arguments: --net-file net.json"),
        # an integer flag past float range: the charge is shown without
        # turning it into a float, and 2^-kappa is compared by exponent
        (["pfc-distinguish", "--n", "2", "--trials", "1", "--k-blocks", "2", "--seed", "1",
          "--t", str(2**1024)], "collision test outcomes needs 2.30e+310 bytes, budget is"),
        (["pfc-distinguish", "--n", "2", "--trials", "1", "--k-blocks", str(2**1024),
          "--seed", "1"], "collision test outcomes needs 1.22e+310 bytes, budget is"),
        (["pfc-distinguish", "--n", "2", "--trials", "1", "--k-blocks", "2", "--seed", "1",
          "--t", str(10**307)], "collision test outcomes needs 1.28e+309 bytes, budget is"),
        (["net-coverage", "--haar-net-size", "2", "--dim", str(2**1024), "--eps", "0.5",
          "--samples", "2", "--seed", "1"], "Haar net needs 1.03e+618 bytes, budget is"),
        (["net-coverage", "--haar-net-size", str(2**1024), "--dim", "2", "--eps", "0.5",
          "--samples", "2", "--seed", "1"], "Haar net needs 1.33e+310 bytes, budget is"),
        (["tomo-demo", "--d", str(2**1024), "--eps", "1.5", "--eta", "0.5", "--seed", "1"],
         "Haar sample needs 2.10e+618 bytes, budget is"),
        (["bounds", "scalable-check", "--d", "16", "--kappa", str(2**1024), "--q", "4",
          "--m", "2", "--t", "8"],
         "bounds scalable-check evaluates qm_budget to inf as a float; it is computed from "
         "--d, --kappa and --poly-budget"),
    ], ids=["n-out-of-range", "no-ensemble", "both-ensembles", "unknown-ensemble",
            "no-net", "no-t", "no-kappa", "zero-mem-budget", "negative-mem-budget",
            "net-size-no-eps", "scalable-check-no-q", "fractional-t", "fractional-sweep-t",
            "bad-sweep-eps", "bad-sweep-t", "negative-t", "infinite-t", "nan-t",
            "nan-sweep-t", "nan-eps", "improved-support-overflow", "prior-support-overflow",
            "net-size-overflow", "trivial-rompru-kappa-overflow", "scalable-check-qm",
            "scalable-check-qm-csv", "scalable-check-budget",
            "scalable-check-budget-zero-base", "prior-support-t-1e306-overflow",
            "prior-support-t-1.7e308-overflow",
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
            "flag-before-formula", "tomo-over-budget", "tomo-eps-squared-underflow",
            "tomo-count-overflow", "tomo-subnormal-eta", "net-size-negative-eps",
            "net-size-c-diamond-zero", "trivial-rompru-kappa-negative", "improved-support-t-zero",
            "improved-support-c-design-negative", "scalable-check-delta-negative",
            "haar-net-over-budget", "net-file-is-ensemble-file", "pfc-t-2-1024",
            "pfc-k-blocks-2-1024", "pfc-t-1e307", "net-coverage-dim-2-1024",
            "net-coverage-net-size-2-1024", "tomo-d-2-1024", "scalable-check-kappa-2-1024"])
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

    @pytest.mark.parametrize("argv, field, oracle", [
        (["bounds", "prior-support", "--d", "2", "--t", "1e306", "--log"], "value",
         lambda: mp_log_prior_support_bound(2, int(1e306), 0.0)),
        (["bounds", "prior-support", "--d", "2", "--t", "1.7e308", "--log"], "value",
         lambda: mp_log_prior_support_bound(2, int(1.7e308), 0.0)),
        (["bounds", "rom-input-length", "--d", "4", "--t", "1e-320"], "m_design_1",
         lambda: mp_rom_input_length_bounds(4, 1e-320, 0.0, 1.0)["m_design_1"]),
        (["bounds", "rom-input-length", "--d", "4", "--t", "5e-324"], "m_design_1",
         lambda: mp_rom_input_length_bounds(4, 5e-324, 0.0, 1.0)["m_design_1"]),
        (["bounds", "rom-input-length", "--d", "4", "--eps", "1e-320", "--t", "2"], "m_net",
         lambda: mp_rom_input_length_bounds(4, 2.0, 1e-320, 1.0)["m_net"]),
        (["bounds", "rom-input-length", "--d", "4", "--eps", "1e-320", "--t", "2",
          "--format", "csv"], "m_net",
         lambda: mp_rom_input_length_bounds(4, 2.0, 1e-320, 1.0)["m_net"]),
        (["bounds", "rom-input-length", "--d", "4", "--eps", "5e-324", "--t", "8"], "m_net",
         lambda: mp_rom_input_length_bounds(4, 8.0, 5e-324, 1.0)["m_net"]),
        (["bounds", "net-size", "--d", "2", "--eps", "1e-320", "--log"], "value",
         lambda: mp_log_net_size_lower_bound(2, 1e-320, 0.0, 1.0)),
        (["bounds", "net-size", "--d", "2", "--eps", "5e-324", "--log"], "value",
         lambda: mp_log_net_size_lower_bound(2, 5e-324, 0.0, 1.0)),
        (["bounds", "net-size", "--d", "2", "--eps", "0.5", "--c-diamond", "1.7e308", "--log"],
         "value", lambda: mp_log_net_size_lower_bound(2, 0.5, 0.0, 1.7e308)),
    ], ids=["prior-support-t-1e306-log", "prior-support-t-1.7e308-log",
            "rom-input-length-m-design-1", "rom-input-length-m-design-1-subnormal",
            "rom-input-length-m-net", "rom-input-length-m-net-csv",
            "rom-input-length-m-net-subnormal", "net-size-eps-1e-320-log",
            "net-size-eps-5e-324-log", "net-size-c-diamond-1.7e308-log"])
    def test_extreme_input_matches_the_oracle(self, argv, field, oracle, capsys):
        # each bound is computed from the logs of its inputs, so a subnormal
        # or near-largest input gives a finite field, the mpmath oracle's
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        if "csv" in argv:
            (row,) = csv.DictReader(io.StringIO(out))
            value = float(row[field])
        else:
            value = strict_json(out)["result"][field]
        assert value == pytest.approx(float(oracle()), rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ["bounds", "prior-support", "--d", "2", "--t", "1"],
        ["bounds", "net-size", "--d", "2", "--eps", "0.5"],
        ["bounds", "net-size", "--d", "3", "--eps", "0.1", "--eta", "0.2"],
        ["bounds", "improved-support", "--d", "3", "--t", "5e-324"],
        ["bounds", "improved-support", "--d", "3", "--t", "1e-300", "--c-design", "1e-30"],
        ["bounds", "improved-support", "--d", "3", "--t", "1e300", "--c-design", "1e300"],
        ["bounds", "improved-support", "--d", "16", "--t", "1420,2840"],
    ], ids=["prior-support", "net-size", "net-size-eta",
            "improved-support-underflow", "improved-support-tiny-c-design",
            "improved-support-overflow", "improved-support-sweep"])
    def test_plain_value_is_the_exp_of_the_log(self, argv, capsys):
        # without --log, bounds reports exp of the calculator's natural log:
        # 0.0 once that underflows, and a usage error naming --log once it
        # overflows
        code, out, err = run_cli(argv + ["--log"], capsys)
        assert code == 0, err
        result = strict_json(out)["result"]
        logs = [row["value"] for row in result.get("rows", [result])]
        code, out, err = run_cli(argv, capsys)
        if any(v > math.log(sys.float_info.max) for v in logs):
            assert code == 1 and err.startswith("error: ") and "pass --log" in err
            return
        assert code == 0, err
        result = strict_json(out)["result"]
        assert [row["value"] for row in result.get("rows", [result])] == list(map(math.exp, logs))

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

    def test_runs_without_scipy(self, tmp_path):
        """scipy is a test dependency only: with its import blocked, every
        prulab module imports and each command runs one small line."""
        circuit = tmp_path / "c.json"
        dump_json(circuit, fuzz_manifests()["{circuit}"])
        lines = [
            "design-distance --ensemble clifford-1 --t 3",
            "bounds prior-support --d 2 --t 1",
            "pfc-distinguish --n 1 --t 2 --trials 1 --k-blocks 2 --seed 1",
            "net-coverage --haar-net-size 2 --dim 2 --eps 0.5 --samples 2 --seed 1",
            "tomo-demo --d 2 --eps 0.5 --eta 0.2 --seed 1",
            f"truncate-diag --circuit-file {circuit} --k 4",
        ]
        code = ("import importlib, json, pkgutil, shlex, sys\n"
                "sys.modules['scipy'] = None\n"
                "import prulab\n"
                "for m in pkgutil.iter_modules(prulab.__path__):\n"
                "    importlib.import_module('prulab.' + m.name)\n"
                "from prulab.cli import main\n"
                "codes = [main(shlex.split(line)) for line in json.loads(sys.argv[1])]\n"
                "print(json.dumps(codes))\n")
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(lines)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(lines), proc.stderr

    def test_readme_commands_parse(self):
        for argv in readme_commands():
            build_parser().parse_args(argv)

    def test_readme_lists_each_workflow_once(self):
        # each workflow is a prulab command: README names no script, and no
        # prulab line of the CLI block repeats
        text = (Path(__file__).parents[1] / "README.md").read_text()
        assert re.findall(r"\bscripts/", text) == []
        commands = [tuple(argv) for argv in readme_commands()]
        assert len(set(commands)) == len(commands)

    def test_every_declared_flag_is_read(self):
        # each flag a command's leaf parser declares is read by its handler,
        # or by the shared code every handler goes through
        shared = "".join(inspect.getsource(f) for f in (cli.main, cli._emit))
        for command, leaf in leaf_parsers(build_parser()):
            source = inspect.getsource(cli._DISPATCH[command]) + shared
            for action in leaf._actions:
                if action.option_strings and action.dest != "help":
                    assert re.search(rf"\bargs\.{action.dest}\b", source), (
                        command, leaf.prog, action.dest)

    def test_every_numeric_flag_declares_its_domain(self):
        # a bare int or float type takes any value, nan and inf among them
        bare = [(leaf.prog, action.dest) for _, leaf in leaf_parsers(build_parser())
                for action in leaf._actions if action.type in (int, float)]
        assert bare == []

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
        # one radius gives its row as the result, and two give rows
        base = ["net-coverage", "--haar-net-size", "3", "--dim", "2", "--samples", "5",
                "--seed", "1"]
        code, out, err = run_cli(base + ["--eps", "0.5"], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["config"]["eps"] == [0.5]
        one = report["result"]
        assert one["epsilon"] == 0.5
        code, out, err = run_cli(base + ["--eps", "0.5,0.9"], capsys)
        assert code == 0, err
        rows = json.loads(out)["result"]["rows"]
        assert [row["epsilon"] for row in rows] == [0.5, 0.9]
        assert rows[0] == one

    def test_check_products_adds_the_pair_cover_to_each_row(self, capsys):
        # the exposure fields are the same command's without the flag; the
        # product draws are 100 per row, in row order, from the base seed's
        # own generator
        from prulab.ensembles import EnsembleSpec
        from prulab.linalg import haar_unitary_rng
        from prulab.nets import cover_with_product

        base = ["net-coverage", "--haar-net-size", "5", "--dim", "2", "--samples", "5",
                "--eps", "0.5,0.9", "--seed", "1", "--stream", "2"]
        code, out, err = run_cli(base, capsys)
        assert code == 0, err
        plain = json.loads(out)
        code, out, err = run_cli(base + ["--check-products"], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["config"] == {**plain["config"], "check_products": True}
        seed = RandomSeed(1, 2)
        net = EnsembleSpec.haar_sample(2, 5, seed.child(999))
        rng = seed.generator()
        for row, want in zip(report["result"]["rows"], plain["result"]["rows"], strict=True):
            worst = max(cover_with_product(haar_unitary_rng(2, rng), net)[2] for _ in range(100))
            assert row == {**want, "worst_pair_cover": worst, "two_eps": 2 * want["epsilon"]}
        code, out, err = run_cli(base + ["--check-products", "--format", "csv"], capsys)
        assert code == 0, err
        assert out.splitlines()[0] == ("epsilon,eta_hat,vol_hat,samples,ci_half,"
                                       "worst_pair_cover,two_eps")

    def test_csv_sweep_one_param_per_row(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "improved-support", "--d", "4", "--t", "100,200,400",
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

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 8.00 GiB for an array with shape (1073741824,)"),
         "error: Unable to allocate 8.00 GiB for an array with shape (1073741824,)"),
        (MemoryError(), "error: MemoryError"),
    ], ids=["numpy-message", "bare"])
    def test_memory_error_keeps_the_exit_contract(self, exc, message, capsys, monkeypatch):
        # a failed allocation inside the budget, as numpy's for the 2^30-entry
        # permutation of --n 30 is, is a resource error: exit 1, no traceback
        def boom(args):
            raise exc

        monkeypatch.setitem(cli._DISPATCH, "pfc-distinguish", boom)
        code, out, err = run_cli(["pfc-distinguish", "--n", "30", "--trials", "1",
                                  "--k-blocks", "1", "--seed", "1"], capsys)
        assert (code, out, err) == (1, "", message + "\n")

    @pytest.mark.parametrize("argv", [
        ["bounds", "rom-input-length", "--d", "4", "--t", "3"],
        ["bounds", "rom-input-length", "--d", "4", "--t", "3,20,16", "--eps", "0.1"],
        ["pfc-distinguish", "--n", "2", "--trials", "1", "--k-blocks", "2", "--seed", "1"],
    ], ids=["rom-input-length", "rom-input-length-sweep", "pfc-distinguish"])
    def test_csv_dict_cells_are_json(self, argv, capsys):
        # a report field that holds a dict is one JSON cell, its keys sorted,
        # equal to the field in the JSON report
        code, out, err = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        result = json.loads(out)["result"]
        reports = result.get("rows", [result])
        assert len(rows) == len(reports)
        cells = 0
        for row, report in zip(rows, reports):
            for key, value in report.items():
                if isinstance(value, dict):
                    assert json.loads(row[key]) == value
                    assert row[key] == json.dumps(value, sort_keys=True)
                    cells += 1
        assert cells == len(rows)

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


# one valid command line per command or formula; {ensemble}, {net} and
# {circuit} stand for a manifest the fuzz test writes
FUZZ_BASES = [
    "pfc-distinguish --n 1 --t 2 --trials 1 --k-blocks 2 --seed 1",
    "design-distance --ensemble-file {ensemble} --t 1",
    "net-coverage --ensemble-file {net} --eps 0.5 --samples 2 --seed 1",
    "net-coverage --haar-net-size 2 --dim 2 --eps 0.3,0.5 --samples 2 --seed 1",
    "truncate-diag --circuit-file {circuit} --k 4",
    "bounds prior-support --d 2 --t 1",
    "bounds improved-support --d 4 --t 8,16",
    "bounds rom-input-length --d 4 --t 8",
    "bounds trivial-rompru --d 4 --kappa 3",
    "bounds scalable-check --d 16 --kappa 3 --q 4 --m 2 --t 8",
    "bounds net-size --d 2 --eps 0.5",
    "tomo-demo --d 2 --eps 0.5 --eta 0.2 --seed 1",
]
# each unit of these flags is a draw: they take FUZZ_COUNTS
FUZZ_COUNT_FLAGS = {"--trials", "--k-blocks", "--samples"}
FUZZ_NODES = [None, *FUZZ_NUMBERS, float("nan"), "", "x", [], [0.5, "x"], {}, {"oracle": 0}]


@functools.cache
def fuzz_manifests():
    """A valid ensemble, net and circuit manifest, by the placeholder they
    fill; the net is a Haar-sampled ensemble."""
    from prulab.ensembles import EnsembleSpec, reference_design

    rng = RandomSeed(7).generator()
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return {
        "{ensemble}": ensemble_to_json_dict(reference_design("pauli-1")),
        "{net}": ensemble_to_json_dict(EnsembleSpec.haar_sample(2, 2, RandomSeed(4))),
        "{circuit}": circuit_to_json_dict(DiagonalOracleCircuit(
            1, 1, [random_phase(1, rng)], [("oracle", 0), ("fixed", hadamard)])),
    }


def json_paths(node, path=()):
    """The key path of every node of a JSON document, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_paths(child, (*path, key))


def replaced(node, path, value):
    """A copy of ``node`` whose node at ``path`` is ``value``."""
    if not path:
        return value
    node = copy.deepcopy(node)
    parent = functools.reduce(operator.getitem, path[:-1], node)
    parent[path[-1]] = value
    return node


def check_exit_contract(argv) -> None:
    """Run main on ``argv`` and check the exit contract: no exception out of
    main, exit 0, 1 or 2, and exit 1 with an error: line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


def leaf_parser_of(argv):
    """The parser of the command or formula that ``argv`` names."""
    leaves = {leaf.prog.removeprefix("prulab "): leaf for _, leaf in leaf_parsers(build_parser())}
    return leaves[" ".join(a for a in argv[:2] if not a.startswith("-"))]


@pytest.mark.parametrize("base", FUZZ_BASES, ids=lambda base: base.split(" --")[0])
@settings(derandomize=True, max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_command_line_keeps_the_exit_contract(base, data):
    """Up to two flag values from FUZZ_VALUES, and any manifest node swapped
    for null, a number, a string, a list or an object, end in exit 0, 1 or
    2, never in an exception out of main, and exit 1 prints an error: line."""
    argv = shlex.split(base)
    leaf = leaf_parser_of(argv)
    numeric = [a.option_strings[0] for a in leaf._actions
               if a.option_strings and a.type not in (None, str) and a.dest != "mem_budget"
               and (a.default is not None or a.option_strings[0] in argv)]
    for flag in data.draw(st.lists(st.sampled_from(numeric), max_size=2, unique=True)):
        pool = FUZZ_COUNTS if flag in FUZZ_COUNT_FLAGS else FUZZ_VALUES
        value = data.draw(st.sampled_from(pool))
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
    if any(a.dest == "mem_budget" for a in leaf._actions):
        argv += ["--mem-budget", "0.01"]  # bounds every allocation the command makes
    with tempfile.TemporaryDirectory() as tmp:
        for token, manifest in fuzz_manifests().items():
            if token in argv:
                path = data.draw(st.none() | st.sampled_from(list(json_paths(manifest))))
                if path is not None:
                    manifest = replaced(manifest, path, data.draw(st.sampled_from(FUZZ_NODES)))
                Path(tmp, "manifest.json").write_text(json.dumps(manifest))
                argv[argv.index(token)] = str(Path(tmp, "manifest.json"))
        check_exit_contract(argv)


#: integers past float range, 2^1024, -2^1024 and 10^400, by their case ids
HUGE_INTEGERS = {"2^1024": 2**1024, "-2^1024": -2**1024, "10^400": 10**400}
# a huge repetition count is a long run, not a crash
HUGE_SKIPPED_FLAGS = {"--trials", "--samples"}


def with_manifests(argv, tmp, manifests=None):
    """``argv`` with each manifest placeholder replaced by the path of its
    manifest, written under ``tmp``: from ``manifests``, else the valid one."""
    argv = list(argv)
    for token, manifest in {**fuzz_manifests(), **(manifests or {})}.items():
        if token in argv:
            path = Path(tmp, token.strip("{}") + ".json")
            path.write_text(json.dumps(manifest))
            argv[argv.index(token)] = str(path)
    return argv


def huge_flag_cases():
    """Each numeric flag of each command or formula, on its last line of
    FUZZ_BASES (net-coverage's is the --haar-net-size line, which reads
    --dim), with each of HUGE_INTEGERS."""
    bases = {base.split(" --")[0]: base for base in FUZZ_BASES}
    for name, base in bases.items():
        for action in leaf_parser_of(shlex.split(base))._actions:
            flag = action.option_strings[0] if action.option_strings else None
            if flag and action.type not in (None, str) and flag not in HUGE_SKIPPED_FLAGS:
                for label, value in HUGE_INTEGERS.items():
                    yield pytest.param(base, flag, str(value), id=f"{name} {flag} {label}")


@pytest.mark.parametrize("base, flag, value", huge_flag_cases())
def test_every_numeric_flag_keeps_the_exit_contract_past_float_range(base, flag, value,
                                                                     tmp_path):
    """An integer past float range on any numeric flag of any command or
    formula ends in exit 0, 1 or 2, never in an exception out of main, and
    exit 1 prints an error: line.  Each other flag keeps its small valid
    value, and a 10 MiB budget bounds what the command charges."""
    argv = shlex.split(base)
    if flag != "--mem-budget" and any(a.dest == "mem_budget"
                                      for a in leaf_parser_of(argv)._actions):
        argv += ["--mem-budget", "0.01"]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    check_exit_contract(with_manifests(argv, tmp_path))


def number_slot_cases():
    """The first path to each number slot of the ensemble, net and circuit
    manifests, a slot being a path with each array index but a last one
    replaced by #: a matrix's re or im, each weight, each phase of an oracle."""
    for base in FUZZ_BASES:
        argv = shlex.split(base)
        for token, manifest in fuzz_manifests().items():
            if token not in argv:
                continue
            slots = {}
            for path in json_paths(manifest):
                node = functools.reduce(operator.getitem, path, manifest)
                slot = tuple("#" if isinstance(k, int) else k for k in path[:-1]) + path[-1:]
                if isinstance(node, (int, float)) and not isinstance(node, bool):
                    slots.setdefault(slot, path)
            for path in slots.values():
                for label, value in {**HUGE_INTEGERS, "true": True}.items():
                    yield pytest.param(base, token, path, value, id=(
                        f"{argv[0]} {token.strip('{}')} {'/'.join(map(str, path))} {label}"))


@pytest.mark.parametrize("base, token, path, value", number_slot_cases())
def test_every_manifest_number_keeps_the_exit_contract(base, token, path, value, tmp_path):
    """true, or an integer past float range, in any number slot of a valid
    manifest ends in exit 0, 1 or 2, never in an exception out of main, and
    exit 1 prints an error: line."""
    manifest = replaced(fuzz_manifests()[token], path, value)
    check_exit_contract(with_manifests(shlex.split(base), tmp_path, {token: manifest}))
