"""End-to-end CLI coverage: payload shapes, pipelines, exit codes, determinism."""

import argparse
import json
import math
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import quiverlab
from quiverlab import (
    QQ, QQI, FramedPoint, PrimeField, WeightVec, moment_matches, reflect_point, sample_fiber,
)
from quiverlab.cli import _build_parser, main, run
from quiverlab.quiver import MAX_VERTICES
from util import a1_point, a2_setup, cli_env, renamed_arrows


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def worked_point(tmp_path):
    s = a1_point(gamma=(1, 0), delta=(1, 0))
    obj = s.to_json()
    obj["lambda"] = ["1"]
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture
def a1_chi_file(tmp_path):
    chi = {
        "target_copies": [1],
        "source_copies": [0],
        "vectors": [[1, 0]],
        "covectors": [],
        "entries": [{"key": ["av", 1, 1, 1], "expr": "e1"}],
    }
    path = tmp_path / "chi.json"
    path.write_text(json.dumps(chi))
    return path


class TestInfo:
    def test_basic(self, capsys):
        payload = invoke_json(capsys, "info", "--quiver", "A2")
        assert payload["vertices"] == [1, 2]
        assert payload["cartan"] == [[2, -1], [-1, 2]]
        assert payload["finite_type"] is True
        assert "weyl_order" not in payload

    def test_weyl_and_dims(self, capsys):
        payload = invoke_json(
            capsys, "info", "--quiver", "A2", "--weyl", "--d", "1,1", "--v", "1,1"
        )
        assert payload["weyl_order"] == 6
        assert payload["variety_dimension"] == 2
        assert payload["space_dimension"] == 6
        assert payload["dominant"] is True

    @pytest.mark.parametrize("name, order", [
        ("A30", math.factorial(31)),
        ("D12", 2 ** 11 * math.factorial(12)),
    ])
    def test_weyl_order_of_a_large_group(self, capsys, name, order):
        # (n + 1)! for A_n and 2^(n - 1) n! for D_n, from the roots: the
        # group is not listed
        assert invoke_json(capsys, "info", "--quiver", name, "--weyl")["weyl_order"] == order

    def test_weyl_order_of_infinite_type_is_null(self, capsys, tmp_path):
        path = tmp_path / "kronecker.json"
        path.write_text(json.dumps(quiverlab.doubled_quiver([1, 2], [(1, 2), (1, 2)]).to_json()))
        payload = invoke_json(capsys, "info", "--quiver", str(path), "--weyl")
        assert payload["finite_type"] is False and payload["weyl_order"] is None

    def test_d_without_v_rejected(self, capsys):
        code, _, err = invoke(capsys, "info", "--quiver", "A2", "--d", "1,1")
        assert code == 1
        assert "together" in err

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "info", "--quiver", "A1", "--format", "text")
        assert code == 0
        assert "finite_type = True" in out


class TestSampleReflectVerify:
    def test_pipeline(self, capsys, tmp_path):
        pt = tmp_path / "s.json"
        refl = tmp_path / "r.json"
        code, _, _ = invoke(
            capsys, "sample", "--quiver", "A1", "--d", "2", "--v", "1",
            "--lambda", "1", "--seed", "4", "-o", str(pt),
        )
        assert code == 0
        obj = json.loads(pt.read_text())
        assert obj["lambda"] == ["1"]
        s = FramedPoint.from_json(obj)
        assert moment_matches(s, WeightVec((1,)))

        # reflect picks the lambda embedded in the file
        code, _, _ = invoke(capsys, "reflect", str(pt), "--vertex", "1", "-o", str(refl))
        assert code == 0
        robj = json.loads(refl.read_text())
        assert robj["lambda"] == ["-1"]
        assert robj["side"] == "kernel"

        payload = invoke_json(
            capsys, "verify", str(pt), str(refl), "--vertex", "1"
        )
        assert payload["all_pass"] is True
        assert payload["messages"] == []

    def test_worked_example_values(self, capsys, worked_point, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = invoke(
            capsys, "reflect", str(worked_point), "--vertex", "1", "-o", str(out)
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["gamma"]["1"] == [["0", "-1"]]
        assert obj["delta"]["1"] == [["0"], ["1"]]
        assert obj["lambda"] == ["-1"]

    def test_reflect_word_braid(self, capsys, tmp_path):
        pt = tmp_path / "s.json"
        invoke(
            capsys, "sample", "--quiver", "A2", "--d", "1,1", "--v", "1,1",
            "--lambda", "1,1", "--seed", "2", "-o", str(pt),
        )
        p1 = invoke_json(capsys, "reflect-word", str(pt), "--word", "1,2,1")
        p2 = invoke_json(capsys, "reflect-word", str(pt), "--word", "2,1,2")
        assert p1["lambda"] == p2["lambda"] == ["-1", "-1"]
        assert [step[0] for step in p1["steps"]] == [1, 2, 1]

    def test_missing_lambda_rejected(self, capsys, tmp_path):
        s = a1_point()
        pt = tmp_path / "nolam.json"
        pt.write_text(json.dumps(s.to_json()))
        code, _, err = invoke(capsys, "reflect", str(pt), "--vertex", "1")
        assert code == 1
        assert "lambda" in err

    def test_sample_failure_exit_code(self, capsys):
        code, _, err = invoke(
            capsys, "sample", "--quiver", "A1", "--d", "0", "--v", "1",
            "--lambda", "1", "--retries", "3",
        )
        assert code == 1
        assert "no fiber point" in err


class TestInvariantsAndCovariant:
    def test_invariants_json(self, capsys, worked_point):
        payload = invoke_json(capsys, "invariants", str(worked_point), "--max-len", "2")
        assert payload["max_len"] == 2
        assert {"key": ["fr", "e1", 0, 0], "value": "1"} in payload["entries"]

    def test_invariants_negative_max_len(self, capsys, worked_point):
        code, _, err = invoke(capsys, "invariants", str(worked_point), "--max-len", "-2")
        assert code == 1
        assert "max_len is -2; it must be >= 0" in err

    def test_invariants_csv(self, capsys, worked_point):
        code, out, _ = invoke(
            capsys, "invariants", str(worked_point), "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "kind,path,row,col,value"
        assert "fr,e1,0,0,1" in lines

    def test_covariant_eval(self, capsys, worked_point, a1_chi_file):
        payload = invoke_json(
            capsys, "covariant", str(worked_point), "--chi", str(a1_chi_file),
            "--m", "1",
        )
        assert payload["weight"] == [1]
        assert payload["value"] == "1"
        assert payload["nonzero"] is True
        assert payload["violations"] == []
        assert payload["chi_good"] is True

    def test_covariant_dims_only(self, capsys, a1_chi_file):
        payload = invoke_json(
            capsys, "covariant", "--chi", str(a1_chi_file), "--quiver", "A1",
            "--d", "2", "--v", "1", "--m", "1",
        )
        assert payload["chi_good"] is True
        assert "value" not in payload

    def test_covariant_needs_source(self, capsys, a1_chi_file):
        code, _, _ = invoke(capsys, "covariant", "--chi", str(a1_chi_file))
        assert code == 1


class TestCombinatoricCommands:
    def test_check_coxeter(self, capsys):
        payload = invoke_json(
            capsys, "check-coxeter", "--quiver", "A1", "--d", "2", "--v", "1",
            "--lambda", "1", "--trials", "4", "--seed", "0",
        )
        assert payload["generic"] is True
        assert payload["all_pass"] is True
        kinds = {c["kind"] for c in payload["checks"]}
        assert kinds == {"involution", "sides"}

    def test_reduce_double_drop(self, capsys):
        payload = invoke_json(
            capsys, "reduce", "--quiver", "A2", "--d", "0,0", "--v", "1,1",
            "--lambda", "0,0",
        )
        assert [st["kind"] for st in payload["steps"]] == ["drop", "drop"]
        assert payload["v"] == [0, 0]
        assert payload["dominant"] is True
        assert payload["empty"] is False

    def test_reduce_negative_lambda_literal(self, capsys):
        payload = invoke_json(
            capsys, "reduce", "--quiver", "A1", "--d", "0", "--v", "1",
            "--lambda=-1",
        )
        assert payload["empty"] is True
        assert payload["lambda"] == ["1"]

    def test_strata_report(self, capsys):
        payload = invoke_json(
            capsys, "strata", "--quiver", "A1", "--d", "2", "--v", "1"
        )
        assert payload["delta_v"] == 3
        assert payload["codim_ge_1"] is True
        assert payload["codim_ge_2"] is False
        assert {"v_prime": [0], "dimension": 2, "codimension": 1} in payload["strata"]

    def test_strata_single(self, capsys):
        payload = invoke_json(
            capsys, "strata", "--quiver", "A1", "--d", "3", "--v", "1",
            "--v-prime", "0",
        )
        assert payload["dimension"] == 3

    def test_strata_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "strata", "--quiver", "A1", "--d", "2", "--v", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "v_prime,dimension,codimension"

    def test_count_with_slopes(self, capsys):
        payload = invoke_json(
            capsys, "count", "--quiver", "A1", "--d", "2", "--v", "1",
            "--lambda", "0", "--p", "2,3",
        )
        totals = {e["p"]: e["total"] for e in payload["per_prime"]}
        assert totals == {2: 10, 3: 33}
        assert payload["slopes"]["strata"]["0"] == pytest.approx(2.0, abs=1e-9)
        assert payload["slopes"]["total"] > 0

    def test_count_prime_alias_and_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "count", "--quiver", "A1", "--d", "2", "--v", "1",
            "--lambda", "0", "--prime", "2", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,label,count"
        assert "2,total,10" in lines

    def test_count_rejects_fraction_lambda(self, capsys):
        code, _, err = invoke(
            capsys, "count", "--quiver", "A1", "--d", "2", "--v", "1",
            "--lambda", "1/2", "--p", "2",
        )
        assert code == 1
        assert "integer" in err

    def test_count_budget(self, capsys):
        code, _, err = invoke(
            capsys, "count", "--quiver", "A1", "--d", "2", "--v", "1",
            "--lambda", "0", "--p", "2", "--budget", "3",
        )
        assert code == 1
        assert "budget" in err


class TestErrorsAndExitCodes:
    def test_missing_file(self, capsys):
        code, _, _ = invoke(capsys, "invariants", "/nonexistent/pt.json")
        assert code == 1

    def test_bad_quiver_name(self, capsys):
        code, _, err = invoke(capsys, "info", "--quiver", "Z9")
        assert code == 1
        assert "Dynkin" in err

    def test_csv_unavailable(self, capsys):
        code, _, err = invoke(capsys, "info", "--quiver", "A1", "--format", "csv")
        assert code == 2
        assert "csv" in err

    def test_strata_v_prime_length(self, capsys):
        code, out, err = invoke(capsys, "strata", "--quiver", "A2", "--d", "1,1", "--v", "1,1",
                                "--v-prime", "0,1,1")
        assert code == 1 and out == ""
        assert "v_prime has length 3, quiver has 2 vertices" in err

    def test_strata_too_many(self, capsys):
        code, out, err = invoke(capsys, "strata", "--quiver", "D4", "--d", "1,1,1,1",
                                "--v", "99,99,99,99")
        assert code == 1 and out == ""
        assert err == ("error: v has prod(v_i + 1) = 100000000 strata v' <= v, "
                       "more than the limit 1000000\n")

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_main_returns_int(self, capsys):
        assert main(["info", "--quiver", "A1"]) == 0
        capsys.readouterr()

    @staticmethod
    def child(argv, cwd):
        return subprocess.run(
            [sys.executable, "-m", "quiverlab.cli", *argv],
            capture_output=True, env=cli_env(), cwd=cwd, text=True,
        )

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--quiver", "A2", "--d", "2,1", "--v", "1", "--lambda", "1,1"],
         "v has length 1, quiver has 2 vertices"),
        (["count", "--quiver", "A2", "--d", "2,1", "--v", "1", "--lambda", "1,1", "--p", "3"],
         "v has length 1, quiver has 2 vertices"),
    ], ids=["sample", "count"])
    def test_wrong_vector_length(self, tmp_path, argv, message):
        proc = self.child(argv, tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("option", ["--lambda", "--m"])
    def test_zero_denominator_is_a_usage_error(self, tmp_path, option):
        argv = ["sample", "--quiver", "A2", "--d", "2,1", "--v", "1,1", "--lambda", "1,1"]
        proc = self.child(argv + [option, "1/0,1"], tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert f"argument {option}: invalid _weight_vec value: '1/0,1'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, target, reason", [
        (["info", "--quiver", "A1"], ".", "Is a directory"),
        (["strata", "--quiver", "A1", "--d", "2", "--v", "1"], "nonexistent/x",
         "No such file or directory"),
    ], ids=["directory", "missing-directory"])
    def test_unwritable_output(self, capsys, tmp_path, argv, target, reason):
        path = tmp_path / target
        code, out, err = invoke(capsys, *argv, "-o", str(path))
        assert (code, out, err) == (1, "", f"error: cannot write {path}: {reason}\n")

    @pytest.mark.parametrize("argv, role", [
        (["verify", "{pt}", "{bad}", "--vertex", "1"], "point"),
        (["covariant", "{pt}", "--chi", "{bad}"], "chi-data"),
        (["info", "--quiver", "{bad}"], "quiver"),
        (["reflect", "{bad}", "--vertex", "1"], "point"),
    ], ids=["verify", "covariant", "info", "reflect"])
    def test_input_that_is_not_json_is_named(self, capsys, tmp_path, worked_point, argv, role):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        code, out, err = invoke(capsys, *(a.format(pt=worked_point, bad=bad) for a in argv))
        assert (code, out) == (1, "")
        assert err == (f"error: {role} file {bad} is not JSON: "
                       "Expecting value: line 1 column 1 (char 0)\n")

    @pytest.mark.parametrize("extra, message", [
        (["--lambda", "0,0,5"], "lambda has length 3, quiver has 2 vertices"),
        (["--lambda", "0", "--m", "1,2,3"], "lambda has length 1, quiver has 2 vertices"),
        (["--lambda", "0,0", "--m", "1,2,3"], "m has length 3, quiver has 2 vertices"),
    ], ids=["lambda", "lambda-and-m", "m"])
    def test_reduce_wrong_parameter_length(self, capsys, extra, message):
        code, out, err = invoke(capsys, "reduce", "--quiver", "A2", "--d", "1,1", "--v", "2,0", *extra)
        assert code == 1 and out == ""
        assert f"error: {message}" in err

    @pytest.mark.parametrize("argv, message", [
        (["check-coxeter", "--quiver", "A1", "--d", "2", "--v", "1", "--lambda", "1",
          "--trials", "-1"], "trials is -1; it must be >= 0"),
        (["sample", "--quiver", "A2", "--d", "2,1", "--v", "1,1", "--lambda", "1,1",
          "--height", "0"], "height is 0; it must be >= 1"),
        (["sample", "--quiver", "A2", "--d", "2,1", "--v", "1,1", "--lambda", "1,1",
          "--field", "Q(i)", "--height", "-3"], "height is -3; it must be >= 1"),
        (["sample", "--quiver", "A2", "--d", "2,1", "--v", "1,1", "--lambda", "1,1",
          "--retries", "0"], "retries is 0; it must be >= 1"),
        (["count", "--quiver", "A1", "--d", "2", "--v", "1", "--lambda", "0", "--p", "2",
          "--budget", "-5"], "budget is -5; it must be >= 0"),
    ], ids=["trials", "height", "height-Qi", "retries", "budget"])
    def test_out_of_range_counts(self, capsys, argv, message):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert f"error: {message}" in err

    def test_prime_field_sample_ignores_height(self, capsys):
        argv = ["sample", "--quiver", "A2", "--d", "2,1", "--v", "1,1", "--lambda", "1,1",
                "--field", "Fp:3"]
        assert invoke_json(capsys, *argv, "--height", "0") == invoke_json(capsys, *argv)

    @pytest.mark.parametrize("drop, message", [
        (("quiver",), "point JSON has no entry ['quiver']"),
        (("B", "h1"), "point JSON has no entry ['B']['h1']"),
        (("delta", "2"), "point JSON has no entry ['delta']['2']"),
    ], ids=["quiver", "B", "delta"])
    def test_point_file_missing_key(self, tmp_path, drop, message):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        obj = sample_fiber(q, dims, WeightVec((1, 1)), seed=0).to_json()
        parent = obj
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        path = tmp_path / "pt.json"
        path.write_text(json.dumps(obj))
        proc = self.child(["invariants", str(path)], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("field, keys, value, message", [
        (QQ, ("B", "h1"), 5, "point JSON entry ['B']['h1'] must be a list of rows"),
        (QQ, ("field",), 5, "point JSON entry ['field'] is not a field"),
        (QQ, ("v",), "11", "point JSON entry ['v'] must be a list of integers"),
        (QQ, ("gamma", "1"), [["x", "1/0"]], "point JSON entry ['gamma']['1'] has an entry"),
        (QQI, ("gamma", "1"), [[[None, 0], "1"]], "point JSON entry ['gamma']['1'] has an entry"),
        (QQI, ("delta", "2"), [[[[1], 0]]], "point JSON entry ['delta']['2'] has an entry"),
        # a JSON boolean used to be read as the entry 0 or 1
        (QQ, ("gamma", "1"), [[True, False]],
         "point JSON entry ['gamma']['1'] has an entry that is not in Q: bad rational literal True"),
        (QQI, ("gamma", "1"), [[False, "1"]],
         "point JSON entry ['gamma']['1'] has an entry that is not in Q(i): "
         "bad Gaussian rational literal False"),
        (QQI, ("gamma", "1"), [[["1", True], "1"]],
         "point JSON entry ['gamma']['1'] has an entry that is not in Q(i): "
         "bad Gaussian rational literal ['1', True]"),
        (PrimeField(7), ("gamma", "1"), [[True, False]],
         "point JSON entry ['gamma']['1'] has an entry that is not in Fp:7: bad F_7 literal True"),
    ], ids=["B", "field", "v", "gamma", "Qi-null", "Qi-list", "Q-bool", "Qi-bool", "Qi-bool-pair",
            "Fp-bool"])
    def test_point_file_malformed_entry(self, tmp_path, field, keys, value, message):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        obj = sample_fiber(q, dims, WeightVec((1, 1)), seed=0, field=field).to_json()
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = tmp_path / "pt.json"
        path.write_text(json.dumps(obj))
        proc = self.child(["invariants", str(path)], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, value", [
        ("lambda", None), ("m", None), ("lambda", "1,1"), ("lambda", ["x", "1"]),
        ("lambda", [True, 1]),
    ], ids=["lambda-null", "m-null", "lambda-string", "lambda-x", "lambda-bool"])
    def test_point_file_malformed_weight(self, tmp_path, key, value):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        obj = sample_fiber(q, dims, WeightVec((1, 1)), seed=0).to_json()
        obj[key] = value
        path = tmp_path / "pt.json"
        path.write_text(json.dumps(obj))
        proc = self.child(["reflect", str(path), "--vertex", "1"], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert (f"point JSON entry ['{key}'] must be a list of integers or fractions, "
                f"not {value!r}") in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("change, message", [
        ({"target_copies": 1},"chi JSON entry ['target_copies'] must be a list of integers, not 1"),
        ({"entries": [{"key": ["av", 1, 1, 1], "expr": "e1"}, {"key": ["zz", 1, 1, 1], "expr": "e1"}]},
         "chi entry ('zz', 1, 1, 1) is not of kind vv, vb, av or ab"),
        ({"target_copies": [1, 0]}, "chi target_copies has length 2, quiver has 1 vertices"),
        ({"entries": [{"key": ["av", 1, 1, 1], "expr": "e1"}] * 2},
         "chi JSON entry ['entries'][1]['key'] repeats the key ['av', 1, 1, 1]"),
        ({"entries": [{"key": ["av", 2, 1, 1], "expr": "e1"}]},
         "chi entry ('av', 2, 1, 1) names the source summand ('A', 2)"),
        ({"vectors": [[1, -1]]}, "chi vectors[0] = (1, -1) needs a basis index 0 <= index < d_1 = 2"),
        ({"vectors": [[1, 2]]}, "chi vectors[0] = (1, 2) needs a basis index 0 <= index < d_1 = 2"),
        ({"vectors": [[3, 0]]}, "chi vectors[0] = (3, 0) is not a pair (vertex of the quiver, basis index)"),
        ({"covectors": [[1, 5]], "vectors": [[1, 0], [1, 1]]},
         "chi covectors[0] = (1, 5) needs a basis index 0 <= index < d_1 = 2"),
        # these three ended in a traceback or named a missing entry
        ({"entries": 5}, "chi JSON entry ['entries'] must be a list, not 5"),
        ({"entries": {"a": 1}}, "chi JSON entry ['entries'] must be a list, not {'a': 1}"),
        ({"entries": [{"key": ["av", 1, 1, 1], "expr": 5}]},
         "chi JSON entry ['entries'][0]['expr'] must be a string, not 5"),
        ({"vectors": 5}, "chi JSON entry ['vectors'] must be a list of [vertex, basis index] pairs, not 5"),
        ({"entries": [{"key": "av", "expr": "e1"}]},
         "chi JSON entry ['entries'][0]['key'] must be a list of a kind and indices, not 'av'"),
        # true equals 1 but names no vertex
        ({"vectors": [[True, 0]]},
         "chi vectors[0] = (True, 0) is not a pair (vertex of the quiver, basis index)"),
    ], ids=["copies-not-list", "unknown-kind", "copies-too-long", "repeated-key", "no-summand",
            "vector-index-negative", "vector-index-d", "vector-vertex", "covector-index",
            "entries-not-list", "entries-dict", "expr-not-string", "vectors-not-list", "key-not-list",
            "vector-vertex-true"])
    def test_chi_file_malformed_entry(self, tmp_path, worked_point, a1_chi_file, change, message):
        obj = json.loads(a1_chi_file.read_text())
        obj.update(change)
        a1_chi_file.write_text(json.dumps(obj))
        proc = self.child(["covariant", str(worked_point), "--chi", str(a1_chi_file), "--m", "1"],
                          tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["sample", "--quiver", "A2", "--d=1,1", "--v=-1,1", "--lambda=0,0"],
        ["count", "--quiver", "A2", "--d=1,1", "--v=-1,1", "--lambda=0,0", "--p", "3"],
        ["info", "--quiver", "A2", "--d=1,1", "--v=-1,1"],
    ], ids=["sample", "count", "info"])
    def test_negative_dimension(self, tmp_path, argv):
        proc = self.child(argv, tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "v[0] is -1; dimensions must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["strata", "--quiver", "A1", "--d", "2", "--v=-1"],
        ["strata", "--quiver", "A1", "--d", "2", "--v=-1", "--v-prime=0"],
    ], ids=["report", "v-prime"])
    def test_strata_negative_dimension(self, tmp_path, argv):
        proc = self.child(argv, tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "v[0] is -1; dimensions must be >= 0" in proc.stderr
        assert "v'" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_framing_dimension(self, capsys):
        code, _, err = invoke(capsys, "info", "--quiver", "A2", "--d=1,-2", "--v=1,1")
        assert code == 1
        assert "d[1] is -2; dimensions must be >= 0" in err

    def test_quiver_without_arrows(self, tmp_path):
        q, dims = a2_setup(d=(2, 1), v=(1, 1))
        obj = sample_fiber(q, dims, WeightVec((1, 1)), seed=0).to_json()
        del obj["quiver"]["arrows"]
        path = tmp_path / "pt.json"
        path.write_text(json.dumps(obj))
        proc = self.child(["invariants", str(path)], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "quiver JSON has no entry ['arrows']" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("drop, message", [
        (("entries",), "chi JSON has no entry ['entries']"),
        (("entries", 0, "expr"), "chi JSON has no entry ['entries'][0]['expr']"),
    ], ids=["entries", "expr"])
    def test_chi_file_missing_key(self, tmp_path, worked_point, a1_chi_file, drop, message):
        obj = json.loads(a1_chi_file.read_text())
        parent = obj
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        a1_chi_file.write_text(json.dumps(obj))
        proc = self.child(["covariant", str(worked_point), "--chi", str(a1_chi_file), "--m", "1"],
                          tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr


vectors = st.lists(st.integers(-1, 2), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs))
)


@settings(max_examples=40, deadline=None)
@given(
    cmd=st.sampled_from(["sample", "count", "strata", "reduce", "check-coxeter", "info"]),
    quiver=st.sampled_from(["A1", "A2", "A3"]),
    d=vectors,
    v=vectors,
    lam=vectors,
)
def test_fuzzed_vectors_end_in_an_exit_code(cmd, quiver, d, v, lam):
    """Vectors of any length and sign end as exit 0, 1 or 2, never as an
    uncaught exception; the enumeration, retry and trial budgets keep each
    run small."""
    argv = [cmd, "--quiver", quiver, f"--d={d}", f"--v={v}"]  # "=" lets "-1,..." through
    extra = {
        "sample": [f"--lambda={lam}", "--retries", "2"],
        "count": [f"--lambda={lam}", "--p", "2", "--budget", "2000"],
        "reduce": [f"--lambda={lam}"],
        "check-coxeter": [f"--lambda={lam}", "--trials", "1"],
    }
    try:
        code = run(argv + extra.get(cmd, []))
    except SystemExit as e:  # argparse usage errors
        code = e.code
    assert code in (0, 1, 2)


# argv of inputs that once ran out of memory or time, and of some that never
# did: a quiver too large for its n x n tables, a prime too large for trial
# division, a fiber too large for its linear system
SWEEP = {
    "info-A99999": ["info", "--quiver", "A99999"],
    "info-A300": ["info", "--quiver", "A300"],
    "info-largest-weyl": ["info", "--quiver", f"A{MAX_VERTICES}", "--weyl"],
    "info-D4-weyl": ["info", "--quiver", "D4", "--weyl"],
    "count-huge-p": ["count", "--quiver", "A1", "--d", "2", "--v", "1", "--lambda", "0",
                     "--p", "1000000000000000003"],
    "count": ["count", "--quiver", "A1", "--d", "2", "--v", "1", "--lambda", "0", "--p", "2,3"],
    "sample-huge-system": ["sample", "--quiver", "A1", "--d", "400", "--v", "200",
                           "--lambda", "1", "--seed", "3"],
    "sample-huge-p": ["sample", "--quiver", "A1", "--d", "2", "--v", "1", "--lambda", "0",
                      "--field", "Fp:1000000000000000003", "--seed", "3"],
    "sample-p-beyond-the-test": ["sample", "--quiver", "A1", "--d", "2", "--v", "1",
                                 "--lambda", "0", "--field", f"Fp:{2**89 - 1}", "--seed", "3"],
    "strata": ["strata", "--quiver", "D4", "--d", "1,0,0,1", "--v", "1,1,1,2"],
}


@pytest.mark.parametrize("argv", SWEEP.values(), ids=SWEEP.keys())
def test_every_input_ends_in_bounded_time_and_memory(argv):
    """In a child capped at 1 GiB of address space and 10 s, a command exits
    0, or exits 1 with one `error:` line: no traceback, MemoryError or kill."""
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "quiverlab.cli", *argv], capture_output=True, env=cli_env(),
        text=True, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    lines = proc.stderr.splitlines()
    if proc.returncode == 0:
        assert lines == []
    else:
        assert proc.returncode == 1 and len(lines) == 1 and lines[0].startswith("error: "), \
            proc.stderr


@pytest.fixture
def a2_files(tmp_path):
    """{name: path} of an A2 point on the lambda = (1, 2) fiber with lambda
    embedded, its reflection at vertex 1, and a chi file for the point."""
    q, dims = a2_setup(d=(1, 1), v=(1, 1))
    lam = WeightVec((1, 2))
    s = sample_fiber(q, dims, lam, seed=0)
    chi = {"target_copies": [1, 0], "source_copies": [0, 0], "vectors": [[1, 0]],
           "covectors": [], "entries": [{"key": ["av", 1, 1, 1], "expr": "e1"}]}
    files = {"pt": {**s.to_json(), "lambda": ["1", "2"]},
             "pt2": reflect_point(s, 1, lam).point.to_json(), "chi": chi}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return {name: str(tmp_path / f"{name}.json") for name in files}


SPACE = ["--quiver", "A2", "--d", "1,1", "--v", "1,1"]

# every subcommand that takes --lambda or --m: its argv with valid
# arguments ({name} is a file of a2_files) and the weight options it takes;
# a repeated option overrides the earlier one
WEIGHT_COMMANDS = {
    "sample": (["sample", *SPACE, "--lambda", "1,2"], ("--lambda", "--m")),
    "reflect": (["reflect", "{pt}", "--vertex", "1"], ("--lambda", "--m")),
    "reflect-word": (["reflect-word", "{pt}", "--word", "2,1"], ("--lambda", "--m")),
    "check-coxeter": (["check-coxeter", *SPACE, "--lambda", "1,2", "--trials", "1"],
                      ("--lambda", "--m")),
    "reduce": (["reduce", *SPACE, "--lambda", "1,2"], ("--lambda", "--m")),
    "count": (["count", *SPACE, "--lambda", "1,2", "--p", "2"], ("--lambda",)),
    "verify": (["verify", "{pt}", "{pt2}", "--vertex", "1"], ("--lambda",)),
    "covariant": (["covariant", "{pt}", "--chi", "{chi}"], ("--m",)),
}
GOOD_WEIGHT = {"--lambda": "1,2", "--m": "1,1"}


def weight_argv(files, cmd, option, value):
    argv, _ = WEIGHT_COMMANDS[cmd]
    return [arg.format(**files) for arg in argv] + [option, value]


class TestWeightLengthSweep:
    """A --lambda or --m of the wrong length ends as exit 1 and an error line
    that names the vector, in every subcommand.  The commands run in process,
    so an uncaught exception fails the test instead of printing a traceback."""

    @pytest.mark.parametrize("cmd, option", [(cmd, option) for cmd, (_, options)
                                             in WEIGHT_COMMANDS.items() for option in options])
    def test_right_length_runs(self, capsys, a2_files, cmd, option):
        code, _, err = invoke(capsys, *weight_argv(a2_files, cmd, option, GOOD_WEIGHT[option]))
        assert code == 0, err

    @pytest.mark.parametrize("cmd, option, value", [
        (cmd, option, value) for cmd, (_, options) in WEIGHT_COMMANDS.items()
        for option in options for value in ("1", "1,2,3")])
    def test_wrong_length_named(self, capsys, a2_files, cmd, option, value):
        code, out, err = invoke(capsys, *weight_argv(a2_files, cmd, option, value))
        name, length = option.lstrip("-"), value.count(",") + 1
        assert (code, out) == (1, "")
        assert err == f"error: {name} has length {length}, quiver has 2 vertices\n"

    @pytest.mark.parametrize("key", ["lambda", "m"])
    @pytest.mark.parametrize("cmd", ["reflect", "reflect-word"])
    def test_point_file_weight_of_wrong_length(self, capsys, a2_files, cmd, key):
        with open(a2_files["pt"]) as fh:
            obj = json.load(fh)
        obj[key] = ["1", "2", "3"]
        with open(a2_files["pt"], "w") as fh:
            json.dump(obj, fh)
        argv, _ = WEIGHT_COMMANDS[cmd]
        code, out, err = invoke(capsys, *[arg.format(**a2_files) for arg in argv])
        assert (code, out) == (1, "")
        assert err == f"error: {key} has length 3, quiver has 2 vertices\n"

    def test_empty_vertex_named(self, capsys, a2_files):
        code, _, err = invoke(capsys, "reflect-word", a2_files["pt"], "--word=")
        assert code == 1
        assert err == "error: unknown vertex ''\n"


# malformed entries of a quiver JSON file: (entry path, value, what it must be)
BAD_QUIVER_ENTRIES = [
    (("vertices",), [[1], 2], "a list of integers"),
    (("vertices",), 5, "a list of integers"),
    (("vertices",), [1.5, 2], "a list of integers"),
    (("vertices",), [True, 2], "a list of integers"),
    (("arrows",), 5, "a list"),
    (("arrows", 0, "from"), [1], "an integer"),
    (("arrows", 1, "to"), 1.0, "an integer"),
    (("arrows", 0, "eps"), "1", "an integer"),
    (("arrows", 0, "id"), ["h1"], "a string"),
    (("arrows", 0, "bar"), {"x": 1}, "a string"),
]


class TestQuiverJsonSweep:
    """A malformed entry of a `--quiver` JSON file ends as exit 1 and an error
    line that names the entry, run in process as in TestWeightLengthSweep."""

    @pytest.mark.parametrize("keys, value, kind", BAD_QUIVER_ENTRIES,
                             ids=lambda x: repr(x) if not isinstance(x, str) else x)
    def test_malformed_entry_named(self, capsys, tmp_path, keys, value, kind):
        obj = quiverlab.dynkin_quiver("A2").to_json()
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = tmp_path / "q.json"
        path.write_text(json.dumps(obj))
        code, out, err = invoke(capsys, "info", "--quiver", str(path))
        entry = "".join(f"[{k!r}]" for k in keys)
        assert (code, out) == (1, "")
        assert err == f"error: quiver JSON entry {entry} must be {kind}, not {value!r}\n"

    def test_well_formed_file_runs(self, capsys, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(quiverlab.dynkin_quiver("A2").to_json()))
        assert invoke_json(capsys, "info", "--quiver", str(path)) == invoke_json(
            capsys, "info", "--quiver", "A2")

    def test_verify_rejects_points_on_different_quivers(self, capsys, tmp_path):
        # both points sampled on A3, one of them on arrows renamed a-d: this
        # used to end in the bare KeyError 'h2'
        q = quiverlab.dynkin_quiver("A3")
        dims = quiverlab.DimData(WeightVec((1, 1, 1)), quiverlab.RootVec((1, 1, 1)))
        for name, quiver in (("pt3", q), ("pta3", renamed_arrows(q))):
            s = sample_fiber(quiver, dims, WeightVec((1, 2, 1)), seed=0)
            (tmp_path / f"{name}.json").write_text(json.dumps(s.to_json()))
        code, out, err = invoke(capsys, "verify", str(tmp_path / "pt3.json"),
                                str(tmp_path / "pta3.json"), "--vertex", "1", "--lambda", "1,2,1")
        assert (code, out, err) == (1, "", "error: points live on different quivers\n")


def json_leaves(obj, keys=()):
    """The key path of every leaf of a JSON object (an entry that is no
    list or dict), in document order."""
    if not isinstance(obj, (dict, list)):
        yield keys
        return
    for key, x in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        yield from json_leaves(x, keys + (key,))


def sweep_point():
    """An A2 point on the lambda = (1, 2) fiber with lambda and m embedded,
    as a point file holds it."""
    q, dims = a2_setup(d=(1, 1), v=(1, 1))
    s = sample_fiber(q, dims, WeightVec((1, 2)), seed=0)
    return {**s.to_json(), "lambda": ["1", "2"], "m": ["1", "1"]}


# the valid files the sweeps below break one leaf at a time, the command
# that reads each, and the values put in place of a leaf
SWEEP_FILES = {
    "point": (sweep_point(), ["reflect", "{point}", "--vertex", "1"]),
    "chi": ({"target_copies": [1, 0], "source_copies": [0, 0], "vectors": [[1, 0]],
             "covectors": [], "entries": [{"key": ["av", 1, 1, 1], "expr": "e1"}]},
            ["covariant", "{point}", "--chi", "{chi}", "--m", "1,1"]),
}
SWEEP_VALUES = [5, "x", [], {}, None, True]


class TestJsonLeafSweep:
    """Each leaf of a valid point or chi-data file, replaced in turn by each
    of SWEEP_VALUES, ends as exit 0 or as exit 1 with one error line; never
    as an uncaught exception.  Run in process as in TestWeightLengthSweep."""

    @staticmethod
    def run(capsys, tmp_path, name, keys=(), value=None):
        """(code, stdout, stderr) of the command that reads SWEEP_FILES[name],
        with the leaf at keys of that file, if any, replaced by value."""
        files = {}
        for fname, (obj, _) in SWEEP_FILES.items():
            obj = json.loads(json.dumps(obj))
            if fname == name and keys:
                parent = obj
                for key in keys[:-1]:
                    parent = parent[key]
                parent[keys[-1]] = value
            files[fname] = tmp_path / f"{fname}.json"
            files[fname].write_text(json.dumps(obj))
        return invoke(capsys, *[arg.format(**files) for arg in SWEEP_FILES[name][1]])

    @pytest.mark.parametrize("name, keys, value", [
        (name, keys, value) for name, (obj, _) in SWEEP_FILES.items()
        for keys in json_leaves(obj) for value in SWEEP_VALUES],
        ids=lambda x: x if isinstance(x, str) else repr(x))
    def test_broken_leaf_ends_in_an_exit_code(self, capsys, tmp_path, name, keys, value):
        code, out, err = self.run(capsys, tmp_path, name, keys, value)
        assert code in (0, 1), err
        if code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err

    @pytest.mark.parametrize("name", sorted(SWEEP_FILES))
    def test_valid_file_runs(self, capsys, tmp_path, name):
        code, _, err = self.run(capsys, tmp_path, name)
        assert code == 0, err


class TestDeterminism:
    CASES = [
        ["sample", "--quiver", "A2", "--d", "2,1", "--v", "1,1",
         "--lambda", "1,1", "--seed", "9"],
        ["check-coxeter", "--quiver", "A1", "--d", "2", "--v", "1",
         "--lambda", "1", "--trials", "3", "--seed", "1"],
        ["count", "--quiver", "A1", "--d", "2", "--v", "1", "--lambda", "0",
         "--p", "2,3"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=["sample", "coxeter", "count"])
    def test_byte_identical_runs(self, argv):
        env = cli_env()
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "quiverlab.cli", *argv],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, (argv, proc.stderr.decode())
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert outs[0]

    def test_different_seeds_differ(self, capsys):
        a = invoke_json(capsys, "sample", "--quiver", "A1", "--d", "2", "--v", "1",
                        "--lambda", "1", "--seed", "1")
        b = invoke_json(capsys, "sample", "--quiver", "A1", "--d", "2", "--v", "1",
                        "--lambda", "1", "--seed", "2")
        assert a != b


# -- the benchmark's CLI battery against its committed goldens -----------------

# perfbench/workloads.py is imported, so the battery and its inputs are not copied
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)


@pytest.fixture(scope="module")
def battery_dir(tmp_path_factory):
    """A working directory holding the input files the battery reads."""
    workdir = tmp_path_factory.mktemp("battery")
    workloads.write_cli_inputs(quiverlab, str(workdir))
    return workdir


@pytest.mark.parametrize("name", sorted(workloads.CLI_BATTERY))
def test_cli_battery_matches_goldens(battery_dir, capsys, monkeypatch, name):
    monkeypatch.chdir(battery_dir)
    code = run(list(workloads.CLI_BATTERY[name]))
    out, err = capsys.readouterr()
    assert code == 0, err
    with open(os.path.join(workloads.GOLDENS, "cli", name + ".out"), "rb") as fh:
        assert out.encode() == fh.read()


# -- pins of the parser and of the text and csv renderings ---------------------

# every subcommand takes --format, -o/--output and -h/--help
COMMON_ACTIONS = {
    (("--format",), "format", False, "json", None, ("json", "text", "csv"), None),
    (("-h", "--help"), "help", False, "==SUPPRESS==", None, None, 0),
    (("-o", "--output"), "output", False, None, None, None, None),
}
# (option strings, dest, required, default, type name, choices, nargs)
PARSER_PIN = {
    "info": {
        (("--d",), "d", False, None, "_int_vec", None, None),
        (("--quiver",), "quiver", True, None, None, None, None),
        (("--v",), "v", False, None, "_int_vec", None, None),
        (("--weyl",), "weyl", False, False, None, None, 0),
    },
    "sample": {
        (("--d",), "d", True, None, "_int_vec", None, None),
        (("--field",), "field", False, "Q", None, None, None),
        (("--height",), "height", False, 10, "int", None, None),
        (("--lambda",), "lam", True, None, "_weight_vec", None, None),
        (("--m",), "m", False, None, "_weight_vec", None, None),
        (("--quiver",), "quiver", True, None, None, None, None),
        (("--retries",), "retries", False, 25, "int", None, None),
        (("--seed",), "seed", False, 0, "int", None, None),
        (("--v",), "v", True, None, "_int_vec", None, None),
    },
    "reflect": {
        ((), "point", True, None, None, None, None),
        (("--lambda",), "lam", False, None, "_weight_vec", None, None),
        (("--m",), "m", False, None, "_weight_vec", None, None),
        (("--side",), "side", False, "auto", None, ("auto", "kernel", "cokernel"), None),
        (("--vertex",), "vertex", True, None, "_vertex_token", None, None),
    },
    "reflect-word": {
        ((), "point", True, None, None, None, None),
        (("--lambda",), "lam", False, None, "_weight_vec", None, None),
        (("--m",), "m", False, None, "_weight_vec", None, None),
        (("--word",), "word", True, None, None, None, None),
    },
    "invariants": {
        ((), "point", True, None, None, None, None),
        (("--max-len",), "max_len", False, 4, "int", None, None),
    },
    "covariant": {
        ((), "point", False, None, None, None, "?"),
        (("--chi",), "chi", True, None, None, None, None),
        (("--d",), "d", False, None, "_int_vec", None, None),
        (("--m",), "m", False, None, "_weight_vec", None, None),
        (("--quiver",), "quiver", False, None, None, None, None),
        (("--v",), "v", False, None, "_int_vec", None, None),
    },
    "check-coxeter": {
        (("--d",), "d", True, None, "_int_vec", None, None),
        (("--lambda",), "lam", True, None, "_weight_vec", None, None),
        (("--m",), "m", False, None, "_weight_vec", None, None),
        (("--quiver",), "quiver", True, None, None, None, None),
        (("--seed",), "seed", False, 0, "int", None, None),
        (("--trials",), "trials", False, 50, "int", None, None),
        (("--v",), "v", True, None, "_int_vec", None, None),
    },
    "reduce": {
        (("--d",), "d", True, None, "_int_vec", None, None),
        (("--lambda",), "lam", True, None, "_weight_vec", None, None),
        (("--m",), "m", False, None, "_weight_vec", None, None),
        (("--quiver",), "quiver", True, None, None, None, None),
        (("--v",), "v", True, None, "_int_vec", None, None),
    },
    "strata": {
        (("--d",), "d", True, None, "_int_vec", None, None),
        (("--quiver",), "quiver", True, None, None, None, None),
        (("--v",), "v", True, None, "_int_vec", None, None),
        (("--v-prime",), "v_prime", False, None, "_int_vec", None, None),
    },
    "count": {
        (("--budget",), "budget", False, None, "int", None, None),
        (("--d",), "d", True, None, "_int_vec", None, None),
        (("--lambda",), "lam", True, None, "_weight_vec", None, None),
        (("--p", "--prime"), "p", True, None, "_int_vec", None, None),
        (("--quiver",), "quiver", True, None, None, None, None),
        (("--v",), "v", True, None, "_int_vec", None, None),
    },
    "verify": {
        ((), "point", True, None, None, None, None),
        ((), "point2", True, None, None, None, None),
        (("--lambda",), "lam", False, None, "_weight_vec", None, None),
        (("--vertex",), "vertex", True, None, "_vertex_token", None, None),
    },
}


def subcommands():
    top = _build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_parser_pin():
    """Each subcommand accepts the same options, with the same dest, default,
    type and choices; only their order in the usage text may change."""
    got = {
        name: {
            (tuple(a.option_strings), a.dest, a.required, a.default,
             getattr(a.type, "__name__", None), tuple(a.choices) if a.choices else None, a.nargs)
            for a in p._actions
        }
        for name, p in subcommands().items()
    }
    assert got == {name: acts | COMMON_ACTIONS for name, acts in PARSER_PIN.items()}


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in PARSER_PIN],
                         ids=["top"] + list(PARSER_PIN))
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quiverlab")


# argvs that parse, for each subcommand; no file is read before parsing ends
PARSABLE = {
    "info": ["--quiver", "A2"],
    "sample": ["--quiver", "A2", "--d", "2,1", "--v", "1,1", "--lambda", "1,1"],
    "reflect": ["pt.json", "--vertex", "1"],
    "reflect-word": ["pt.json", "--word", "1,2"],
    "invariants": ["pt.json"],
    "covariant": ["pt.json", "--chi", "chi.json"],
    "check-coxeter": ["--quiver", "A2", "--d", "2,2", "--v", "1,1", "--lambda", "1,1"],
    "reduce": ["--quiver", "A2", "--d", "1,1", "--v", "2,0", "--lambda", "0,0"],
    "strata": ["--quiver", "A1", "--d", "2", "--v", "1"],
    "count": ["--quiver", "A1", "--d", "2", "--v", "1", "--lambda", "0", "--p", "3"],
    "verify": ["pt.json", "rpt.json", "--vertex", "1"],
}


def parser_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["nosuch"],
    *([name, "--help"] for name in PARSABLE),
    *([name] for name in PARSABLE),
    *([name, *rest, "--d", "x"] for name, rest in PARSABLE.items()),
    *([name, *rest, "--nosuch"] for name, rest in PARSABLE.items()),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_run_parses_like_the_full_parser(capsys, argv):
    """run builds the subparser of argv[0] alone; its exit code, stdout and
    stderr are those of the parser of every subcommand."""
    assert PARSABLE.keys() == subcommands().keys()
    assert (parser_exit(capsys, run, argv)
            == parser_exit(capsys, lambda a: _build_parser().parse_args(a), argv))


VERIFY_FAILING_TEXT = """\
ab_identity = False
all_pass = False
away_arrows = True
away_delta = True
away_gamma = True
exact_sequence = False
messages[0] = b . a' != 0
messages[1] = dims 1 + 1 != 3
messages[2] = a' b' != a b - lambda_i
messages[3] = moment equations fail
moments = False
"""

STRATA_TEXT = """\
codim_ge_1 = True
codim_ge_2 = False
d[0] = 2
delta_v = 3
dominant = True
min_proper_codim = 1
regular = False
strata[0].codimension = 1
strata[0].dimension = 2
strata[0].v_prime[0] = 0
strata[1].codimension = 0
strata[1].dimension = 3
strata[1].v_prime[0] = 1
v[0] = 1
"""

COXETER_CHECK_TEXT = """\
checks[{k}].kind = {kind}
checks[{k}].ok = True
checks[{k}].passes = 2
checks[{k}].skipped = 
checks[{k}].trials = 2
"""
COXETER_CHECKS = [("involution", "1"), ("sides", "1"), ("involution", "2"), ("sides", "2"),
                  ("braid", "1 2")]
COXETER_TEXT = (
    "all_pass = True\n"
    + "".join(
        COXETER_CHECK_TEXT.format(k=k, kind=kind)
        + "".join(f"checks[{k}].vertices[{j}] = {vert}\n" for j, vert in enumerate(verts.split()))
        for k, (kind, verts) in enumerate(COXETER_CHECKS)
    )
    + "generic = True\n"
)
COXETER_CSV = "kind,vertices,trials,passes,ok,skipped\n" + "".join(
    f"{kind},{verts},2,2,True,\n" for kind, verts in COXETER_CHECKS
)


@pytest.mark.parametrize("argv, expected", [
    (["verify", "pt.json", "pt.json", "--vertex", "1", "--format", "text"], VERIFY_FAILING_TEXT),
    (workloads.CLI_BATTERY["strata"] + ["--format", "text"], STRATA_TEXT),
    (workloads.CLI_BATTERY["check_coxeter"] + ["--format", "text"], COXETER_TEXT),
    (workloads.CLI_BATTERY["check_coxeter"] + ["--format", "csv"], COXETER_CSV),
], ids=["verify-text", "strata-text", "check-coxeter-text", "check-coxeter-csv"])
def test_report_renderings(battery_dir, capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(battery_dir)
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out == expected
