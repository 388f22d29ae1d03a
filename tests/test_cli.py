"""End-to-end CLI coverage: payload shapes, pipelines, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import quiverlab
from quiverlab import FramedPoint, WeightVec, moment_matches, sample_fiber
from quiverlab.cli import main, run
from util import a1_point, a2_setup, cli_env


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
            "--lambda", "0", "--p", "2", "--budget", "10",
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
