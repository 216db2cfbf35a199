"""End-to-end CLI behavior through in-process main() calls."""
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parisi_zero
from parisi_zero import cli
from parisi_zero.cli import PHASE_INDEX, SCHEMA_TAG, SWEEP_COLUMNS, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_classify_json(capsys):
    rc, out, _ = run(capsys, "classify", "--p", "4", "--s", "18",
                     "--lambda", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["phase"] == "OneRSB"
    assert doc["params"]["z"] == pytest.approx(27.018374403619486, abs=1e-9)
    assert doc["energy"] == pytest.approx(2.1655874877500327, abs=1e-10)
    assert doc["report"]["pass"] is True
    assert doc["measure"]["atom"] > 0
    assert doc["tolerance"] == 1e-7


def test_classify_csv(capsys):
    rc, out, _ = run(capsys, "classify", "--p", "4", "--s", "18",
                     "--lambda", "0.5", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == SCHEMA_TAG
    assert lines[1] == ",".join(SWEEP_COLUMNS)
    row = dict(zip(SWEEP_COLUMNS, lines[2].split(",")))
    assert row["phase"] == "OneRSB"
    assert float(row["energy"]) == pytest.approx(2.1655874878, abs=1e-9)
    assert row["q"] == ""  # one-step phase carries no q


def test_classify_rejects_bad_exponents(capsys):
    rc, _, err = run(capsys, "classify", "--p", "4", "--s", "3",
                     "--lambda", "0.5")
    assert rc == 1
    assert "s must be" in err


def test_env_tolerance_forces_unresolved(capsys, monkeypatch):
    monkeypatch.setenv("PARISI_TOL", "1e-30")
    rc, out, _ = run(capsys, "classify", "--p", "4", "--s", "18",
                     "--lambda", "0.5")
    assert rc == 2
    assert json.loads(out)["phase"] == "Unresolved"
    # an explicit --tol wins over the environment
    rc, out, _ = run(capsys, "classify", "--p", "4", "--s", "18",
                     "--lambda", "0.5", "--tol", "1e-7")
    assert rc == 0
    assert json.loads(out)["phase"] == "OneRSB"


@pytest.mark.parametrize("env, flag, where", [
    ("abc", None, "PARISI_TOL"),
    ("-1e-7", None, "PARISI_TOL"),
    (None, "nan", "--tol"),
    (None, "inf", "--tol"),
    (None, "-1", "--tol"),
    (None, "0", "--tol"),
])
def test_bad_tolerance_exits_one_before_any_work(capsys, monkeypatch, env,
                                                 flag, where):
    if env is None:
        monkeypatch.delenv("PARISI_TOL", raising=False)
    else:
        monkeypatch.setenv("PARISI_TOL", env)
    argv = ["classify", "--p", "4", "--s", "38", "--lambda", "0.985"]
    if flag is not None:
        argv += ["--tol", flag]
    monkeypatch.setattr("parisi_zero.cli.classify", None)  # never reached
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and where in err


def test_boundaries_json_and_csv(capsys):
    rc, out, _ = run(capsys, "boundaries", "--p", "2", "--s", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["regime"]["tag"] == "P2Family"
    assert doc["p2"]["lambda_1Fto1"] == pytest.approx(12 / 13, abs=1e-15)
    assert doc["general"] is None

    rc, out, _ = run(capsys, "boundaries", "--p", "2", "--s", "4",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == SCHEMA_TAG
    assert lines[1] == "name,value,residual"
    names = [l.split(",")[0] for l in lines[2:]]
    assert names == ["regime", "lambda_1to1F", "lambda_1Fto1"]


def test_boundaries_json_says_how_each_system_boundary_was_solved(capsys):
    rc, out, _ = run(capsys, "boundaries", "--p", "4", "--s", "38")
    assert rc == 0
    diag = json.loads(out)["diagnostics"]
    for key in ("1to2", "2to2F"):
        assert diag["landmarks_" + key] > 0
        assert 0 <= diag["halvings_" + key] <= diag["landmarks_" + key]
    # the CSV form carries the constants and residuals only
    rc, out, _ = run(capsys, "boundaries", "--p", "4", "--s", "38",
                     "--format", "csv")
    assert rc == 0
    assert [l.split(",")[0] for l in out.splitlines()[2:]] == [
        "regime", "lambda_1to2", "lambda_2to1", "lambda_2to2F",
        "lambda_2to1F"]


def test_sweep_deterministic_and_parallel(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out3 = tmp_path / "c.csv"
    base = ("sweep", "--p", "2", "--s", "4", "--lambda-grid", "0:1:0.05")
    assert run(capsys, *base, "--out", str(out1))[0] == 0
    assert run(capsys, *base, "--out", str(out2))[0] == 0
    assert run(capsys, *base, "--out", str(out3), "--jobs", "2")[0] == 0

    text = out1.read_text()
    assert text == out2.read_text() == out3.read_text()
    lines = text.splitlines()
    assert lines[0] == SCHEMA_TAG
    assert len(lines) == 2 + 21  # tag, header, 21 grid rows

    phases = [dict(zip(SWEEP_COLUMNS, l.split(",")))["phase"]
              for l in lines[2:]]
    assert phases[0] == "OneRSB" and phases[-1] == "RS"
    assert "OneFRSB" in phases and "FRSB" in phases

    dat = (tmp_path / "a.dat").read_text().splitlines()
    assert dat[0].startswith("#")
    assert len(dat) == 1 + 21
    idx = [int(l.split()[1]) for l in dat[1:]]
    assert set(idx) <= set(PHASE_INDEX.values())


def test_sweep_count_form_and_bad_grids(tmp_path, capsys):
    out = tmp_path / "n.csv"
    rc, _, _ = run(capsys, "sweep", "--p", "4", "--s", "18",
                   "--lambda-grid", "0.2:0.6", "--count", "3",
                   "--out", str(out))
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2 + 3

    for grid in ("1:0:0.05", "0:1", "a:b:c", "0:1:-0.1"):
        rc, _, err = run(capsys, "sweep", "--p", "4", "--s", "18",
                         "--lambda-grid", grid, "--out", str(out))
        assert rc == 1
        assert "grid" in err


def test_sweep_refuses_a_step_that_does_not_divide_the_span(tmp_path, capsys):
    # 0:1:0.3 used to write the lambdas 0, 1/3, 2/3, 1, not the step asked for
    out = tmp_path / "d.csv"
    for grid in ("0:1:0.3", "0.2:0.6:0.15", "0.97:1.0:0.0007"):
        rc, _, err = run(capsys, "sweep", "--p", "4", "--s", "18",
                         "--lambda-grid", grid, "--out", str(out))
        assert rc == 1, grid
        assert len(err.splitlines()) == 1 and "does not divide" in err, err
        assert not out.exists()
    # a step that divides its span up to rounding keeps its grid
    rc, _, _ = run(capsys, "sweep", "--p", "4", "--s", "18",
                   "--lambda-grid", "0.2:0.6:0.1", "--out", str(out))
    assert rc == 0
    lams = [l.split(",")[SWEEP_COLUMNS.index("lambda")]
            for l in out.read_text().splitlines()[2:]]
    assert [round(float(l), 12) for l in lams] == [0.2, 0.3, 0.4, 0.5, 0.6]


def test_sweep_rejects_huge_grids_and_bad_jobs(tmp_path, capsys):
    # rejected as usage errors before any grid is allocated: one line on
    # stderr, exit 1, no output files
    out = tmp_path / "h.csv"
    for extra in (("--lambda-grid", "0:1:1e-12"),
                  ("--lambda-grid", "0:1", "--count", str(10 ** 12)),
                  ("--lambda-grid", "0:1:1e-320"),
                  ("--lambda-grid", "0:1:0.5", "--jobs", "0"),
                  ("--lambda-grid", "0:1:0.5", "--jobs", "-3")):
        rc, _, err = run(capsys, "sweep", "--p", "4", "--s", "18",
                         "--out", str(out), *extra)
        assert rc == 1, extra
        assert len(err.splitlines()) == 1, err
        assert ("grid" in err) != ("--jobs" in err), err
    assert not out.exists()


def test_sweep_starts_no_more_workers_than_points(tmp_path, capsys,
                                                  monkeypatch):
    # the pool is a fake that records max_workers and maps in this
    # process, so the test starts no processes
    import concurrent.futures

    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    out = tmp_path / "w.csv"
    for count, jobs, want in ((3, 500, [3]), (5, 2, [2]), (1, 8, [])):
        asked.clear()
        rc, _, _ = run(capsys, "sweep", "--p", "4", "--s", "18",
                       "--lambda-grid", "0.2:0.6", "--count", str(count),
                       "--jobs", str(jobs), "--out", str(out))
        assert rc == 0
        assert asked == want, (count, jobs)
        assert len(out.read_text().splitlines()) == 2 + count


def test_verify_round_trip(tmp_path, capsys):
    rc, out, _ = run(capsys, "classify", "--p", "4", "--s", "18",
                     "--lambda", "0.5")
    assert rc == 0
    record = json.loads(out)
    path = tmp_path / "m.json"

    # bare measure form
    path.write_text(json.dumps(record["measure"]))
    rc, out, _ = run(capsys, "verify", "--p", "4", "--s", "18",
                     "--lambda", "0.5", "--measure", str(path))
    assert rc == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    for key in ("normalization_error", "min_g", "support_residual"):
        assert abs(rep[key] - record["report"][key]) <= 1e-12

    # full classify record is accepted too
    path.write_text(json.dumps(record))
    rc, out, _ = run(capsys, "verify", "--p", "4", "--s", "18",
                     "--lambda", "0.5", "--measure", str(path))
    assert rc == 0 and json.loads(out)["pass"] is True


def test_verify_rejects_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    rc, _, err = run(capsys, "verify", "--p", "4", "--s", "18",
                     "--lambda", "0.5", "--measure", str(path))
    assert rc == 1 and "cannot read" in err

    path.write_text(json.dumps({"segments": []}))
    rc, _, err = run(capsys, "verify", "--p", "4", "--s", "18",
                     "--lambda", "0.5", "--measure", str(path))
    assert rc == 1

    rc, _, err = run(capsys, "verify", "--p", "4", "--s", "18",
                     "--lambda", "0.5", "--measure", str(tmp_path / "nope"))
    assert rc == 1


def test_verify_flags_a_failing_measure(tmp_path, capsys):
    rc, out, _ = run(capsys, "classify", "--p", "4", "--s", "18",
                     "--lambda", "0.5")
    doc = json.loads(out)["measure"]
    doc["atom"] *= 1.1
    path = tmp_path / "off.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "--p", "4", "--s", "18",
                     "--lambda", "0.5", "--measure", str(path))
    assert rc == 2
    assert json.loads(out)["pass"] is False


def test_verify_calls_a_measure_outside_the_cone_unproven(tmp_path, capsys):
    # the full density decreases near 0: the report's three conditions hold,
    # and the measure's energy lies below the certified TwoRSB ground state
    doc = {"segments": [{"lo": 0.0, "hi": 1e-06, "kind": "const", "value": 0.0},
                        {"lo": 1e-06, "hi": 1.0, "kind": "full"}],
           "atom": 0.08127127300011638}
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", "--p", "4", "--s", "38",
                       "--lambda", "0.9", "--measure", str(path))
    assert rc == 2
    rep = json.loads(out)
    assert rep["pass"] is False
    assert set(rep) == {"normalization_error", "min_g", "support_residual",
                        "pass", "tolerance"}
    assert len(err.splitlines()) == 1
    assert "outside the optimisation cone" in err
    assert "full density is not increasing" in err


def test_verify_names_the_cone_before_an_integral_that_fails(tmp_path,
                                                             capsys):
    # the same shape at (3, 20, 0.9): its full-segment quadrature does not
    # converge, so there is no report to print, but the cone check still
    # names the condition the measure breaks
    doc = {"segments": [{"lo": 0.0, "hi": 1e-06, "kind": "const", "value": 0.0},
                        {"lo": 1e-06, "hi": 1.0, "kind": "full"}],
           "atom": 0.2}
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", "--p", "3", "--s", "20",
                       "--lambda", "0.9", "--measure", str(path))
    assert rc == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert "outside the optimisation cone" in err
    assert "full density is not increasing" in err


@pytest.mark.parametrize("p, s, lam, phase", [
    (4, 38, 0.5, "OneRSB"), (4, 38, 0.95, "TwoRSB"), (4, 38, 0.985, "TwoFRSB"),
    (4, 38, 0.988, "OneFRSB"), (2, 8, 0.99, "FRSB"), (2, 8, 0.9, "OneFRSB")])
def test_verify_passes_every_classify_record(tmp_path, capsys, p, s, lam,
                                             phase):
    point = ("--p", str(p), "--s", str(s), "--lambda", str(lam))
    rc, out, _ = run(capsys, "classify", *point)
    record = json.loads(out)
    assert rc == 0 and record["phase"] == phase
    path = tmp_path / "record.json"
    path.write_text(out)
    rc, out, err = run(capsys, "verify", *point, "--measure", str(path))
    assert rc == 0 and err == ""
    assert json.loads(out) == record["report"]


@pytest.mark.parametrize("doc, message", [
    # xi''(0) = 0 for p >= 3, so a full segment from 0 has an infinite tail
    ({"segments": [{"lo": 0, "hi": 1, "kind": "full"}], "atom": 0.1},
     "negative power"),
    # the tail squared underflows to zero
    ({"segments": [{"lo": 0, "hi": 1, "kind": "const", "value": 0.0}],
      "atom": 1e-320}, "division by zero"),
    ({"segments": [{"lo": 0, "hi": 1, "kind": "const", "value": math.nan}],
      "atom": 0.5}, "finite"),
    # the tail stays positive but its inverse square overflows
    ({"segments": [{"lo": 0, "hi": 1, "kind": "const", "value": 0.5}],
      "atom": 1e-320}, "not finite"),
    # contiguous, but running backwards through 0.7 -> 0.3
    ({"segments": [{"lo": 0, "hi": 0.7, "kind": "const", "value": 0.1},
                   {"lo": 0.7, "hi": 0.3, "kind": "const", "value": 0.2},
                   {"lo": 0.3, "hi": 1, "kind": "const", "value": 0.3}],
      "atom": 0.5}, "in order"),
    ({"segments": [{"lo": 0, "hi": 1, "kind": "const", "value": -0.5}],
      "atom": 0.5}, ">= 0"),
])
def test_verify_refuses_degenerate_measures_in_one_line(tmp_path, capsys,
                                                        doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify", "--p", "4", "--s", "38",
                       "--lambda", "0.5", "--measure", str(path))
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1 and message in err, err


def test_oracle_command(capsys):
    rc, out, _ = run(capsys, "oracle", "--p", "2", "--s", "5",
                     "--lambda", "1.0", "--kmax", "1",
                     "--restarts", "4", "--seed", "3")
    assert rc == 0
    doc = json.loads(out)
    assert [e["k"] for e in doc["energies"]] == [0, 1]
    assert doc["energies"][0]["energy"] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert doc["saturation"] == 0
    assert doc["tag"] == "saturates at 0"
    assert doc["measure_kmax"]["atom"] > 0


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as e:
        main(["classify", "--p", "4", "--s", "18"])  # missing --lambda
    assert e.value.code == 1


def test_sweep_across_full_phases_same_at_any_job_count(tmp_path, capsys):
    # a (4,38) band from TwoRSB through TwoFRSB and OneFRSB to OneRSB: the
    # pooled run's rows match the serial run's byte for byte
    base = ("sweep", "--p", "4", "--s", "38", "--lambda-grid", "0.980:0.991",
            "--count", "12")
    serial, pooled = tmp_path / "j1.csv", tmp_path / "j2.csv"
    assert run(capsys, *base, "--out", str(serial))[0] == 0
    assert run(capsys, *base, "--out", str(pooled), "--jobs", "2")[0] == 0
    assert serial.read_bytes() == pooled.read_bytes()
    assert ((tmp_path / "j1.dat").read_bytes()
            == (tmp_path / "j2.dat").read_bytes())
    phases = [dict(zip(SWEEP_COLUMNS, l.split(",")))["phase"]
              for l in serial.read_text().splitlines()[2:]]
    assert {"TwoRSB", "TwoFRSB", "OneFRSB", "OneRSB"} <= set(phases)


_NO_SCIPY = """
import json
import os
import sys

def check(stage):
    loaded = sorted(k for k in sys.modules
                    if k == "scipy" or k.startswith("scipy."))
    assert not loaded, (stage, loaded)

from parisi_zero import boundaries, classify, cli
from parisi_zero.measure import to_json_dict

check("import")
boundaries(4, 38)
check("boundaries")
for p, s, lam, phase in ((4, 38, 0.95, "TwoRSB"), (4, 38, 0.5, "OneRSB"),
                         (4, 38, 0.985, "TwoFRSB"), (4, 38, 0.988, "OneFRSB"),
                         (2, 4, 0.95, "FRSB")):
    cl = classify(p, s, lam)
    assert cl.phase == phase and cl.report.passed, (p, s, lam, cl)
    check(phase)
tmp = sys.argv[1]
path = os.path.join(tmp, "full.json")
with open(path, "w") as fh:
    json.dump(to_json_dict(classify(4, 38, 0.985).measure), fh)
assert cli.main(["verify", "--p", "4", "--s", "38", "--lambda", "0.985",
                 "--measure", path]) == 0
check("verify")
for jobs in ("1", "2"):
    assert cli.main(["sweep", "--p", "4", "--s", "38",
                     "--lambda-grid", "0.980:0.991", "--count", "6",
                     "--out", os.path.join(tmp, jobs + ".csv"),
                     "--jobs", jobs]) == 0
    check("sweep --jobs " + jobs)
from parisi_zero import make_mixture, minimize_k, oracle_profile
m = make_mixture(4, 38, 0.985)
oracle_profile(m, kmax=2, restarts=2, seed=1)
minimize_k(m, 1, restarts=2, seed=1)
check("oracle")
"""


def _child_env():
    # a child interpreter that imports this checkout's package
    src = os.path.dirname(os.path.dirname(parisi_zero.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_script(script, tmp_path):
    return subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)


def test_step_phases_never_load_scipy(tmp_path):
    # the CLI import, a boundary solve, classify in every phase, a verify
    # of a full measure, sweeps serial or pooled and the oracle all stay
    # clear of scipy
    proc = run_script(_NO_SCIPY, tmp_path)
    assert proc.returncode == 0, proc.stderr


_SCIPY_BLOCKED = """
import importlib.abc
import json
import os
import sys


class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(name + " is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from parisi_zero import classify, cli
from parisi_zero.measure import to_json_dict

tmp = sys.argv[1]
path = os.path.join(tmp, "full.json")
with open(path, "w") as fh:
    json.dump(to_json_dict(classify(4, 38, 0.985).measure), fh)
point = ["--p", "4", "--s", "38"]
grid = ["--lambda-grid", "0.980:0.991", "--count", "6"]
for argv in (["classify", *point, "--lambda", "0.985"],
             ["classify", "--p", "2", "--s", "4", "--lambda", "0.95"],
             ["boundaries", *point],
             ["sweep", *point, *grid, "--jobs", "1",
              "--out", os.path.join(tmp, "1.csv")],
             ["sweep", *point, *grid, "--jobs", "2",
              "--out", os.path.join(tmp, "2.csv")],
             ["verify", *point, "--lambda", "0.985", "--measure", path],
             ["oracle", *point, "--lambda", "0.985", "--kmax", "2",
              "--restarts", "2"]):
    assert cli.main(argv) == 0, argv
"""


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # an import hook refuses scipy outright, so any use of it would fail
    proc = run_script(_SCIPY_BLOCKED, tmp_path)
    assert proc.returncode == 0, proc.stderr


_SPAWN = """
import multiprocessing
import os
import sys

from parisi_zero import cli

multiprocessing.set_start_method("spawn")
for jobs in ("1", "2"):
    assert cli.main(["sweep", "--p", "4", "--s", "38",
                     "--lambda-grid", "0.980:0.991:0.001", "--jobs", jobs,
                     "--out", os.path.join(sys.argv[1], jobs + ".csv")]) == 0
"""


def test_sweep_does_not_depend_on_the_start_method(tmp_path):
    # spawned workers inherit no solved boundaries and solve their own;
    # the rows must still match the serial run byte for byte
    proc = run_script(_SPAWN, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for ext in (".csv", ".dat"):
        assert ((tmp_path / ("1" + ext)).read_bytes()
                == (tmp_path / ("2" + ext)).read_bytes()), ext


_ENTRY_CASES = {
    "classify": ["classify", "--p", "4", "--s", "38", "--lambda", "0.95"],
    "sweep": ["sweep", "--p", "4", "--s", "38", "--lambda-grid",
              "0.980:0.991", "--count", "12", "--jobs", "2",
              "--out", "band.csv"],
    "unresolved": ["classify", "--p", "4", "--s", "18", "--lambda", "0.5",
                   "--tol", "1e-30"],
    "usage": ["classify", "--p", "4", "--s", "18"],  # no --lambda
}


def _script_target():
    # what the installed parisi-zero script runs: the target that
    # pyproject.toml's [project.scripts] names, called as sys.exit(f())
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["parisi-zero"]
    module, func = target.split(":")
    return f"import sys; from {module} import {func}; sys.exit({func}())"


@pytest.mark.parametrize("case", _ENTRY_CASES)
def test_process_entries_print_write_and_exit_as_main(case, tmp_path, capsys,
                                                       monkeypatch):
    # python -m parisi_zero.cli and the console script's target give
    # main()'s stdout, stderr, exit code and files, byte for byte
    argv = _ENTRY_CASES[case]
    dirs = {name: tmp_path / name for name in ("main", "module", "script")}
    for d in dirs.values():
        d.mkdir()
    monkeypatch.chdir(dirs["main"])
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse's usage error
        rc = exc.code
    want = (rc, *capsys.readouterr())
    assert rc == {"classify": 0, "sweep": 0, "unresolved": 2, "usage": 1}[case]
    heads = {"module": ["-m", "parisi_zero.cli"],
             "script": ["-c", _script_target()]}
    procs = {name: subprocess.Popen([sys.executable, *head, *argv],
                                    cwd=dirs[name], env=_child_env(),
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
             for name, head in heads.items()}
    files = sorted(f.name for f in dirs["main"].iterdir())
    assert files == (["band.csv", "band.dat"] if case == "sweep" else [])
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out, err) == want, name
        assert sorted(f.name for f in dirs[name].iterdir()) == files, name
        for f in files:
            assert ((dirs[name] / f).read_bytes()
                    == (dirs["main"] / f).read_bytes()), (name, f)


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys):
    # only the process entry freezes the heap; in-process callers of
    # main(), a pooled sweep included, keep a collector that collects
    frozen = gc.get_freeze_count()
    for argv in (_ENTRY_CASES["classify"],
                 [*_ENTRY_CASES["sweep"][:-1], str(tmp_path / "band.csv")]):
        assert main(argv) == 0
        assert gc.get_freeze_count() == frozen, argv
    capsys.readouterr()


def test_entry_freezes_the_heap_only_after_main_returns(monkeypatch, capsys):
    calls = []

    def traced_main():
        calls.append("main")
        try:
            return main()
        finally:
            calls.append("main returned")

    monkeypatch.setattr(cli, "main", traced_main)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(sys, "argv",
                        ["parisi-zero", *_ENTRY_CASES["unresolved"]])
    assert cli.run() == 2
    assert calls == ["main", "main returned", "freeze"]
    # a usage error leaves main() through SystemExit and still freezes
    calls.clear()
    monkeypatch.setattr(sys, "argv", ["parisi-zero", *_ENTRY_CASES["usage"]])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 1
    assert calls == ["main", "main returned", "freeze"]
    capsys.readouterr()
