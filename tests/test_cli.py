import json
import math
import os
import subprocess
import sys
import time

import pytest

from afem_lab import solvers
from afem_lab.cli import SOLVER_FLAGS, _write_json, main
from afem_lab.driver import CSV_HEADER


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "afem_lab.cli"] + args,
                          capture_output=True, text=True)


def test_run_writes_csv_and_summary(tmp_path):
    out, summary = tmp_path / "k.csv", tmp_path / "k.json"
    code = main(["run", "--problem", "kellogg", "--algo", "single",
                 "--p", "1", "--theta", "0.5", "--lambda", "0.1",
                 "--solver", "local-mg", "--max-dofs", "300",
                 "--out", str(out), "--summary", str(summary)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) > 5
    # the measured R-linear certificate of the quasi-error
    facts = json.loads(summary.read_text())
    assert facts["C_lin"] >= 1.0
    assert 0.0 < facts["q_lin"] < 1.0
    assert facts["violation"] <= 1.0
    assert "q_sym" not in facts
    # a nested run with a contraction bound adds its q_sym
    code = main(["run", "--problem", "zshape-nonlinear", "--algo", "nested",
                 "--theta", "0.3", "--max-dofs", "200", "--summary",
                 str(summary)])
    assert code == 0
    facts = json.loads(summary.read_text())
    assert {"C_lin", "q_lin", "violation", "q_sym"} <= set(facts)


def test_run_summary_is_one_json_object(tmp_path, capsys):
    summary = tmp_path / "s.json"
    code = main(["run", "--problem", "kellogg", "--max-dofs", "300",
                 "--summary", str(summary)])
    assert code == 0
    text = summary.read_text()
    assert capsys.readouterr().out == text
    with open(summary) as fh:
        facts = json.load(fh)
    assert set(facts) == {"algo", "problem", "levels", "records",
                          "stop_reason", "final_dofs", "final_eta",
                          "rate_vs_dofs", "rate_vs_cost", "q_alg",
                          "q_alg_levels", "certify_cycles", "C_lin", "q_lin",
                          "violation", "peak_rss_mb"}
    assert (facts["algo"], facts["problem"]) == ("single", "kellogg")
    assert facts["levels"] >= 3 and facts["records"] >= facts["levels"]
    assert facts["stop_reason"] == "max_dofs"
    assert len(facts["q_alg_levels"]) == facts["levels"]
    assert max(facts["q_alg_levels"]) == facts["q_alg"]
    assert len(facts["certify_cycles"]) == facts["levels"]
    assert facts["certify_cycles"][0] == 0 < min(facts["certify_cycles"][1:])
    assert facts["peak_rss_mb"] > 0
    assert isinstance(facts["final_dofs"], int)
    assert text == json.dumps(facts, indent=2, sort_keys=True) + "\n"


def _strict_json(text):
    """``json.loads`` that refuses the non-standard Infinity and NaN."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_values_are_written_as_null(tmp_path, capsys):
    # t >= 1 leaves q_sym unbounded, and the run warns about lambda_alg
    summary = tmp_path / "s.json"
    with pytest.warns(UserWarning, match="need not contract"):
        code = main(["run", "--problem", "zshape-nonlinear", "--algo",
                     "nested", "--lambda-alg", "100", "--max-dofs", "300",
                     "--summary", str(summary)])
    assert code == 0
    facts = _strict_json(summary.read_text())
    assert facts["q_sym"] is None and facts["final_eta"] > 0
    # inside lists too
    out = tmp_path / "o.json"
    _write_json({"levels": [0.5, math.inf, -math.inf], "q": math.nan,
                 "n": 3}, out)
    assert _strict_json(out.read_text()) == {"levels": [0.5, None, None],
                                             "q": None, "n": 3}
    assert capsys.readouterr().out.endswith(out.read_text())


def test_run_nested_parses_paper_parameters(tmp_path):
    code = main(["run", "--problem", "lshape-convection", "--algo", "nested",
                 "--p", "1", "--theta", "0.3", "--delta", "0.5",
                 "--lambda-sym", "0.7", "--lambda-alg", "0.7",
                 "--max-dofs", "200", "--out", str(tmp_path / "l.csv")])
    assert code == 0


def test_missing_problem_is_usage_error():
    proc = run_cli(["run", "--algo", "single"])
    assert proc.returncode == 2
    assert "problem" in proc.stderr


def test_solver_flags_name_every_solver_kind():
    assert set(SOLVER_FLAGS.values()) == set(solvers.KINDS)


def test_bad_flag_is_usage_error():
    proc = run_cli(["run", "--problem", "kellogg", "--frobnicate"])
    assert proc.returncode == 2


def test_sweep_single_cell(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--problem", "kellogg", "--algo", "single",
                 "--thetas", "0.5", "--lambdas", "0.5",
                 "--max-dofs", "400", "--eta-stop-factor", "0.5",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "theta=0.5" in text
    assert "*" in text  # a minimum is flagged even in a 1x1 table


def test_sweep_unreached_threshold_incomplete(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--problem", "kellogg", "--algo", "single",
                 "--thetas", "0.5", "--lambdas", "0.5",
                 "--max-dofs", "60", "--eta-stop-factor", "1e-9",
                 "--out", str(out)])
    assert code == 0
    assert "incomplete" in out.read_text()


def test_sweep_failure_exits_1(capsys):
    # local multigrid refuses p = 2 in every run of the sweep
    code = main(["sweep", "--problem", "kellogg", "--jobs", "2", "--p", "2",
                 "--solver", "local-mg"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "p = 1 only" in err


def _raise_first(params):
    # a sweep task: the first run fails at once, every other one sleeps;
    # module level, so worker processes import it under any start method
    if (params["lam"], params["theta"]) == (0.1, 0.1):
        raise RuntimeError("the first run fails")
    time.sleep(10.0)


def _die_first(params):
    # as _raise_first, but the first run's worker process dies
    if (params["lam"], params["theta"]) == (0.1, 0.1):
        os._exit(1)
    time.sleep(10.0)


@pytest.mark.parametrize("task", [_raise_first, _die_first])
def test_failed_sweep_stops_its_workers(task, monkeypatch, capsys):
    # the sweep ends without waiting for the runs its workers already started
    monkeypatch.setattr("afem_lab.cli._sweep_worker", task)
    t0 = time.perf_counter()
    code = main(["sweep", "--problem", "kellogg", "--jobs", "2",
                 "--thetas", "0.1,0.2,0.3,0.4", "--lambdas", "0.1,0.2"])
    assert code == 1
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if task is _raise_first:
        assert "the first run fails" in err


def test_verify_reproducible_with_seed(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["verify", "--problem", "kellogg", "--max-dofs", "300",
                     "--instances", "10", "--seed", "7", "--out", str(out)])
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["overall"] == "PASS"


def test_verify_writes_one_json_report_and_no_csv(tmp_path, capsys):
    out = tmp_path / "v.json"
    code = main(["verify", "--problem", "kellogg", "--max-dofs", "100",
                 "--instances", "3", "--seed", "5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == out.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.json"]
    report = json.loads(out.read_text())
    assert report["seed"] == 5
    assert report["sequence_lemma_instances"] == 3
    assert report["sequence_lemma_violations"] == 0
    assert report["overall"] == "PASS"
    assert all(report[k] is True for k in report if k.endswith("_pass"))


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem=kellogg\nmax_dofs=150\nalgo=exact\n")
    out = tmp_path / "c.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    # flag overrides config
    code = main(["run", "--config", str(cfg), "--max-dofs", "80",
                 "--out", str(out)])
    assert code == 0


def test_config_without_path_is_usage_error():
    proc = run_cli(["run", "--problem", "kellogg", "--config"])
    assert proc.returncode == 2
    assert "--config" in proc.stderr


def test_config_equals_form_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algo=exact\nmax_dofs=150\ntheta=0.3\n")

    def n_elem(args):
        out = tmp_path / "run.csv"
        assert main(["run", "--problem", "kellogg"] + args
                    + ["--out", str(out)]) == 0
        return [row.split(",")[3] for row in out.read_text().splitlines()[1:]]

    flags = ["--algo", "exact", "--max-dofs", "150"]
    assert n_elem([f"--config={cfg}"]) == n_elem(flags + ["--theta", "0.3"])
    assert n_elem([f"--config={cfg}"]) != n_elem(flags + ["--theta", "0.5"])


@pytest.mark.parametrize("line", ["thetaa=0.3", "theta 0.3"])
def test_bad_config_line_is_usage_error(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max_dofs=150\n" + line + "\n")
    proc = run_cli(["run", "--problem", "kellogg", "--config", str(cfg)])
    assert proc.returncode == 2
    assert "bad.cfg:2" in proc.stderr


@pytest.mark.parametrize("args", [
    ["run", "--theta", "1.5"],
    ["run", "--theta", "0"],
    ["run", "--theta", "nan"],
    ["run", "--lambda", "0"],
    ["run", "--lambda-sym", "-0.1"],
    ["run", "--lambda-alg", "-1"],
    ["run", "--delta", "0"],
    ["run", "--p", "0"],
    ["run", "--max-dofs", "-5"],
    ["run", "--eta-tol", "0"],
    ["run", "--delta", "inf"],
    ["run", "--max-dofs", "inf"],
    ["run", "--eta-tol", "inf"],
    ["run", "--lambda", "inf"],
    ["run", "--lambda-sym", "inf"],
    ["run", "--lambda-alg", "inf"],
    ["sweep", "--thetas", "0.5,x"],
    ["sweep", "--thetas", "0.5,1.2"],
    ["sweep", "--lambdas", "0.1,0"],
    ["sweep", "--lambdas", "0.1,inf"],
    ["sweep", "--eta-stop-factor", "inf"],
    ["sweep", "--jobs", "0"],
    ["verify", "--instances", "-3"],
    ["verify", "--max-dofs", "inf"],
    ["sweep", "--thetas", "0.5,0.5"],
    ["sweep", "--lambdas", "0.1,0.7,0.1"],
])
def test_out_of_range_flag_is_usage_error(monkeypatch, capsys, args):
    # a run would fail the test: the value must be refused while parsing
    monkeypatch.setattr("afem_lab.cli.execute_run", None)
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--problem", "kellogg"] + args[1:])
    assert exc.value.code == 2
    assert f"argument {args[1]}" in capsys.readouterr().err


def test_out_of_range_config_value_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    for line, flag in (("theta=1.5", "--theta"), ("delta=inf", "--delta"),
                       ("max_dofs=inf", "--max-dofs")):
        cfg.write_text(line + "\n")
        proc = run_cli(["run", "--problem", "kellogg", "--config", str(cfg)])
        assert proc.returncode == 2
        assert f"argument {flag}" in proc.stderr


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_seed_is_a_verify_flag_only(monkeypatch, capsys, command):
    # run and sweep are deterministic; only verify draws random instances
    monkeypatch.setattr("afem_lab.cli.execute_run", None)
    with pytest.raises(SystemExit) as exc:
        main([command, "--problem", "kellogg", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
