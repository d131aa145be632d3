import json
import subprocess
import sys

import pytest

from igokit.cli import main, read_config_file
from igokit.traceio import TRACE_HEADER, read_trace


def run_cli(argv):
    return main(argv)


def trace_args(path, **overrides):
    args = {
        "--algo": "pbil",
        "--objective": "onemax",
        "--dim": "16",
        "--lambda": "200",
        "--q": "0.25",
        "--dt": "0.5",
        "--steps": "100",
        "--seed": "42",
        "--out": str(path),
    }
    args.update(overrides)
    out = ["run"]
    for key, value in args.items():
        if value is None:
            continue
        out.extend([key, value])
    return out


class TestRunCommand:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli(trace_args(out)) == 0
        text = out.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert lines[1].startswith("step,eta_0,")
        assert len(lines) == 2 + 100
        summary = json.loads((tmp_path / "t.summary.json").read_text())
        assert summary["steps"] == 100
        assert summary["seed"] == 42
        assert summary["config"]["algorithm"] == "pbil"
        echoed = capsys.readouterr().out
        assert "# effective-config" in echoed

    def test_repeat_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(trace_args(a)) == 0
        assert run_cli(trace_args(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_uncertified_gate(self, tmp_path, capsys):
        code = run_cli(trace_args(tmp_path / "t.csv", **{"--dt": "1.5"}))
        assert code == 2
        err = capsys.readouterr().err
        assert "exceeds 1" in err and "dt <= 1" in err and "uncertified" in err

    def test_uncertified_flag_allows_large_steps(self, tmp_path):
        argv = trace_args(tmp_path / "t.csv", **{"--dt": "1.2", "--steps": "3",
                                                 "--domain-exit": "safeguard"})
        argv.append("--uncertified")
        assert run_cli(argv) == 0

    def test_domain_exit_halt_exit_code(self, tmp_path):
        argv = trace_args(tmp_path / "t.csv",
                          **{"--dim": "3", "--lambda": "2", "--q": "0.5",
                             "--dt": "1.0", "--steps": "10", "--seed": "0",
                             "--domain-exit": "halt"})
        assert run_cli(argv) == 3
        summary = json.loads((tmp_path / "t.summary.json").read_text())
        assert summary["stop_reason"] == "domain_exit"

    def test_safeguard_is_the_harness_default(self, tmp_path, capsys):
        # the same configuration completes under the default halving policy
        argv = trace_args(tmp_path / "t.csv",
                          **{"--dim": "3", "--lambda": "2", "--q": "0.5",
                             "--dt": "1.0", "--steps": "10", "--seed": "0"})
        assert run_cli(argv) == 0
        assert "domain_exit=safeguard" in capsys.readouterr().out
        summary = json.loads((tmp_path / "t.summary.json").read_text())
        assert summary["steps"] == 10
        assert summary["halvings"] >= 1

    def test_zero_steps_writes_header_only(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(trace_args(out, **{"--steps": "0"})) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2  # version comment + column header
        assert read_trace(out) == []

    def test_zero_reward_sample_is_a_stop_reason(self, tmp_path, capsys):
        config = tmp_path / "zero.cfg"
        config.write_text("algo=rpp\nobjective=count-reward\ndim=2\nlambda=1\n"
                          "rpp_exact=false\nbernoulli_init=0.05\nsteps=20\n")
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--config", str(config), "--out", str(out)]) == 0
        assert "stop=zero_reward" in capsys.readouterr().out
        summary = json.loads((tmp_path / "t.summary.json").read_text())
        assert summary["stop_reason"] == "zero_reward"
        assert len(read_trace(out)) == summary["steps"] < 20

    def test_capacity_errors_are_config_errors(self, tmp_path, capsys):
        argv = trace_args(tmp_path / "t.csv",
                          **{"--objective": "random-table", "--dim": "20"})
        assert run_cli(argv) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_jsonl_format_round_trips(self, tmp_path):
        out = tmp_path / "t.jsonl"
        argv = trace_args(out, **{"--format": "jsonl", "--steps": "7"})
        assert run_cli(argv) == 0
        records = read_trace(out)
        assert len(records) == 7
        assert records[0].elapsed_ns == 0  # timing off by default

    def test_csv_parses_back_losslessly(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(trace_args(out, **{"--steps": "12"})) == 0
        records = read_trace(out)
        assert len(records) == 12
        # floats survive the 17-digit round trip bit for bit
        from igokit import AlgorithmConfig, run as run_algo
        from igokit.traceio import trace_records
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=16, lam=200,
                              q=0.25, dt=0.5, max_steps=12, seed=42)
        direct = trace_records(run_algo(cfg))
        assert direct == records


class TestConfigFile:
    def test_file_plus_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment\n"
            "algo=pbil\n"
            "objective=leadingones\n"
            "dim=10\n"
            "lambda=50\n"
            "q=0.25\n"
            "dt=0.3\n"
            "steps=5\n"
            "seed=7\n"
        )
        out = tmp_path / "t.csv"
        code = run_cli(["run", "--config", str(cfg), "--seed", "9",
                        "--out", str(out)])
        assert code == 0
        echoed = capsys.readouterr().out
        assert "seed=9" in echoed  # flag wins
        assert "objective=leadingones" in echoed
        summary = json.loads((tmp_path / "t.summary.json").read_text())
        assert summary["seed"] == 9

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo=pbil\npopulation=50\n")
        assert run_cli(["run", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_echo_block_parses_back(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli(trace_args(out, **{"--steps": "3"})) == 0
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        start = lines.index("# effective-config") + 1
        end = lines.index("# end-config")
        echo_file = tmp_path / "echo.cfg"
        echo_file.write_text("\n".join(lines[start:end]) + "\n")
        parsed = read_config_file(echo_file)
        assert parsed["seed"] == "42"
        # a run driven by the echoed config reproduces the trace exactly
        out2 = tmp_path / "t2.csv"
        assert run_cli(["run", "--config", str(echo_file), "--out", str(out2)]) == 0
        assert out2.read_bytes() == out.read_bytes()

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("algo pbil\n")
        assert run_cli(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("line", ["dim=abc", "dt=fast", "seed=1.5"])
    def test_malformed_value_is_a_configuration_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(line + "\n")
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        key = line.partition("=")[0]
        assert f"configuration error: {key}:" in capsys.readouterr().err


class TestVerifyCommand:
    def test_unknown_suite(self, capsys):
        assert run_cli(["verify", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_kl_expansion_suite_passes(self, capsys):
        assert run_cli(["verify", "kl-expansion", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "kl-expansion"
        assert report["passed"] is True
        assert report["cases_failed"] == 0

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["verify", "determinism", "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["passed"] is True

    def test_equivalence_suite_reports_discrepancies(self, capsys):
        assert run_cli(["verify", "equivalence", "--seed", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        worst = max(c["max_discrepancy"] for c in report["cases"])
        assert worst <= 1e-10


class TestOptionalTraceFields:
    def test_estimate_j_config_key_fills_the_column(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "algo=pbil\nobjective=onemax\ndim=6\nlambda=30\nq=0.25\n"
            "dt=0.4\nsteps=4\nseed=3\nestimate_j=true\n"
        )
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        records = read_trace(out)
        assert all(r.j_estimate is not None for r in records)
        # the expected preference of an executed improving step exceeds 1
        assert records[0].j_estimate > 0.0

    def test_timing_key_serializes_wall_clock(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "algo=pbil\nobjective=onemax\ndim=6\nlambda=30\nq=0.25\n"
            "dt=0.4\nsteps=4\nseed=3\ntiming=true\n"
        )
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
        records = read_trace(out)
        assert records[-1].elapsed_ns > 0

    def test_in_memory_trace_always_keeps_timing(self):
        from igokit import AlgorithmConfig, run as run_algo
        cfg = AlgorithmConfig(algorithm="pbil", objective="onemax", dim=6, lam=30,
                              q=0.25, dt=0.4, max_steps=4, seed=3)
        tr = run_algo(cfg)
        assert tr.steps[-1].elapsed_ns > 0


@pytest.mark.slow
def test_console_entry_point_subprocess(tmp_path):
    out = tmp_path / "t.csv"
    argv = [sys.executable, "-m", "igokit", "run", "--algo", "pbil",
            "--objective", "onemax", "--dim", "8", "--lambda", "40",
            "--q", "0.25", "--dt", "0.5", "--steps", "5", "--seed", "1",
            "--out", str(out)]
    first = subprocess.run(argv, capture_output=True, text=True)
    assert first.returncode == 0, first.stderr
    blob = out.read_bytes()
    second = subprocess.run(argv, capture_output=True, text=True)
    assert second.returncode == 0
    assert out.read_bytes() == blob
