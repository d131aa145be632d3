import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import igokit
from igokit import InvalidInputError
from igokit.algorithms import ALGORITHMS
from igokit.cli import (
    _RUN_KEYS,
    _echo_config,
    _effective_settings,
    _settings_to_config,
    build_parser,
    main,
    read_config_file,
)
from igokit.objectives import OBJECTIVE_NAMES
from igokit.traceio import TRACE_HEADER, read_trace, trace_records


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

    def test_a_million_samples_run(self, tmp_path):
        # per-level weights that are differences of a million-long running
        # sum drift past the 1e-12 sum check, and this valid run exited 2
        out = tmp_path / "t.csv"
        argv = trace_args(out, **{"--objective": "leadingones", "--dim": "8",
                                  "--lambda": "1000000", "--q": "0.1", "--steps": "2"})
        assert run_cli(argv) == 0
        assert len(read_trace(out)) == 2

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

    def test_negative_seed_is_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli(trace_args(out, **{"--seed": "-1"})) == 2
        assert "configuration error: seed:" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_objective_seed_is_a_configuration_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("objective=random-table\ndim=6\nobjective_seed=-3\n")
        out = tmp_path / "t.csv"
        assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "configuration error: objective_seed:" in capsys.readouterr().err
        assert not out.exists()

    def test_pbil_on_a_continuous_objective_is_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli(trace_args(out, **{"--algo": "pbil", "--objective": "sphere",
                                          "--dim": "2"})) == 2
        assert "configuration error: objective: pbil" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("timing", [False, True], ids=["untimed", "timed"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("algo", [
        {"--algo": "pbil", "--steps": "12"},
        {"--algo": "cma_rank_mu", "--objective": "ellipsoid", "--dim": "5", "--lambda": "20",
         "--q": "0.5", "--steps": "12"},
    ], ids=["pbil", "cma_rank_mu"])
    def test_csv_parses_back_losslessly(self, tmp_path, monkeypatch, algo, fmt, timing):
        # the file reads back as the v1 view of the very trace the run made
        traces = []

        def recording_run(config):
            traces.append(igokit.run(config))
            return traces[-1]

        monkeypatch.setattr(igokit.cli, "run", recording_run)
        cfg = tmp_path / "timing.cfg"
        cfg.write_text(f"timing={'true' if timing else 'false'}\n")
        out = tmp_path / f"t.{fmt}"
        assert run_cli(trace_args(out, **algo, **{"--format": fmt, "--config": str(cfg)})) == 0
        (trace,) = traces
        records = read_trace(out)
        assert len(records) == len(trace.steps) == 12
        # floats survive the round trip bit for bit
        assert records == trace_records(trace)
        assert [r.weight_entropy for r in records] == [None] * 12
        written = [r.elapsed_ns for r in records]
        elapsed = [s.elapsed_ns for s in trace.steps]
        assert written == (elapsed if timing else [0] * 12)
        # the run's own steps keep real times and their weights' entropy
        assert 0 < elapsed[0] and elapsed == sorted(elapsed)
        assert all(s.weight_entropy > 0.0 for s in trace.steps)


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

    @pytest.mark.parametrize("out", ["", "runs/a#1.csv", " t.csv", "t.csv\t", "a\nb.csv",
                                     "a\rb.csv"])
    def test_out_the_echo_cannot_carry_back_is_refused(self, tmp_path, monkeypatch, capsys,
                                                       out):
        # each would echo as a config line that reads back as another path
        monkeypatch.chdir(tmp_path)
        assert run_cli(["run", f"--out={out}"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: out:")
        assert list(tmp_path.iterdir()) == []

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


def _unit_interval(open_ends):
    return st.floats(0.0, 1.0, exclude_min=open_ends, exclude_max=open_ends)


# Every run setting the command line or a config file can give, over ranges
# that include values ``validate`` refuses; those examples are discarded.
_RUN_SETTINGS = st.fixed_dictionaries({
    "algo": st.sampled_from(ALGORITHMS),
    "objective": st.sampled_from(OBJECTIVE_NAMES),
    "dim": st.integers(1, 6),
    "lambda": st.integers(1, 10**6),
    "q": _unit_interval(True),
    "dt": st.floats(0.0, 4.0),
    "dt_m": st.none() | st.floats(0.0, 4.0),
    "dt_c": st.none() | st.floats(0.0, 4.0),
    "steps": st.integers(0, 10**9),
    "seed": st.integers(0, 2**70),
    "objective_seed": st.integers(0, 2**70),
    "target_fitness": st.none() | st.floats(allow_nan=False, allow_infinity=False),
    "domain_exit": st.sampled_from(("halt", "safeguard")),
    "uncertified": st.booleans(),
    "rpp_exact": st.booleans(),
    "bernoulli_init": _unit_interval(True),
    "estimate_j": st.booleans(),
    "timing": st.booleans(),
    "out": st.text(max_size=16),
    "format": st.sampled_from(("csv", "jsonl")),
})

# each example rewrites the same file in the test's tmp_path
_PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                              suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestConfigProperties:
    @_PROPERTY_SETTINGS
    @given(_RUN_SETTINGS)
    def test_effective_config_echo_reads_back_as_the_same_config(self, tmp_path, capsys,
                                                                 values):
        config = _settings_to_config(values)
        try:
            config.validate()
        except InvalidInputError:
            assume(False)  # not a setting a run accepts, so never echoed
        given_outputs = ["run", f"--out={values['out']}", f"--format={values['format']}"]
        try:
            _effective_settings(build_parser().parse_args(given_outputs))
        except InvalidInputError:
            # an out path the echo cannot carry back is refused before any work
            assert main(given_outputs) == 2
            assert capsys.readouterr().err.startswith("configuration error: out:")
            return
        echo = tmp_path / "echo.cfg"
        echo.write_text(_echo_config(values) + "\n", encoding="utf-8")
        args = build_parser().parse_args(["run", "--config", str(echo)])
        settings = _effective_settings(args)
        assert _settings_to_config(settings) == config
        assert (settings["out"], settings["format"]) == (values["out"], values["format"])

    @staticmethod
    def _run_on(tmp_path, capsys, write):
        cfg = tmp_path / "fuzz.cfg"
        write(cfg)
        # dim and steps come from the command line, which keeps every run
        # small; the file's own values for them are still parsed
        code = main(["run", "--config", str(cfg), "--dim", "3", "--steps", "0",
                     "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("configuration error: ")
        return code

    @_PROPERTY_SETTINGS
    @given(st.lists(
        st.sampled_from(sorted(_RUN_KEYS)).flatmap(
            lambda key: st.text(max_size=12).map(lambda value: f"{key}={value}")
        ) | st.text(max_size=20),
        max_size=8,
    ))
    def test_fuzzed_config_text_runs_or_is_a_configuration_error(self, tmp_path, capsys,
                                                                 lines):
        self._run_on(tmp_path, capsys,
                     lambda cfg: cfg.write_text("\n".join(lines), encoding="utf-8"))

    @_PROPERTY_SETTINGS
    @given(st.binary(max_size=64))
    def test_fuzzed_config_bytes_run_or_are_a_configuration_error(self, tmp_path, capsys,
                                                                  blob):
        self._run_on(tmp_path, capsys, lambda cfg: cfg.write_bytes(b"algo=pbil\n" + blob))

    def test_undecodable_config_file_is_a_configuration_error(self, tmp_path, capsys):
        assert self._run_on(tmp_path, capsys,
                            lambda cfg: cfg.write_bytes(b"algo=pbil\n\xff=1\n")) == 2


class TestVerifyCommand:
    def test_unknown_suite(self, capsys):
        assert run_cli(["verify", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_negative_seed_is_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["verify", "kl-expansion", "--seed", "-1", "--out", str(out)]) == 2
        assert "configuration error: seed:" in capsys.readouterr().err
        assert not out.exists()

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
@pytest.mark.parametrize("argv, config", [
    (["--algo", "rpp", "--objective", "random-reward"], ""),
    (["--algo", "pbil", "--objective", "onemax"], "estimate_j=true\n"),
], ids=["exact-rpp", "pbil-estimate-j"])
def test_seeded_run_is_independent_of_the_blas_thread_count(tmp_path, argv, config):
    # sums over the 2^16 support run on 1 and on 2 OpenBLAS threads; OpenBLAS
    # caps its threads at the CPU count, so a 1-CPU host cannot tell them apart
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    src = str(Path(igokit.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "igokit", "run", "--config", str(cfg), *argv,
             "--dim", "16", "--steps", "30", "--seed", "2", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 0, done.stderr
        summary = tmp_path / f"threads-{threads}.summary.json"
        outputs.append((out.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]


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
