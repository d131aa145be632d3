"""Acceptance suite: one test per shipped guarantee, with a printed verdict.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion is pinned to its stated tolerance here, nothing is
deferred to later calibration.
"""

import json

from igokit.cli import main as cli_main


def _verdict(number, title, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {title}: {status}{' - ' + detail if detail else ''}")
    return passed


def _round_trips(report):
    """The report survives a JSON round trip with its name and case count."""
    payload = json.loads(json.dumps(report.to_dict()))
    return payload["suite"] == report.suite and payload["cases_total"] == len(report.cases)


def test_criterion_01_exact_quantile_improvement(suite_report):
    rep = suite_report("quantile-improvement")
    worst = max(c.detail["max_q_increase"] for c in rep.cases)
    steps = sum(c.detail["steps_executed"] for c in rep.cases)
    ok = rep.passed and worst <= 1e-12 and len(rep.cases) == 200
    ok = ok and rep.elapsed_s < 60.0 and _round_trips(rep)
    assert _verdict(
        1,
        "exact quantile improvement over the 200-config grid",
        ok,
        f"{steps} steps checked, max increase {worst:.2e}, {rep.elapsed_s:.1f}s",
    )


def test_criterion_02_equality_clause(suite_report):
    cases = suite_report("quantile-improvement").cases
    unexplained = sum(c.detail["unexplained_stalls"] for c in cases)
    assert _verdict(
        2,
        "every quantile stall explained (unchanged state or mass at the level)",
        unexplained == 0,
        f"{unexplained} unexplained stalls",
    )


def test_criterion_03_three_way_equivalence(suite_report):
    rep = suite_report("equivalence")
    worst = max(c.detail["max_discrepancy"] for c in rep.cases)
    ok = rep.passed and len(rep.cases) == 2000 and worst <= 1e-10
    assert _verdict(
        3,
        "natural-gradient / weighted-ML / smoothed-CE coincidence",
        ok,
        f"1000 instances per family, max coordinate discrepancy {worst:.2e}",
    )


def test_criterion_04_rank_mu_recovery(suite_report):
    rep = suite_report("cma-recovery")
    worst = max(c.detail["max_err"] for c in rep.cases)
    ok = rep.passed and len(rep.cases) == 500 and worst <= 1e-12
    assert _verdict(
        4,
        "blockwise (cov, mean) step equals the rank-mu recombination",
        ok,
        f"500 instances, max deviation {worst:.2e}",
    )


def test_criterion_05_blockwise_quantile_improvement(suite_report):
    rep = suite_report("blockwise-improvement")
    worst = max(c.detail["max_q_increase"] for c in rep.cases)
    assert _verdict(
        5,
        "coordinate-blocked steps with mixed rates never raise the quantile",
        rep.passed and worst <= 1e-12 and _round_trips(rep),
        f"max increase {worst:.2e}",
    )


def test_criterion_06_fitness_proportional_improvement(suite_report):
    rep = suite_report("fitness-improvement")
    worst_drop = max(c.detail["worst_drop"] for c in rep.cases)
    full_errs = [
        c.detail["full_step_err"]
        for c in rep.cases
        if c.detail["full_step_err"] is not None
    ]
    ok = rep.passed and worst_drop <= 1e-12 and max(full_errs) <= 1e-12 and _round_trips(rep)
    assert _verdict(
        6,
        "expected reward never drops; full step equals the reward-weighted mean",
        ok,
        f"worst drop {worst_drop:.2e}, worst full-step error {max(full_errs):.2e}",
    )


def test_criterion_07_progress_bound(suite_report):
    rep = suite_report("progress-bound")
    worked = next(c for c in rep.cases if c.name == "worked-instance")
    violations = sum(c.detail.get("bound_violations", 0) for c in rep.cases)
    ok = (
        rep.passed
        and _round_trips(rep)
        and violations == 0
        and abs(worked.detail["j_value"] - 1.25) <= 1e-6
        and abs(worked.detail["bound"] - 1.06667) <= 1e-5
        and abs(worked.detail["bound"] - 16.0 / 15.0) <= 1e-6
    )
    assert _verdict(
        7,
        "expected preference strictly beats exp(((1-dt)/dt) KL) off fixed points",
        ok,
        f"{violations} violations; worked instance j={worked.detail['j_value']:.6f}, "
        f"bound={worked.detail['bound']:.6f}",
    )


def test_criterion_08_kl_expansion(suite_report):
    rep = suite_report("kl-expansion")
    worst_ratio = 0.0
    for c in rep.cases:
        errs = c.detail["errs"]
        for a, b in zip(errs, errs[1:]):
            worst_ratio = max(worst_ratio, b / a)
    assert _verdict(
        8,
        "KL cubic-expansion error shrinks at least 8x per halving",
        rep.passed and worst_ratio <= 0.125,
        f"worst per-halving ratio {worst_ratio:.3f}",
    )


def test_criterion_09_natural_gradient_identity(suite_report):
    rep = suite_report("natural-gradient")
    # a case whose step left the domain reports no error (None)
    worst = max(float("inf") if c.detail["rel_err"] is None else c.detail["rel_err"]
                for c in rep.cases)
    assert _verdict(
        9,
        "shipped igo_step direction equals the inverse-Fisher finite-difference "
        "gradient, Bernoulli and Gaussian",
        rep.passed and len(rep.cases) == 400 and worst <= 1e-5,
        f"200 cases per family, max relative error {worst:.2e}",
    )


def test_criterion_10_finite_population_improvement(suite_report):
    rep = suite_report("finite-population")
    elapsed = rep.elapsed_s
    detail = rep.cases[0].detail
    ok = rep.passed and detail["improvement_rate"] >= 0.9 and elapsed < 120.0
    ok = ok and _round_trips(rep)
    assert _verdict(
        10,
        "large-population runs keep the exact quantile from worsening",
        ok,
        f"rate {detail['improvement_rate']:.3f} over {detail['steps_total']} steps, "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_run_determinism(tmp_path, capsys):
    argv = ["run", "--algo", "pbil", "--objective", "onemax", "--dim", "16",
            "--lambda", "200", "--q", "0.25", "--dt", "0.5", "--steps", "100",
            "--seed", "42"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(argv + ["--out", str(a)])
    code_b = cli_main(argv + ["--out", str(b)])
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    with capsys.disabled():
        assert _verdict(
            11,
            "repeated seeded runs produce byte-identical traces",
            ok,
            f"{a.stat().st_size} bytes compared",
        )


def test_all_suites_registered():
    # the CLI exposes every suite exercised above
    from igokit.verify import SUITES

    expected = {
        "quantile-improvement", "blockwise-improvement", "fitness-improvement",
        "equivalence", "cma-recovery", "progress-bound", "kl-expansion",
        "natural-gradient", "finite-population", "determinism",
    }
    assert expected <= set(SUITES)
