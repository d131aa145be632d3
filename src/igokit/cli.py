"""Command-line harness: seeded runs and verification suites.

``igo-kit run`` executes one seeded experiment, writes the trace (csv or
jsonl) plus a JSON summary next to it, and echoes the effective configuration
as a flat ``key=value`` block so a run is reproducible from its own output.
``igo-kit verify SUITE`` executes one verification suite and prints a
machine-readable JSON report.

Configuration precedence: defaults, then ``--config`` file keys, then
command-line flags. Config files are flat UTF-8 ``key=value`` lines with ``#``
comments; unknown keys are rejected.

Exit codes: 0 success (a run stopped by ``zero_reward`` included); 2
configuration error (including unknown suites); 3 a run halted on a domain
exit, or another igo-kit error; 1 a verify suite with failing cases.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algorithms import AlgorithmConfig, run
from .errors import CapacityError, IgoKitError, InvalidInputError
from .traceio import trace_records, write_summary, write_trace
from .verify import run_suite

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _parse_bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise InvalidInputError(f"{key}: expected a boolean, got {text!r}")


# key -> (AlgorithmConfig field or output slot, parser)
_RUN_KEYS = {
    "algo": ("algorithm", str),
    "objective": ("objective", str),
    "dim": ("dim", int),
    "lambda": ("lam", int),
    "q": ("q", float),
    "dt": ("dt", float),
    "dt_m": ("dt_mean", float),
    "dt_c": ("dt_cov", float),
    "steps": ("max_steps", int),
    "seed": ("seed", int),
    "objective_seed": ("objective_seed", int),
    "target_fitness": ("target_fitness", float),
    "domain_exit": ("domain_exit", str),
    "uncertified": ("uncertified", bool),
    "rpp_exact": ("rpp_exact", bool),
    "bernoulli_init": ("bernoulli_init", float),
    "estimate_j": ("estimate_j", bool),
    "timing": ("timing", bool),
    "out": ("out", str),
    "format": ("format", str),
}
_OUTPUT_KEYS = {"out", "format"}


def read_config_file(path: str) -> dict:
    """Parse a flat key=value config file; unknown keys are errors."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _RUN_KEYS:
                raise InvalidInputError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _coerce(key: str, raw):
    _, parser = _RUN_KEYS[key]
    if isinstance(raw, str):
        if raw == "":
            return None
        if parser is bool:
            return _parse_bool(raw, key)
        try:
            return parser(raw)
        except ValueError:
            raise InvalidInputError(
                f"{key}: expected {parser.__name__}, got {raw!r}"
            ) from None
    return raw


def _effective_settings(args) -> dict:
    defaults = AlgorithmConfig()
    settings = {
        key: None if key in _OUTPUT_KEYS else getattr(defaults, field)
        for key, (field, _) in _RUN_KEYS.items()
    }
    settings["out"] = "trace.csv"
    settings["format"] = "csv"
    # harness runs default to step-size safeguarding; halting stays the
    # library default so guarantee checks observe raw domain exits
    settings["domain_exit"] = "safeguard"
    if args.config:
        for key, raw in read_config_file(args.config).items():
            coerced = _coerce(key, raw)
            if coerced is not None:  # empty value keeps the default
                settings[key] = coerced
    for key in _RUN_KEYS:
        flag = key if key != "lambda" else "lam"
        value = getattr(args, flag, None)
        if value is not None:
            settings[key] = value
    out = settings["out"]
    # the echo must read back as the same path: a config line ends at "#" or
    # a line break, and its value is stripped and kept as default when empty
    if not out or out != out.strip() or any(c in out for c in "#\n\r"):
        raise InvalidInputError(
            f"out: {out!r} cannot be echoed as a config line; use a non-empty path "
            "without '#', line breaks or surrounding whitespace"
        )
    if settings["format"] not in ("csv", "jsonl"):
        raise InvalidInputError(
            f"format: must be csv or jsonl, got {settings['format']!r}"
        )
    return settings


def _settings_to_config(settings: dict) -> AlgorithmConfig:
    kwargs = {}
    for key, (field, _) in _RUN_KEYS.items():
        if key in _OUTPUT_KEYS:
            continue
        kwargs[field] = settings[key]
    return AlgorithmConfig(**kwargs)


def _echo_config(settings: dict) -> str:
    lines = ["# effective-config"]
    for key in _RUN_KEYS:
        value = settings[key]
        if value is None:
            text = ""
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key}={text}")
    lines.append("# end-config")
    return "\n".join(lines)


def _summary_path(out: str) -> str:
    stem, dot, ext = out.rpartition(".")
    if dot and ext in ("csv", "jsonl"):
        return f"{stem}.summary.json"
    return f"{out}.summary.json"


def _cmd_run(args) -> int:
    settings = _effective_settings(args)
    config = _settings_to_config(settings)
    config.validate()
    print(_echo_config(settings))
    trace = run(config)
    out = settings["out"]
    fmt = settings["format"]
    write_trace(trace_records(trace), out, fmt=fmt, eta_dim=config.make_model().eta_dim)
    write_summary(trace, _summary_path(out))
    print(
        f"wrote {out} and {_summary_path(out)} "
        f"({len(trace.steps)} steps, stop={trace.stop_reason})"
    )
    if trace.stop_reason == "domain_exit":
        print("run halted on a domain exit", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, grid=args.grid, seed=args.seed)
    payload = json.dumps(report.to_dict(), indent=2)
    print(payload)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(payload + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igo-kit",
        description="Natural-gradient black-box optimization runs and guarantee checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one seeded experiment")
    p_run.add_argument("--algo", type=str, default=None)
    p_run.add_argument("--objective", type=str, default=None)
    p_run.add_argument("--dim", type=int, default=None)
    p_run.add_argument("--lambda", dest="lam", type=int, default=None)
    p_run.add_argument("--q", type=float, default=None)
    p_run.add_argument("--dt", type=float, default=None)
    p_run.add_argument("--dt-m", dest="dt_m", type=float, default=None)
    p_run.add_argument("--dt-c", dest="dt_c", type=float, default=None)
    p_run.add_argument("--steps", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=str, default=None)
    p_run.add_argument("--format", type=str, choices=("csv", "jsonl"), default=None)
    p_run.add_argument("--config", type=str, default=None)
    p_run.add_argument("--uncertified", action="store_true", default=None)
    p_run.add_argument(
        "--domain-exit", dest="domain_exit", choices=("halt", "safeguard"), default=None
    )
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite", type=str)
    p_verify.add_argument("--grid", type=str, default="small")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--out", type=str, default=None)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidInputError, CapacityError, UnicodeDecodeError) as exc:  # a non-UTF-8 config
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except IgoKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
