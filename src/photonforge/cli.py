"""Command-line front end: scenario dispatch and bit-stable CSV output.

Configs are plain text, one `key=value` per line with `#` comments.
Every scenario ships defaults for all of its keys, so a config can be
as short as `scenario=beam_splitter`. Unknown or duplicate keys, integer
values below 1 and float values that are not finite are rejected with
their line number.

Each run writes two files into the output directory: `result.csv`
(header row, comma separator, floats at 12 significant digits, plus a
gnuplot-style column hint comment) and `meta` (the fully resolved
config and the code version). Repeated runs with the same config
produce byte-identical CSVs. Exit codes: 0 success, 1 numeric or
invariant failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from . import __version__
from .dynamics import MirrorQubitParams
from .scenarios import (
    BeamSplitterConfig,
    CancellationInputs,
    FlyingQubitTarget,
    WavePacket,
    _beam_splitter,
    _release,
    cancellation_budget,
    encode_flying_qubit,
    sweep_cascade,
    sweep_nonradiative,
    sweep_wait_time,
)

__all__ = ["main", "parse_config", "ConfigError", "RunConfig", "SCENARIOS"]


class ConfigError(Exception):
    """Malformed configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    outdir: str
    values: dict


def _fmt_default(v) -> str:
    if isinstance(v, tuple):
        return ",".join(repr(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------------------------
# scenario runners: resolved config dict -> (columns, rows)


def _probability_columns(v):
    return ["alpha0"] + [f"P{n}" for n in range(v["cutoff"] + 1)]


def _run_beam_splitter(v):
    params = MirrorQubitParams(gamma=v["gamma"], delta=v["delta"],
                               gamma_nr=v["gamma_nr"])
    config = dict(r=v["r"], t0=v["t0"], t_end=v["t_end"], dt=v["dt"],
                  amp_error=v["amp_error"], phase_error=v["phase_error"])
    cells = [(params, BeamSplitterConfig(alpha0=a0, **config)) for a0 in v["alpha0"]]
    return _probability_columns(v), [
        (a0,) + stats.probabilities
        for a0, stats in zip(v["alpha0"], _beam_splitter(cells, v["cutoff"]))]


def _run_shaped_release(v):
    params = MirrorQubitParams(gamma=v["gamma"], gamma_nr=v["gamma_nr"])
    if v["packet"] == "none":
        release = v["phi_r"]
    elif v["packet"] == "gaussian":
        release = WavePacket.gaussian(v["packet_center"], v["packet_width"],
                                      t_start=v["t_r"], dt=v["dt"])
    elif v["packet"] == "exponential":
        release = WavePacket.exponential(v["packet_kappa"], v["t_r"],
                                         duration=v["t_end"] - v["t_r"],
                                         dt=v["dt"])
    else:
        raise ConfigError(
            f"packet must be none, gaussian, or exponential, not {v['packet']!r}")
    rows = _release(params, [(a0, v["t_r"], v["t_end"]) for a0 in v["alpha0"]],
                    phi_i=v["phi_i"], t0=v["t0"], release=release, cutoff=v["cutoff"],
                    dt=v["dt"], clip_budget=v["clip_budget"])
    return _probability_columns(v), [
        (a0,) + res.stats.probabilities for a0, res in zip(v["alpha0"], rows)]


def _run_cascade_sweep(v):
    params = MirrorQubitParams(levels=3, gamma01=v["gamma01"],
                               gamma12=v["gamma12"], gamma02=v["gamma02"][0])
    rows = sweep_cascade(params, v["alpha_d"], v["gamma02"],
                         t_end=v["t_end"], dt=v["dt"])
    return ["alpha_d", "gamma02", "V"], [(a, g, r.v) for a, g, r in rows]


def _run_nr_sweep(v):
    params = MirrorQubitParams(gamma=v["gamma"])
    rows = sweep_nonradiative(params, v["alpha0"], v["r"], v["gamma_nr"],
                              cutoff=v["cutoff"], t0=v["t0"],
                              t_end=v["t_end"], dt=v["dt"])
    return ["gamma_nr", "P0", "P1"], [
        (gnr, stats.probabilities[0], stats.probabilities[1]) for gnr, stats in rows]


def _run_wait_sweep(v):
    params = MirrorQubitParams(gamma=v["gamma"])
    rows = sweep_wait_time(params, v["alpha0"], v["gamma_nr"], v["phi_r"],
                           v["t_wait"], phi_i=v["phi_i"], t0=v["t0"],
                           window=v["window"], cutoff=v["cutoff"],
                           dt=v["dt"])
    return ["t_wait", "P0", "P1"], [
        (t_wait, res.stats.probabilities[0], res.stats.probabilities[1])
        for t_wait, res in rows]


def _run_encode(v):
    target = FlyingQubitTarget(complex(v["mu_re"], v["mu_im"]),
                               complex(v["nu_re"], v["nu_im"]))
    params = MirrorQubitParams(gamma=v["gamma"])
    anh = v["anharmonicity"] if v["anharmonicity"] > 0 else None
    res = encode_flying_qubit(target, params, phi=v["phi"],
                              alpha_max=v["alpha_max"], anharmonicity=anh)
    row = (res.delta, res.alpha.real, res.alpha.imag, res.t_w, res.fidelity)
    return ["delta", "alpha_re", "alpha_im", "t_w", "fidelity"], [row]


def _run_cancel_budget(v):
    out = cancellation_budget(CancellationInputs(**v))
    return ["residual_ratio", "residual_db"], [
        (out.residual_ratio, out.residual_db)]


@dataclass(frozen=True)
class ScenarioSpec:
    description: str
    defaults: Tuple[Tuple[str, object], ...]
    runner: Callable


SCENARIOS: Dict[str, ScenarioSpec] = {
    "beam_splitter": ScenarioSpec(
        "pi-pulse emission through an unbalanced splitter; photon-number "
        "probabilities per drive amplitude",
        (("alpha0", (5.0, 10.0)), ("r", 0.995), ("gamma", 0.5),
         ("gamma_nr", 0.0), ("delta", 0.0), ("t0", 0.0), ("t_end", 20.0),
         ("dt", 0.005), ("cutoff", 3), ("amp_error", 0.0),
         ("phase_error", 0.0)),
        _run_beam_splitter),
    "shaped_release": ScenarioSpec(
        "prepare at low coupling, store dark, release on demand; "
        "probabilities per drive amplitude",
        (("alpha0", (5.0, 10.0)), ("gamma", 1.0), ("gamma_nr", 0.0),
         ("phi_i", 0.9 * math.pi), ("t0", 1.0), ("t_r", 8.0),
         ("t_end", 20.0), ("phi_r", math.pi / 2), ("packet", "none"),
         ("packet_center", 12.0), ("packet_width", 1.5),
         ("packet_kappa", 1.0), ("clip_budget", 0.01), ("dt", 0.005),
         ("cutoff", 3)),
        _run_shaped_release),
    "cascade_sweep": ScenarioSpec(
        "three-level pair source; correlation quality V over the "
        "(alpha_d, gamma02) grid",
        (("alpha_d", (5.0, 6.0, 7.0, 8.0, 10.0)),
         ("gamma02", (0.05, 0.1, 0.2, 0.35, 0.5)), ("gamma01", 1.0),
         ("gamma12", 2.0), ("t_end", 20.0), ("dt", 0.005)),
        _run_cascade_sweep),
    "nr_sweep": ScenarioSpec(
        "beam-splitter source quality versus the non-radiative decay rate",
        (("gamma_nr", (0.0, 0.1, 0.2, 0.5, 1.0)), ("alpha0", 10.0),
         ("r", 0.995), ("gamma", 0.5), ("t0", 0.0), ("t_end", 20.0),
         ("dt", 0.005), ("cutoff", 3)),
        _run_nr_sweep),
    "wait_sweep": ScenarioSpec(
        "stored-excitation survival versus dark-storage duration",
        (("t_wait", (0.0, 0.5, 1.0, 2.0, 3.0, 5.0)), ("alpha0", 10.0),
         ("gamma", 1.0), ("gamma_nr", 0.1), ("phi_i", 0.9 * math.pi),
         ("t0", 1.0), ("phi_r", math.pi / 2), ("window", 20.0),
         ("dt", 0.005), ("cutoff", 3)),
        _run_wait_sweep),
    "encode": ScenarioSpec(
        "optimize one drive segment to emit a chosen flying-qubit "
        "superposition",
        (("mu_re", 0.7071067811865476), ("mu_im", 0.0),
         ("nu_re", 0.7071067811865476), ("nu_im", 0.0), ("gamma", 1.0),
         ("phi", 0.9 * math.pi), ("alpha_max", 10.0),
         ("anharmonicity", 0.0)),
        _run_encode),
    "cancel_budget": ScenarioSpec(
        "two-path interference residual for amplitude/phase/frequency "
        "mismatch",
        (("a1", 1.0), ("a2", 1.0), ("phi1", 0.0),
         ("phi2", math.pi + 0.04), ("omega1", 0.0), ("omega2", 0.0),
         ("phi", 0.0), ("tau1", 1.0), ("tau2", 1.0)),
        _run_cancel_budget),
}


# ---------------------------------------------------------------------------
# config parsing


def _coerce(text: str, default, key: str, lineno: int):
    """The value of `key` parsed like its default; integers must be at
    least 1, floats finite (and dt positive), which NaN fails."""
    try:
        if isinstance(default, tuple):
            value = tuple(float(x) for x in text.split(",") if x.strip() != "")
            if not value:
                raise ConfigError(f"line {lineno}: key {key!r} has no values")
        elif isinstance(default, int) and not isinstance(default, bool):
            value = int(text)
        elif isinstance(default, float):
            value = float(text)
        else:
            return text
    except ValueError:
        raise ConfigError(
            f"line {lineno}: cannot parse value {text!r} for key {key!r}")
    if isinstance(value, int) and value < 1:
        raise ConfigError(f"line {lineno}: {key} must be at least 1, got {text!r}")
    rule = "positive and finite" if key == "dt" else "finite"
    for x in value if isinstance(value, tuple) else (value,):
        if not (math.isfinite(x) and (key != "dt" or x > 0)):
            raise ConfigError(f"line {lineno}: {key} must be {rule}, got {text!r}")
    return value


def parse_config(text: str) -> RunConfig:
    entries = {}
    lines_seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.split("#", 1)[0].strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} "
                f"(first set on line {lines_seen[key]})")
        entries[key] = val
        lines_seen[key] = lineno
    if "scenario" not in entries:
        raise ConfigError("missing required key 'scenario'")
    name = entries.pop("scenario")
    if name not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {name!r}; choices: {', '.join(SCENARIOS)}")
    outdir = entries.pop("outdir", ".")
    defaults = dict(SCENARIOS[name].defaults)
    values = dict(defaults)
    for key, val in entries.items():
        if key not in defaults:
            raise ConfigError(
                f"line {lines_seen[key]}: unknown key {key!r} for "
                f"scenario {name}")
        values[key] = _coerce(val, defaults[key], key, lines_seen[key])
    return RunConfig(scenario=name, outdir=outdir, values=values)


# ---------------------------------------------------------------------------
# artifact writing


def _write_lines(path: str, lines) -> None:
    """Rewrite path in place: opened without O_TRUNC and cut to the new text after writing
    it, as truncating a file before a write can make its close flush it to disk."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n",
                  opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as f:
            f.write("\n".join(lines) + "\n")
            f.truncate()
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from e


def _write_csv(path: str, columns, rows) -> None:
    lines = ["# gnuplot columns: " +
             " ".join(f"{i + 1}={c}" for i, c in enumerate(columns))]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(f"{float(x):.12g}" for x in row))
    _write_lines(path, lines)


def _write_meta(path: str, config: RunConfig) -> None:
    lines = [f"version={__version__}", f"scenario={config.scenario}",
             f"outdir={config.outdir}"]
    for key, _ in SCENARIOS[config.scenario].defaults:
        lines.append(f"{key}={_fmt_default(config.values[key])}")
    _write_lines(path, lines)


def _cmd_run(path: str) -> int:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        # the directory is made before the run so a long run is not lost to it
        try:
            os.makedirs(config.outdir, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create outdir {config.outdir!r}: {e}")
        columns, rows = SCENARIOS[config.scenario].runner(config.values)
        _write_csv(os.path.join(config.outdir, "result.csv"), columns, rows)
        _write_meta(os.path.join(config.outdir, "meta"), config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1
    return 0


def _cmd_list(as_json: bool) -> int:
    if as_json:
        payload = {
            name: {
                "description": spec.description,
                "defaults": {k: (list(v) if isinstance(v, tuple) else v)
                             for k, v in spec.defaults},
            }
            for name, spec in SCENARIOS.items()
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for name, spec in SCENARIOS.items():
        print(f"{name}: {spec.description}")
        pairs = " ".join(f"{k}={_fmt_default(v)}" for k, v in spec.defaults)
        print(f"    defaults: {pairs}")
    return 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="photonforge",
        description="single- and correlated-photon source simulations")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="execute a scenario from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_list = sub.add_parser("list", help="list scenarios and their defaults")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable registry dump")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args.config)
    if args.command == "list":
        return _cmd_list(args.json)
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
