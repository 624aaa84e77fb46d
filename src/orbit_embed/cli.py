"""Batch front end: configs, signal I/O, verification runs, golden fixtures.

One run is one process. All randomness flows through the config's master
seed, so identical configs produce byte-identical reports (the run summary
carries the only timestamp). Exit codes: 0 success, 1 a verification suite
failed, 2 usage or config error, 3 malformed input data.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, oracles
from .action import make_cyclic_action, make_translation_action
from .embed import Pipeline, embed, make_pipeline, operator_norm
from .errors import DataError, OrbitEmbedError
from .invariants import separating_set_to_json


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Suite parameter name -> (type check, diagnostic when it fails).
PARAM_CHECKS = {
    "samples": (lambda v: _is_int(v) and v >= 1, "must be an integer >= 1"),
    "p": (lambda v: _is_int(v) and v >= 1, "must be an integer >= 1"),
    "delta": (_is_real, "must be a real number"),
    "epsilons": (lambda v: isinstance(v, list) and bool(v) and all(map(_is_real, v)),
                 "must be a nonempty list of real numbers"),
    "witness": (lambda v: v is None or (isinstance(v, list) and len(v) == 2
                                        and all(map(_is_int, v))),
                "must be null or a list of two integers"),
}


class Suite(NamedTuple):
    defaults: dict
    # run(pipeline, params, seed); looks up analysis.<fn> at call time, so a
    # rebound module attribute (e.g. a traced wrapper) is the one called
    run: Callable


# Every suite, in the order `verify` runs them and config keys are checked.
SUITES = {
    "invariance": Suite(
        {"samples": 1000},
        lambda pipeline, p, seed: analysis.check_invariance(pipeline, p["samples"], seed)),
    "separation": Suite(
        {"samples": 1000, "delta": 0.1},
        lambda pipeline, p, seed: analysis.separation_margin(
            pipeline, p["samples"], p["delta"], seed)),
    "lipschitz": Suite(
        {"samples": 10000},
        lambda pipeline, p, seed: analysis.empirical_lipschitz(pipeline, p["samples"], seed)),
    "nonparallel": Suite(
        {"samples": 1000, "delta": 0.1},
        lambda pipeline, p, seed: analysis.nonparallel_falsification(
            pipeline, p["samples"], p["delta"], seed)),
    "sup_norm": Suite(
        {"samples": 10000},
        lambda pipeline, p, seed: analysis.sup_norm_check(pipeline.sset, p["samples"], seed)),
    "sweep": Suite(
        {"epsilons": [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], "witness": None},
        lambda pipeline, p, seed: analysis.lower_lipschitz_sweep(
            pipeline, p["epsilons"],
            witness=None if p["witness"] is None else tuple(p["witness"]))),
    "prime": Suite(
        {"p": 5, "samples": 200},
        lambda pipeline, p, seed: analysis.prime_case_report(p["p"], p["samples"], seed)),
}

# Suites run by `verify` when the config does not select any.
DEFAULT_SUITES = ("invariance", "separation", "lipschitz", "nonparallel", "sup_norm")

BUILTIN_FIXTURES = {
    "minus_identity_c2": {"action": {"m": 2, "weights": [1, 1]},
                          "reducer": {"kind": "identity", "seed": 0}},
    "z12_c5": {"action": {"m": 12, "weights": [6, 3, 4, 2, 2]},
               "reducer": {"kind": "gaussian", "seed": 42}},
    "translation_c8": {"action": {"form": "translation", "n": 8},
                       "reducer": {"kind": "gaussian", "seed": 42}},
}


class ConfigError(OrbitEmbedError):
    """The run configuration is malformed; the message names the field."""


@dataclass(frozen=True)
class RunConfig:
    action: dict
    target_dim: int | str
    reducer_kind: str
    reducer_seed: int
    suites: dict
    seed: int
    out: str
    signals: dict | None = None

    def to_dict(self) -> dict:
        doc = {
            "action": dict(self.action),
            "target_dim": self.target_dim,
            "reducer": {"kind": self.reducer_kind, "seed": self.reducer_seed},
            "suites": {name: dict(params) for name, params in self.suites.items()},
            "seed": self.seed,
            "out": self.out,
        }
        if self.signals is not None:
            doc["signals"] = dict(self.signals)
        return doc


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"config field {path!r}: {message}")


def config_from_dict(doc: dict) -> RunConfig:
    """Validate and normalize a raw config document."""
    _expect(isinstance(doc, dict), "<root>", "must be a JSON object")
    known = {"action", "target_dim", "reducer", "suites", "seed", "out", "signals"}
    for key in doc:
        _expect(key in known, key, f"unknown key (valid: {sorted(known)})")

    raw_action = doc.get("action")
    _expect(isinstance(raw_action, dict), "action", "must be an object")
    if raw_action.get("form") == "translation":
        n = raw_action.get("n")
        _expect(isinstance(n, int) and n >= 1, "action.n", "must be a positive integer")
        action = {"form": "translation", "n": n}
    else:
        m = raw_action.get("m")
        _expect(isinstance(m, int) and m >= 1, "action.m", "must be a positive integer")
        weights = raw_action.get("weights")
        _expect(isinstance(weights, list) and weights
                and all(isinstance(w, int) for w in weights),
                "action.weights", "must be a nonempty list of integers")
        action = {"m": m, "weights": list(weights)}

    target_dim = doc.get("target_dim", "auto")
    _expect(target_dim == "auto" or (isinstance(target_dim, int) and target_dim >= 1),
            "target_dim", 'must be "auto" or a positive integer')

    reducer = doc.get("reducer", {})
    _expect(isinstance(reducer, dict), "reducer", "must be an object")
    kind = reducer.get("kind", "auto")
    _expect(kind in ("auto", "gaussian", "identity"), "reducer.kind",
            'must be one of "auto", "gaussian", "identity"')
    reducer_seed = reducer.get("seed", 0)
    _expect(isinstance(reducer_seed, int) and reducer_seed >= 0,
            "reducer.seed", "must be a nonnegative integer")

    raw_suites = doc.get("suites", {name: {} for name in DEFAULT_SUITES})
    _expect(isinstance(raw_suites, dict), "suites", "must be an object")
    suites = {}
    for name in raw_suites:
        _expect(name in SUITES, f"suites.{name}",
                f"unknown suite (valid: {list(SUITES)})")
    for name, suite in SUITES.items():
        if name not in raw_suites:
            continue
        params = raw_suites[name]
        _expect(isinstance(params, dict), f"suites.{name}", "must be an object")
        merged = dict(suite.defaults)
        for key, value in params.items():
            _expect(key in merged, f"suites.{name}.{key}",
                    f"unknown parameter (valid: {sorted(merged)})")
            check, message = PARAM_CHECKS[key]
            _expect(check(value), f"suites.{name}.{key}", message)
            merged[key] = value
        suites[name] = merged

    seed = doc.get("seed", 0)
    _expect(isinstance(seed, int) and seed >= 0, "seed", "must be a nonnegative integer")
    out = doc.get("out", "reports")
    _expect(isinstance(out, str) and out, "out", "must be a nonempty string")

    signals = doc.get("signals")
    if signals is not None:
        _expect(isinstance(signals, dict), "signals", "must be an object")
        _expect(isinstance(signals.get("path"), str), "signals.path", "must be a string")
        fmt = signals.get("format", "json")
        _expect(fmt in ("json", "csv"), "signals.format", 'must be "json" or "csv"')
        signals = {"path": signals["path"], "format": fmt}

    return RunConfig(action=action, target_dim=target_dim, reducer_kind=kind,
                     reducer_seed=reducer_seed, suites=suites, seed=seed,
                     out=out, signals=signals)


def load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(doc)


def build_pipeline(config: RunConfig) -> Pipeline:
    if config.action.get("form") == "translation":
        action = make_translation_action(config.action["n"])
    else:
        action = make_cyclic_action(config.action["m"], config.action["weights"])
    kind = None if config.reducer_kind == "auto" else config.reducer_kind
    return make_pipeline(action, seed=config.reducer_seed,
                         target_dim=config.target_dim, reducer_kind=kind)


# --- signal I/O ----------------------------------------------------------------

def load_signals(path: str, fmt: str = "json") -> np.ndarray | list[np.ndarray]:
    """Read complex signals from a JSON or CSV file.

    JSON: an array of signals, each an array of [re, im] number pairs. CSV:
    header ``signal_id,index,re,im`` with rows grouped by signal id; each
    signal's indices must cover 0..len-1. Parsing is locale-independent.

    Signals of one common length n come back as one complex ``(S, n)``
    array, signals of different lengths as a list of 1-d arrays, and a file
    without signals as ``[]``.
    """
    if fmt not in ("json", "csv"):
        raise DataError(f"unknown signal format {fmt!r}")
    text = Path(path).read_text()
    if not text.strip():
        warnings.warn(f"signal file {path!r} is empty")
        return []
    if fmt == "json":
        signals = _signals_from_json(text, path)
    else:
        signals = _signals_from_csv(text, path)
    if not len(signals):
        warnings.warn(f"signal file {path!r} contains no signals")
        return []
    if isinstance(signals, list) and len({sig.shape[0] for sig in signals}) == 1:
        signals = np.stack(signals)
    if isinstance(signals, np.ndarray):
        finite = np.isfinite(signals).all(axis=1)
    else:
        finite = [np.isfinite(sig).all() for sig in signals]
    if not np.all(finite):
        raise DataError(f"signal {int(np.argmin(finite))} contains non-finite values")
    return signals


def _complex_pairs(pairs) -> np.ndarray:
    # float [re, im] pairs along the last axis -> complex values, bit-exact
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def _signals_from_json(text: str, path: str) -> np.ndarray | list[np.ndarray]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, list):
        raise DataError(f"{path}: top level must be an array of signals")
    try:
        pairs = np.array(doc)
    except (ValueError, OverflowError):
        pairs = None  # ragged or malformed: checked signal by signal below
    if (pairs is not None and pairs.dtype.kind in "biuf" and pairs.ndim == 3
            and pairs.shape[2] == 2):
        return _complex_pairs(pairs)
    return [_signal_from_json(row, idx, path) for idx, row in enumerate(doc)]


def _signal_from_json(row, idx: int, path: str) -> np.ndarray:
    if not isinstance(row, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(v, (int, float)) for v in pair) for pair in row):
        raise DataError(f"{path}: signal {idx} must be an array of [re, im] number pairs")
    try:
        pairs = np.array(row, dtype=np.float64).reshape(-1, 2)
    except OverflowError as exc:
        raise DataError(f"{path}: signal {idx} has a number too large for a float") from exc
    return _complex_pairs(pairs)


def _signals_from_csv(text: str, path: str) -> list[np.ndarray]:
    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        return []
    if [h.strip() for h in header] != ["signal_id", "index", "re", "im"]:
        raise DataError(f"{path}: CSV header must be signal_id,index,re,im")
    groups: dict[str, dict[int, complex]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise DataError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
        sid = row[0]
        try:
            index = int(row[1])
            value = complex(float(row[2]), float(row[3]))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from exc
        entries = groups.setdefault(sid, {})
        if index in entries:
            raise DataError(f"{path}: signal {sid!r} repeats index {index}")
        entries[index] = value
    signals = []
    for sid, entries in groups.items():
        if sorted(entries) != list(range(len(entries))):
            raise DataError(f"{path}: signal {sid!r} has ragged indices "
                            f"(expected 0..{len(entries) - 1})")
        signals.append(np.array([entries[i] for i in range(len(entries))],
                                dtype=np.complex128))
    return signals


def save_signals(path: str, signals, fmt: str = "json") -> None:
    """Write signals in a form :func:`load_signals` reads back bit-exactly.

    ``signals`` is an ``(S, n)`` array or a sequence of 1-d arrays.
    """
    if fmt == "json":
        Path(path).write_text(_signals_to_json(signals))
    elif fmt == "csv":
        lines = ["signal_id,index,re,im"]
        for sid, sig in enumerate(signals):
            for index, v in enumerate(np.asarray(sig)):
                lines.append(f"{sid},{index},{float(v.real)!r},{float(v.imag)!r}")
        Path(path).write_text("\n".join(lines) + "\n")
    else:
        raise DataError(f"unknown signal format {fmt!r}")


def _json_signal_template(width: int) -> str:
    # one signal of `width` [re, im] pairs as json.dumps(indent=2) lays it out
    # inside the top-level array, with %s for each float
    if width == 0:
        return "  []"
    pair = "    [\n      %s,\n      %s\n    ]"
    return "  [\n" + ",\n".join([pair] * width) + "\n  ]"


def _signals_to_json(signals) -> str:
    """``json.dumps(doc, indent=2) + "\\n"`` for doc = [[[re, im], ...], ...].

    json.dumps runs its C encoder only without indent, so the floats are
    formatted in one such call (same reprs, NaN and Infinity spellings) and
    laid out by a template built once per signal width.
    """
    rows = [np.asarray(sig, dtype=np.complex128) for sig in signals]
    if not rows:
        return "[]\n"
    reprs = json.dumps(np.concatenate(rows).view(np.float64).tolist())[1:-1]
    layout = {w: _json_signal_template(w) for w in {len(row) for row in rows}}
    template = "[\n" + ",\n".join(layout[len(row)] for row in rows) + "\n]\n"
    return template % tuple(reprs.split(", ") if reprs else ())


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --- subcommands ----------------------------------------------------------------

def cmd_verify(config: RunConfig) -> int:
    pipeline = build_pipeline(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    for name, suite in SUITES.items():
        if name not in config.suites:
            continue
        result = suite.run(pipeline, config.suites[name], config.seed)
        doc = result.to_json_dict()
        _write_json(out / f"{name}.json", doc)
        results[name] = bool(doc["pass"])
        print(f"{name}: {'pass' if doc['pass'] else 'FAIL'}")
    overall = all(results.values()) and bool(results)
    _write_json(out / "summary.json", {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "pass": overall,
        "suites": results,
        "config": config.to_dict(),
    })
    return 0 if overall else 1


def cmd_monomials(config: RunConfig, to_stdout: bool = False) -> int:
    pipeline = build_pipeline(config)
    doc = separating_set_to_json(pipeline.sset)
    if to_stdout:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "monomials.json", doc)
        print(f"wrote {out / 'monomials.json'} ({len(doc['monomials'])} monomials)")
    return 0


def cmd_embed(config: RunConfig, signals_path: str | None, fmt: str | None) -> int:
    if signals_path is None:
        if config.signals is None:
            raise ConfigError("config field 'signals': required by the embed "
                              "subcommand (or pass --signals)")
        signals_path = config.signals["path"]
        fmt = fmt or config.signals["format"]
    fmt = fmt or "json"
    signals = load_signals(signals_path, fmt)
    pipeline = build_pipeline(config)
    n = pipeline.action.n
    # an (S, n') array has one length to check, a ragged list one per signal
    for idx, sig in enumerate(signals[:1] if isinstance(signals, np.ndarray) else signals):
        if sig.shape[0] != n:
            raise DataError(f"signal {idx} has length {sig.shape[0]}, expected {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        embedded = embed(pipeline, np.reshape(signals, (-1, n)))
    finite = np.isfinite(embedded).all(axis=1)
    if not finite.all():
        raise DataError(f"signal {int(np.argmin(finite))} has a non-finite embedding "
                        "(its norm overflows); nothing was written")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / f"embeddings.{fmt}"
    save_signals(str(target), embedded, fmt)
    print(f"embedded {len(embedded)} signals -> {target}")
    return 0


def cmd_sweep(config: RunConfig) -> int:
    pipeline = build_pipeline(config)
    sweep = SUITES["sweep"]
    result = sweep.run(pipeline, config.suites.get("sweep", sweep.defaults), config.seed)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "sweep.json", result.to_json_dict())
    lines = ["epsilon,quotient_distance,embedding_gap,ratio"]
    for eps, d, gap, ratio in result.rows():
        lines.append(f"{eps!r},{d!r},{gap!r},{ratio!r}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    print(f"sweep slope {result.slope:.4f} "
          f"({'pass' if result.passed else 'FAIL'}) -> {out / 'sweep.csv'}")
    return 0 if result.passed else 1


def golden_fixture_values(seed: int = 7) -> dict:
    """Recompute every pinned value from independent oracles.

    Operator norms come from a dense SVD (checked against operator_norm),
    gradients from central finite differences, orbit facts from exhaustive
    enumeration. Separation margins are recorded per fixture for regression
    comparison; no a-priori value is asserted for them.
    """
    doc = {}
    for name, spec in BUILTIN_FIXTURES.items():
        config = config_from_dict({**spec, "seed": seed})
        pipeline = build_pipeline(config)
        svd_norm = oracles.svd_operator_norm(pipeline.reducer.entries)
        norm = operator_norm(pipeline.reducer)
        margin_report = analysis.separation_margin(pipeline, 1000, 0.1, seed)
        grad_err = 0.0
        for i in range(20):
            z = analysis._sphere_point(analysis._rng_for(seed, i), pipeline.diag.n)
            grad_err = max(grad_err, oracles.gradient_discrepancy(pipeline.sset, z))
        doc[name] = {
            "target_dim": pipeline.target_dim,
            "monomial_count": pipeline.sset.size,
            "operator_norm": norm,
            "operator_norm_svd_oracle": svd_norm,
            "operator_norm_disagreement": abs(norm - svd_norm),
            "separation_margin": margin_report.statistic,
            "same_orbit_leakage": margin_report.extra["same_orbit_leakage"],
            "gradient_fd_max_error": grad_err,
        }
    x, y = analysis.prime_collision_pair(5)
    modulation = make_cyclic_action(5, range(5))
    doc["prime_case_p5"] = {
        "collision_map_gap": float(np.linalg.norm(
            analysis.prime_fourier_map(5, x) - analysis.prime_fourier_map(5, y))),
        "collision_orbit_distance": oracles.exhaustive_orbit_distance(modulation, x, y),
        "collision_same_orbit": oracles.same_orbit(modulation, x, y),
    }
    return doc


def cmd_fixtures(config: RunConfig) -> int:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = golden_fixture_values(seed=config.seed)
    _write_json(out / "golden.json", doc)
    print(f"wrote {out / 'golden.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbit-embed",
        description="Complete, stable embeddings of signals modulo cyclic group actions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("monomials", "emit the separating monomial set as JSON"),
            ("embed", "read signals and write their embeddings"),
            ("verify", "run verification suites and write reports"),
            ("sweep", "run the lower-Lipschitz degeneration sweep"),
            ("fixtures", "regenerate golden fixture values via oracles")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        if name == "monomials":
            p.add_argument("--stdout", action="store_true",
                           help="print to stdout instead of writing a file")
        if name == "embed":
            p.add_argument("--signals", default=None, help="signal file path")
            p.add_argument("--format", default=None, choices=["json", "csv"],
                           help="signal file format")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        if args.out is not None:
            config = replace(config, out=args.out)
        if args.command == "verify":
            return cmd_verify(config)
        if args.command == "monomials":
            return cmd_monomials(config, to_stdout=args.stdout)
        if args.command == "embed":
            return cmd_embed(config, args.signals, args.format)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "fixtures":
            return cmd_fixtures(config)
        raise AssertionError(f"unhandled command {args.command}")
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OrbitEmbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
