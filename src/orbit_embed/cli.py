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
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, oracles
from .action import blocks, make_cyclic_action, make_translation_action
from .embed import Pipeline, embed, make_pipeline, operator_norm
from .errors import DataError, DimensionError, OrbitEmbedError, ParameterError, check_param
from .invariants import separating_set_to_json


class Suite(NamedTuple):
    defaults: dict
    # run(pipeline, params, seed, passes), passes being the dict of orbit passes
    # that a verify run keeps for its pipeline (or None); looks up analysis.<fn>
    # at call time, so a rebound module attribute (e.g. a traced wrapper) is the
    # one called
    run: Callable


# Every suite, in the order `verify` runs them and config keys are checked.
SUITES = {
    "invariance": Suite(
        {"samples": 1000},
        lambda pipeline, p, seed, passes: analysis.check_invariance(
            pipeline, p["samples"], seed, passes=passes)),
    "separation": Suite(
        {"samples": 1000, "delta": 0.1},
        lambda pipeline, p, seed, passes: analysis.separation_margin(
            pipeline, p["samples"], p["delta"], seed, passes=passes)),
    "lipschitz": Suite(
        {"samples": 10000},
        lambda pipeline, p, seed, _: analysis.empirical_lipschitz(pipeline, p["samples"], seed)),
    "nonparallel": Suite(
        {"samples": 1000, "delta": 0.1},
        lambda pipeline, p, seed, _: analysis.nonparallel_falsification(
            pipeline, p["samples"], p["delta"], seed)),
    "sup_norm": Suite(
        {"samples": 10000},
        lambda pipeline, p, seed, _: analysis.sup_norm_check(pipeline.sset, p["samples"], seed)),
    "sweep": Suite(
        {"epsilons": [1e-1, 3e-2, 1e-2, 3e-3, 1e-3], "witness": None},
        lambda pipeline, p, seed, _: analysis.lower_lipschitz_sweep(
            pipeline, p["epsilons"],
            witness=None if p["witness"] is None else tuple(p["witness"]))),
    "prime": Suite(
        {"p": 5, "samples": 200},
        lambda pipeline, p, seed, _: analysis.prime_case_report(p["p"], p["samples"], seed)),
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


def _object(value, path: str, known) -> dict:
    # a JSON object holding only known keys; path "" is the root
    _expect(isinstance(value, dict), path or "<root>", "must be a JSON object")
    for key in value:
        _expect(key in known, f"{path}.{key}" if path else key,
                f"unknown key (valid: {sorted(known)})")
    return value


def _param(path: str, name: str, value, n: int | None = None):
    # the value, once it passes the rule errors.PARAMS[name]; a ConfigError naming the field if not
    try:
        check_param(dim=n, **{name: value})
    except ParameterError as exc:
        raise ConfigError(f"config field {path!r}: {exc}") from exc
    return value


# The keys of each action form; a missing form is diagonal.
ACTION_KEYS = {"diagonal": {"form", "m", "weights"}, "translation": {"form", "n"}}


def config_from_dict(doc: dict) -> RunConfig:
    """Validate and normalize a raw config document."""
    _object(doc, "", {"action", "target_dim", "reducer", "suites", "seed", "out", "signals"})

    raw_action = doc.get("action")
    form = raw_action.get("form", "diagonal") if isinstance(raw_action, dict) else "diagonal"
    _expect(isinstance(form, str) and form in ACTION_KEYS, "action.form",
            'must be "diagonal" or "translation"')
    _object(raw_action, "action", ACTION_KEYS[form])
    if form == "translation":
        n = _param("action.n", "n", raw_action.get("n"))
        action = {"form": "translation", "n": n}
    else:
        m = _param("action.m", "m", raw_action.get("m"))
        weights = _param("action.weights", "weights", raw_action.get("weights"))
        n = _param("action.weights", "n", len(weights))
        action = {"m": m, "weights": list(weights)}

    target_dim = _param("target_dim", "target_dim", doc.get("target_dim", "auto"), n)
    reducer = _object(doc.get("reducer", {}), "reducer", {"kind", "seed"})
    kind = _param("reducer.kind", "kind", reducer.get("kind", "auto"))
    reducer_seed = _param("reducer.seed", "seed", reducer.get("seed", 0))

    raw_suites = _object(doc.get("suites", {name: {} for name in DEFAULT_SUITES}),
                         "suites", SUITES)
    suites = {}
    for name, suite in SUITES.items():
        if name not in raw_suites:
            continue
        params = _object(raw_suites[name], f"suites.{name}", suite.defaults)
        for key, value in params.items():
            _param(f"suites.{name}.{key}", key, value, n)
        suites[name] = {**suite.defaults, **params}

    seed = _param("seed", "seed", doc.get("seed", 0))
    out = doc.get("out", "reports")
    _expect(isinstance(out, str) and out, "out", "must be a nonempty string")

    signals = doc.get("signals")
    if signals is not None:
        _object(signals, "signals", {"path", "format"})
        _expect(isinstance(signals.get("path"), str), "signals.path", "must be a string")
        fmt = signals.get("format", "json")
        _expect(fmt in ("json", "csv"), "signals.format", 'must be "json" or "csv"')
        signals = {"path": signals["path"], "format": fmt}

    return RunConfig(action=action, target_dim=target_dim, reducer_kind=kind,
                     reducer_seed=reducer_seed, suites=suites, seed=seed,
                     out=out, signals=signals)


def _read_text(path: str, what: str, error: type[OrbitEmbedError]) -> str:
    # an unreadable path is a usage error (exit 2), undecodable bytes an `error`
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path!r} is not UTF-8 text: {exc}") from exc


def _parse_json(text: str, what: str, path: str, error: type[OrbitEmbedError]):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
        raise error(f"{what} {path!r} is not valid JSON: {exc}") from exc


def load_config(path: str) -> RunConfig:
    text = _read_text(path, "config", ConfigError)
    return config_from_dict(_parse_json(text, "config", path, ConfigError))


def build_pipeline(config: RunConfig) -> Pipeline:
    if config.action.get("form") == "translation":
        action = make_translation_action(config.action["n"])
    else:
        action = make_cyclic_action(config.action["m"], config.action["weights"])
    return make_pipeline(action, seed=config.reducer_seed,
                         target_dim=config.target_dim, reducer_kind=config.reducer_kind)


# --- signal I/O ----------------------------------------------------------------

def load_signals(path: str, fmt: str = "json") -> np.ndarray:
    """Read complex signals from a JSON or CSV file into one ``(S, n)`` array.

    JSON: an array of signals, each an array of [re, im] number pairs. CSV:
    header ``signal_id,index,re,im`` with rows grouped by signal id; each
    signal's indices must cover 0..len-1. Files are read as UTF-8 and parsed
    locale-independently. A malformed file is refused with the error of its
    first bad signal (JSON) or row (CSV); a length that differs from signal
    0's is reported only once every signal's entries pass. A file without
    signals gives a ``(0, 0)`` array.
    """
    if fmt not in ("json", "csv"):
        raise DataError(f"unknown signal format {fmt!r}")
    text = _read_text(path, "signal file", DataError)
    if not text or text.isspace():  # the test of text.strip(), without its copy
        warnings.warn(f"signal file {path!r} is empty")
        return _stack_signals([])
    if fmt == "csv":
        signals = _signals_from_csv(text, path)
    else:
        doc = _parse_json(text, "signal file", path, DataError)
        del text  # freed before the document is copied into an array
        signals = _signals_from_json(doc, path)
    if not len(signals):
        warnings.warn(f"signal file {path!r} contains no signals")
    finite = np.isfinite(signals).all(axis=1)
    if not finite.all():
        # json.loads and float() read a literal too large for a float as infinity
        raise DataError(f"signal {int(np.argmin(finite))} contains non-finite values "
                        "(NaN, Infinity, or a number too large for a float)")
    return signals


def _stack_signals(signals: list) -> np.ndarray:
    # signals of [re, im] float pairs, each as long as signal 0 -> one complex
    # (S, n) array holding those floats' bits, (0, 0) for none
    width = len(signals[0]) if signals else 0
    for idx, sig in enumerate(signals):
        if len(sig) != width:
            raise DataError(f"signal {idx} has length {len(sig)}, signal 0 has length {width}")
    pairs = np.array(signals, dtype=np.float64).reshape(len(signals), width, 2)
    return pairs.view(np.complex128)[..., 0]


def _signals_from_json(doc, path: str) -> np.ndarray:
    # doc: the parsed file. Each signal, in index order, must hold [re, im] pairs of
    # numbers: values of type int or float (json.loads gives true and false as
    # bool), an int only if it fits a float.
    if not isinstance(doc, list):
        raise DataError(f"{path}: top level must be an array of signals")
    for idx, row in enumerate(doc):
        if not (isinstance(row, list)
                and all(type(pair) is list and len(pair) == 2 for pair in row)
                and (types := set(map(type, chain.from_iterable(row)))) <= {int, float}):
            raise DataError(f"{path}: signal {idx} must be an array of [re, im] number pairs")
        if int in types:
            try:
                for value in chain.from_iterable(row):
                    float(value)
            except OverflowError as exc:
                raise DataError(f"{path}: signal {idx} has a number too large for a float") from exc
    return _stack_signals(doc)


def _signals_from_csv(text: str, path: str) -> np.ndarray:
    reader = csv.reader(text.splitlines())
    groups: dict[str, dict[int, tuple[float, float]]] = {}
    try:
        if [h.strip() for h in next(reader, [])] != ["signal_id", "index", "re", "im"]:
            raise DataError(f"{path}: CSV header must be signal_id,index,re,im")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            sid = row[0]
            try:
                index = int(row[1])
                value = (float(row[2]), float(row[3]))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}") from exc
            entries = groups.setdefault(sid, {})
            if index in entries:
                raise DataError(f"{path}: signal {sid!r} repeats index {index}")
            entries[index] = value
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    signals = []
    for sid, entries in groups.items():
        if sorted(entries) != list(range(len(entries))):
            raise DataError(f"{path}: signal {sid!r} has ragged indices "
                            f"(expected 0..{len(entries) - 1})")
        signals.append([entries[i] for i in range(len(entries))])
    return _stack_signals(signals)


def save_signals(path: str, signals, fmt: str = "json") -> None:
    """Write complex signals that :func:`load_signals` reads back bit-exactly.

    ``signals`` is a batch ``(S, n)`` or one signal ``(n,)``, written as a file
    of one signal; other shapes, and signals of length 0, raise DimensionError
    (a CSV file of them would read back as no signals). The file is formatted and
    written one :func:`action.blocks` block of rows at a time: a block's floats
    are formatted in one C-level call and laid out by a template of its rows, so
    memory does not grow with S. A write that fails removes the partial file.
    """
    if fmt not in ("json", "csv"):
        raise DataError(f"unknown signal format {fmt!r}")
    signals = np.asarray(signals, dtype=np.complex128)
    if signals.ndim not in (1, 2):
        raise DimensionError(
            f"signals must be an (n,) vector or an (S, n) batch, got shape {signals.shape}")
    signals = np.ascontiguousarray(np.atleast_2d(signals))
    S, n = signals.shape
    if S and not n:
        raise DimensionError(f"signals need at least one entry, got shape {signals.shape}")
    # the text before the first block, between two blocks and after the last
    if fmt == "csv":
        head, sep, tail, rows = "signal_id,index,re,im\n", "", "", _csv_rows
    elif S:
        head, sep, tail, rows = "[\n", ",\n", "\n]\n", _json_rows
    else:
        head, sep, tail, rows = "[]\n", "", "", _json_rows
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            fh.write(head)
            for block in blocks(S, max(n, 1)):
                if block.start:
                    fh.write(sep)
                fh.write(rows(signals[block], block.start))
            fh.write(tail)
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _json_rows(block: np.ndarray, start: int) -> str:
    """The rows of ``json.dumps(doc, indent=2)`` for doc = [[[re, im], ...], ...],
    joined by ",\\n"; the floats go through json.dumps without indent, the only
    mode its C encoder runs in."""
    count, n = block.shape
    pair = "    [\n      %s,\n      %s\n    ]"
    row = "  [\n" + ",\n".join([pair] * n) + "\n  ]"
    reprs = json.dumps(block.view(np.float64).ravel().tolist())[1:-1]
    return ",\n".join([row] * count) % tuple(reprs.split(", "))


def _csv_rows(block: np.ndarray, start: int) -> str:
    # f"{sid},{index},{re!r},{im!r}" per value, signal ids from start
    count, n = block.shape
    row = "".join(f"%d,{index},%%s,%%s\n" for index in range(n))
    template = "".join(row % ((sid,) * n) for sid in range(start, start + count))
    return template % tuple(map(repr, block.view(np.float64).ravel().tolist()))


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --- subcommands ----------------------------------------------------------------

def cmd_verify(config: RunConfig) -> int:
    pipeline = build_pipeline(config)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    passes: dict = {}  # the orbit passes of this run's pipeline, by (seed, samples)
    results = {}
    for name, params in config.suites.items():  # in SUITES order (config_from_dict)
        result = SUITES[name].run(pipeline, params, config.seed, passes)
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
    if len(signals) and signals.shape[1] != n:
        raise DataError(f"signal 0 has length {signals.shape[1]}, expected {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        embedded = embed(pipeline, signals.reshape(-1, n))
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
    result = sweep.run(pipeline, config.suites.get("sweep", sweep.defaults), config.seed, None)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "sweep.json", result.to_json_dict())
    lines = ["epsilon,quotient_distance,embedding_gap,ratio"]
    for eps, d, gap, ratio in zip(result.epsilons, result.quotient_distances,
                                  result.embedding_gaps, result.ratios):
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
        z = np.array([oracles.sphere_point(oracles.sample_rng(seed, i), pipeline.sset.n)
                      for i in range(20)])
        grad_err = float(oracles.gradient_discrepancy(pipeline.sset, z).max())
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

    overrides = {key: value for key, value in (("seed", args.seed), ("out", args.out))
                 if value is not None}
    try:
        config = config_from_dict({**load_config(args.config).to_dict(), **overrides})
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
