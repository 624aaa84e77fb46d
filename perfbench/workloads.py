"""Benchmark workloads: seeded input generators and output checks.

Each workload turns the benchmark seed into the only inputs the program
sees (a run config, plus a signal file for ``embed_file``) and knows how to
check what the program wrote. The checks here are independent of the
library's evaluation code: embeddings are compared with a reference built
from an explicit DFT matrix, the serialized monomial set and a regenerated
reducer draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("verify_z12", "verify_translation_n64", "embed_file")

# verify_translation_n64: the sizing keeps every suite between about 0.25 s
# and 1.1 s on one core, so no single suite dominates the command time.
N64_SUITES = {
    "invariance": {"samples": 10},
    "separation": {"samples": 10, "delta": 0.1},
    "lipschitz": {"samples": 375},
    "nonparallel": {"samples": 125, "delta": 0.1},
    "sup_norm": {"samples": 250},
}
# The reducer seed stays fixed so that every benchmark seed draws the same
# reducer, and the power-iteration operator norm does the same work.
N64_REDUCER_SEED = 42

EMBED_SIGNALS = 20_000
EMBED_ZEROS = 8
# Rows checked against the reference: every REFERENCE_STRIDE-th row and
# every exact zero signal.
REFERENCE_STRIDE = 64
REFERENCE_RTOL = 1e-12


@dataclass
class Workload:
    """Generated inputs of one workload, and the checks on its outputs."""

    name: str
    command: str
    config_path: Path
    config: dict
    signals_path: Path | None = None
    signals: np.ndarray | None = field(default=None, repr=False)

    @property
    def suites(self) -> dict:
        return self.config.get("suites", {}) if self.command == "verify" else {}

    @property
    def operations(self) -> int:
        """Operations per repeat: one per suite, or one per signal."""
        return len(self.suites) if self.command == "verify" else len(self.signals)

    def argv(self, out: Path) -> list[str]:
        argv = [self.command, "--config", str(self.config_path), "--out", str(out)]
        if self.command == "embed":
            argv += ["--signals", str(self.signals_path), "--format", "json"]
        return argv

    def input_bytes(self) -> int:
        size = self.config_path.stat().st_size
        if self.signals_path is not None:
            size += self.signals_path.stat().st_size
        return size


def master_seed(seed: int) -> int:
    """The config's master seed for a benchmark seed (configs need >= 0)."""
    return int(seed) % 2**32


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def make_signals(seed: int, count: int = EMBED_SIGNALS, n: int = 8,
                 zeros: int = EMBED_ZEROS) -> np.ndarray:
    """Complex signals with log-uniform norms in [1e-3, 1e3] and a few zeros."""
    rng = np.random.default_rng([master_seed(seed), 0xE3BED])
    z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z *= (10.0 ** rng.uniform(-3.0, 3.0, size=count))[:, None]
    z[rng.choice(count, size=zeros, replace=False)] = 0.0
    return z


def signals_to_json(signals: np.ndarray) -> str:
    return json.dumps([[[float(v.real), float(v.imag)] for v in row]
                       for row in signals]) + "\n"


def make_inputs(name: str, seed: int, root: Path, workdir: Path) -> Workload:
    """Write the workload's inputs under ``workdir``; return the workload."""
    workdir.mkdir(parents=True, exist_ok=True)
    config_path = workdir / "config.json"
    if name == "verify_z12":
        config = json.loads((root / "configs" / "z12_c5.json").read_text())
        config["seed"] = master_seed(seed)
        _write_json(config_path, config)
        return Workload(name, "verify", config_path, config)
    if name == "verify_translation_n64":
        config = {
            "action": {"form": "translation", "n": 64},
            "target_dim": "auto",
            "reducer": {"kind": "gaussian", "seed": N64_REDUCER_SEED},
            "suites": N64_SUITES,
            "seed": master_seed(seed),
            "out": "reports",
        }
        _write_json(config_path, config)
        return Workload(name, "verify", config_path, config)
    if name == "embed_file":
        config = json.loads((root / "configs" / "translation_c8.json").read_text())
        config["seed"] = master_seed(seed)
        _write_json(config_path, config)
        signals = make_signals(seed)
        signals_path = workdir / "signals.json"
        signals_path.write_text(signals_to_json(signals))
        return Workload(name, "embed", config_path, config, signals_path, signals)
    raise ValueError(f"unknown workload {name!r} (valid: {', '.join(WORKLOADS)})")


# --- output checks ------------------------------------------------------------

def check_reports(suites, out: Path, baseline: dict | None = None) -> tuple[int, dict]:
    """Count failed suites; return the count and each report's bytes.

    A suite fails when its report is missing or unreadable, does not say
    ``"pass": true``, or differs in any byte from ``baseline`` (the reports
    of an earlier run with the same seed).
    """
    failed = 0
    reports = {}
    for suite in suites:
        try:
            raw = (out / f"{suite}.json").read_bytes()
            ok = json.loads(raw).get("pass") is True
        except (OSError, ValueError, AttributeError):
            raw, ok = None, False
        if baseline is not None and raw != baseline.get(suite):
            ok = False
        reports[suite] = raw
        failed += not ok
    return failed, reports


def _power(v: np.ndarray, e: int) -> np.ndarray:
    out = np.ones_like(v)
    for _ in range(e):
        out = out * v
    return out


def reference_embeddings(signals: np.ndarray, monomials: dict,
                         reducer_seed: int) -> np.ndarray:
    """Phi(x) for each row, computed without the library's evaluation code.

    Uses an explicit unitary DFT matrix (positive-exponent convention), the
    monomials as serialized by ``separating_set_to_json``, repeated
    multiplication for powers, and the reducer regenerated from its
    documented draw ``default_rng(seed).standard_normal((2, k, N))`` with
    k = min(2n+1, N).
    """
    n = signals.shape[1]
    idx = np.arange(n)
    dft = np.exp(2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)
    u = signals @ dft.T
    nrm = np.sqrt(np.sum(u.real ** 2 + u.imag ** 2, axis=1))
    safe = np.where(nrm > 0.0, nrm, 1.0)
    v = u / safe[:, None]
    columns = []
    for mono in monomials["monomials"]:
        if mono["kind"] == "single":
            columns.append(_power(v[:, mono["i"] - 1], mono["exp"]))
        else:
            columns.append(_power(v[:, mono["j"] - 1], mono["a"])
                           * _power(v[:, mono["k"] - 1], mono["b"]))
    values = np.stack(columns, axis=1)
    N = values.shape[1]
    k = min(2 * n + 1, N)
    z = np.random.default_rng(reducer_seed).standard_normal((2, k, N))
    reducer = (z[0] + 1j * z[1]) / math.sqrt(2)
    phi = nrm[:, None] * (values @ reducer.T)
    phi[nrm == 0.0] = 0.0
    return phi


def reference_rows(signals: np.ndarray) -> np.ndarray:
    """Indices of the rows checked against the reference."""
    zero = np.flatnonzero(~np.any(signals, axis=1))
    return np.union1d(np.arange(0, len(signals), REFERENCE_STRIDE), zero)


def check_embeddings(path: Path, rows: int, width: int,
                     reference: dict[int, np.ndarray]) -> int:
    """Count failed signals in an embedding file written by ``embed``.

    A signal fails when its row is missing, has other than ``width``
    entries, holds a non-finite number, or (for the rows in ``reference``)
    differs from the reference by more than REFERENCE_RTOL relative to the
    reference norm; a zero reference must be matched exactly.
    """
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return rows
    if not isinstance(doc, list):
        return rows
    failed = abs(rows - len(doc))
    for i, row in enumerate(doc[:rows]):
        try:
            r = np.asarray(row, dtype=np.float64)
        except (TypeError, ValueError):
            failed += 1
            continue
        if r.shape != (width, 2) or not np.isfinite(r).all():
            failed += 1
            continue
        expected = reference.get(i)
        if expected is not None:
            scale = float(np.linalg.norm(expected))
            err = float(np.linalg.norm(r[:, 0] + 1j * r[:, 1] - expected))
            if err > REFERENCE_RTOL * scale or (scale == 0.0 and err != 0.0):
                failed += 1
    return min(rows, failed)
