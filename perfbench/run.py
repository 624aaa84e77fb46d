"""orbit-embed benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/orbit_embed``).
The workload's inputs are generated from ``--seed``; then the workload is
repeated, each repeat in a fresh interpreter (``worker.py``), until
``--seconds`` have passed. Fresh processes matter: the library's caches
(``embed._index_arrays`` is an ``lru_cache`` keyed by the separating set)
make a second run inside one process slower than the first, and the CLI's
model is one run per process.

Every repeat's outputs are checked: each suite report must say
``"pass": true`` and match the first repeat's bytes, and each embedding row
must be finite, of the right width and, on a fixed subset, equal to an
independent reference at relative 1e-12. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. Details, the environment and the spans of the last traced
repeat go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Environment of every worker. One BLAS thread: the machine this was sized
# on has 2 shared cores, the largest matrix is 129 x 2080, and threads would
# only add scheduling noise. A fixed hash seed removes per-process variation
# in dict and set layouts.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}

MIN_REPEATS = 3          # untraced repeats per run; two are needed for byte checks
MIN_TRACED = 2           # traced and untraced repeats each, with --trace 1
# With --trace 0, setup-only processes take this share of the window,
# interleaved with the repeats, so setup_s is the median of 35-60 cold
# setups spread over the whole run (a setup-only process costs about 0.3 s).
SETUP_SHARE = 0.2
STOP_STARTING_AFTER_S = 100.0   # no new repeat after this, whatever --seconds says
RUN_LIMIT_S = 165.0             # a worker still running then is killed

END_TO_END = {"setup_s": "s", "command_s": "s", "peak_rss_mib": "MiB"}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def git_sha(root: Path) -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            check=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(workload, seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": PINNED_ENV["OPENBLAS_NUM_THREADS"]},
        "git_sha": git_sha(ROOT),
        "workload": workload.name,
        "seed": seed,
        "master_seed": workload.config["seed"],
        "suite_samples": {name: params.get("samples")
                          for name, params in workload.suites.items()},
        "signals": None if workload.signals is None else len(workload.signals),
        "input_bytes": workload.input_bytes(),
    }


class Runner:
    """Starts worker processes for one workload and checks what they write."""

    def __init__(self, workload, workdir: Path, spans_path: Path, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.workdir = workdir
        self.spans_path = spans_path
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.baseline = None   # report bytes of the first verify repeat
        self.reports = {}      # the same reports, parsed
        self.count = 0
        self.reference, self.width = ({}, None)
        if workload.command == "embed":
            self.reference, self.width = self._build_reference()

    def _build_reference(self) -> tuple[dict, int]:
        """Reference embeddings of the checked rows, by row index."""
        from orbit_embed import cli
        from orbit_embed.invariants import separating_set_to_json

        config = cli.load_config(str(self.workload.config_path))
        monomials = separating_set_to_json(cli.build_pipeline(config).sset)
        rows = workloads.reference_rows(self.workload.signals)
        phi = workloads.reference_embeddings(
            self.workload.signals[rows], monomials, config.reducer_seed)
        return dict(zip(rows.tolist(), phi)), phi.shape[1]

    def repeat(self, command: bool, traced: bool = False) -> dict:
        """Run one worker process; return its result with check counts."""
        self.count += 1
        tag = f"rep{self.count}"
        out = self.workdir / tag
        result_path = self.workdir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--config", str(self.workload.config_path),
               "--result", str(result_path)]
        if traced:
            cmd += ["--trace", str(self.spans_path)]
        if command:
            cmd += ["--", *self.workload.argv(out)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(self.deadline - time.perf_counter(), 0.1))
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            stderr = f"worker killed at the {RUN_LIMIT_S} s run limit"
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = {"error": stderr[-4000:] or "worker wrote no result"}
        result["traced"] = traced
        if command:
            self._check(result, out)
            shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, result: dict, out: Path) -> None:
        wl = self.workload
        result["attempted"] = wl.operations
        result["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*")
                                      if p.is_file())
        if result.get("rc") != 0 or result.get("error"):
            result["failed"] = wl.operations
            return
        if wl.command == "verify":
            failed, reports = workloads.check_reports(wl.suites, out, self.baseline)
            if self.baseline is None:
                self.baseline = reports
                self.reports = {name: json.loads(raw) for name, raw in reports.items()
                                if raw is not None}
        else:
            failed = workloads.check_embeddings(
                out / "embeddings.json", wl.operations, self.width, self.reference)
        result["failed"] = failed


def end_to_end(full: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": median(setups),
        "command_s": median([r["command_s"] for r in full]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in full]),
    }


def per_layer(runner: Runner, untraced: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for name, span in traced[0]["spans"].items():
        metrics[f"{name}.calls"] = span["calls"]
        for key in ("s", "self_s", "p50_us", "p99_us"):
            if key in span:
                metrics[f"{name}.{key}"] = median([r["spans"][name][key] for r in traced])
    reports = runner.reports
    samples = sum(r.get("samples", 0) for r in reports.values())
    embed_calls = metrics.get("embed.embed.calls", 0)

    def ratio(suite: str, key: str) -> float:
        report = reports.get(suite)
        if not report or not report.get("samples"):
            return 0.0
        return report.get("extra", {}).get(key, 0) / report["samples"]

    metrics.update({
        "analysis.embed_calls_per_sample": embed_calls / samples if samples else 0.0,
        "analysis.separation.qualifying_ratio": ratio("separation", "qualifying_pairs"),
        "analysis.nonparallel.qualifying_ratio": ratio("nonparallel", "qualifying_pairs"),
        "analysis.lipschitz.excluded_ratio": ratio("lipschitz", "excluded_pairs"),
        "cli.bytes_read": median([r["bytes_read"] for r in untraced if "bytes_read" in r]),
        "cli.bytes_written": median([r["bytes_written"] for r in untraced]),
        "trace_overhead_ratio": (median([r["command_s"] for r in traced])
                                 / median([r["command_s"] for r in untraced])),
    })
    units = spans.per_layer_metrics()
    return {name: {"value": metrics.get(name, 0.0), "unit": unit}
            for name, (unit, _) in units.items()}


def summary_lines(workload, metrics: dict, full: list[dict], setups: list[float],
                  attempted: int, failed: int) -> list[str]:
    commands = sorted(r["command_s"] for r in full)
    spread = (statistics.quantiles(commands, n=4) if len(commands) > 1
              else [commands[0]] * 3)
    lines = [f"setup_s        {metrics['setup_s']:.6f} s  (median of {len(setups)} cold setups)"]
    if workload.command == "verify":
        lines.append(f"verify_s       {metrics['command_s']:.4f} s  (median of "
                     f"{len(commands)} repeats; quartiles {spread[0]:.4f}..{spread[2]:.4f})")
    else:
        lines.append(f"signals_per_s  {workload.operations / metrics['command_s']:.1f} "
                     f"signals/s  ({workload.operations} signals; median command "
                     f"{metrics['command_s']:.4f} s of {len(commands)} repeats)")
    lines.append(f"peak_rss_mib   {metrics['peak_rss_mib']:.1f} MiB")
    lines.append(f"fail_ratio     {failed / attempted:.6g} failed/attempted "
                 f"({failed}/{attempted})")
    return lines


def run(args) -> int:
    began = time.perf_counter()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    try:
        workload = workloads.make_inputs(args.workload, args.seed, ROOT, workdir)
        runner = Runner(workload, workdir, OUT / f"{stem}.spans.jsonl",
                        deadline=began + RUN_LIMIT_S)
        env = environment(workload, args.seed)
        runner.repeat(command=False)   # warm-up: page cache, bytecode; not timed

        start = time.perf_counter()
        results: list[dict] = []
        setups: list[float] = []    # from setup-only processes
        setup_time = 0.0
        while True:
            untraced = [r for r in results if not r["traced"]]
            traced = [r for r in results if r["traced"]]
            enough = (len(traced) >= MIN_TRACED and len(untraced) >= MIN_TRACED
                      if args.trace else len(untraced) >= MIN_REPEATS)
            now = time.perf_counter()
            if (enough and now - start >= args.seconds) or now - began >= STOP_STARTING_AFTER_S:
                break
            if not args.trace and setup_time < SETUP_SHARE * (now - start):
                extra = runner.repeat(command=False)
                setup_time += time.perf_counter() - now
                if "setup_s" in extra:
                    setups.append(extra["setup_s"])
                continue
            want_trace = bool(args.trace) and len(traced) < len(untraced)
            results.append(runner.repeat(command=True, traced=want_trace))

        untraced = [r for r in results if not r["traced"]]
        traced = [r for r in results if r["traced"]]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        timed = [r for r in untraced if "command_s" in r]
        spanned = [r for r in traced if "spans" in r]
        if not timed or (args.trace and not spanned):
            for r in results:
                if r.get("error"):
                    print(r["error"], file=sys.stderr)
            print("error: no repeat produced timings", file=sys.stderr)
            return 1

        if args.trace:
            metrics = per_layer(runner, timed, spanned)
            lines = [f"{name} {m['value']!r} {m['unit']}" for name, m in metrics.items()]
        else:
            setups += [r["setup_s"] for r in timed]
            values = end_to_end(timed, setups)
            lines = summary_lines(workload, values, timed, setups, attempted, failed)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}

        for r in results:
            if r.get("error"):
                print(f"repeat error: {r['error'].strip().splitlines()[-1]}", file=sys.stderr)
        detail = {"environment": env, "args": vars(args), "repeats": results,
                  "metrics": metrics, "attempted": attempted, "failed": failed}
        (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
        print("environment " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload} seed {args.seed}: {len(untraced)} repeats"
              + (f" + {len(traced)} traced" if traced else "")
              + f", each in a fresh process; details in {OUT.name}/{stem}-trace{args.trace}.json")
        for line in lines:
            print("  " + line)
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbit-embed benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "orbit_embed" / "cli.py").is_file():
        print(f"error: no orbit_embed sources under {SRC}; run from the root of "
              "an orbit-embed checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
