"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from orbit_embed import cli  # noqa: E402
from orbit_embed.invariants import separating_set_to_json  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_byte_deterministic_in_the_seed(tmp_path, name):
    def files(seed, tag):
        wl = workloads.make_inputs(name, seed, ROOT, tmp_path / tag)
        paths = [wl.config_path] + ([wl.signals_path] if wl.signals_path else [])
        return [p.read_bytes() for p in paths]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_report_check_rejects_a_failed_suite_and_changed_bytes(tmp_path):
    suites = {"invariance": {}, "separation": {}}
    for suite in suites:
        (tmp_path / f"{suite}.json").write_text(json.dumps({"suite": suite, "pass": True}))
    failed, baseline = workloads.check_reports(suites, tmp_path)
    assert failed == 0
    assert workloads.check_reports(suites, tmp_path, baseline)[0] == 0

    (tmp_path / "separation.json").write_text(json.dumps({"suite": "x", "pass": False}))
    assert workloads.check_reports(suites, tmp_path)[0] == 1
    (tmp_path / "separation.json").write_text(json.dumps({"suite": "x", "pass": True}))
    assert workloads.check_reports(suites, tmp_path, baseline)[0] == 1
    (tmp_path / "invariance.json").unlink()
    assert workloads.check_reports(suites, tmp_path, baseline)[0] == 2


def test_embedding_check_rejects_a_perturbed_row(tmp_path):
    wl = workloads.make_inputs("embed_file", 3, ROOT, tmp_path / "in")
    signals = wl.signals[:300]
    signals_path = tmp_path / "small.json"
    signals_path.write_text(workloads.signals_to_json(signals))
    out = tmp_path / "out"
    argv = ["embed", "--config", str(wl.config_path), "--out", str(out),
            "--signals", str(signals_path)]
    assert cli.main(argv) == 0

    config = cli.load_config(str(wl.config_path))
    monomials = separating_set_to_json(cli.build_pipeline(config).sset)
    rows = workloads.reference_rows(signals)
    phi = workloads.reference_embeddings(signals[rows], monomials, config.reducer_seed)
    reference = dict(zip(rows.tolist(), phi))
    width = phi.shape[1]
    assert width == 17
    path = out / "embeddings.json"
    assert workloads.check_embeddings(path, len(signals), width, reference) == 0

    doc = json.loads(path.read_text())
    row = int(rows[1])
    doc[row][0][0] *= 1 + 1e-9
    path.write_text(json.dumps(doc))
    assert workloads.check_embeddings(path, len(signals), width, reference) == 1

    doc[row + 1] = doc[row + 1][:-1]
    path.write_text(json.dumps(doc))
    assert workloads.check_embeddings(path, len(signals), width, reference) == 2
    assert workloads.check_embeddings(path, len(signals) + 1, width, reference) == 3


def test_reference_matches_zero_signals_exactly():
    signals = np.zeros((2, 8), dtype=np.complex128)
    signals[1, 3] = 2.0
    config = cli.load_config(str(ROOT / "configs" / "translation_c8.json"))
    monomials = separating_set_to_json(cli.build_pipeline(config).sset)
    phi = workloads.reference_embeddings(signals, monomials, config.reducer_seed)
    assert not np.any(phi[0])
    assert np.all(np.isfinite(phi[1])) and np.linalg.norm(phi[1]) > 0


def test_self_time_excludes_child_spans():
    recorder = spans.Recorder()
    inner = recorder.wrap("embed.eval_invariants", lambda: sum(range(1000)))
    outer = recorder.wrap("embed.embed", lambda: [inner() for _ in range(3)])
    outer()
    summary = recorder.summary()
    assert summary["embed.eval_invariants"]["calls"] == 3
    assert summary["embed.embed"]["calls"] == 1
    child = summary["embed.eval_invariants"]["s"]
    parent = summary["embed.embed"]
    assert parent["self_s"] == pytest.approx(parent["s"] - child, abs=1e-9)


def test_traced_spans_cover_only_the_command(tmp_path):
    wl = workloads.make_inputs("verify_translation_n64", 1, ROOT, tmp_path / "in")
    config = dict(wl.config, suites={"invariance": {"samples": 1}})
    wl.config_path.write_text(json.dumps(config))
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(wl.config_path),
           "--result", str(result), "--trace", str(tmp_path / "spans.jsonl"),
           "--", *wl.argv(tmp_path / "out")]
    env = dict(os.environ, **run.PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(cmd, check=True, env=env, timeout=120)
    doc = json.loads(result.read_text())
    assert doc["rc"] == 0
    assert doc["spans"]["cli.load_config"]["calls"] == 1
    assert doc["spans"]["cli.build_pipeline"]["calls"] == 1
    assert doc["spans"]["invariants.separating_set"]["calls"] == 1
    assert doc["bytes_read"] >= wl.config_path.stat().st_size


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert all(pattern.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
            == spans.per_layer_metrics())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
