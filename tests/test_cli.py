import copy
import csv
import errno
import gc
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import orbit_embed
from orbit_embed import analysis, as_signals, cli
from orbit_embed.cli import (ConfigError, build_pipeline, config_from_dict,
                             golden_fixture_values, load_signals, main,
                             save_signals)
from orbit_embed.embed import blocks, embed
from orbit_embed.errors import DataError, DimensionError, ParameterError, is_real

from conftest import oracle_draw

Z12_CONFIG = {
    "action": {"m": 12, "weights": [6, 3, 4, 2, 2]},
    "reducer": {"kind": "gaussian", "seed": 42},
    "suites": {
        "invariance": {"samples": 50},
        "separation": {"samples": 50},
        "lipschitz": {"samples": 100},
        "nonparallel": {"samples": 50},
        "sup_norm": {"samples": 100},
        "sweep": {"witness": [3, 4]},
        "prime": {"samples": 50},
    },
    "seed": 7,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not valid JSON")

    return json.loads(text, parse_constant=refuse)


class TestRunConfig:
    def test_round_trip_is_lossless(self):
        config = config_from_dict(dict(Z12_CONFIG, out="reports"))
        assert config_from_dict(config.to_dict()) == config

    def test_defaults(self):
        config = config_from_dict({"action": {"m": 2, "weights": [1, 1]}})
        assert config.target_dim == "auto"
        assert config.reducer_kind == "auto"
        assert config.seed == 0
        assert set(config.suites) == {"invariance", "separation", "lipschitz",
                                      "nonparallel", "sup_norm"}
        assert config.suites["separation"]["delta"] == 0.1

    def test_translation_form(self):
        config = config_from_dict({"action": {"form": "translation", "n": 8}})
        assert config.action == {"form": "translation", "n": 8}

    @pytest.mark.parametrize("doc,fragment", [
        ({}, "action"),
        ({"action": {"m": 0, "weights": [1]}}, "action.m"),
        ({"action": {"m": 2, "weights": []}}, "action.weights"),
        ({"action": {"m": 2, "weights": [1]}, "reducer": {"kind": "sparse"}},
         "reducer.kind"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"lipshitz": {}}},
         "suites.lipshitz"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"lipschitz": {"smples": 1}}},
         "suites.lipschitz.smples"),
        ({"action": {"m": 2, "weights": [1]}, "typo": 1}, "typo"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"sweep": {"witness": 3}}},
         "suites.sweep.witness"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"invariance": {"samples": "10"}}},
         "suites.invariance.samples"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"separation": {"delta": "x"}}},
         "suites.separation.delta"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"prime": {"samples": True}}},
         "suites.prime.samples"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"prime": {"p": 0}}},
         "suites.prime.p"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"sweep": {"epsilons": []}}},
         "suites.sweep.epsilons"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"sweep": {"witness": [1, 2.0]}}},
         "suites.sweep.witness"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"separation": {"delta": 5.0}}},
         "suites.separation.delta"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"nonparallel": {"delta": 0}}},
         "suites.nonparallel.delta"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"sweep": {"epsilons": [0.1, 0.2]}}},
         "suites.sweep.epsilons"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"sweep": {"epsilons": [0.9]}}},
         "suites.sweep.epsilons"),
        (dict(Z12_CONFIG, suites={"sweep": {"witness": [3, 9]}}), "suites.sweep.witness"),
        ({"action": {"form": "translation", "n": 8}, "suites": {"sweep": {"witness": [8, 1]}}},
         "suites.sweep.witness"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"prime": {"p": 3}}},
         "suites.prime.p"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"prime": {"p": 4}}},
         "suites.prime.p"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"invariance": {"samples": 0}}},
         "suites.invariance.samples"),
        ({"action": {"m": 2, "weights": [1]}, "seed": True}, "'seed'"),
        ({"action": {"m": 2, "weights": [1]}, "reducer": {"seed": True}}, "reducer.seed"),
        ({"action": {"m": 2, "weights": [1]}, "target_dim": True}, "target_dim"),
        ({"action": {"form": "translation", "n": True}}, "action.n"),
        ({"action": {"m": 2, "weights": [1, True]}}, "action.weights"),
        ({"action": {"m": True, "weights": [1]}}, "action.m"),
        ({"action": {"m": 2, "weights": [1]}, "reducer": {"sed": 3}}, "reducer.sed"),
        ({"action": {"m": 2, "weights": [1]}, "signals": {"path": "s.csv", "fromat": "csv"}},
         "signals.fromat"),
        ({"action": {"form": "rotation", "m": 2, "weights": [1]}}, "action.form"),
        ({"action": {"form": "translation", "n": 8, "m": 8}}, "action.m"),
        ({"action": {"m": 2, "weights": [1]}, "suites": {"sweep": {"epsilons": [0.1]}}},
         "suites.sweep.epsilons"),
    ])
    def test_diagnostics_name_the_field(self, doc, fragment):
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc,field", [
        ({"action": {"m": 12, "weights": [6, 3, 4, 2, 2]}, "target_dim": 99}, "target_dim"),
        ({"action": {"form": "translation", "n": 8}, "target_dim": 37}, "target_dim"),
        ({"action": {"m": 2**63, "weights": [1]}}, "action.m"),
        ({"action": {"m": 12, "weights": [1.5]}}, "action.weights"),
        ({"action": {"form": "translation", "n": 8.0}}, "action.n"),
        ({"action": {"m": 2, "weights": [1]}, "reducer": {"seed": -1}}, "reducer.seed"),
    ])
    def test_construction_rules_checked_at_load(self, doc, field):
        # refused by config_from_dict through the rule table, not first by build_pipeline
        with pytest.raises(ConfigError, match=field.replace(".", r"\.")) as info:
            config_from_dict(doc)
        assert isinstance(info.value.__cause__, ParameterError)

    def test_largest_target_dim_accepted(self):
        config = config_from_dict({"action": {"m": 12, "weights": [6, 3, 4, 2, 2]},
                                   "target_dim": 15})
        assert build_pipeline(config).target_dim == 15

    def test_witness_range_uses_the_action_dimension(self):
        doc = {"action": {"form": "translation", "n": 8}, "suites": {"sweep": {"witness": [7, 1]}}}
        assert config_from_dict(doc).suites["sweep"]["witness"] == [7, 1]


class TestSignalIO:
    def test_unknown_format_refused(self, tmp_path):
        path = tmp_path / "sig.xml"
        with pytest.raises(DataError, match="unknown signal format 'xml'"):
            save_signals(str(path), np.ones((1, 2)), "xml")
        assert not path.exists()
        path.write_text("[[[1, 0]]]")
        with pytest.raises(DataError, match="unknown signal format 'xml'"):
            load_signals(str(path), "xml")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("shape", [(0,), (1, 0), (2, 0)])
    def test_zero_length_signals_refused(self, tmp_path, fmt, shape):
        # a CSV file of them would hold only the header and read back as (0, 0)
        path = tmp_path / f"sig.{fmt}"
        with pytest.raises(DimensionError, match="signals need at least one entry"):
            save_signals(str(path), np.zeros(shape, dtype=np.complex128), fmt)
        assert not path.exists()

    def test_json_single_signal(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text("[[[1, 0], [0, 0]]]")
        signals = load_signals(str(path), "json")
        assert len(signals) == 1
        np.testing.assert_array_equal(signals[0], [1 + 0j, 0 + 0j])

    def test_csv_round_trip_exact(self, tmp_path, rng):
        signals = [rng.standard_normal(4) + 1j * rng.standard_normal(4)
                   for _ in range(3)]
        path = tmp_path / "sig.csv"
        save_signals(str(path), signals, "csv")
        back = load_signals(str(path), "csv")
        for orig, loaded in zip(signals, back):
            np.testing.assert_array_equal(orig, loaded)

    def test_json_round_trip_exact(self, tmp_path, rng):
        signals = [rng.standard_normal(5) + 1j * rng.standard_normal(5)]
        path = tmp_path / "sig.json"
        save_signals(str(path), signals, "json")
        np.testing.assert_array_equal(load_signals(str(path), "json")[0], signals[0])

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.warns(UserWarning, match="empty"):
            signals = load_signals(str(path), "json")
        assert signals.shape == (0, 0) and signals.dtype == np.complex128

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("signal_id,index,re,im\n0,0,inf,0\n")
        with pytest.raises(DataError, match="signal 0"):
            load_signals(str(path), "csv")

    # float() reads a field too large for a float as infinity, so the message names it
    @pytest.mark.parametrize("value", ["inf", "nan", "1e400", "-1e400"])
    def test_non_finite_csv_message(self, tmp_path, value):
        path = tmp_path / "sig.csv"
        path.write_text(f"signal_id,index,re,im\n0,0,1,0\n1,0,{value},0\n")
        with pytest.raises(DataError) as info:
            load_signals(str(path), "csv")
        assert str(info.value) == ("signal 1 contains non-finite values "
                                   "(NaN, Infinity, or a number too large for a float)")

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("signal_id,index,re,im\n0,0,1,0\n0,2,1,0\n")
        with pytest.raises(DataError, match="ragged"):
            load_signals(str(path), "csv")

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("id,index,re,im\n0,0,1,0\n")
        with pytest.raises(DataError, match="header"):
            load_signals(str(path), "csv")

    def test_bad_json_shape_rejected(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text("[[1, 2]]")
        with pytest.raises(DataError, match="signal 0"):
            load_signals(str(path), "json")

    @pytest.mark.parametrize("pair", ['["1", 0]', "[null, 0]", "[[1], [2]]", "[1, [2]]",
                                      f"[{10**400}, 0]", "[1e400, 0]", "[true, 0]"],
                             ids=["string", "null", "nested", "nested-im", "huge-int",
                                  "huge-float", "bool"])
    def test_non_numeric_json_entry_rejected(self, tmp_path, pair):
        path = tmp_path / "sig.json"
        path.write_text(f"[[[1, 0], [0, 0]], [[1, 0], {pair}]]")
        with pytest.raises(DataError, match="signal 1"):
            load_signals(str(path), "json")

    def test_equal_lengths_load_as_one_array(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text("[[[1, 0], [0, -0.0]], [[0.5, 2], [3, 4]]]")
        signals = load_signals(str(path), "json")
        assert isinstance(signals, np.ndarray) and signals.shape == (2, 2)
        np.testing.assert_array_equal(signals, [[1, 0], [0.5 + 2j, 3 + 4j]])
        assert np.signbit(signals[0, 1].imag)

    def test_ragged_json_rejected(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text("[[[1, 0]], [[0, 1], [2, 0]], []]")
        with pytest.raises(DataError, match="signal 1 has length 2, signal 0 has length 1"):
            load_signals(str(path), "json")

    def test_unequal_csv_lengths_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("signal_id,index,re,im\na,0,1,0\na,1,1,0\nb,0,1,0\n")
        with pytest.raises(DataError, match="signal 1 has length 1, signal 0 has length 2"):
            load_signals(str(path), "csv")

    def test_zero_length_signals_load_as_s_by_0(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text("[[], []]")
        assert load_signals(str(path), "json").shape == (2, 0)


def signal_lists():
    """Ragged lists of complex signals, special floats included."""
    parts = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
        [-0.0, 1e300, 5e-324, 2.2250738585072014e-308, float("nan"), float("-inf")])
    value = st.builds(complex, parts, parts)
    return st.lists(st.lists(value, max_size=4).map(
        lambda sig: np.array(sig, dtype=np.complex128)), max_size=5)


def signal_arrays():
    """(S, n) complex arrays, S from 0 and n from 1, special floats included."""
    def pad(signals, width):
        batch = np.zeros((len(signals), width), dtype=np.complex128)
        for row, sig in zip(batch, signals):
            row[:sig.size] = sig[:width]
        return batch
    return st.builds(pad, signal_lists(), st.integers(1, 3))


class TestSaveSignalsJson:
    """save_signals writes exactly the bytes of the indent=2 json encoder."""

    @staticmethod
    def oracle(signals):
        doc = [[[float(v.real), float(v.imag)] for v in np.asarray(sig)]
               for sig in signals]
        return json.dumps(doc, indent=2) + "\n"

    @given(batch=signal_arrays())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_array_input_bytes_match(self, tmp_path, batch):
        path = tmp_path / "out.json"
        save_signals(str(path), batch, "json")
        assert path.read_text() == self.oracle(batch)

    def test_special_values_in_one_block(self, tmp_path):
        # json spells the non-finite values NaN and Infinity, repr nan and inf
        values = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16, 1e22,
                  1.0, 123456789.123, float("nan")]
        signals = np.array(values).view(np.complex128).reshape(1, -1)
        path = tmp_path / "out.json"
        save_signals(str(path), signals, "json")
        doc = [[values[i:i + 2] for i in range(0, len(values), 2)]]
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"

    def test_non_finite_block_before_a_finite_one(self, tmp_path, monkeypatch):
        # the respelling of one block's NaN leaves the next block's text alone
        B = small_blocks(monkeypatch, 1)
        signals = np.arange(4.0 * B).view(np.complex128).reshape(2 * B, 1) + 1e22
        signals[0, 0] = complex(float("nan"), float("-inf"))
        path = tmp_path / "out.json"
        save_signals(str(path), signals, "json")
        text = path.read_text()
        assert text == self.oracle(signals)
        assert text.count("NaN") == text.count("-Infinity") == 1


class TestSaveSignalsCsv:
    """save_signals writes the bytes of one f-string line per value."""

    @staticmethod
    def oracle(signals):
        lines = ["signal_id,index,re,im"]
        for sid, sig in enumerate(signals):
            for index, v in enumerate(sig):
                lines.append(f"{sid},{index},{float(v.real)!r},{float(v.imag)!r}")
        return "\n".join(lines) + "\n"

    @given(signals=signal_arrays())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_line_formula(self, tmp_path, signals):
        path = tmp_path / "out.csv"
        save_signals(str(path), signals, "csv")
        assert path.read_text() == self.oracle(signals)

    @pytest.mark.parametrize("signals,text", [
        ([[complex(-0.0, 5e-324), complex(1e300, float("nan"))],
          [complex(float("inf"), float("-inf")), 0]],
         "0,0,-0.0,5e-324\n0,1,1e+300,nan\n1,0,inf,-inf\n1,1,0.0,0.0\n"),
        (np.zeros((0, 0)), ""), (np.zeros((0, 3)), ""),
    ], ids=["special-values", "0x0", "0x3"])
    def test_fixed_cases(self, tmp_path, signals, text):
        path = tmp_path / "out.csv"
        save_signals(str(path), np.array(signals, dtype=np.complex128), "csv")
        assert path.read_text() == "signal_id,index,re,im\n" + text


SAVE_ORACLES = {"json": TestSaveSignalsJson.oracle, "csv": TestSaveSignalsCsv.oracle}


def small_blocks(monkeypatch, n):
    """Shrink action.BLOCK_BYTES to four rows of 17 values; return the rows of a width-n block."""
    monkeypatch.setattr(importlib.import_module("orbit_embed.action"), "BLOCK_BYTES", 16 * 17 * 4)
    return next(blocks(10**6, max(n, 1))).stop


def special_signals(rng, S, n):
    """(S, n) complex values with signed zeros, subnormals, infinities and NaNs among them."""
    signals = rng.standard_normal((S, n)) + 1j * rng.standard_normal((S, n))
    specials = [-0.0, 5e-324, 1e300, float("inf"), float("-inf"), float("nan")]
    flat = signals.view(np.float64).reshape(-1)
    at = rng.integers(0, flat.size, size=min(flat.size, 12))
    flat[at] = rng.choice(specials, size=at.size)
    return signals


class TestSaveSignalsBlocks:
    """save_signals writes one block of rows at a time, with the bytes of one pass."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("n", [0, 1, 17])
    @pytest.mark.parametrize("count", [lambda B: 0, lambda B: 1, lambda B: B - 1, lambda B: B,
                                       lambda B: B + 1, lambda B: 3 * B + 2],
                             ids=["0", "1", "B-1", "B", "B+1", "3B+2"])
    def test_bytes_across_block_boundaries(self, tmp_path, monkeypatch, rng, fmt, n, count):
        S = count(small_blocks(monkeypatch, n))
        signals = special_signals(rng, S, n)
        path = tmp_path / f"out.{fmt}"
        if S and not n:  # zero-length signals are refused, in any count of blocks
            with pytest.raises(DimensionError, match="at least one entry"):
                save_signals(str(path), signals, fmt)
            assert not path.exists()
            return
        save_signals(str(path), signals, fmt)
        assert path.read_text() == SAVE_ORACLES[fmt](signals)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_one_signal_is_a_batch_of_one(self, tmp_path, rng, fmt):
        signal = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        path = tmp_path / f"out.{fmt}"
        save_signals(str(path), signal, fmt)
        assert path.read_text() == SAVE_ORACLES[fmt]([signal])
        np.testing.assert_array_equal(load_signals(str(path), fmt), signal[None])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("shape", [(), (2, 3, 4), (1, 1, 1, 1)], ids=["0-d", "3-d", "4-d"])
    def test_other_shapes_rejected(self, tmp_path, fmt, shape):
        path = tmp_path / f"out.{fmt}"
        with pytest.raises(DimensionError, match="got shape"):
            save_signals(str(path), np.zeros(shape, dtype=np.complex128), fmt)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("shape", [(), (0,), (1, 0), (2, 0), (2, 3, 4)])
    def test_shapes_refused_as_as_signals_refuses_them(self, tmp_path, fmt, shape):
        signals = np.zeros(shape, dtype=np.complex128)
        with pytest.raises(DimensionError) as expected:
            as_signals(signals)
        path = tmp_path / f"out.{fmt}"
        with pytest.raises(DimensionError) as info:
            save_signals(str(path), signals, fmt)
        assert str(info.value) == str(expected.value)
        assert str(info.value).endswith(f"got shape {shape}")
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, rng, fmt):
        # the disk fills after the first write, as a full device would refuse the rest
        def full_disk_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write

            def write_once(text):
                fh.write = failing_write
                return write(text)

            def failing_write(text):
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = write_once
            return fh

        B = small_blocks(monkeypatch, 3)
        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        path = tmp_path / f"out.{fmt}"
        with pytest.raises(OSError, match="No space left"):
            save_signals(str(path), special_signals(rng, 3 * B, 3), fmt)
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_memory_does_not_grow_with_signals(self, tmp_path, monkeypatch, rng, fmt):
        # blocks a quarter of the shipped size (240 rows of 17 values), so that
        # S = 500 spans blocks and the run stays short
        monkeypatch.setattr(importlib.import_module("orbit_embed.action"), "BLOCK_BYTES", 64 * 1024)
        signals = rng.standard_normal((5_000, 17)) + 1j * rng.standard_normal((5_000, 17))
        path = str(tmp_path / f"out.{fmt}")
        # fills CPython's free lists, which a full collection would empty, so
        # none may run before the measured writes are done
        save_signals(path, signals[:500], fmt)
        peaks = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for S in (500, 5_000):
                tracemalloc.start()
                try:
                    save_signals(path, signals[:S], fmt)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        finally:
            if enabled:
                gc.enable()
        assert peaks[1] <= 1.05 * peaks[0], peaks


class TestVerifyCommand:
    def test_exit_zero_and_reports(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "rep")))
        assert main(["verify", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "invariance: pass" in out
        summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
        assert summary["pass"] is True
        assert set(summary["suites"]) == set(Z12_CONFIG["suites"])
        for name in Z12_CONFIG["suites"]:
            report = json.loads((tmp_path / "rep" / f"{name}.json").read_text())
            assert report["pass"] is True

    def test_minus_identity_config_all_suites_pass(self, tmp_path, capsys):
        doc = {"action": {"m": 2, "weights": [1, 1]},
               "reducer": {"kind": "identity", "seed": 0},
               "suites": {"invariance": {"samples": 100},
                          "separation": {"samples": 100},
                          "lipschitz": {"samples": 200},
                          "nonparallel": {"samples": 100},
                          "sup_norm": {"samples": 200}},
               "seed": 3, "out": str(tmp_path / "rep")}
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
        summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
        assert summary["pass"] is True

    def test_exit_one_on_failing_suite(self, tmp_path, capsys):
        # delta close to the diameter leaves no qualifying pairs: suite fails
        doc = {"action": {"m": 2, "weights": [1, 1]},
               "suites": {"separation": {"samples": 5, "delta": 1.99}},
               "out": str(tmp_path / "rep")}
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 1
        assert "separation: FAIL" in capsys.readouterr().out

    def test_no_suites_writes_a_failed_summary_and_exits_one(self, tmp_path, capsys):
        # a run that checks nothing does not pass
        out_dir = tmp_path / "rep"
        doc = dict(Z12_CONFIG, suites={}, out=str(out_dir))
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().out == ""
        assert [p.name for p in out_dir.iterdir()] == ["summary.json"]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["pass"] is False and summary["suites"] == {}

    def test_identical_runs_are_byte_identical(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(out_dir)))
        assert main(["verify", "--config", config]) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert main(["verify", "--config", config]) == 0
        for p in sorted(out_dir.iterdir()):
            if p.name == "summary.json":
                a = json.loads(first[p.name])
                b = json.loads(p.read_text())
                a.pop("timestamp"), b.pop("timestamp")
                assert a == b
            else:
                assert p.read_bytes() == first[p.name], p.name

    def test_seed_flag_changes_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(out_dir)))
        main(["verify", "--config", config])
        first = (out_dir / "invariance.json").read_bytes()
        main(["verify", "--config", config, "--seed", "8"])
        assert (out_dir / "invariance.json").read_bytes() != first

    def test_malformed_suite_parameter_exits_2(self, tmp_path, capsys):
        doc = dict(Z12_CONFIG, suites={"invariance": {"samples": "10"}},
                   out=str(tmp_path / "rep"))
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 2
        assert "suites.invariance.samples" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_out_of_range_suite_parameter_writes_nothing(self, tmp_path, capsys):
        doc = dict(Z12_CONFIG, suites={"invariance": {"samples": 10},
                                       "separation": {"delta": 5.0}},
                   out=str(tmp_path / "rep"))
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 2
        assert "suites.separation.delta" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("flag,value,field", [("--seed", "-5", "'seed'"),
                                                  ("--out", "", "'out'")])
    def test_overrides_follow_the_config_rules(self, tmp_path, capsys, monkeypatch,
                                               flag, value, field):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "rep")))
        assert main(["verify", "--config", config, flag, value]) == 2
        assert field in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("content", [b'{"seed": 1} \xe9', b"[" * 200_000],
                             ids=["not-utf8", "deep"])
    def test_unparsable_config_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["verify", "--config", str(bad)]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 2
        assert "line" in capsys.readouterr().err


class TestSharedOrbitPass:
    """In one verify run invariance and separation read one orbit pass when
    their sample counts are equal, through a dict that the run creates; each
    writes the bytes it writes alone, also when the counts differ, and the run
    leaves no module state behind."""

    @staticmethod
    def reports(tmp_path, name, suites, n):
        doc = {"action": {"form": "translation", "n": n},
               "reducer": {"kind": "gaussian", "seed": 42},
               "suites": suites, "seed": 7, "out": str(tmp_path / name)}
        assert main(["verify", "--config", write_config(tmp_path, doc, f"{name}.json")]) == 0
        return {suite: (tmp_path / name / f"{suite}.json").read_bytes() for suite in suites}

    @pytest.mark.parametrize("n,invariance,separation", [(8, 40, 40), (32, 3, 5), (32, 5, 3)])
    def test_shared_run_writes_the_bytes_of_each_suite_alone(self, tmp_path, capsys,
                                                             n, invariance, separation):
        suites = {"invariance": {"samples": invariance}, "separation": {"samples": separation}}
        shared = self.reports(tmp_path, "shared", suites, n)
        alone = {**self.reports(tmp_path, "invariance", {"invariance": suites["invariance"]}, n),
                 **self.reports(tmp_path, "separation", {"separation": suites["separation"]}, n)}
        assert shared == alone

    @pytest.mark.parametrize("invariance,separation,passes", [(5, 5, 1), (5, 3, 2)])
    def test_one_orbit_pass_per_sample_count(self, tmp_path, capsys, orbit_pass_calls,
                                             invariance, separation, passes):
        self.reports(tmp_path, "shared", {"invariance": {"samples": invariance},
                                          "separation": {"samples": separation}}, 8)
        assert len(orbit_pass_calls) == passes

    def test_memo_keeps_records_only(self, tmp_path, capsys, monkeypatch):
        memos = []
        for name in ("check_invariance", "separation_margin"):
            def spy(*args, passes=None, suite=getattr(analysis, name)):
                memos.append(passes)
                return suite(*args, passes=passes)

            monkeypatch.setattr(analysis, name, spy)
        self.reports(tmp_path, "shared",
                     {"invariance": {"samples": 5}, "separation": {"samples": 3}}, 8)
        memo, other = memos
        assert memo is other and set(memo) == {(7, 5), (7, 3)}

        def leaves(value):
            if type(value) is dict:
                assert all(type(key) is str for key in value)
                value = tuple(value.values())
            return [v for item in value for v in leaves(item)] if type(value) is tuple else [value]

        # plain numbers: no array, so no (S, m, k) orbit embedding, and no keeper
        values = leaves(tuple(memo.values()))
        assert values and all(v is None or type(v) in (int, float) for v in values)

    def test_no_module_state_changes_in_a_run(self, tmp_path, capsys, monkeypatch):
        def state():
            # every orbit_embed global that is not a function, class or module
            return {(name, key): id(value) for name, module in list(sys.modules.items())
                    if name.split(".")[0] == "orbit_embed"
                    for key, value in vars(module).items()
                    if not callable(value) and not isinstance(value, types.ModuleType)}

        before, seen = state(), []
        for name in ("check_invariance", "separation_margin", "empirical_lipschitz",
                     "nonparallel_falsification", "sup_norm_check", "lower_lipschitz_sweep",
                     "prime_case_report"):
            def spy(*args, suite=getattr(analysis, name), **kwargs):
                seen.append(state())
                return suite(*args, **kwargs)

            monkeypatch.setattr(analysis, name, spy)
        suites = {"invariance": {"samples": 5}, "separation": {"samples": 3},
                  "lipschitz": {"samples": 5}, "nonparallel": {"samples": 5},
                  "sup_norm": {"samples": 5}, "sweep": {}, "prime": {"samples": 5}}
        self.reports(tmp_path, "all", suites, 8)
        assert len(seen) == len(suites)
        assert all(during == before for during in seen) and state() == before

    def test_no_module_level_caches(self):
        # the state above skips callables, so a functools cache on a module
        # function or a method would hold its arguments and results unseen
        for info in pkgutil.iter_modules(orbit_embed.__path__):
            importlib.import_module(f"orbit_embed.{info.name}")
        owners = [vars(module) for name, module in list(sys.modules.items())
                  if name.split(".")[0] == "orbit_embed"]
        owners += [vars(value) for owner in list(owners) for value in owner.values()
                   if isinstance(value, type) and value.__module__.startswith("orbit_embed")]
        assert [key for owner in owners for key, value in owner.items()
                if hasattr(value, "cache_info")] == []


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# per suite, few samples, but more than a state chunk for the 10,000-sample suites
SMALL_SAMPLES = {"invariance": 30, "separation": 40, "lipschitz": 300,
                 "nonparallel": 60, "sup_norm": 300, "prime": 40}


def oracle_draw_blocks(seed, samples, width, draw):
    # the stream's definition: one SeedSequence and Generator per sample, and
    # one point at a time, normed by np.linalg.norm
    for block in blocks(samples, width):
        rows = [oracle_draw(draw, seed, i) for i in range(block.start, block.stop)]
        yield (block.start, *map(np.array, zip(*rows)))


class TestSampleStreamBytes:
    """Every suite of the shipped configs, shared orbit pass included, writes
    the bytes of a run that draws each sample from its own SeedSequence and
    Generator, at the configs' seed and at one of several 32-bit words."""

    @staticmethod
    def reports(tmp_path, name, seed):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        for suite, params in doc["suites"].items():
            params.update({"samples": SMALL_SAMPLES[suite]} if "samples" in params else {})
        doc.update(seed=seed, out=str(tmp_path / "out"))
        tmp_path.mkdir()
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
        return {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()
                if path.name != "summary.json"}

    @pytest.mark.parametrize("seed", [7, 2**40 + 3])
    @pytest.mark.parametrize("name", ["z12_c5", "translation_c8", "minus_identity_c2"])
    def test_reports_match_the_per_sample_streams(self, tmp_path, capsys, monkeypatch,
                                                  name, seed):
        blocked = self.reports(tmp_path / "blocked", name, seed)
        monkeypatch.setattr(analysis, "_draw_blocks", oracle_draw_blocks)
        per_sample = self.reports(tmp_path / "per_sample", name, seed)
        assert len(blocked) > 1 and blocked == per_sample


REPORTS = Path(__file__).resolve().parent / "data" / "reports"


class TestPinnedReports:
    """``verify`` on each shipped config, at its shipped counts, writes the
    pinned bytes of every suite report, ``data/reports/<config>/<suite>.json``
    (made with numpy 2.4.6 on OpenBLAS 0.3.31; another BLAS may round
    otherwise). ``summary.json`` carries a timestamp and is not pinned."""

    @pytest.mark.parametrize("name", ["z12_c5", "translation_c8", "minus_identity_c2"])
    def test_suite_reports_are_the_pinned_bytes(self, tmp_path, capsys, name):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        doc["out"] = str(tmp_path / "out")
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
        written = {path.name: path.read_bytes() for path in (tmp_path / "out").iterdir()
                   if path.name != "summary.json"}
        pinned = {path.name: path.read_bytes() for path in (REPORTS / name).iterdir()}
        assert sorted(pinned) == sorted(f"{suite}.json" for suite in doc["suites"])
        assert sorted(written) == sorted(pinned)
        for file, content in pinned.items():
            assert written[file] == content, file


class TestShippedFixtures:
    """The three shipped fixtures are one set: the configs (pinned reports and
    the benchmark), ``cli.BUILTIN_FIXTURES`` (golden.json) and the conftest
    pipelines of the same name (acceptance tests)."""

    PIPELINES = {"minus_identity_c2": "minus_identity_pipeline",
                 "z12_c5": "z12_pipeline", "translation_c8": "translation_pipeline"}

    def test_one_set_of_names(self):
        configs = sorted(path.stem for path in CONFIGS.glob("*.json"))
        assert configs == sorted(cli.BUILTIN_FIXTURES) == sorted(self.PIPELINES)

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_config_builtin_and_conftest_agree(self, request, name):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        spec = cli.BUILTIN_FIXTURES[name]
        assert {"action": doc["action"], "reducer": doc["reducer"]} == spec
        built = build_pipeline(config_from_dict(spec))
        pipeline = request.getfixturevalue(self.PIPELINES[name])
        assert pipeline.action == built.action
        assert np.array_equal(pipeline.reducer.entries, built.reducer.entries)

    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_verify_writes_strict_json(self, tmp_path, capsys, name):
        # the pinned reports are verify's bytes at the shipped counts
        # (TestPinnedReports); summary.json comes from a run at small counts
        for path in (REPORTS / name).iterdir():
            strict_json(path.read_text())
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        for params in doc["suites"].values():
            params.update({"samples": 5} if "samples" in params else {})
        doc["out"] = str(tmp_path / "out")
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 0
        for path in (tmp_path / "out").iterdir():
            strict_json(path.read_text())


# The package's public names; a change to this set is a change to its API.
EXPORTS = {
    "CyclicAction", "act", "as_signals", "dft", "idft", "make_cyclic_action",
    "make_translation_action", "orbit", "quotient_distance", "to_fourier_domain",
    "Monomial", "PairMonomial", "PowerMonomial", "SeparatingSet",
    "coordinate_order", "is_homogeneous", "is_invariant_monomial",
    "pair_exponents", "separating_set", "separating_set_to_json",
    "LipschitzBound", "Pipeline", "Reducer", "auto_target_dim", "embed",
    "eval_gradient", "eval_invariants", "lipschitz_bound", "make_pipeline",
    "make_reducer", "measure", "operator_norm",
    "SweepResult", "VerificationReport", "check_invariance",
    "empirical_lipschitz", "find_degeneration_witness", "lower_lipschitz_sweep",
    "nonparallel_falsification", "prime_case_report", "prime_collision_pair",
    "prime_fourier_map", "separation_margin", "sup_norm_check", "tilde_rescale",
    "DataError", "DimensionError", "FormError", "HypothesisError",
    "OrbitEmbedError", "ParameterError",
    "__version__",
}


def test_package_exports_the_union_of_module_lists():
    lists = [importlib.import_module(f"orbit_embed.{name}").__all__
             for name in ("action", "invariants", "embed", "analysis", "errors")]
    assert orbit_embed.__all__ == [name for names in lists for name in names] + ["__version__"]
    assert len(set(orbit_embed.__all__)) == len(orbit_embed.__all__) == 52
    assert set(orbit_embed.__all__) == EXPORTS
    assert isinstance(orbit_embed.embed, types.FunctionType)


def test_every_exported_name_exists():
    modules = [orbit_embed] + [importlib.import_module(f"orbit_embed.{info.name}")
                               for info in pkgutil.iter_modules(orbit_embed.__path__)]
    missing = [(module.__name__, name) for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


class TestMonomialsCommand:
    def test_writes_canonical_json(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["monomials", "--config", config]) == 0
        doc = json.loads((tmp_path / "out" / "monomials.json").read_text())
        assert len(doc["monomials"]) == 15
        assert doc["weights"] == [6, 3, 4, 2, 2]

    def test_stdout_mode(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["monomials", "--config", config, "--stdout"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 12

    def test_module_entry_point(self, tmp_path, capsys):
        # python -m orbit_embed.cli runs main and exits with its code
        config = str(CONFIGS / "z12_c5.json")
        assert main(["monomials", "--config", config, "--stdout"]) == 0
        expected = capsys.readouterr().out
        src = str(Path(orbit_embed.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for path, code, out in ((config, 0, expected), (str(tmp_path / "none.json"), 2, "")):
            done = subprocess.run([sys.executable, "-m", "orbit_embed.cli", "monomials",
                                   "--config", path, "--stdout"], env=env, cwd=tmp_path,
                                  capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stdout) == (code, out), done.stderr[-3000:]


class TestGroupOrder:
    """An order whose exponents do not fit int64 exits 2 in every command that
    builds the pipeline; large orders that fit build without a search."""

    @staticmethod
    def config(tmp_path, m, weights=(1,)):
        doc = {"action": {"m": m, "weights": list(weights)}, "out": str(tmp_path / "out")}
        return write_config(tmp_path, doc)

    @pytest.mark.parametrize("m", [2**63, 10**400])
    def test_monomials_refuses(self, tmp_path, capsys, m):
        assert main(["monomials", "--config", self.config(tmp_path, m)]) == 2
        assert "2**63" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [2**63, 10**400])
    def test_verify_refuses(self, tmp_path, capsys, m):
        assert main(["verify", "--config", self.config(tmp_path, m)]) == 2
        assert "2**63" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("m", [2**63, 10**400])
    def test_embed_refuses(self, tmp_path, capsys, m):
        sigs = tmp_path / "sigs.json"
        sigs.write_text(json.dumps([[[1, 0]]]))
        assert main(["embed", "--config", self.config(tmp_path, m),
                     "--signals", str(sigs)]) == 2
        assert "2**63" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("m", [2**63 - 1, 2**40])
    def test_verify_refuses_orders_without_a_table(self, tmp_path, capsys, m):
        assert main(["verify", "--config", self.config(tmp_path, m, (1, 2))]) == 2
        assert f"action.m = {m} is too large" in capsys.readouterr().err

    @pytest.mark.parametrize("p", [2**61 - 1, 100_000_007])
    def test_verify_refuses_a_prime_without_a_table_promptly(self, tmp_path, capsys, p):
        # 2**61 - 1 ran the primality test's trial division to its square root,
        # and 100,000,007 built the list of its 10**8 weights before a refusal
        doc = dict(Z12_CONFIG, suites={"prime": {"p": p}}, out=str(tmp_path / "out"))
        start = time.perf_counter()
        assert main(["verify", "--config", write_config(tmp_path, doc)]) == 2
        assert time.perf_counter() - start < 5.0
        assert "'suites.prime.p'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_large_order_builds_promptly(self, tmp_path, capsys):
        start = time.perf_counter()
        assert main(["monomials", "--config", self.config(tmp_path, 10**9, (1, 2)),
                     "--stdout"]) == 0
        assert time.perf_counter() - start < 5.0
        pair = json.loads(capsys.readouterr().out)["monomials"][2]
        assert pair == {"kind": "pair", "j": 1, "k": 2, "a": 2, "b": 499_999_999}


class TestEmbedCommand:
    def test_embeds_signals(self, tmp_path, capsys):
        sigs = tmp_path / "sigs.json"
        sigs.write_text(json.dumps([[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
                                    [[0, 1], [2, 0], [0, 0], [0, 0], [0, 0]]]))
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["embed", "--config", config, "--signals", str(sigs)]) == 0
        embedded = load_signals(str(tmp_path / "out" / "embeddings.json"), "json")
        assert len(embedded) == 2 and embedded[0].shape == (11,)

    def test_wrong_length_row_names_record(self, tmp_path, capsys):
        sigs = tmp_path / "sigs.json"
        sigs.write_text(json.dumps([[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
                                    [[1, 0], [0, 0]]]))
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["embed", "--config", config, "--signals", str(sigs)]) == 3
        assert "signal 1" in capsys.readouterr().err

    def test_empty_signal_file_writes_empty_array(self, tmp_path, capsys):
        sigs = tmp_path / "sigs.json"
        sigs.write_text("[]")
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        with pytest.warns(UserWarning, match="no signals"):
            assert main(["embed", "--config", config, "--signals", str(sigs)]) == 0
        assert (tmp_path / "out" / "embeddings.json").read_text() == "[]\n"

    @pytest.mark.parametrize("pair", ['["1", 0]', "[null, 0]", "[[1], [2]]",
                                      f"[{10**400}, 0]"],
                             ids=["string", "null", "nested", "huge-int"])
    def test_non_numeric_entry_exits_3(self, tmp_path, capsys, pair):
        sigs = tmp_path / "sigs.json"
        sigs.write_text(f"[[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]], [{pair}]]")
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["embed", "--config", config, "--signals", str(sigs)]) == 3
        assert "signal 1" in capsys.readouterr().err

    def test_boolean_signal_file_exits_3(self, tmp_path, capsys):
        sigs = tmp_path / "sigs.json"
        sigs.write_text(json.dumps([[[True, False]] + [[False, False]] * 4]))
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["embed", "--config", config, "--signals", str(sigs)]) == 3
        assert "signal 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_overflowing_norm_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # ||x|| overflows to inf, so Phi(x) would be NaN
        ok = [[0.5, 0]] + [[0, 0]] * 7
        sigs = tmp_path / "sigs.json"
        sigs.write_text(json.dumps([ok, [[1e200, 0]] + [[0, 0]] * 7, ok]))
        doc = {"action": {"form": "translation", "n": 8},
               "reducer": {"kind": "gaussian", "seed": 42},
               "out": str(tmp_path / "out")}
        config = write_config(tmp_path, doc)
        assert main(["embed", "--config", config, "--signals", str(sigs)]) == 3
        assert "signal 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name,content,fmt,code", [
        ("missing.json", None, "json", 2),
        ("adir", "dir", "json", 2),
        ("latin1.json", b"[[[1, 0]]] \xe9", "json", 3),
        ("deep.json", b"[" * 200_000 + b"]" * 200_000, "json", 3),
        ("deep-signal.json", b"[" * 100 + b"]" * 100, "json", 3),
        ("latin1.csv", b"signal_id,index,re,im\n0,0,1,\xe9\n", "csv", 3),
        ("wide.csv", b"signal_id,index,re,im\n0,0," + b"1" * 200_000 + b",0\n", "csv", 3),
        ("nul.csv", b"signal_id,index,re,im\n0,0,1\x00,0\n", "csv", 3),
    ], ids=["missing", "directory", "not-utf8-json", "deep-json", "deep-signal",
            "not-utf8-csv", "huge-csv-field", "nul-csv"])
    def test_unreadable_signal_file_exits_cleanly(self, tmp_path, capsys,
                                                  name, content, fmt, code):
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        argv = ["embed", "--config", config, "--signals", str(path), "--format", fmt]
        assert main(argv) == code
        assert name in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_signals_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["embed", "--config", config]) == 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_signals_from_the_config(self, tmp_path, capsys, rng, fmt):
        # without --signals, the config's signals section gives the path and format
        x = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        path = tmp_path / f"sigs.{fmt}"
        save_signals(str(path), x, fmt)
        doc = dict(Z12_CONFIG, signals={"path": str(path), "format": fmt},
                   out=str(tmp_path / "out"))
        assert main(["embed", "--config", write_config(tmp_path, doc)]) == 0
        embedded = load_signals(str(tmp_path / "out" / f"embeddings.{fmt}"), fmt)
        expected = embed(build_pipeline(config_from_dict(doc)), x)
        assert embedded.tobytes() == expected.tobytes()


def json_signal_files():
    """Signal files near the JSON format for n = 5: mostly valid signals."""
    number = st.floats(-1e3, 1e3) | st.integers(-5, 5)
    odd = st.sampled_from([10**400, 1e308, float("nan"), float("inf"), -0.0, 5e-324,
                           None, True, "1", [], {}, [1.0]])
    pair = st.lists(number, min_size=2, max_size=2)
    bad_pair = st.lists(number | odd, max_size=3) | odd
    signal = st.lists(pair, min_size=5, max_size=5)
    bad_signal = st.lists(pair | bad_pair, max_size=6) | odd
    doc = st.lists(signal, max_size=4) | st.lists(signal | bad_signal, max_size=4) | odd
    return doc.map(json.dumps)


def csv_signal_files():
    """Signal files near the CSV format for n = 5: valid rows, some fields replaced."""
    value = st.floats(-1e3, 1e3).map(repr)
    odd = st.sampled_from(["nan", "inf", "1e400", "x", "", " 2 ", "-1", "5", '"3"', "0,0"])

    def layout(header, signals, edits):
        rows = [[str(sid), str(index), re, im] for sid, sig in enumerate(signals)
                for index, (re, im) in enumerate(sig)]
        for pos, col, text in edits:
            if rows:
                rows[pos % len(rows)][col] = text
        return "\n".join([header] + [",".join(row) for row in rows]) + "\n"

    signal = st.lists(st.tuples(value, value), min_size=5, max_size=5)
    edit = st.tuples(st.integers(0, 30), st.integers(0, 3), odd)
    header = st.sampled_from(["signal_id,index,re,im"] * 4 + ["id,index,re,im", ""])
    return st.builds(layout, header, st.lists(signal, max_size=4),
                     st.lists(edit, max_size=2))


class TestEmbedFuzz:
    """Any signal file ends in exit 0, 2 or 3, never in a traceback."""

    @staticmethod
    def run_embed(tmp_path, data: bytes, fmt: str) -> int:
        sigs = tmp_path / f"sigs.{fmt}"
        sigs.write_bytes(data)
        out = tmp_path / "out"
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(out)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # files without signals warn
            code = main(["embed", "--config", config, "--signals", str(sigs),
                         "--format", fmt])
            assert code in (0, 2, 3)
            if code == 0:
                embedded = load_signals(str(out / f"embeddings.{fmt}"), fmt)
                assert embedded.shape[1:] in [(0,), (11,)]
                assert np.isfinite(embedded).all()
        return code

    @given(text=json_signal_files())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_near_valid_json(self, tmp_path, capsys, text):
        self.run_embed(tmp_path, text.encode(), "json")

    @given(text=csv_signal_files())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_near_valid_csv(self, tmp_path, capsys, text):
        self.run_embed(tmp_path, text.encode(), "csv")

    @given(data=st.binary(max_size=64), fmt=st.sampled_from(["json", "csv"]))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes(self, tmp_path, capsys, data, fmt):
        self.run_embed(tmp_path, data, fmt)


def per_row_csv_signals(text, path):
    """The CSV format's definition, one row at a time: the signals as an
    array, or the DataError of the first bad row."""
    reader = csv.reader(text.splitlines())
    groups = {}
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
                value = complex(float(row[2]), float(row[3]))
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
    width = len(signals[0]) if signals else 0
    for idx, sig in enumerate(signals):
        if len(sig) != width:
            raise DataError(f"signal {idx} has length {len(sig)}, signal 0 has length {width}")
    return np.array(signals, dtype=np.complex128).reshape(len(signals), width)


def near_csv_texts():
    """CSV texts with every kind of fault the format names: odd fields, rows of
    3 or 5 fields, repeated or missing indices, blank lines, quotes, NUL."""
    sid = st.sampled_from(["0", "1", "2", "a", " 0", '"1"', '"0,1"'])
    index = st.sampled_from(["0", "1", "2", "0", "1", "2", "3", "-1", "x", "", " 2", "1_0",
                             "9" * 25, "-" + "9" * 25, "9" * 5000, '"1"', "١"])
    value = st.sampled_from(["0", "1.5", "-0.0", "2e-308", "nan", "inf", "1e400", "x", "",
                             " 2 ", "1_0.5", "١", "0x1", '"3"', '"0,0"', "1\x00", '"', "b\"c"])
    good = st.tuples(st.sampled_from(["0", "1", "a"]), st.sampled_from(["0", "1", "2"]),
                     st.sampled_from(["0", "1.5", "-0.0"]), st.sampled_from(["0", "2e-308"]))
    row = (good | good | good | st.tuples(sid, index, value, value)
           | st.lists(sid | index | value, min_size=3, max_size=5))
    header = st.sampled_from(["signal_id,index,re,im", " signal_id , index,re,im"]) | st.just(
        "signal_id,index,re,im") | st.just("signal_id,index,re,im") | st.sampled_from(
        ["id,index,re,im", "", '"signal_id"'])
    lines = st.lists(row.map(",".join) | st.just(""), max_size=12)
    return st.builds(lambda head, body, end: end.join([head] + body) + end,
                     header, lines, st.sampled_from(["\n", "\r\n"]))


def valid_csv_texts():
    """Well-formed CSV texts: signals of one length, rows in any order."""
    def layout(values, order):
        rows = [f"{sid},{i},{re!r},{im!r}" for sid, sig in enumerate(values)
                for i, (re, im) in enumerate(sig)]
        return "\n".join(["signal_id,index,re,im"] + [rows[k % len(rows)] for k in order]
                         if rows else ["signal_id,index,re,im"]) + "\n"

    number = st.floats(allow_nan=False, allow_infinity=False)
    signals = st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(st.tuples(number, number), min_size=n, max_size=n),
                           min_size=1, max_size=4))
    return st.builds(lambda values, shuffle: layout(values, shuffle(
        range(sum(map(len, values))))), signals, st.randoms().map(
        lambda r: lambda items: r.sample(list(items), len(items))))


class TestCsvReader:
    """``cli._signals_from_csv`` gives the array of the format's definition,
    ``per_row_csv_signals``, bit for bit, or its error message. The definition
    is written here, apart from the reader it checks."""

    @staticmethod
    def both(text):
        outcomes = []
        for read in (cli._signals_from_csv, per_row_csv_signals):
            try:
                outcomes.append(read(text, "f.csv").tobytes())
            except DataError as exc:
                outcomes.append(str(exc))
        return outcomes

    @given(text=near_csv_texts())
    @settings(max_examples=400, deadline=None)
    def test_faulty_files(self, text):
        new, old = self.both(text)
        assert new == old

    @given(text=valid_csv_texts())
    @settings(max_examples=100, deadline=None)
    def test_valid_files(self, text):
        new, old = self.both(text)
        assert isinstance(new, bytes) and new == old

    @pytest.mark.parametrize("text", [
        "signal_id,index,re,im\n0,0," + "1" * 200_000 + ",0\n",
        "signal_id,index,re,im\n0,x,1,0\n0,0," + "1" * 200_000 + ",0\n",
        "signal_id,index,re,im\n0,0,1,0\n0,0," + "1" * 200_000 + ",0\n",
        "signal_id," + "1" * 200_000 + "\n0,0,1,0\n",
        "signal_id,index,re,im\n0,0,1,0\n0,1,\"2\n3\",0\n",
        f"signal_id,index,re,im\n0,{10**30},1,0\n0,{10**30},1,0\n",
        f"signal_id,index,re,im\n0,{10**30},1,0\n0,{10**30 + 1},1,0\n",
        "signal_id,index,re,im\n\n\n0,1,1,0\n\n0,0,2,0\n",
        "signal_id,index,re,im\na,0,1,0\na,1,1,0\nb,0,1,0\n",
    ], ids=["long-field", "bad-row-before-long-field", "repeat-before-long-field",
            "long-header", "quoted-newline", "huge-repeat", "huge-distinct", "blank-lines",
            "unequal-lengths"])
    def test_edge_files(self, text):
        new, old = self.both(text)
        assert new == old


def per_signal_json_signals(text, path):
    """The JSON format's definition, one signal at a time: the signals as an
    array, or the DataError of the first bad signal. A number is what
    ``errors.is_real`` accepts of what ``json.loads`` returns."""
    if not text.strip():
        return np.zeros((0, 0), dtype=np.complex128)
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"signal file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise DataError(f"{path}: top level must be an array of signals")
    signals = []
    for idx, row in enumerate(doc):
        if not isinstance(row, list) or not all(
                isinstance(pair, list) and len(pair) == 2 and all(map(is_real, pair))
                for pair in row):
            raise DataError(f"{path}: signal {idx} must be an array of [re, im] number pairs")
        try:
            signals.append([complex(float(re), float(im)) for re, im in row])
        except OverflowError as exc:
            raise DataError(f"{path}: signal {idx} has a number too large for a float") from exc
    width = len(signals[0]) if signals else 0
    for idx, sig in enumerate(signals):
        if len(sig) != width:
            raise DataError(f"signal {idx} has length {len(sig)}, signal 0 has length {width}")
    array = np.array(signals, dtype=np.complex128).reshape(len(signals), width)
    finite = np.isfinite(array).all(axis=1)
    if not finite.all():
        raise DataError(f"signal {int(np.argmin(finite))} contains non-finite values "
                        "(NaN, Infinity, or a number too large for a float)")
    return array


def near_json_texts():
    """JSON texts with every kind of fault the format names: strings, null,
    booleans and nested arrays for numbers, ints near and past the float range,
    non-finite floats, pairs of 0-3 entries, signals of unequal or zero length,
    a top level that is not an array, and texts that are not JSON."""
    fits = (st.floats(-1e3, 1e3) | st.integers(-5, 5) | st.integers(2**63, 2**66)
            | st.integers(-2**66, -2**63) | st.sampled_from(
                [2**1024 - 2**971, -(2**1024 - 2**971), 2**53 + 1, 1e308, 5e-324, -0.0]))
    unfit = st.sampled_from([2**1024 - 2**970, -(2**1024 - 2**970), 10**400, float("nan"),
                             float("inf")])
    odd = st.sampled_from([None, True, False, "1", [], {}, [1.0]])
    pair = st.lists(fits, min_size=2, max_size=2)
    near_pair = (st.lists(fits | unfit, min_size=2, max_size=2)
                 | st.lists(fits | unfit | odd, max_size=3) | odd)
    bad_signal = st.lists(pair | near_pair, max_size=4) | odd
    docs = st.integers(0, 3).flatmap(lambda n: st.lists(
        st.lists(pair, min_size=n, max_size=n), max_size=5) | st.lists(
        st.lists(pair, min_size=n, max_size=n) | bad_signal, max_size=5))
    texts = st.sampled_from(["", " \n", "[", "[[[1, 0]]", "nan", "[" * 100_000, "{}"])
    return (docs | odd).map(json.dumps) | texts


class TestJsonReader:
    """``load_signals`` reads a JSON file as the format's definition,
    ``per_signal_json_signals``, does: bit for bit, or with its error message.
    The definition is written here, apart from the reader it checks."""

    @staticmethod
    def both(tmp_path, text):
        path = tmp_path / "f.json"
        path.write_text(text, encoding="utf-8")
        outcomes = []
        for read in (load_signals, lambda name: per_signal_json_signals(text, name)):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # files without signals
                    array = read(str(path))
                outcomes.append((array.dtype, array.shape, array.tobytes()))
            except DataError as exc:
                outcomes.append(str(exc))
        return outcomes

    @given(text=near_json_texts())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_faulty_files(self, tmp_path, text):
        new, old = self.both(tmp_path, text)
        assert new == old

    # ten valid signals of four pairs, before a last signal that breaks the rule
    VALID = ", ".join(["[[1, 0.5], [-2, 3e-3], [0.25, 4], [5, -6.5]]"] * 10)

    @pytest.mark.parametrize("text, expected", [
        ('[[[1, 0]], [[0, 1], [2, 0]], [["x", 0]]]',
         "signal 2 must be an array of [re, im] number pairs"),
        (f'[[[{2**1024 - 2**970}, 0]], [["1", 0]]]',
         "signal 0 has a number too large for a float"),
        (f'[[["1", 0]], [[{2**1024 - 2**970}, 0]]]',
         "signal 0 must be an array of [re, im] number pairs"),
        (f'[[[{2**1024 - 2**970}, "1"]]]', "signal 0 must be an array of [re, im] number pairs"),
        ("[[[NaN, 0]], [[1, 0], [2, 0]]]", "signal 1 has length 2, signal 0 has length 1"),
        ("[[], [[1, 0]]]", "signal 1 has length 1, signal 0 has length 0"),
        ("[[[1, 0]], [[1e400, 0]]]", "signal 1 contains non-finite values "
         "(NaN, Infinity, or a number too large for a float)"),
        ("[[[false, 0]]]", "signal 0 must be an array of [re, im] number pairs"),
        ("[]", (0, 0)),
        ("[[], []]", (2, 0)),
        (f"[[[{2**1024 - 2**971}, {2**63}]]]", (1, 1)),
        (f"[{VALID}, [[1, 0], [2, 0], [3, 0], [null, 0]]]",
         "signal 10 must be an array of [re, im] number pairs"),
        (f"[{VALID}, [[1, 0], [2, 0], [3, 0], [4, 0, 0]]]",
         "signal 10 must be an array of [re, im] number pairs"),
        (f"[{VALID}, [[1, 0], [2, 0], [3, 0], [{2**1024 - 2**970}, 0]]]",
         "signal 10 has a number too large for a float"),
        (f"[{VALID}, [[1, 0], [2, 0], [3, 0]]]", "signal 10 has length 3, signal 0 has length 4"),
        (f"[[[1, -2], [3, 0]], [[{-2**62}, {2**63 + 1}], [{2**53 + 1}, {-(2**1024 - 2**971)}]]]",
         (2, 2)),
        ("[[[1, 0.5], [-0.0, 7]], [[1e308, -3], [18446744073709551616, 5e-324]]]", (2, 2)),
    ], ids=["malformed-after-ragged", "overflow-before-string", "string-before-overflow",
            "string-beside-overflow", "ragged-before-non-finite", "zero-length-first",
            "huge-float-is-non-finite", "false", "no-signals", "zero-length-signals",
            "largest-ints", "null-in-last", "triple-in-last", "int-overflow-in-last",
            "short-last", "all-int", "mixed-int-float"])
    def test_precedence(self, tmp_path, text, expected):
        new, old = self.both(tmp_path, text)
        assert new == old
        if isinstance(expected, str):
            assert new.endswith(f": {expected}") or new == expected
        else:
            assert new[1] == expected


def config_documents():
    """Config documents near the format: a small valid config with some values
    replaced, keys removed or unknown keys added (sizes stay small, so every
    action is cheap to build)."""
    odd = st.sampled_from([True, False, None, -1, 0, 1, 3, 2.5, float("nan"), "", "x",
                           "auto", "translation", "csv", [], [1], [1, True], {}, {"n": 3}])
    action = (st.fixed_dictionaries({"m": st.integers(1, 12), "weights": st.lists(
        st.integers(-3, 12), min_size=1, max_size=4)})
        | st.fixed_dictionaries({"form": st.just("translation"), "n": st.integers(1, 6)}))
    doc = st.fixed_dictionaries({
        "action": action,
        "target_dim": st.sampled_from(["auto", 1, 3]),
        "reducer": st.fixed_dictionaries({
            "kind": st.sampled_from(["auto", "gaussian", "identity"]),
            "seed": st.integers(0, 5)}),
        "suites": st.just({"invariance": {"samples": 3}, "separation": {"delta": 0.5},
                           "sweep": {"epsilons": [0.1, 0.01], "witness": [0, 1]},
                           "prime": {"p": 5}}),
        "seed": st.integers(0, 5),
        "out": st.just("out"),
        "signals": st.just({"path": "s.json", "format": "json"}),
    })
    edit = st.tuples(st.integers(0, 60), st.sampled_from(["replace", "delete", "add"]), odd)
    return st.builds(edit_config, doc, st.lists(edit, max_size=3))


def edit_config(doc, edits):
    def slots(node):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            yield node, key
            yield from slots(value)

    doc = copy.deepcopy(doc)
    for pick, op, value in edits:
        found = list(slots(doc))  # the root keeps 4 of its 7 keys, so never empty
        container, key = found[pick % len(found)]
        if op == "replace":
            container[key] = copy.deepcopy(value)
        elif op == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[f"extra{pick}"] = copy.deepcopy(value)
        else:
            container.append(copy.deepcopy(value))
    return doc


def must_refuse(node) -> bool:
    """A boolean anywhere or an added key in any object: no config takes either."""
    if isinstance(node, dict):
        return any(key.startswith("extra") or must_refuse(value)
                   for key, value in node.items())
    if isinstance(node, list):
        return any(map(must_refuse, node))
    return isinstance(node, bool)


class TestConfigFuzz:
    """Any config document ends in exit 0 or 2, never in a traceback."""

    @given(doc=config_documents())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_near_valid_config(self, tmp_path, capsys, monkeypatch, doc):
        monkeypatch.chdir(tmp_path)  # relative "out" values land here
        code = main(["monomials", "--config", write_config(tmp_path, doc)])
        assert code in (0, 2)
        if must_refuse(doc):
            assert code == 2


class TestSweepCommand:
    def test_emits_table(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["sweep", "--config", config]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,quotient_distance,embedding_gap,ratio"
        assert len(lines) == 6
        doc = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert doc["pass"] is True and 0.8 <= doc["slope"] <= 1.2

    def test_translation_without_sweep_entry_uses_defaults(self, tmp_path, capsys):
        doc = {"action": {"form": "translation", "n": 8}, "out": str(tmp_path / "out")}
        assert main(["sweep", "--config", write_config(tmp_path, doc)]) == 0
        result = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert result["epsilons"] == [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        assert result["pass"] is True

    @staticmethod
    def sweep_config(tmp_path, epsilons, witness):
        doc = json.loads((CONFIGS / "z12_c5.json").read_text())
        doc.update(suites={"sweep": {"epsilons": epsilons, "witness": witness}},
                   out=str(tmp_path / "out"))
        return write_config(tmp_path, doc)

    @pytest.mark.parametrize("command, written", [
        ("verify", {"sweep.json", "summary.json"}), ("sweep", {"sweep.json", "sweep.csv"})])
    def test_failing_sweep_writes_its_reports_and_exits_1(self, tmp_path, capsys,
                                                         command, written):
        # witness (1, 0) fits a slope of about 0.012; the failed gate was a
        # numpy.bool, which the JSON writer refused with a traceback
        config = self.sweep_config(tmp_path, [0.1, 0.03, 0.01, 0.003, 0.001], [1, 0])
        assert main([command, "--config", config]) == 1
        out = tmp_path / "out"
        assert {path.name for path in out.iterdir()} == written
        docs = [strict_json((out / name).read_text()) for name in written
                if name.endswith(".json")]
        assert all(doc["pass"] is False for doc in docs)

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_one_epsilon_exits_2(self, tmp_path, capsys, command):
        # one ratio has no slope: the fit warned (RankWarning) and the gate failed
        config = self.sweep_config(tmp_path, [0.1], [3, 4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", config]) == 2
        assert "suites.sweep.epsilons" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("epsilons, zero", [
        ([1e-100, 1e-200, 1e-300], "quotient distance at eps=1e-200 is 0 in float64"),
        ([0.1, 1e-100], "embedding gap at eps=1e-100 is 0 in float64")],
        ids=["distance", "gap"])
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_underflow_exits_2(self, tmp_path, capsys, command, epsilons, zero):
        # x_eps and x never share an orbit, so a 0 is underflow: the first case
        # was blamed on "the same orbit", the second warned in np.log and crashed
        config = self.sweep_config(tmp_path, epsilons, [3, 4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", config]) == 2
        assert zero in capsys.readouterr().err


class TestFixturesCommand:
    def test_regenerates_golden_values(self, tmp_path):
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["fixtures", "--config", config]) == 0
        doc = json.loads((tmp_path / "out" / "golden.json").read_text())
        assert set(doc) == {"minus_identity_c2", "z12_c5", "translation_c8",
                            "prime_case_p5"}
        for name in ("minus_identity_c2", "z12_c5", "translation_c8"):
            assert doc[name]["operator_norm_disagreement"] <= 1e-8
            assert doc[name]["gradient_fd_max_error"] <= 1e-5

    def test_matches_pinned_golden_file(self, golden_path):
        pinned = json.loads(golden_path.read_text())
        current = golden_fixture_values(seed=7)
        assert set(current) == set(pinned)
        for section, values in pinned.items():
            for key, value in values.items():
                got = current[section][key]
                if isinstance(value, bool):
                    assert got is value, (section, key)
                elif isinstance(value, float) and value != 0.0:
                    assert got == pytest.approx(value, rel=1e-9), (section, key)
                else:
                    assert got == pytest.approx(value, abs=1e-12), (section, key)
