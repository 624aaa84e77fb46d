import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbit_embed.cli import (ConfigError, config_from_dict,
                             golden_fixture_values, load_signals, main,
                             save_signals)
from orbit_embed.errors import DataError

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
    ])
    def test_diagnostics_name_the_field(self, doc, fragment):
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            config_from_dict(doc)


class TestSignalIO:
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
            assert load_signals(str(path), "json") == []

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("signal_id,index,re,im\n0,0,inf,0\n")
        with pytest.raises(DataError, match="signal 0"):
            load_signals(str(path), "csv")

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
                                      f"[{10**400}, 0]", "[1e400, 0]"],
                             ids=["string", "null", "nested", "nested-im", "huge-int",
                                  "huge-float"])
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

    def test_ragged_json_loads_as_list(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text("[[[1, 0]], [[0, 1], [2, 0]], []]")
        signals = load_signals(str(path), "json")
        assert [sig.tolist() for sig in signals] == [[1], [1j, 2], []]


def signal_lists():
    """Ragged lists of complex signals, special floats included."""
    parts = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
        [-0.0, 1e300, 5e-324, 2.2250738585072014e-308, float("nan"), float("-inf")])
    value = st.builds(complex, parts, parts)
    return st.lists(st.lists(value, max_size=4).map(
        lambda sig: np.array(sig, dtype=np.complex128)), max_size=5)


class TestSaveSignalsJson:
    """save_signals writes exactly the bytes of the indent=2 json encoder."""

    @staticmethod
    def oracle(signals):
        doc = [[[float(v.real), float(v.imag)] for v in np.asarray(sig)]
               for sig in signals]
        return json.dumps(doc, indent=2) + "\n"

    @given(signals=signal_lists())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_indent_encoder(self, tmp_path, signals):
        path = tmp_path / "out.json"
        save_signals(str(path), signals, "json")
        assert path.read_text() == self.oracle(signals)

    @given(signals=signal_lists(), width=st.integers(0, 3))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_array_input_bytes_match(self, tmp_path, signals, width):
        batch = np.zeros((len(signals), width), dtype=np.complex128)
        for row, sig in zip(batch, signals):
            row[:sig.size] = sig[:width]
        path = tmp_path / "out.json"
        save_signals(str(path), batch, "json")
        assert path.read_text() == self.oracle(batch)


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

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", "--config", str(bad)]) == 2
        assert "line" in capsys.readouterr().err


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

    def test_missing_signals_is_usage_error(self, tmp_path, capsys):
        config = write_config(tmp_path, dict(Z12_CONFIG, out=str(tmp_path / "out")))
        assert main(["embed", "--config", config]) == 2


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
