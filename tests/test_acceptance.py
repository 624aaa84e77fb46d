"""Acceptance suite: every exit criterion at its stated tolerance.

Each test computes its criterion, records one pass/fail line (echoed in the
terminal summary), and enforces the stated runtime limit.
"""

import json
import time

import numpy as np
import pytest

from orbit_embed import (auto_target_dim, check_invariance, coordinate_order,
                         empirical_lipschitz, eval_invariants, is_homogeneous,
                         is_invariant_monomial, lower_lipschitz_sweep,
                         make_cyclic_action, make_pipeline,
                         nonparallel_falsification, operator_norm,
                         prime_case_report, separating_set, separation_margin,
                         sup_norm_check)
from orbit_embed.cli import main as cli_main
from orbit_embed.oracles import gradient_discrepancy, sample_rng, sphere_point, svd_operator_norm

from conftest import ACCEPTANCE_LINES
from test_invariants import Z12_EXAMPLE_MONOMIALS

SEED = 7


class timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def record(number: int, name: str, ok: bool, detail: str, elapsed: float, limit: float):
    ok = bool(ok) and elapsed < limit
    line = (f"{'PASS' if ok else 'FAIL'} criterion {number:2d} ({name}): {detail} "
            f"[{elapsed:.2f}s / limit {limit:g}s]")
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def fixture_pipelines(minus_identity_pipeline, z12_pipeline, translation_pipeline):
    return {"minus_identity_c2": minus_identity_pipeline,
            "z12_c5": z12_pipeline,
            "translation_c8": translation_pipeline}


def test_criterion_01_monomial_exactness():
    rng = np.random.default_rng(20240901)
    worst_n = 0
    with timer() as t:
        for _ in range(200):
            m = int(rng.integers(1, 25))
            n = int(rng.integers(1, 13))
            action = make_cyclic_action(m, rng.integers(0, m, size=n))
            sset = separating_set(action)
            assert sset.size == n * (n + 1) // 2
            for mono in sset.monomials:
                assert is_invariant_monomial(action, mono)
            # a-minimality re-verified by an independent exhaustive scan
            for p in sset.pairs:
                e_j = action.weights[p.j - 1]
                e_k = action.weights[p.k - 1]
                m_k = coordinate_order(m, e_k)
                found = next((a, b) for a in range(1, m + 1) for b in range(m_k)
                             if (a * e_j + b * e_k) % m == 0)
                assert found == (p.a, p.b)
            worst_n = max(worst_n, n)
    record(1, "monomial exactness", True,
           f"200 random actions (m<=24, n<=12) all exact and minimal",
           t.elapsed, 10.0)


def test_criterion_02_z12_fixture_membership(z12_set):
    with timer() as t:
        present = [mono in z12_set.monomials for mono in Z12_EXAMPLE_MONOMIALS]
    record(2, "Z12/C5 fixture", all(present) and z12_set.size == 15,
           f"all 12 example-map monomials in the generated set of 15",
           t.elapsed, 1.0)


def test_criterion_03_invariance(fixture_pipelines):
    worst = {}
    with timer() as t:
        for name, pipeline in fixture_pipelines.items():
            report = check_invariance(pipeline, samples=1000, seed=SEED)
            worst[name] = report.statistic
            assert report.passed
    record(3, "invariance", max(worst.values()) <= 1e-10,
           "max relative deviation "
           + ", ".join(f"{k}={v:.2e}" for k, v in worst.items()),
           t.elapsed, 30.0)


def test_criterion_04_upper_lipschitz_bound(fixture_pipelines):
    details = []
    ok = True
    with timer() as t:
        for name, pipeline in fixture_pipelines.items():
            report = empirical_lipschitz(pipeline, samples=10_000, seed=SEED)
            bound = report.extra["bound"]
            ok &= report.passed and report.statistic <= bound * (1 + 1e-9)
            norm_gap = abs(operator_norm(pipeline.reducer)
                           - svd_operator_norm(pipeline.reducer.entries))
            ok &= norm_gap <= 1e-8
            details.append(f"{name}: ratio {report.statistic:.2f} <= {bound:.2f}, "
                           f"norm vs SVD {norm_gap:.1e}")
    record(4, "upper Lipschitz 3m||l||", ok, "; ".join(details), t.elapsed, 60.0)


def test_criterion_05_sup_norm_lemma(fixture_pipelines):
    details = []
    ok = True
    with timer() as t:
        for name, pipeline in fixture_pipelines.items():
            sset = pipeline.sset
            report = sup_norm_check(sset, samples=10_000, seed=SEED)
            ok &= report.passed
            fd_err = 0.0
            for start in range(0, 10_000, 1_000):
                x = np.array([sphere_point(sample_rng(SEED, i), sset.n)
                              for i in range(start, start + 1_000)])
                fd_err = max(fd_err, float(gradient_discrepancy(sset, x).max()))
            ok &= fd_err <= 1e-5
            details.append(f"{name}: |F|<={report.extra['max_component']:.4f}, "
                           f"|dF|<={report.extra['max_partial']:.2f} (m={sset.action.m}), "
                           f"fd {fd_err:.1e}")
    record(5, "sup-norm lemma <= m", ok, "; ".join(details), t.elapsed, 60.0)


def test_criterion_06_separation(fixture_pipelines, golden_path):
    pinned = json.loads(golden_path.read_text())
    details = []
    ok = True
    with timer() as t:
        for name, pipeline in fixture_pipelines.items():
            report = separation_margin(pipeline, samples=1000, delta=0.1, seed=SEED)
            margin = report.statistic
            leakage = report.extra["same_orbit_leakage"]
            ok &= report.passed
            ok &= margin > 0 and leakage <= 1e-10 and margin > 1e3 * leakage
            regression = pinned[name]["separation_margin"]
            ok &= margin == pytest.approx(regression, rel=1e-9)
            details.append(f"{name}: margin {margin:.4f} "
                           f"(pinned {regression:.4f}), leakage {leakage:.1e}")
    record(6, "orbit separation", ok, "; ".join(details), t.elapsed, 30.0)


def test_criterion_07_nonparallel(fixture_pipelines):
    details = []
    ok = True
    with timer() as t:
        for name, pipeline in fixture_pipelines.items():
            report = nonparallel_falsification(pipeline, samples=1000,
                                               delta=0.1, seed=SEED)
            ok &= report.passed
            ok &= report.extra["same_orbit_lambda_error"] <= 1e-8
            ok &= report.extra["same_orbit_residual"] <= 1e-8
            ok &= report.statistic > 0
            details.append(f"{name}: min residual {report.statistic:.3f}, "
                           f"|lambda-1| {report.extra['same_orbit_lambda_error']:.1e}")
    record(7, "non-parallel property", ok, "; ".join(details), t.elapsed, 30.0)


def test_criterion_08_no_lower_lipschitz(z12_pipeline):
    epsilons = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
    with timer() as t:
        result = lower_lipschitz_sweep(z12_pipeline, epsilons, witness=(3, 4))
        ok = result.passed and 0.8 <= result.slope <= 1.2
        ok &= result.ratios[-1] / result.ratios[0] <= 0.5
        ok &= all(abs(d - e) <= e ** 2
                  for d, e in zip(result.quotient_distances, result.epsilons))
    record(8, "lower-Lipschitz degeneration", ok,
           f"slope {result.slope:.3f} in [0.8, 1.2], ratio collapse "
           f"{result.ratios[0]:.3f} -> {result.ratios[-1]:.5f}, |d-eps| <= eps^2",
           t.elapsed, 5.0)


def test_criterion_09_prime_case_demo():
    with timer() as t:
        report = prime_case_report(p=5, samples=200, seed=SEED)
        ok = (report.passed
              and report.statistic <= 1e-10
              and report.extra["collision_map_gap"] <= 1e-10
              and report.extra["collision_orbit_distance"] > 0.5
              and not report.extra["collision_same_orbit"])
    record(9, "prime-case failure demo", ok,
           f"invariant to {report.statistic:.1e} yet collision pair at orbit "
           f"distance {report.extra['collision_orbit_distance']:.3f}",
           t.elapsed, 1.0)


def test_criterion_10_homogeneous_case():
    rng = np.random.default_rng(SEED)
    with timer() as t:
        truth = [is_homogeneous(make_cyclic_action(3, [1, 1, 1])),
                 not is_homogeneous(make_cyclic_action(12, [6, 3, 4, 2, 2])),
                 not is_homogeneous(make_cyclic_action(4, [2, 2])),
                 is_homogeneous(make_cyclic_action(2, [1]))]
        ok = all(truth)
        for m, n in [(3, 4), (5, 3), (2, 6)]:
            action = make_cyclic_action(m, [1] * n)
            sset = separating_set(action)
            N = n * (n + 1) // 2
            expected_dim = min(2 * n, N)
            ok &= auto_target_dim(action, N) == expected_dim
            ok &= make_pipeline(action, seed=SEED).target_dim == expected_dim
            for _ in range(20):
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                x /= np.linalg.norm(x)
                c = complex(*rng.uniform(-0.7, 0.7, size=2))
                dev = np.abs(eval_invariants(sset, c * x)
                             - c ** m * eval_invariants(sset, x)).max()
                ok &= dev <= 1e-10
    record(10, "homogeneous case", ok,
           "T=omega*I detected exactly; F(cx)=c^m F(x); target dim min(2n, N)",
           t.elapsed, 10.0)


def test_criterion_11_determinism(tmp_path):
    config = {
        "action": {"m": 12, "weights": [6, 3, 4, 2, 2]},
        "reducer": {"kind": "gaussian", "seed": 42},
        "suites": {"invariance": {"samples": 200},
                   "separation": {"samples": 200},
                   "lipschitz": {"samples": 500},
                   "nonparallel": {"samples": 200},
                   "sup_norm": {"samples": 500},
                   "sweep": {"witness": [3, 4]},
                   "prime": {}},
        "seed": SEED,
        "out": str(tmp_path / "reports"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "reports"
    with timer() as t:
        with timer() as t_first:
            assert cli_main(["verify", "--config", str(config_path)]) == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert cli_main(["verify", "--config", str(config_path)]) == 0
        with timer() as t_compare:
            ok = True
            for p in sorted(out_dir.iterdir()):
                if p.name == "summary.json":
                    a = json.loads(first[p.name])
                    b = json.loads(p.read_text())
                    a.pop("timestamp"), b.pop("timestamp")
                    ok &= a == b
                else:
                    ok &= p.read_bytes() == first[p.name]
        ok &= t_compare.elapsed < t_first.elapsed
    record(11, "determinism", ok,
           f"two verify runs byte-identical across "
           f"{len(first)} report files (timestamp excluded)",
           t.elapsed, 60.0)
