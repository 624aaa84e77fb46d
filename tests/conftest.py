import numpy as np
import pytest

from orbit_embed import (analysis, make_cyclic_action, make_pipeline,
                         make_translation_action, oracles, separating_set)

# Pass/fail lines recorded by the acceptance tests, echoed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def minus_identity_action():
    return make_cyclic_action(2, [1, 1])


@pytest.fixture(scope="session")
def z12_action():
    return make_cyclic_action(12, [6, 3, 4, 2, 2])


@pytest.fixture(scope="session")
def translation_action():
    return make_translation_action(8)


@pytest.fixture(scope="session")
def z12_set(z12_action):
    return separating_set(z12_action)


@pytest.fixture(scope="session")
def minus_identity_pipeline(minus_identity_action):
    return make_pipeline(minus_identity_action)


@pytest.fixture(scope="session")
def z12_pipeline(z12_action):
    return make_pipeline(z12_action, seed=42)


@pytest.fixture(scope="session")
def translation_pipeline(translation_action):
    return make_pipeline(translation_action, seed=42)


@pytest.fixture
def orbit_pass_calls(monkeypatch):
    """The ``(samples, seed)`` of every orbit pass computed during the test."""
    calls = []
    orbit_pass = analysis._orbit_pass

    def spy(action, f, samples, seed, width):
        calls.append((samples, seed))
        return orbit_pass(action, f, samples, seed, width)

    monkeypatch.setattr(analysis, "_orbit_pass", spy)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture(scope="session")
def golden_path():
    from pathlib import Path
    return Path(__file__).parent / "data" / "golden.json"


def oracle_draw(draw, seed, index):
    """Sample ``index``'s ``analysis._Draw`` by its definition: its own
    SeedSequence and Generator, then each draw in turn, one point at a time."""
    rng = oracles.sample_rng(seed, index)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, size=draw.points) if draw.scaled else None
    points = [oracles.sphere_point(rng, draw.n) for _ in range(draw.points)]
    if draw.scaled:
        points = [s * z for s, z in zip(scales, points)]
    if draw.order:
        points.append(int(rng.integers(1, draw.order)) if draw.order > 1 else 0)
    return tuple(points)


# a random unit signal, for the tests that need one
unit_vector = oracles.sphere_point
