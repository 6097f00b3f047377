import tracemalloc

import pytest

from freescale.pipeline import CascadeConfig

_acceptance_outcomes = []


def traced_peak(fn):
    """Peak bytes numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_outcomes.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_line("acceptance criteria:")
    for name, outcome in _acceptance_outcomes:
        terminalreporter.write_line(f"  {name}: {outcome.upper()}")


@pytest.fixture
def tiny_config():
    """Small, fast configuration for unit tests (not the acceptance scale)."""
    return CascadeConfig(
        prompt="tiny test scene",
        levels=(1, 2),
        steps=10,
        base_latent_size=8,
        vae_patch=2,
        base_width=8,
        time_embedding_dim=16,
        cond_dim=8,
        seed=3,
    )
