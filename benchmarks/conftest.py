"""Shared benchmark helpers: result artifact directory and reporting."""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def write_artifact(name: str, text: str) -> None:
    """Persist a rendered figure table under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")


@pytest.fixture(scope="session")
def artifact_writer():
    return write_artifact

