"""Makefile hygiene: one shared RUN variable carries PYTHONPATH=src.

Every gate target must expand to commands that put the source tree on
PYTHONPATH via the shared ``RUN`` variable — a target that spells
``PYTHONPATH=src`` by hand (or forgets it entirely) drifts the moment
the variable changes. ``make -n`` keeps this a pure dry-run smoke test:
nothing is built, only the expanded recipes are inspected.
"""

import re
import subprocess
from pathlib import Path

import pytest

from repro.bench.gates import GATES

REPO = Path(__file__).resolve().parent.parent
MAKEFILE = REPO / "Makefile"

#: every gate-table entry's make target, plus the perf-gate aggregate
GATE_TARGETS = ["perf-gate"] + [f"{name}-gate" for name in GATES]

#: every entry's baseline refresh, plus the perf-gate aggregate
REFRESH_TARGETS = ["refresh-baselines"] + [
    f"refresh-{name}-baseline" for name in GATES
]


def dry_run(target):
    result = subprocess.run(
        ["make", "-n", target],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, (
        f"make -n {target} failed:\n{result.stderr}"
    )
    return result.stdout


def test_makefile_declares_shared_run_variable():
    text = MAKEFILE.read_text()
    assert re.search(r"^RUN\s*=\s*PYTHONPATH=src ", text, re.M), (
        "Makefile must define RUN = PYTHONPATH=src ..."
    )


def test_no_target_spells_pythonpath_by_hand():
    """PYTHONPATH=src appears exactly once: in the RUN definition."""
    text = MAKEFILE.read_text()
    assert text.count("PYTHONPATH=src") == 1


@pytest.mark.parametrize("target", GATE_TARGETS)
def test_gate_target_exists_and_uses_pythonpath(target):
    out = dry_run(target)
    python_lines = [
        line
        for line in out.splitlines()
        if "python" in line and "-m" in line
    ]
    assert python_lines, f"{target} expanded to no python invocations"
    for line in python_lines:
        assert "PYTHONPATH=src" in line, (
            f"{target} runs python without PYTHONPATH=src: {line}"
        )


@pytest.mark.parametrize("target", ["test", "test-fast"])
def test_pytest_targets_use_pythonpath(target):
    out = dry_run(target)
    assert "PYTHONPATH=src" in out


def test_every_gate_has_a_refresh_partner():
    """Each *-gate compares against a baseline someone can re-record.

    The refresh target must dry-run, and every python command it
    expands to must go through RUN, like the gate targets.
    """
    for target in REFRESH_TARGETS:
        python_lines = [
            line for line in dry_run(target).splitlines() if "python" in line
        ]
        assert python_lines, f"{target} expanded to no python invocations"
        for line in python_lines:
            assert "PYTHONPATH=src" in line, (
                f"{target} runs python without PYTHONPATH=src: {line}"
            )


@pytest.mark.parametrize("name", sorted(GATES))
def test_gate_targets_run_the_table_entry(name):
    """NAME-gate and refresh-NAME-baseline both run ``cli gate NAME``."""
    assert f"repro.bench.cli gate {name} --json results/{name}-gate" in (
        dry_run(f"{name}-gate")
    )
    assert f"repro.bench.cli gate {name} --json benchmarks/baselines" in (
        dry_run(f"refresh-{name}-baseline")
    )
