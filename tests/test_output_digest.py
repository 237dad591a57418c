"""Output bytes against the digests recorded in tools/output_digest.txt.

The full tool also hashes the other searches, the other 100x100 sweeps
and the other CLI runs; these tests recompute only the library lines,
the 30x30 sweep, the 100x100 sweeps at seed 0 and at the two-word seed
9628820819983981567 (the path perfbench's sweep seeds take), the nuclear
searches and the ``reproduce`` runs, which take about three seconds together.  A change that means to alter outputs
regenerates the file with
``python tools/output_digest.py . > tools/output_digest.txt``.
"""

import importlib.util
from pathlib import Path

import pytest

import greycast

TOOLS = Path(__file__).resolve().parents[1] / "tools"

_spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)
tool.gc = greycast
tool.TREE = TOOLS.parent


def recorded_lines() -> list[str]:
    """The recorded digests, or a skip when they come from another platform."""
    recorded = (TOOLS / "output_digest.txt").read_text().splitlines()
    here = tool.platform_line()
    if recorded[0] != here:
        pytest.skip(
            f"digests were recorded on '{recorded[0]}', this is '{here}'; "
            "another numpy, BLAS or CPU may round differently"
        )
    return recorded


def test_library_and_small_sweep_match_the_recorded_digests(tmp_path, capsys):
    recorded = recorded_lines()
    tool.digest_library()
    tool.digest_sweeps(tmp_path, seeds=(0, 9628820819983981567))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(greycast.ModelVariant) + 5 + 3
    assert [line for line in lines if line not in recorded] == []


def test_reproduce_runs_match_the_recorded_digests(tmp_path, capsys):
    recorded = recorded_lines()
    tool.digest_cli(tmp_path, [["reproduce", "--case", case] for case in greycast.CASES])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(greycast.CASES) == 4
    assert [line for line in lines if line not in recorded] == []


def test_nuclear_searches_match_the_recorded_digests(tmp_path, capsys):
    # The kernel's bits reach the profile CSVs; the scalar scan tests
    # compare those values only to a relative 1e-4.
    recorded = recorded_lines()
    tool.digest_searches(tmp_path, names=("nuclear",))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(tool.SEARCH_VARIANTS) * 2 * 2 * 2 == 24
    assert [line for line in lines if line not in recorded] == []
