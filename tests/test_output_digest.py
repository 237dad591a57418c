"""Library output bytes against the digests recorded in tools/output_digest.txt.

The full tool also hashes search profiles, 100x100 sweeps and CLI runs;
this test recomputes only the library lines and the 30x30 sweep, which
take about a second.  A change that means to alter outputs regenerates
the file with ``python tools/output_digest.py . > tools/output_digest.txt``.
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


def test_library_and_small_sweep_match_the_recorded_digests(tmp_path, capsys):
    recorded = (TOOLS / "output_digest.txt").read_text().splitlines()
    here = tool.platform_line()
    if recorded[0] != here:
        pytest.skip(
            f"digests were recorded on '{recorded[0]}', this is '{here}'; "
            "another numpy, BLAS or CPU may round differently"
        )
    tool.digest_library()
    tool.digest_sweeps(tmp_path, seeds=())
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(greycast.ModelVariant) + 5 + 1
    assert [line for line in lines if line not in recorded] == []
