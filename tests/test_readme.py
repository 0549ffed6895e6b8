"""The README's Library usage example runs against the current API."""

from pathlib import Path

from starkcomb import BeatRow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_example_runs():
    section = README.read_text().split("## Library usage", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, f"{README}:Library usage", "exec"), namespace)
    spectrum = namespace["spectrum"]
    assert spectrum.dtype == BeatRow and len(spectrum) == 441
    assert not spectrum.flags.writeable
    assert namespace["beat_dbm"].shape == (441,)
    assert len(namespace["positions_cm"]) == namespace["cfg"].comb.line_count
