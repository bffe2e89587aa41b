"""Rewrite the two tables of pinned bytes from the code as it stands.

    python3 tests/regen_references.py

writes tests/walk_stream_reference.json (test_sim.walk_stream_digests)
and tests/cli_output_reference.json (test_cli.cli_output_digests).  Run
it only for a change that means to alter the random streams or a
command's output, and list every entry that moved in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import test_cli  # noqa: E402
import test_sim  # noqa: E402


def write_table(path: Path, table: dict) -> None:
    """One entry per line, in key order."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_table(test_sim.WALK_STREAM_TABLE, test_sim.walk_stream_digests())
    with tempfile.TemporaryDirectory() as tmp:
        write_table(test_cli.CLI_OUTPUT_TABLE, test_cli.cli_output_digests(Path(tmp)))
