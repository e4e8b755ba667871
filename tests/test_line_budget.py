"""The lines under src/sentinelsim/, held to the number committed here.

A change that grows the package raises LINES in the same commit and says
why in CHANGES.md; a change that shrinks it lowers LINES the same way. So
every step in the package's size shows in a diff.
"""

import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINES = 1919


def test_src_holds_its_committed_line_count():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "sentinelsim", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    assert total == LINES, f"src/sentinelsim/ has {total} lines; update LINES and say why"
