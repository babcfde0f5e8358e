"""List the check records that differ between two ``dzv verify --format json``
reports, for regenerating a golden report on purpose.

    python tests/report_diff.py OLD.json NEW.json

Records are matched by suite and label.  Each changed record prints one
line: its label, the fields whose values differ, and the ratio of the old to
the new ``residual_radius`` (above 1 when the new residual is narrower).  A
record found in one report only is listed as added or removed.  Report-level
fields such as ``wall_time`` are not compared.  The exit code is 0 whether
or not records differ.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction


def _records(reports: list) -> dict:
    return {(r["suite"], c["label"]): c for r in reports for c in r["checks"]}


def _radius_ratio(old: dict, new: dict) -> str:
    """old / new residual_radius, or '-' when either record has none."""
    a, b = old.get("residual_radius"), new.get("residual_radius")
    if not a or not b:
        return "-"
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return "1" if a == 0 else "inf"
    return f"{float(a / b):.3g}"


def diff(old: list, new: list) -> list[str]:
    """One line per changed, added or removed record, in the order the
    records appear (the old report's first)."""
    before, after = _records(old), _records(new)
    lines = []
    for key in [*before, *(k for k in after if k not in before)]:
        label = key[1]
        if key not in after:
            lines.append(f"{label}: removed")
        elif key not in before:
            lines.append(f"{label}: added")
        else:
            a, b = before[key], after[key]
            fields = [f for f in [*a, *(f for f in b if f not in a)] if a.get(f) != b.get(f)]
            if fields:
                lines.append(f"{label}: {', '.join(fields)} "
                             f"(residual_radius old/new {_radius_ratio(a, b)})")
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for line in diff(old, new):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
