"""A pinlef process with the external trace installed, for traced cli-cold runs.

Usage: pinlef_child.py STATS_FILE COMMAND FILE [pinlef options]

Runs ``pinlef.cli.main`` on the remaining arguments exactly as the console
script does, then writes the span aggregates to STATS_FILE as JSON.
"""

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    import pinlef.cli as cli

    status = cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
