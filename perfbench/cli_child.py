"""Traced CLI invocation: ``python3 perfbench/cli_child.py SPANS_FILE -- ARGV...``.

Runs ``quditkit.cli.main(ARGV)`` in this fresh process with the span
wrappers installed, so caches start cold exactly as in an untraced
``python -m quditkit.cli`` run, then writes this process's spans and
per-function totals to SPANS_FILE and exits with main's status.
"""

from __future__ import annotations

import json
import sys

import common
from tracer import Tracer


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_FILE -- ARGV...")
    import quditkit
    import quditkit.cli

    common.check_imported_from_checkout(quditkit)
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = quditkit.cli.main(argv)
    finally:
        sys.stdout.flush()
        info = quditkit.basis.cached_tensors.cache_info()
        with open(spans_file, "w") as fh:
            json.dump({"stats": tracer.stats, "peak_mb": tracer.peak_mb,
                       "csv_bytes": tracer.csv_bytes, "cache": [info.hits, info.misses],
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
