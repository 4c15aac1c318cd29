"""Traced child: one splitfree CLI invocation, in process, under the shims.

Usage: python3 perfbench/trace_child.py <invocation id> <spans.json> <cli args...>

Behaves like `python3 -m splitfree.cli <cli args...>` (same stdout, stderr
and exit code) and writes its spans to <spans.json>.
"""

import json
import sys
import time


def main() -> None:
    invocation, spans_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import splitfree.cli as cli
    imported = time.monotonic()

    import tracer

    tr = tracer.Tracer(invocation)
    tracer.install(tr)
    try:
        code = cli.run(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"imported": imported, "spans": tr.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
