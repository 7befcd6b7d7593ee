"""Start `sigfuse serve` with the protocol layers traced.

Usage: serve_traced.py SPANS_JSON ROLES_JSON -- <sigfuse serve arguments>

ROLES_JSON maps "<in>x<out>" dense shapes to role names. The server runs
until SIGINT, as `sigfuse serve` does; its spans are then written to
SPANS_JSON once every handler thread has finished.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sigfuse  # noqa: E402
from sigfuse import cli  # noqa: E402

from tracing import Tracer, install_server  # noqa: E402


def main() -> int:
    spans_path, roles_json, sep, *serve_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: serve_traced.py SPANS_JSON ROLES_JSON -- <serve args>")
    roles = json.loads(roles_json)
    tracer = Tracer()
    install_server(tracer, sigfuse, lambda i, o: roles.get(f"{i}x{o}", f"{i}x{o}"))
    try:
        return cli.main(["serve", *serve_args])
    finally:
        deadline = time.monotonic() + 10
        while threading.active_count() > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
