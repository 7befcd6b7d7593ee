"""Run a command and write its peak resident set size.

Usage: peak_rss.py OUT -- COMMAND...

Once COMMAND has exited, its peak RSS in KiB goes to the file OUT, and
this process exits with COMMAND's code. Signal the process group to stop
COMMAND; this process outlives it.

Why a wrapper: exec carries the starting process's RSS high-water mark
into the new program's ru_maxrss. Started straight from run.py, the
server would report run.py's own peak, which set-up makes large. This
process is small, so the peak it sees for its child is the child's own.
"""

from __future__ import annotations

import resource
import signal
import subprocess
import sys
from pathlib import Path


def main() -> int:
    out, sep, *cmd = sys.argv[1:]
    if sep != "--" or not cmd:
        raise SystemExit("usage: peak_rss.py OUT -- COMMAND...")
    # the group's SIGINT is for the command; wait for it to finish
    signal.signal(signal.SIGINT, lambda signum, frame: None)
    code = subprocess.call(cmd)
    Path(out).write_text(str(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
    return code


if __name__ == "__main__":
    sys.exit(main())
