"""Set-up probe: import the CLI and complete one warm-up call in a fresh process.

Usage: python3 setup_probe.py SRC_DIR ARGV...
Prints {"setup_s": seconds, "rc": exit code} as one JSON line.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
from quantoda import cli  # noqa: E402

rc = cli.dispatch(sys.argv[2:], out=io.StringIO())
print(json.dumps({"setup_s": time.perf_counter() - T0, "rc": rc}))
