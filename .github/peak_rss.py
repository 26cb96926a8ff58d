"""Run a command; fail when it fails or its peak RSS exceeds a bound.

Usage: python .github/peak_rss.py BOUND_MIB ERR_PATH COMMAND [ARG...]

The command's stderr goes to ERR_PATH, and the peak RSS of the command and
its children, in MiB, is printed on this script's own stderr.  The exit code
is the command's, or 1 when the command exits 0 above the bound.
"""

import resource
import subprocess
import sys

bound, err, *command = sys.argv[1:]
with open(err, "w") as fh:
    code = subprocess.call(command, stderr=fh)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
print(f"peak RSS {peak} MiB, bound {bound} MiB", file=sys.stderr)
sys.exit(code or peak > int(bound))
