"""Set-up time of oseenspec: import it and finish one warm-up CLI call.

Run as a script from a checkout, it prints the seconds as its last line.
run.py calls timed_setup() in its own process, runs this script in
SETUP_PROBES child processes, and reports the median as setup_s.  The
warm-up call goes through grid doubling, the K_k kernel, the complex
profile functions and a dense eig, so the first BLAS and LAPACK calls
pay their start-up cost here and not in the timed passes.
"""

import contextlib
import io
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WARMUP = ["spectrum", "--alpha", "100", "--k", "2", "--n", "32", "--format", "json"]


def timed_setup():
    t0 = time.perf_counter()
    from oseenspec import cli
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(WARMUP)
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError("warm-up call %s exited %d" % (WARMUP, rc))
    return elapsed


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    print(repr(timed_setup()))
