"""Reference loop that samples the speed of the CPU it shares with a job.

The benchmark starts it at nice 19 on the same CPU as the job processes,
so it gets a small share of that CPU throughout the job and slows or
speeds up with it.  On SIGTERM it prints "<chunks> <cpu seconds>" and
exits.
"""

import os
import signal
import sys
import time


def chunk():
    """Interpreter-bound work of the kind eqhom does: int arithmetic,
    list and dict traffic."""
    row = [0] * 64
    seen = {}
    for i in range(2000):
        row[i & 63] += i * i % 7
        seen[i & 127] = row[i & 63]
    return seen


def main():
    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    os.nice(19)
    chunks = 0
    start = time.thread_time()
    try:
        while True:
            chunk()
            chunks += 1
    finally:
        sys.stdout.write(f"{chunks} {time.thread_time() - start}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
