"""Time one workload set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

``run.py`` starts this to repeat set-up without anything cached from an
earlier repetition; it prints the seconds as its last stdout line.
"""

import sys

import run

if __name__ == "__main__":
    run.pin_environment()
    _, seconds, warm = run.timed_setup(sys.argv[1], int(sys.argv[2]))
    if warm.failed:
        sys.exit("set-up warm-up failed: " + "; ".join(warm.reasons))
    print(repr(seconds))
