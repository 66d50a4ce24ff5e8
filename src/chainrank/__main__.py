"""The process entry of `python -m chainrank` and of the `chainrank` script.

run() runs cli.main and, once it has returned, registers an atexit handler
that flushes standard output and standard error and ends the process with
os._exit and main's exit code. The interpreter's final garbage collection
and module teardown, which cost more than the work of a small command, are
skipped. A profiler that reports after the module returns (python -m
cProfile -m chainrank ...) still reports, since atexit handlers run after
it. Handlers run last registered first, and this one never returns, so an
atexit handler registered before the command ended does not run.
"""

import atexit
import os
import sys

from .cli import main


def _exit(code: int) -> None:
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


def run() -> int:
    code = main()
    atexit.register(_exit, code)
    return code


if __name__ == "__main__":
    sys.exit(run())
