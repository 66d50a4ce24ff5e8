"""Small process that starts the benchmark's children and reports their cost.

A child's ru_maxrss counts the resident size of the process it was forked
from, so children are forked from this process, which stays small, and not
from the benchmark, which holds the expected answers. One JSON request per
line on stdin, one JSON reply per line on stdout; it exits at end of input.
"""

import json
import os
import resource
import sys
import time


def run(req: dict) -> dict:
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(req["cwd"])
            stdin = os.open(os.devnull, os.O_RDONLY)
            out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            for fd, target in ((stdin, 0), (out, 1), (err, 2)):
                os.dup2(fd, target)
            resource.setrlimit(resource.RLIMIT_AS, (req["mem_limit"], req["mem_limit"]))
            resource.setrlimit(resource.RLIMIT_CPU, (req["cpu_limit"], req["cpu_limit"]))
            os.execve(req["argv"][0], req["argv"], req["env"])
        finally:
            os._exit(127)
    timeout = req.get("timeout")
    if timeout is None:
        _, status, usage = os.wait4(pid, 0)
    else:
        # poll, so that a child that stops making progress can be killed
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.perf_counter() - start > timeout:
                os.kill(pid, 9)
                _, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.02)
    wall = time.perf_counter() - start
    return {"code": os.waitstatus_to_exitcode(status), "wall": wall, "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
