"""Spawns and times the program's processes on behalf of run.py.

A child's peak resident set (ru_maxrss) also counts the memory of the
process that spawned it, up to the moment of exec.  The benchmark process
holds mpmath and the outputs it checks, so it would inflate every
reading; this launcher stays small and does the spawning instead.

Protocol, over stdin and stdout: run.py writes a command as one JSON
line; the launcher runs it with stdout on a pipe and stderr in the file
named by argv[1], reads all output, reaps the child with os.wait4, and
answers with one JSON line {"seconds", "code", "cpu_s", "rss_kib",
"bytes", "stderr"} followed by exactly "bytes" bytes of the child's stdout.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    reply = sys.stdout.buffer
    with open(sys.argv[1], "w+b") as stderr:
        for line in sys.stdin:
            stderr.seek(0)
            stderr.truncate()
            start = time.perf_counter()
            proc = subprocess.Popen(json.loads(line), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=stderr)
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            stderr.seek(0)
            header = {
                "seconds": seconds,
                "code": proc.returncode,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_kib": usage.ru_maxrss,
                "bytes": len(stdout),
                "stderr": stderr.read().decode("utf-8", "replace") if proc.returncode else "",
            }
            reply.write(json.dumps(header).encode() + b"\n")
            reply.write(stdout)
            reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
