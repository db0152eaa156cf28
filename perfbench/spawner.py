"""Starts CLI pipelines for the benchmark from a process that stays small.

On Linux a child's ru_maxrss starts at the resident size of the process that
forked it. The benchmark process grows while it checks outputs, so it does not
start the CLI children itself: it starts this script once, with `python3 -S`,
and sends it one pipeline per request.

Request, one line on stdin: stages separated by \\x1e, arguments by \\x1f.
Reply on stdout: the line "<exit codes> <ru_maxrss KiB per stage> <n>", lists
comma-separated, then the n bytes the last stage printed. Once it can take
requests it prints the line "ready - 0", a reply with no output.
"""

import os
import sys


def run_pipeline(stages: list[list[str]], devnull: int) -> tuple[list, list, bytes]:
    pids = []
    stdin = devnull
    for argv in stages:
        read_end, write_end = os.pipe()
        pids.append(
            os.posix_spawn(
                sys.executable,
                [sys.executable, "-m", "collatzgraphs", *argv],
                os.environ,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, stdin, 0),
                    (os.POSIX_SPAWN_DUP2, write_end, 1),
                    (os.POSIX_SPAWN_DUP2, devnull, 2),
                ],
            )
        )
        os.close(write_end)
        if stdin != devnull:
            os.close(stdin)
        stdin = read_end
    chunks = []
    while chunk := os.read(stdin, 1 << 16):
        chunks.append(chunk)
    os.close(stdin)
    codes, rss = [], []
    for pid in pids:
        _, status, usage = os.wait4(pid, 0)
        codes.append(os.waitstatus_to_exitcode(status))
        rss.append(usage.ru_maxrss)
    return codes, rss, b"".join(chunks)


def main() -> None:
    devnull = os.open(os.devnull, os.O_RDWR)
    sys.stdout.buffer.write(b"ready - 0\n")
    sys.stdout.buffer.flush()
    for line in sys.stdin.buffer:
        stages = [stage.split("\x1f") for stage in line.decode().rstrip("\n").split("\x1e")]
        codes, rss, out = run_pipeline(stages, devnull)
        head = f"{','.join(map(str, codes))} {','.join(map(str, rss))} {len(out)}\n"
        sys.stdout.buffer.write(head.encode() + out)
        sys.stdout.buffer.flush()


if __name__ == "__main__":
    main()
