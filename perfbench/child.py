"""Launch one ``derleib`` CLI invocation the way the console script does.

    python3 perfbench/child.py STAMP TRACE INVOCATION [CLI ARGS...]

After ``import derleib.cli`` the launcher writes ``time.perf_counter()`` and
the path of the imported package to the file STAMP; on Linux that clock is
system-wide, so the benchmark process can subtract its own spawn time from
it to get the set-up time.  With no CLI arguments it stops there.  When
TRACE is not ``-``, the layer spans are recorded (see ``spans.py``) and
written to the file TRACE on exit.
"""

import sys
import time

import derleib.cli


def main(stamp_path, trace_path, invocation, cli_args) -> int:
    imported = time.perf_counter()
    with open(stamp_path, "w", encoding="utf-8") as fh:
        fh.write("%r %s" % (imported, derleib.cli.__file__))
    if not cli_args:
        return 0
    if trace_path == "-":
        return derleib.cli.main(cli_args)
    import spans  # only the traced run pays for the recorder
    recorder = spans.Recorder()
    recorder.install()
    try:
        return derleib.cli.main(cli_args)
    finally:
        recorder.dump(trace_path, invocation)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]))
