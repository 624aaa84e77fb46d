"""One repeat of a workload, in a fresh interpreter.

Times a cold ``cli.load_config`` + ``cli.build_pipeline`` (setup), then one
in-process ``cli.main(argv)`` call (the command), and writes the timings,
the exit code, the bytes the command read and the peak RSS to ``--result``
as JSON. With ``--trace`` the package's functions are wrapped after the
setup step (see spans.py), so the spans cover only the command, and the
per-span summary goes into the result too. ``run.py`` starts this script; run it
directly only to debug one repeat:

    PYTHONPATH=src python3 perfbench/worker.py --config C --result R.json \\
        -- verify --config C --out reports
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback


def bytes_read() -> tuple[int, int] | None:
    """Bytes this process has read through read(2) so far, and the bytes this
    call itself read to find out; None where the kernel does not report it."""
    try:
        with open("/proc/self/io") as fh:
            text = fh.read()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("rchar:"):
            return int(line.split()[1]), len(text)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="config timed by the setup step")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--trace", default=None, help="record spans, write them here")
    parser.add_argument("argv", nargs="*", help="cli.main arguments; none = setup only")
    args = parser.parse_args()

    t0 = time.perf_counter()
    from orbit_embed import cli
    result = {"import_s": time.perf_counter() - t0, "rc": None, "error": None}

    t0 = time.perf_counter()
    config = cli.load_config(args.config)
    cli.build_pipeline(config)
    result["setup_s"] = time.perf_counter() - t0

    # Spans start after the setup step, so they cover only what cli.main does.
    recorder = None
    if args.trace:
        import spans
        recorder = spans.install()

    if args.argv:
        sink = io.StringIO()
        read_before = bytes_read()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                result["rc"] = cli.main(args.argv)
        except SystemExit as exc:
            result["rc"] = exc.code
        except Exception:
            result["error"] = traceback.format_exc()
        result["command_s"] = time.perf_counter() - t0
        read_after = bytes_read()
        if read_before is not None and read_after is not None:
            result["bytes_read"] = read_after[0] - read_before[0] - read_before[1]

    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:
        result["spans"] = recorder.summary()
        recorder.write(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
