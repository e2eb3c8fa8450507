"""Run one `sprcause` CLI job inside this interpreter, traced or not.

    python3 perfbench/job.py --trace 0|1 --result FILE [--spans FILE]
        [--job ID] [--points M] -- identify|validate ...

The job is timed from the CLI call to its return, after the imports, so a
traced and an untraced run of the same job compare only the job itself.
The result file gets the elapsed time, the exit code and, when traced, the
per-layer metrics of tracer.layer_metrics; the spans go to --spans.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import tracer as tracing


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--job", type=int, default=0, help="job id stamped on every span")
    parser.add_argument("--points", type=int, default=None,
                        help="points per validate estimate (M), for analyses_per_point")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from sprcause.cli import main as cli_main

    recorder = tracing.Tracer(args.job) if args.trace else None
    uninstall = tracing.install(recorder) if recorder else None
    start = time.perf_counter()
    try:
        cli_main(cli_args, standalone_mode=False)
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    finally:
        elapsed = time.perf_counter() - start
        if uninstall:
            uninstall()

    result = {"elapsed_s": elapsed, "exit_code": code}
    if recorder:
        result["layers"] = tracing.layer_metrics(recorder.spans, args.points)
        if args.spans:
            origin = recorder.spans[0][1] if recorder.spans else start
            Path(args.spans).write_text(json.dumps({
                "fields": ["name", "start_s", "end_s", "parent", "job", "attrs"],
                "spans": [[n, s - origin, e - origin, p, j, a]
                          for n, s, e, p, j, a in recorder.spans],
            }), encoding="utf-8")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
