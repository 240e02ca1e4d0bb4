"""Runs one cacheplace CLI command as a benchmark repetition.

Usage: python3 child.py RECORD_JSON TRACE_JSON|- CLI_ARGS...

Writes RECORD_JSON with CLOCK_MONOTONIC timestamps (process start, import
done, spec resolved, CLI returned), the import time, the exit code and any
uncaught exception. With a TRACE_JSON path, the public functions of every
cacheplace module are traced and the trace is written there at exit; with
"-", only ``cli.parse_spec`` is wrapped, to timestamp the end of set-up.
"""

import sys
import time

T_START = time.monotonic()

import json  # noqa: E402
import traceback  # noqa: E402


def main():
    record_path, trace_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    record = {"t_start": T_START, "exit": None}
    t0 = time.monotonic()
    import cacheplace
    from cacheplace import cli
    record["import_s"] = time.monotonic() - t0
    record["package_file"] = cacheplace.__file__

    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    parse_spec = cli.parse_spec

    def timed_parse_spec(*args, **kwargs):
        spec = parse_spec(*args, **kwargs)
        record["t_spec"] = time.monotonic()
        return spec

    cli.parse_spec = timed_parse_spec
    try:
        record["exit"] = cli.main(cli_args)
    except BaseException:
        record["exception"] = traceback.format_exc()
        raise
    finally:
        record["t_end"] = time.monotonic()
        with open(record_path, "w") as fh:
            json.dump(record, fh)
        if tracer is not None:
            from checks import solution_residuals

            tracer.dump(trace_path, solution_residuals)
    return record["exit"]


if __name__ == "__main__":
    sys.exit(main())
