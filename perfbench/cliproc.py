"""One pwsum CLI job, with the time marks the benchmark needs.

    python3 perfbench/cliproc.py CONFIG MARKS_JSON [--trace]

Runs `pwsum.cli.main([CONFIG])` unchanged and writes MARKS_JSON on the way
out: "parsed" (perf_counter when `parse_config` returned) and "done" (when
`main` returned, after the last CSV is closed).  perf_counter reads the
system-wide monotonic clock, so the parent compares these marks with the
time it launched the process.  With --trace the public functions of every
pwsum module are wrapped first and the spans are added to MARKS_JSON.
The exit code is the CLI's own.
"""

import json
import sys
import time

import pwsum.cli as cli


def main(argv) -> None:
    config, marks_path = argv[1], argv[2]
    tracer = None
    if "--trace" in argv[3:]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    marks = {}
    parse = cli.parse_config

    def parse_config(path):
        cfg = parse(path)
        marks["parsed"] = time.perf_counter()
        return cfg

    cli.parse_config = parse_config
    try:
        cli.main([config])
    finally:
        marks["done"] = time.perf_counter()
        if tracer is not None:
            marks["spans"] = tracer.spans
        with open(marks_path, "w") as fh:
            json.dump(marks, fh)


if __name__ == "__main__":
    main(sys.argv)
