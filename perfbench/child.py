"""One measured run of a workload, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds "calls" (argv lists for oodcf.cli.main), "trace" (bool)
and "result" (path of the JSON file to write). The file receives the wall
time and exit code of each main call, the process's peak resident set
size and, when traced, the recorded spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import spans  # this file's directory leads sys.path
        tracer = spans.Tracer()
    import oodcf.cli
    if tracer is not None:
        tracer.install(oodcf.cli)

    walls, codes = [], []
    for argv in spec["calls"]:
        t0 = time.perf_counter()
        codes.append(oodcf.cli.main(argv))
        walls.append(time.perf_counter() - t0)

    result = {"walls": walls, "codes": codes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "wrapper_loaded": "spans" in sys.modules}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
