#!/usr/bin/env python3
"""Print the traced memory around each layer call of one `oodcf` CLI run.

Usage: python scripts/trace_memory.py ARGV...

Runs `oodcf.cli.main(ARGV)` once in this process under `tracemalloc`, with
every layer function that `perfbench/spans.py` lists in `TARGETS` wrapped,
plus the fit and the per-seed scoring of `oodcf.cli`. After the run's own
output it prints one line per call, in call order and indented under its
caller: the traced memory when the call starts and when it returns, and the
peak while it runs, in MB (2^20 B); the first line is the whole run.
Only allocations made after the import of `oodcf.cli` count, so the
numbers leave out the interpreter and numpy themselves. A wrapped call's
arguments stay alive until it returns, so a layer that lets go of an
argument early (`split` of the loaded table) peaks higher here than it does
unwrapped.
"""

import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spans  # noqa: E402  perfbench/spans.py: the layer list and its installer

import oodcf.cli  # noqa: E402

# the cli's own per-seed stages, wrapped as the layers are
STAGES = (("cli.fit", "fit_pipeline"), ("cli.seed_scores", "_seed_scores"),
          ("cli.test_scores", "_test_scores"))
MB = float(1 << 20)


class MemoryTracer(spans.Tracer):
    """`spans.Tracer` with wrappers that record traced memory, not time."""

    def _wrap(self, span_name, target, fn):
        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:  # the caller's peak so far, before it is reset
                caller = self.spans[self._stack[-1]]
                caller["peak"] = max(caller["peak"], peak)
            tracemalloc.reset_peak()
            span = {"name": f"{span_name} ({target})", "depth": len(self._stack),
                    "start": current, "peak": current}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span["end"], peak = tracemalloc.get_traced_memory()
                span["peak"] = max(span["peak"], peak)
                if self._stack:  # the caller's peak covers this call's
                    caller = self.spans[self._stack[-1]]
                    caller["peak"] = max(caller["peak"], span["peak"])

        return wrapper


def main(argv) -> int:
    tracer = MemoryTracer()
    tracer.install(oodcf.cli)
    for span_name, name in STAGES:
        if hasattr(oodcf.cli, name):
            setattr(oodcf.cli, name, tracer._wrap(span_name, name, getattr(oodcf.cli, name)))
    run = tracer._wrap("cli", "main", oodcf.cli.main)
    tracemalloc.start()
    try:
        code = run(argv)
    finally:
        tracemalloc.stop()
    print(f"{'start':>8} {'end':>8} {'peak':>8}  layer (MB traced; exit code {code})")
    for s in tracer.spans:
        print(f"{s['start'] / MB:8.2f} {s['end'] / MB:8.2f} {s['peak'] / MB:8.2f}  "
              f"{'  ' * s['depth']}{s['name']}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
