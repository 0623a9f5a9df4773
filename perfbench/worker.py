"""One workload in a fresh interpreter: set up, then run its commands.

    python3 worker.py setup   PLAN
    python3 worker.py measure PLAN RESULT --seconds S
    python3 worker.py trace   PLAN RESULT

PLAN is the JSON file `run.py` writes: the `src` directory, the work
directory and the command list.  `setup` imports `waug`, builds the CLI
parser, loads the inputs and runs the warm-up command, then exits; `run.py`
times it from outside.  `measure` does the same set-up, then runs whole
rounds of the command list until S seconds have passed (at least two
rounds), timing a chunk of the reference kernel of `yardstick.py` before
every `ruler_stride`-th command and once after the last round, and writes
per-command times, kernel times, exit codes and report digests to RESULT.
`trace` runs one plain round, one round with layer spans and one counting
round under cProfile.

Every command is `waug.cli.main(argv + ["--out", FILE])`.  `gc.collect()`
runs before each command, outside the timed interval, because a real CLI
command starts with an empty heap.  Reports of the first round stay on disk
for `run.py` to check; later rounds keep only a digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time

import yardstick


def _digest(path: str):
    if not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _setup(plan):
    """Import, parser, inputs, warm-up: what a user pays before the first
    real command of a session."""
    sys.path.insert(0, plan["src"])
    from waug.cli import build_parser, main
    build_parser()
    for path in plan["inputs"]:
        with open(path, "rb") as fh:
            data = fh.read()
        if path.endswith(".json"):
            json.loads(data)
    warm = plan["commands"][plan["warmup"]]
    out = os.path.join(plan["work"], "warmup.out")
    _quiet(main, warm["argv"] + ["--out", out])
    return main


class _Discard:
    """A stderr that drops the CLI's per-command timing line."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def _quiet(fn, argv):
    saved = sys.stderr
    sys.stderr = _Discard()
    try:
        return fn(argv)
    finally:
        sys.stderr = saved


def run_round(main, plan, r: int, hook=None, ruler=None):
    """One pass over the command list.  Returns per-command records
    [seconds, exit code or None, exception name or None, digest].  With a
    `ruler` (a list), one chunk of the reference kernel is timed before
    every `plan["ruler_stride"]`-th command and appended to it."""
    records = []
    for i, cmd in enumerate(plan["commands"]):
        out = os.path.join(plan["work"], f"{i}.r{r}.out")
        if os.path.exists(out):
            os.remove(out)
        argv = cmd["argv"] + ["--out", out]
        gc.collect()
        if ruler is not None and i % plan["ruler_stride"] == 0:
            ruler.append(yardstick.chunk())
        if hook is not None:
            hook.before(i)
        err = None
        rc = None
        t0 = time.perf_counter()
        try:
            rc = _quiet(main, argv)
        except Exception as exc:  # a crash is a failed command, not a crash of the bench
            err = type(exc).__name__
        dt = time.perf_counter() - t0
        if hook is not None:
            hook.after(i)
        digest = _digest(out)
        if r > 0 and os.path.exists(out):
            os.remove(out)
        records.append([dt, rc, err, digest])
    return records


def measure(plan, seconds: float):
    main = _setup(plan)
    rounds, chunks = [], []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        chunks.append([])
        rounds.append(run_round(main, plan, len(rounds), ruler=chunks[-1]))
    chunks[-1].append(yardstick.chunk())     # so the last command has one after it
    return {"rounds": rounds, "yardstick": chunks,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def trace(plan):
    import layers
    main = _setup(plan)
    plain = run_round(main, plan, 0)
    spans = layers.Spans()
    spans.install()
    try:
        traced = run_round(main, plan, 1)
    finally:
        spans.uninstall()
    counter = layers.CallCounter()
    counted = run_round(main, plan, 2, hook=counter)
    return {"rounds": [plain, traced, counted],
            "layers": spans.metrics(), "counts": counter.metrics(),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(argv):
    mode, plan_path = argv[0], argv[1]
    with open(plan_path) as fh:
        plan = json.load(fh)
    if mode == "setup":
        _setup(plan)
        return 0
    result_path = argv[2]
    if mode == "measure":
        result = measure(plan, float(argv[argv.index("--seconds") + 1]))
    elif mode == "trace":
        result = trace(plan)
    else:
        raise SystemExit(f"worker: unknown mode {mode!r}")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
