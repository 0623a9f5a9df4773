"""Benchmark of the `waug` CLI: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload balls|decompose|certify \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
The benchmark writes every input from the seed into a scratch directory
under `perfbench/.work/`, which it removes again.  The workload runs in a
fresh interpreter (`worker.py`), so its peak memory is its own.  After the
run this process checks the first round's reports against the benchmark's
own arithmetic (`checks.py`) and every later report against the first one
byte for byte.

With `--trace 0` the last line of standard output carries the end-to-end
metrics, their times put at the reference speed of `yardstick.py` by the
kernel chunks timed around each command and before each set-up; with
`--trace 1` it carries the per-layer metrics of one plain,
one spanned and one counted round (see `layers.py`).  Lines before it give
the environment, the reference kernel timed at the start and at the end, the
latency tail and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

SETUP_RUNS = 11
SETUP_CHUNKS = 3          # reference-kernel chunks timed before each set-up
WORKER_TIMEOUT = 150


def _child_env():
    env = dict(os.environ)
    # the program must meet the interpreter's default int->str digit limit
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def _worker(*args, timeout=WORKER_TIMEOUT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, env=_child_env(), cwd=ROOT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perfbench: worker {args[0]} exited {proc.returncode}")


def _setup_seconds(plan_path: str) -> float:
    t0 = time.perf_counter()
    _worker("setup", plan_path, timeout=60)
    return time.perf_counter() - t0


def _setups(plan_path: str):
    """Times of SETUP_RUNS fresh-interpreter set-ups, and for each the
    median of SETUP_CHUNKS reference-kernel chunks timed in this process
    just before it."""
    setups, kernel = [], []
    for _ in range(SETUP_RUNS):
        kernel.append(statistics.median(yardstick.chunk() for _ in range(SETUP_CHUNKS)))
        setups.append(_setup_seconds(plan_path))
    return setups, kernel


def _at_reference(times, kernel):
    """Each time scaled by REFERENCE_S / the kernel time measured with it."""
    return [t * yardstick.REFERENCE_S / k for t, k in zip(times, kernel)]


def _bracketing(chunks, n: int, stride: int):
    """For each command of each round, the mean of the two kernel chunks
    around it: the last one timed before it and the first one timed after
    it (the first chunk of the next round, for the end of a round; the
    worker times one more chunk after the last round)."""
    flat = [t for rnd in chunks for t in rnd]
    out, base = [], 0
    for rnd in chunks:
        row = []
        for i in range(n):
            g = base + i // stride
            row.append(statistics.fmean(flat[g:g + 2]))
        out.append(row)
        base += len(rnd)
    return out


def _calibrate() -> float:
    """Seconds for five passes of the reference kernel; tells a slow
    machine from a slow program."""
    return sum(yardstick.chunk() for _ in range(5))


def _environment() -> dict:
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit}


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _tail(samples):
    """Highest whole percentile with at least ten samples beyond it; None
    below forty samples, where a tail would be no tail."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    p = (100 * (n - 10)) // n
    rank = (p * n + 99) // 100          # ceil(p% of n), 1-based
    return {"p": p, "ms": ordered[rank - 1] * 1000, "beyond": n - rank, "samples": n}


def _verdicts(cmds, rounds, work):
    """Per command: None when every round is correct, else the reason.
    Round 0 is checked against the benchmark's arithmetic, later rounds
    against round 0 byte for byte."""
    verdicts = []
    for i, cmd in enumerate(cmds):
        _, rc, err, _ = rounds[0][i]
        path = os.path.join(work, f"{i}.r0.out")
        reason = checks.verdict(cmd, rc, err, path)
        if reason is None:
            for r, rec in enumerate(rounds[1:], start=1):
                if rec[i][1:] != rounds[0][i][1:]:
                    reason = f"round {r} differs from round 0 (report not byte-stable)"
                    break
        verdicts.append(reason)
    return verdicts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "waug", "cli.py")):
        print(f"perfbench: no waug sources under {src}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                            dir=os.path.join(HERE, ".work"))
    try:
        return _run(args, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, src, work) -> int:
    info = {"workload": args.workload, "seed": args.seed, **_environment(),
            "loadavg_start": _loadavg(), "calibration_start_s": _calibrate()}
    cmds, warmup = workloads.make(args.workload, args.seed, os.path.join(work, "inputs"))
    inputs = sorted(os.path.join(work, "inputs", f)
                    for f in os.listdir(os.path.join(work, "inputs")))
    plan = {"src": src, "work": work, "commands": cmds, "inputs": inputs,
            "warmup": warmup, "ruler_stride": workloads.RULER_STRIDE[args.workload]}
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)

    result_path = os.path.join(work, "result.json")
    if args.trace:
        setup = None
        _worker("trace", plan_path, result_path)
    else:
        setup, setup_kernel = _setups(plan_path)
        _worker("measure", plan_path, result_path, "--seconds", str(args.seconds))
    with open(result_path) as fh:
        res = json.load(fh)
    rounds = res["rounds"]

    verdicts = _verdicts(cmds, rounds, work)
    attempted = len(rounds) * len(cmds)
    failed = len(rounds) * sum(1 for v in verdicts if v is not None)
    unexpected = [(i, v) for i, v in enumerate(verdicts)
                  if v is not None and v != checks.KNOWN_FAULT]
    for i, reason in unexpected:
        print(f"perfbench: FAILED {' '.join(cmds[i]['argv'])}: {reason}", file=sys.stderr)

    walls = [sum(rec[0] for rec in rnd) for rnd in rounds]
    latencies = [rec[0] for rnd in rounds for rec in rnd]
    info.update({"rounds": len(rounds), "commands_per_round": len(cmds),
                 "attempted": attempted, "failed": failed,
                 "round_wall_s": walls, "latency_tail": _tail(latencies),
                 "loadavg_end": _loadavg(), "calibration_end_s": _calibrate()})

    if args.trace:
        layer = dict(res["layers"])
        counts = dict(res["counts"])
        blocks = layer.pop("weights.l74_blocks_searched")
        probes = counts.pop("weights.l74_probes")
        layer["weights.l74_probes_per_block"] = probes / blocks if blocks else 0
        layer.update(counts)
        info["trace_overhead_s"] = walls[1] - walls[0]
        info["untraced_wall_s"] = walls[0]
        info["traced_wall_s"] = walls[1]
        metrics = {name: {"value": value, "unit": layers.LAYER_UNITS[name]}
                   for name, value in sorted(layer.items())}
    else:
        # times at the reference speed: each command is scaled by the kernel
        # chunks timed just before and just after it
        kernel = _bracketing(res["yardstick"], len(cmds), plan["ruler_stride"])
        ref_rounds = [_at_reference([rec[0] for rec in rnd], k)
                      for rnd, k in zip(rounds, kernel)]
        ref_walls = [sum(rnd) for rnd in ref_rounds]
        ref_latencies = [t for rnd in ref_rounds for t in rnd]
        metrics = {
            "wall_s": {"value": statistics.median(ref_walls), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(ref_latencies) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(_at_reference(setup, setup_kernel)),
                        "unit": "s"},
        }
        info.update({
            "setup_runs_s": setup,
            "setup_kernel_s": setup_kernel,
            "round_kernel_s": [statistics.median(r) for r in res["yardstick"]],
            "round_ref_wall_s": ref_walls,
            "measured_wall_s": statistics.median(walls),
            "measured_op_p50_ms": statistics.median(latencies) * 1000,
            "measured_setup_s": statistics.median(setup),
        })
    print("perfbench: " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
