"""erskit benchmark: one workload per invocation, checked and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload witness --seed 1 --seconds 40 --trace 0

Workloads are `witness`, `relations` and `lattice` (see README.md), or
`all` to run the three in turn, each in its own process.  `--seconds`
bounds the whole invocation: the run starts another whole pass of the
workload only while the pass is expected to end within it, and always
runs at least one.  It checks every unit's output outside the timed
region, and prints each metric by name and unit, then one JSON line as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s, wall_s,
ops_per_s, peak_rss_mb).  With `--trace 1` the first half of the time runs
untraced passes and the second half traced ones, and the metrics are the
per-layer self times and counts, the raw clock time of an untraced pass
and the tracing overhead.  Times are given at the reference speed (see
speed.py); the raw clock times also go to the result file.  Results and
spans are written under `.perfbench/` in the checkout.  The exit code is 0
when a result was printed, 1 when the run broke, 2 on bad usage or when
the erskit sources are not in the checkout.
"""
from __future__ import annotations

import os

# one thread per workload process, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time

START = time.perf_counter()

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe, reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("witness", "relations", "lattice")
SETUP_SAMPLES = 9

# per-layer time metric -> span name; the value is the span's self time
LAYER_TIMES = {
    "unfold.words_s": "unfold.words",
    "unfold.transport_s": "unfold.transport",
    "unfold.lookup_s": "unfold.lookup",
    "unfold.graded_s": "unfold.graded",
    "unfold.handy_s": "unfold.handy",
    "unfold.substitute_s": "unfold.substitute",
    "presentation.emit_s": "presentation.emit",
    "quantum_torus.verify_s": "quantum_torus.verify",
    "roots.generate_s": "roots.generate",
    "roots.check_ebs_s": "roots.check_ebs",
    "roots.oracle_s": "roots.oracle",
    "classify.s": "classify",
    "cli.render_s": "cli.render",
}
# per-layer counts kept by the tracer; layer_counts() derives the rest
LAYER_COUNTS = [
    "unfold.words_vectors",
    "unfold.words_reflections",
    "unfold.aut_calls",
    "unfold.basis_size",
    "unfold.loop_brackets",
    "presentation.relations_emitted",
    "quantum_torus.hat_brackets",
    "roots.member_calls",
    "ambient.j_calls",
    "cyclo.cyc_created",
]


def _use_checkout_sources():
    if not (SRC / "erskit" / "__init__.py").is_file():
        sys.stderr.write(f"erskit sources not found under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))


def setup_child(workload: str, seed: int) -> None:
    """Fresh-process set-up: import erskit, build and validate the configs,
    under the speed probe.  Prints raw seconds, probe seconds and mean
    speed as JSON."""
    _use_checkout_sources()
    probe = SpeedProbe()
    with probe:
        t0 = time.perf_counter()
        import workloads

        workloads.WORKLOADS[workload](seed).setup()
        raw = time.perf_counter() - t0
    print(json.dumps([raw, probe.spent, probe.speed]))


def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh processes of the set-up time at the reference
    speed."""
    runs = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(reference_time(*r) for r in runs)


def run_passes(wl, until: float, tracer=None):
    """Whole passes, the next one only while it is expected to end by
    `until` (a perf_counter reading), at least one.  Each unit runs under
    the speed probe and, when given, the tracer; its output is checked
    untimed, unprobed and untraced right after it ran.  Returns per pass
    {"units": {label: raw seconds}, "probe": {label: (probe seconds, mean
    speed)}, "attempted", "failed", and for a traced pass "self" and
    "counts"}, and the problems found."""
    passes, problems = [], []
    while True:
        started = time.perf_counter()
        if tracer is not None:
            tracer.reset()
        rec = {"units": {}, "probe": {}, "attempted": 0, "failed": 0}
        for label, run, check in wl.units():
            probe = SpeedProbe()
            if tracer is not None:
                tracer.install()
            try:
                with probe:
                    t0 = time.perf_counter()
                    if tracer is not None:
                        with tracer.region(label):
                            out = run()
                    else:
                        out = run()
                    rec["units"][label] = time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            rec["probe"][label] = (probe.spent, probe.speed)
            attempted, failed, found = check(out)
            del out
            rec["attempted"] += attempted
            rec["failed"] += failed
            problems += found
        if tracer is not None:
            rec["self"] = tracer.self_times()
            rec["counts"] = layer_counts(tracer)
        passes.append(rec)
        now = time.perf_counter()
        if now + (now - started) > until:
            return passes, problems


def pass_time(passes: list[dict], scale=reference_time) -> float:
    """Time of one pass: per unit the median over the run's passes of
    `scale(raw, probe seconds, speed)`, summed.  The default gives the time
    at the reference speed."""
    times = [{label: scale(raw, *p["probe"][label])
              for label, raw in p["units"].items()} for p in passes]
    return sum(statistics.median(t[label] for t in times) for label in times[0])


def layer_times(rec: dict) -> dict[str, float]:
    """Per-layer self times of one traced pass, each span scaled to the
    reference speed by the mean speed of the unit it ran in."""
    out = dict.fromkeys(LAYER_TIMES, 0.0)
    by_span = {span: name for name, span in LAYER_TIMES.items()}
    for (unit, span), own in rec["self"].items():
        if span in by_span:
            out[by_span[span]] += own * rec["probe"][unit][1]
    return out


def layer_counts(tracer) -> dict:
    counts = tracer.counts
    out = {name: counts[name] for name in LAYER_COUNTS}
    out["unfold.words_evaluated"] = sum(
        1 for rec in tracer.spans if rec["name"] == "unfold.substitute")
    reflections = counts["unfold.words_reflections"]
    out["unfold.words_keep_ratio"] = (
        counts["unfold.words_vectors"] / reflections if reflections else 0.0)
    return out


def raw_time(raw: float, spent: float, speed: float) -> float:
    return raw - spent


def _count_unit(name: str) -> str:
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",),
                    help="one workload, or all three in turn, each in its "
                         "own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40,
                    help="bound on the whole run; at least one pass runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], timeout=600)
            code = max(code, proc.returncode)
        return code

    _use_checkout_sources()
    os.chdir(ROOT)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    OUTDIR.mkdir(exist_ok=True)
    wl.prepare(OUTDIR.relative_to(ROOT))  # the report names paths as given
    tag = f"{args.workload}-trace{args.trace}-seed{args.seed}"

    deadline = START + args.seconds
    if args.trace == 0:
        setup_s = measure_setup(args.workload, args.seed)
        passes, problems = run_passes(wl, deadline)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += wl.finish()
        wall_s = pass_time(passes)
        ops = passes[0]["attempted"] - passes[0]["failed"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "ops_per_s": (ops / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from spans import Tracer

        now = time.perf_counter()
        plain, problems = run_passes(wl, now + (deadline - now) / 2)
        tracer = Tracer()
        traced, found = run_passes(wl, deadline, tracer)
        problems += found + wl.finish()
        first = traced[0]["counts"]
        if any(p["counts"] != first for p in traced[1:]):
            problems.append("layer counts differ between traced passes")
        metrics = {name: (value, _count_unit(name)) for name, value in first.items()}
        times = [layer_times(p) for p in traced]
        for name in LAYER_TIMES:
            metrics[name] = (statistics.median(t[name] for t in times), "s")
        metrics["pass.raw_s"] = (pass_time(plain, raw_time), "s")
        metrics["trace.overhead_s"] = (
            pass_time(traced) - pass_time(plain), "s")
        metrics = dict(sorted(metrics.items()))
        (OUTDIR / f"spans-{tag}.json").write_text(json.dumps(
            {"spans": tracer.spans, "counts": dict(tracer.counts)}),
            encoding="utf-8")
        passes = plain + traced

    if len({(p["attempted"], p["failed"]) for p in passes}) != 1:
        problems.append("passes attempted or failed different operation counts")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for msg in problems:
        sys.stderr.write(f"CHECK FAILED: {msg}\n")
    speeds = [speed for p in passes for _, speed in p["probe"].values()]
    print(f"{args.workload}: {len(passes)} passes, {attempted} operations "
          f"attempted, {failed} failed, checks "
          f"{'passed' if not problems else 'FAILED'}; raw pass time "
          f"{pass_time(passes, raw_time):.3f} s, mean speed "
          f"{statistics.mean(speeds):.3f} of the reference, run "
          f"{time.perf_counter() - START:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6f} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result, sort_keys=True)
    (OUTDIR / f"result-{tag}.json").write_text(json.dumps(
        {"result": result, "reference_s": REFERENCE_S,
         "passes": [{"raw_s": p["units"], "probe": p["probe"]} for p in passes]},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
