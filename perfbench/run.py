#!/usr/bin/env python3
"""Benchmark for tauwaring: one workload, one seed.

Run from the repository root:

    python3 perfbench/run.py --workload {table,modp,integer} --seed N --seconds S --trace {0,1}

Every timing is taken against a frozen copy of the library as it was when
the benchmark was added (seed_lib/tauwaring_seed), run in the same way at
the same time: on a shared machine the speed of a core drifts by up to 2x
over seconds to minutes, which no statistic of one library's own timings
removes, while the ratio of two libraries timed together stays put.

With --trace 0 a run first starts fresh interpreters in turn for the library
under test (src/tauwaring) and for the frozen copy, each doing one cold
set-up; the library's ones then run one round, for peak_rss_mb. Then it sets
the workload up in-process on both and repeats paired rounds until
--seconds have passed, at least MIN_PAIRS times: in a paired round both
libraries run the same round one operation each in turn. The *_vs_seed
metrics are the library's time over the frozen copy's, as a median over the
pairs (or over CLI calls); setup_s is the median ratio of the cold set-ups
times SEED_SETUP_S.

With --trace 1 only the library under test runs; its rounds alternate
between untraced and traced, and the run prints the per-layer metrics drawn
from the traced rounds' spans, the absolute times of the untraced rounds
and the tracing overhead. The spans are written to
.perfbench/spans-<workload>-<seed>.json when the run ends.

The last line of stdout is the result, {"correct", "attempted", "failed",
"metrics"}; the two lines before it record the environment and the run's
details. Exit status: 0 when every correctness gate passed, 1 when one
failed, 2 when the checkout holds no tauwaring sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Tracer, fastest, layer_durations, median, tail
from workloads import SIZES, WORKLOADS, Stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_LIB = HERE / "seed_lib"
SEED_PACKAGE = "tauwaring_seed"
# source_digest of seed_lib/tauwaring_seed, a byte copy of src/tauwaring at
# the commit that added the benchmark. It must never change: every timing
# metric is relative to it.
SEED_SRC_SHA256 = "acd261f5981911ed009d9814929a2596e8e14f8d400f4d8989697e06e25b9157"
MIN_PAIRS = 3  # paired rounds per untraced run, however short --seconds is
MIN_ROUNDS = 3  # untraced rounds per traced run
MIN_TRACED_ROUNDS = 2
COLD_PAIRS = 2  # per untraced run: fresh interpreters for each library in turn
# The frozen copy's cold set-up in seconds, the median on the machine the
# benchmark was pinned on (see README.md). setup_s is the library's set-up
# relative to the frozen copy's, in seconds at that speed.
SEED_SETUP_S = {"table": 0.154, "modp": 1.99, "integer": 3.61}
CHILD_TIMEOUT_S = 150


@dataclass
class Round:
    traced: bool
    seconds: float
    stats: Stats
    span: int


@dataclass
class Pair:
    live: Stats  # the library under test
    seed: Stats  # the frozen copy, same round, interleaved


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=sorted(SIZES), default="full",
                    help="input sizes; 'tiny' is for tests of the harness")
    ap.add_argument("--cold-child", choices=("live", "seed"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def setup_once(workload, stats: Stats) -> float:
    t0 = perf_counter()
    with workload.tracer.span("setup"):
        workload.setup(stats)
    return perf_counter() - t0


def cold_child(workload, side: str) -> dict:
    """Body of a fresh interpreter: one set-up of one library; the library
    under test then runs one round, with nothing else in the process, for
    its peak RSS."""
    stats = Stats()
    record = {"setup_s": setup_once(workload, stats)}
    if side == "live":
        workload.run_round(stats)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {**record, "side": side, "attempted": stats.attempted, "failures": stats.failures}


def run_cold_child(args, side: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--cold-child", side,
           "--workload", args.workload, "--seed", str(args.seed), "--sizes", args.sizes]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failures": [f"cold child exceeded {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        return {"attempted": 1,
                "failures": [f"cold child exited {proc.returncode}: {proc.stderr[-500:]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def paired_round(live, seed, turn: int) -> Pair:
    """Both libraries run the same round, one operation each in turn. The
    order within a turn alternates (live-seed, seed-live, ...), so that
    neither side always runs right after the other; `turn` sets the order of
    the first."""
    pair = Pair(Stats(), Stats())
    sides = [(live.round(pair.live), pair.live), (seed.round(pair.seed), pair.seed)]
    while sides:
        for side in list(sides if turn % 2 == 0 else reversed(sides)):
            gen, stats = side
            stats.resume()
            try:
                next(gen)
            except StopIteration:
                stats.lap()
                sides.remove(side)
        turn += 1
    return pair


def measure_pairs(live, seed, seconds: float) -> list[Pair]:
    pairs: list[Pair] = []
    took: list[float] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        pairs.append(paired_round(live, seed, len(pairs)))
        took.append(perf_counter() - t0)
        if len(pairs) >= MIN_PAIRS and perf_counter() - start + median(took) > seconds:
            return pairs


def measure(workload, seconds: float) -> list[Round]:
    """Closed loop over rounds of the library under test; every other round
    is traced."""
    tracer = workload.tracer
    rounds: list[Round] = []
    start = perf_counter()
    while True:
        traced = len(rounds) % 2 == 1
        tracer.enabled = traced
        stats = Stats()
        span = len(tracer.spans)
        with tracer.span("round", len(rounds)):
            t0 = perf_counter()
            workload.run_round(stats)
            dt = perf_counter() - t0
        tracer.enabled = False
        rounds.append(Round(traced, dt, stats, span))
        plain = sum(not r.traced for r in rounds)
        enough = plain >= MIN_ROUNDS and len(rounds) - plain >= MIN_TRACED_ROUNDS
        if enough and perf_counter() - start + median([r.seconds for r in rounds]) > seconds:
            return rounds


def across(stats: list[Stats], field: str) -> list[float]:
    """Position by position, the fastest of the rounds' samples of `field`."""
    return fastest(getattr(st, field) for st in stats)


def run_seconds(stats: list[Stats]) -> float:
    """One round's time: the sum of its steps, each the fastest over the rounds."""
    return sum(across(stats, "steps")) if stats else 0.0


def absolute(stats: list[Stats]) -> dict:
    """One library's own timings: each step and operation at its fastest
    over the rounds."""
    op_s = across(stats, "op_s")
    run_s = run_seconds(stats)
    return {
        "run_s": run_s,
        "items_per_s": stats[0].items / run_s,
        "op_p50_ms": median(op_s) * 1e3,
        "op_tail_ms": tail(op_s)[0] * 1e3,
        "cli_p50_ms": median(across(stats, "cli_s")) * 1e3,
    }


def ratios(pairs: list[Pair]) -> dict[str, list[float]]:
    """The library over the frozen copy, pair by pair (CLI: call by call,
    as a round makes only 3 to 16 calls)."""
    return {
        "run": [sum(p.live.steps) / sum(p.seed.steps) for p in pairs],
        "op_p50": [median(p.live.op_s) / median(p.seed.op_s) for p in pairs],
        "cli": [a / b for p in pairs for a, b in zip(p.live.cli_s, p.seed.cli_s)],
    }


def end_to_end(workload: str, pairs: list[Pair], children: list[dict]) -> dict:
    by_pair = ratios(pairs)
    # The tail rests on about ten operations, too few to compare within one
    # pair: each side's operations are taken at their fastest over the pairs.
    live_ops, seed_ops = (across([getattr(p, side) for p in pairs], "op_s")
                          for side in ("live", "seed"))
    live, seed = ([c for c in children if c["side"] == side] for side in ("live", "seed"))
    return {
        "setup_s": SEED_SETUP_S[workload] * median(
            [a["setup_s"] / b["setup_s"] for a, b in zip(live, seed)]),
        "run_vs_seed": median(by_pair["run"]),
        "op_p50_vs_seed": median(by_pair["op_p50"]),
        "op_tail_vs_seed": tail(live_ops)[0] / tail(seed_ops)[0],
        "cli_p50_vs_seed": median(by_pair["cli"]),
        "peak_rss_mb": median([c["peak_rss_mb"] for c in live]),
    }


def per_layer(names, tracer: Tracer, rounds: list[Round], setup_span: int) -> dict:
    plain = [r.stats for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    durations = layer_durations(tracer.spans, {r.span for r in traced} | {setup_span})
    builds = [(s[4], s[2] - s[1]) for s in tracer.spans
              if s[0] == "tau_core.build_tau_table_series"]
    counts = traced[-1].stats.counts
    _, pct, samples = tail(across(plain, "op_s"))
    special = {
        "tau_core.build_tau_table_series.coeffs_per_s": max((n / dt for n, dt in builds),
                                                            default=0.0),
        "modp_basis.first_cert_s": min(st.first_result_s for st in plain),
        "waring_int.represent_integer.first_call_s":
            durations.get("waring_int.represent_integer", {}).get(setup_span, [0.0])[0],
        "ops.tail_percentile": pct,
        "ops.samples": samples,
        "trace.untraced_run_s": run_seconds(plain),
        "trace.traced_run_s": run_seconds([r.stats for r in traced]),
        **absolute(plain),
    }
    special["trace.overhead_s"] = special["trace.traced_run_s"] - special["trace.untraced_run_s"]
    out = {}
    for name, unit in names.items():
        if name in special:
            out[name] = special[name]
            continue
        layer, stat = name.rsplit(".", 1)
        if unit == "count" and stat != "calls":  # a per-round counter of the workload
            out[name] = counts.get(name, 0)
            continue
        per_round = [d for top, d in durations.get(layer, {}).items() if top != setup_span]
        calls = fastest(per_round)  # each call's fastest over the traced rounds
        if stat == "busy_s":
            out[name] = sum(calls)
        elif stat == "calls":
            out[name] = len(calls)
        elif stat == "p50_ms":
            out[name] = median(calls) * 1e3
        elif stat == "tail_ms":
            out[name] = tail(calls)[0] * 1e3
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    return out


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(args, lib) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bigint": "int" if lib.tau_core.mpz is int else "gmpy2",
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(ROOT / "src"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": args.sizes,
    }


def same_counts(stats: list[Stats]) -> bool:
    """Counters describe the seeded inputs, so every round must repeat them."""
    return all(s.counts == stats[0].counts for s in stats)


def run_untraced(args, sizes, workdir: Path):
    children = [run_cold_child(args, side) for _ in range(COLD_PAIRS) for side in ("live", "seed")]
    live = WORKLOADS[args.workload](args.seed, sizes, workdir / "live", Tracer())
    seed = WORKLOADS[args.workload](args.seed, sizes, workdir / "seed", Tracer(), SEED_PACKAGE)
    setup = Stats()
    for workload in (live, seed):
        workload.workdir.mkdir()
        setup_once(workload, setup)
    pairs = measure_pairs(live, seed, args.seconds)

    failures = [f for c in children for f in c["failures"]] + setup.failures
    attempted = sum(c["attempted"] for c in children) + setup.attempted + 2
    if not all("setup_s" in c for c in children):
        return {}, {}, None, attempted, failures
    for side in ("live", "seed"):
        stats = [getattr(p, side) for p in pairs]
        attempted += sum(s.attempted for s in stats)
        failures += [f"{side}: {f}" for s in stats for f in s.failures]
        if not same_counts(stats):
            failures.append(f"{side}: per-round counters differ between rounds")
    if source_digest(SEED_LIB / SEED_PACKAGE) != SEED_SRC_SHA256:
        failures.append(f"{SEED_LIB / SEED_PACKAGE} differs from the pinned frozen copy")
    _, pct, samples = tail(pairs[0].live.op_s)
    detail = {
        "pairs": len(pairs),
        "setup_samples": {side: [c["setup_s"] for c in children if c["side"] == side]
                          for side in ("live", "seed")},
        "rss_samples": [c["peak_rss_mb"] for c in children if c["side"] == "live"],
        "op_samples": samples, "op_tail_percentile": pct,
        "cli_samples": len(pairs[0].live.cli_s),
        "ratios": ratios(pairs),
        "absolute": {side: absolute([getattr(p, side) for p in pairs])
                     for side in ("live", "seed")},
        "counts": pairs[0].live.counts,
    }
    metrics = end_to_end(args.workload, pairs, children)
    return metrics, detail, environment(args, live.lib), attempted, failures


def run_traced(args, sizes, workdir: Path, names: dict):
    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed, sizes, workdir, tracer)
    setup = Stats()
    tracer.enabled = True
    setup_span = len(tracer.spans)
    setup_once(workload, setup)
    tracer.enabled = False
    rounds = measure(workload, args.seconds)

    failures = list(setup.failures) + [f for r in rounds for f in r.stats.failures]
    attempted = setup.attempted + sum(r.stats.attempted for r in rounds) + 1
    if not same_counts([r.stats for r in rounds]):
        failures.append("per-round counters differ between rounds")
    plain = [r.stats for r in rounds if not r.traced]
    _, pct, samples = tail(across(plain, "op_s"))
    detail = {
        "rounds": len(plain), "traced_rounds": len(rounds) - len(plain),
        "op_samples": samples, "op_tail_percentile": pct,
        "cli_samples": len(plain[0].cli_s),
        "round_s": [r.seconds for r in rounds],
        "counts": rounds[0].stats.counts,
    }
    metrics = per_layer(names["per_layer"], tracer, rounds, setup_span)
    env = environment(args, workload.lib)
    spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "spans": tracer.dump()}, fh)
    return metrics, detail, env, attempted, failures


def run(args, workdir: Path) -> int:
    sizes = SIZES[args.sizes]
    if args.cold_child:
        package = SEED_PACKAGE if args.cold_child == "seed" else "tauwaring"
        workload = WORKLOADS[args.workload](args.seed, sizes, workdir, Tracer(), package)
        print(json.dumps(cold_child(workload, args.cold_child)))
        return 0
    names = declared_metrics()
    if args.trace:
        metrics, detail, env, attempted, failures = run_traced(args, sizes, workdir, names)
        units = names["per_layer"]
    else:
        metrics, detail, env, attempted, failures = run_untraced(args, sizes, workdir)
        units = names["end_to_end"]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    if not metrics:  # a cold child failed, so nothing was measured
        return 1
    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tauwaring" / "__init__.py").is_file():
        print(f"error: no tauwaring sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(SEED_LIB)]
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
