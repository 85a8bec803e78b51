"""Benchmark of the fibersum command line, run in-process.

    python3 perfbench/run.py --workload knots --seed 1 --seconds 25 --trace 0
    for w in knots sw-dense family tree-large; do python3 perfbench/run.py --workload $w; done
    python3 perfbench/run.py --smoke

Run from a checkout that holds ``src/fibersum``.  One client in one
process and one thread calls ``fibersum.cli.main([...])`` in a closed
loop, with stdout captured, over whole rounds of seeded inputs (see
``workloads.py``) until ``--seconds`` have passed and at least 100 ops
have succeeded.  Every output is checked against ``reference.py``, which
does not use the package.  After the timed loop, the workload's probes
run untimed: table-knot anchors must pass, and recorded defects are
reported as still failing or fixed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a share
of the rounds untraced, then the same ops again under ``tracing.Tracer``,
and prints the per-layer metrics.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--smoke`` runs every workload at tiny sizes untraced and traced,
checks the references against the package, that stdout is byte-identical
with tracing on and off, and that tracing restores every attribute.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import reference as ref
from workloads import WORKLOADS, Docs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MEMORY_CAP = 1 << 30  # RLIMIT_AS of the workload process: a blow-up is a MemoryError, not an OOM kill
SETUP_RUNS = 12
MIN_OK = 100  # so that p90 has at least ten samples beyond it
UNTRACED_SHARE = 0.3  # share of --seconds run untraced before the traced replay

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "growth_exponent": "1",
}


@dataclass
class Outcome:
    """What is kept of one op: no output, so the harness holds no memory
    that grows with the run."""

    kind: str
    size: int | None
    label: str
    ns: int
    digest: bytes  # of stdout, to compare the untraced and traced passes
    error: str | None  # None when the output matched its reference
    wrong: bool = False  # exit 0 with an output that does not match


# ---------------------------------------------------------------- program


def load_program() -> SimpleNamespace:
    if not (SRC / "fibersum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fibersum package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fibersum.cli
    import fibersum.knots

    return SimpleNamespace(cli=fibersum.cli, knots=fibersum.knots)


@contextlib.contextmanager
def workdir():
    path = WORK / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def execute(op, program, tracer=None) -> Outcome:
    """Run one op; only the CLI call (and the oracle for knots) is timed."""
    out, err = io.StringIO(), io.StringIO()
    rc = oracle = failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter_ns()
        try:
            rc = program.cli.main(op.argv)
            if op.oracle is not None:
                oracle = program.knots.alexander_oracle(program.knots.BraidWord(*op.oracle))
        except (Exception, SystemExit) as exc:  # counted as a failed op
            failure = f"{type(exc).__name__}: {str(exc)[:120]}"
        ns = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.end_op()
    stdout = out.getvalue()
    outcome = Outcome(op.kind, op.size, " ".join(op.argv)[:80], ns,
                      hashlib.sha256(stdout.encode()).digest(), failure)
    if failure is None and rc != 0:
        outcome.error = f"exit {rc}: {err.getvalue().strip()[:120]}"
    if outcome.error is None:
        try:
            outcome.error = op.expect(stdout, oracle)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            outcome.error = f"unreadable output ({type(exc).__name__}: {exc})"
        outcome.wrong = outcome.error is not None
    return outcome


def run_rounds(rounds, program, seconds: float, min_ok: int, keep_ops=False):
    """Whole rounds until ``seconds`` have passed and ``min_ok`` ops
    succeeded, or a hard limit that keeps the process within 180 s.
    Returns the outcomes, and the ops themselves if ``keep_ops``."""
    limit = max(seconds, min(4 * seconds, 120))
    outcomes, kept = [], []
    start = time.monotonic()
    for ops in rounds:
        outcomes += [execute(op, program) for op in ops]
        if keep_ops:
            kept += ops
        elapsed = time.monotonic() - start
        ok = sum(1 for o in outcomes if o.error is None)
        if (elapsed >= seconds and ok >= min_ok) or elapsed >= limit:
            return outcomes, kept


# ---------------------------------------------------------------- metrics


def latency_groups(outcomes) -> dict:
    """(kind, size) -> latencies in ns of the ops that succeeded."""
    groups = defaultdict(list)
    for o in outcomes:
        if o.error is None:
            groups[(o.kind, o.size)].append(o.ns)
    return groups


def growth_exponent(outcomes) -> tuple[float, int]:
    """Common slope of log(median latency) against log(size) over each op
    kind's ladder, using only (kind, size) groups where every op succeeded.
    Returns the slope and the number of groups fitted."""
    failed = {(o.kind, o.size) for o in outcomes if o.error}
    ladders = defaultdict(list)
    for (kind, size), ns in latency_groups(outcomes).items():
        if size is not None and (kind, size) not in failed:
            ladders[kind].append((math.log(size), math.log(statistics.median(ns))))
    num = den = 0.0
    fitted = 0
    for points in ladders.values():
        if len(points) < 2:
            continue
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        num += sum((x - mx) * (y - my) for x, y in points)
        den += sum((x - mx) ** 2 for x, _ in points)
        fitted += len(points)
    return (num / den if den else 0.0), fitted


def _uncapped():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (hard, hard))


def setup_seconds(workload: str, seed: int, runs: int) -> list[float]:
    """Process start to the first timed op, in fresh interpreters without
    the memory cap: import, then generate and write the first round of
    inputs."""
    values = []
    for _ in range(runs):
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True, preexec_fn=_uncapped,
        )
        values.append((int(proc.stdout.split()[-1]) - start) / 1e9)
    return values


def end_to_end(outcomes, setup: list[float]) -> tuple[dict, list[str]]:
    ok = [o.ns / 1e6 for o in outcomes if o.error is None]
    if len(ok) < 2:
        raise SystemExit("perfbench: fewer than two successful ops; no latency metrics")
    busy_s = sum(ok) / 1e3
    growth, fitted = growth_exponent(outcomes)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ok) / busy_s,
        "latency_p50_ms": statistics.median(ok),
        "latency_p90_ms": statistics.quantiles(ok, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "growth_exponent": growth,
    }
    samples = {
        "setup_s": f"median of {len(setup)} fresh processes, half before and half after the loop",
        "ops_per_s": f"{len(ok)} correct ops in {busy_s:.2f} s of op time",
        "latency_p50_ms": f"n={len(ok)} correct ops",
        "latency_p90_ms": f"n={len(ok)} correct ops, {len(ok) - math.ceil(0.9 * len(ok))} beyond p90",
        "peak_rss_mb": "ru_maxrss of this process",
        "growth_exponent": f"{fitted} (kind, size) medians",
    }
    lines = [f"{k:18s} {values[k]:12.6g} {u:4s}  {samples[k]}" for k, u in END_TO_END.items()]
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return metrics, lines


def ladder_lines(outcomes) -> list[str]:
    groups = defaultdict(list)
    for o in outcomes:
        groups[(o.kind, o.size or 0)].append(o)
    lines = []
    for (kind, size), outs in sorted(groups.items()):
        ok = [o.ns / 1e6 for o in outs if o.error is None]
        median = f"{statistics.median(ok):10.3f} ms" if ok else "         - ms"
        lines.append(f"  {kind:20s} size={size:<4d} ops={len(outs):<4d} failed={len(outs) - len(ok):<3d} median={median}")
    return lines


def failure_lines(outcomes, limit=5) -> list[str]:
    return [f"  FAILED {o.kind} {o.label}: {o.error}" for o in outcomes if o.error][:limit]


def run_probes(workload, rng, docs, ladder, program) -> tuple[bool, list[str]]:
    """Untimed ops after the loop.  Anchors must pass.  A recorded defect
    may still fail; if it now exits 0, its output must be right."""
    correct, lines = True, []
    by_kind = defaultdict(list)
    for op in workload.probes(rng, docs, ladder):
        o = execute(op, program)
        by_kind[(op.kind, op.defect)].append(o)
        if o.wrong or (o.error and op.defect is None):
            correct = False
            lines.append(f"  PROBE FAILED {o.kind} {o.label}: {o.error}")
    for (kind, defect), outs in by_kind.items():
        failing = [o for o in outs if o.error]
        if defect is None:
            lines.append(f"  anchor {kind}: {len(outs) - len(failing)}/{len(outs)} match the knot table")
        elif failing:
            lines.append(f"  known defect {kind}: {len(failing)}/{len(outs)} fail; recorded cause {defect}; now: {failing[0].error}")
        else:
            lines.append(f"  defect fixed {kind}: {len(outs)}/{len(outs)} correct (recorded cause: {defect})")
    return correct, lines


# ------------------------------------------------------------------- modes


def pin_to_one_cpu():
    """Keep this process, and the set-up processes it starts, on the
    highest-numbered CPU it may use.  On a shared 2-vCPU Xeon VM the same
    op at times ran up to 1.6x slower on one vCPU than on the other, and
    the scheduler left a busy process on one vCPU for tens of seconds to
    minutes, so an unpinned run measured whichever vCPU it started on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(args) -> int:
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    program = load_program()
    # Half the set-up runs before the timed loop and half after it, so that
    # their median does not rest on one stretch of a shared machine's speed.
    setup_runs = 0 if args.trace else SETUP_RUNS
    setup = setup_seconds(args.workload, args.seed, setup_runs // 2)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP if hard == resource.RLIM_INFINITY else min(MEMORY_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))  # this process only: set after the setup children
    rng = random.Random(f"{workload.name}/{args.seed}")
    with workdir() as directory:
        docs = Docs(directory)
        rounds = workload.rounds(rng, docs, workload.ladder)
        if args.trace:
            results, lines, metrics, identical = traced_run(rounds, program, args)
        else:
            results, _ = run_rounds(rounds, program, args.seconds, MIN_OK)
            setup += setup_seconds(args.workload, args.seed, setup_runs - setup_runs // 2)
            metrics, lines = end_to_end(results, setup)
            identical = True
        probes_ok, probe_lines = run_probes(workload, rng, docs, workload.ladder, program)
    failed = sum(1 for o in results if o.error)
    wrong = any(o.wrong for o in results)
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    print(f"closed loop, 1 client, 1 thread; {len(results)} ops attempted, {failed} failed, "
          f"fail_ratio {failed / len(results):.4g}")
    print("\n".join(lines + ladder_lines(results) + failure_lines(results) + probe_lines))
    if not identical:
        print("  stdout differs between the untraced and traced passes")
    correct = failed == 0 and not wrong and probes_ok and identical
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


def traced_run(rounds, program, args):
    """Untraced rounds for a share of --seconds, then the same ops traced."""
    from tracing import Tracer

    plain, ops = run_rounds(rounds, program, UNTRACED_SHARE * args.seconds, 1, keep_ops=True)
    tracer = Tracer()
    with tracer.installed():
        traced = [execute(op, program, tracer) for op in ops]
    plain_ns = sum(o.ns for o in plain)
    traced_ns = sum(o.ns for o in traced)
    identical = all(a.digest == b.digest for a, b in zip(plain, traced))
    tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics = tracer.metrics(traced_ns / plain_ns)
    lines = [f"{k:40s} {v['value']:12.6g} {v['unit']}" for k, v in metrics.items()]
    lines.insert(0, f"per-layer metrics over {tracer.ops} traced ops ({len(tracer.spans)} spans kept)")
    results = [b if b.error else a for a, b in zip(plain, traced)]
    return results, lines, metrics, identical


def setup_probe(args) -> int:
    load_program()
    workload = WORKLOADS[args.workload]
    with workdir() as directory:
        rng = random.Random(f"{workload.name}/{args.seed}")
        next(workload.rounds(rng, Docs(directory), workload.ladder))
        ready = time.monotonic_ns()
    print(ready)
    return 0


def smoke() -> int:
    from tracing import Tracer, snapshot, traced_names
    from workloads import chain_input

    program = load_program()
    import fibersum

    problems = []
    rng = random.Random("smoke")

    for n in (1, 2, 3):
        y, nested, factors = chain_input(rng, n, ref.GENUS_ONE)
        tree = fibersum.cli.parse_construction(y)
        if fibersum.cli.construction_to_doc(tree) != nested:
            problems.append(f"nested document of surgered_chain({n}) differs from construction_to_doc")
        fp = fibersum.fingerprint(tree)
        if (fp.count, fp.rank, fp.coeff_multiset, fp.a0) != ref.fingerprint(factors.values()):
            problems.append(f"closed-form fingerprint of surgered_chain({n}) differs from fingerprint()")
    before = snapshot()
    for workload in WORKLOADS.values():
        with workdir() as directory:
            docs = Docs(directory)
            ops = next(workload.rounds(rng, docs, workload.smoke_ladder))
            ops += workload.probes(rng, docs, workload.smoke_ladder)
            plain = [execute(op, program) for op in ops]
            tracer = Tracer()
            with tracer.installed():
                traced = [execute(op, program, tracer) for op in ops]
            metrics = tracer.metrics(1.0)
        for op, a, b in zip(ops, plain, traced):
            if a.digest != b.digest:
                problems.append(f"{workload.name} {op.kind}: stdout differs with tracing on")
            for o in (a, b):
                if o.error and (op.defect is None or o.wrong):
                    problems.append(f"{workload.name} {op.kind}: {o.error}")
        missing = traced_names() - tracer.names
        if missing:
            problems.append(f"{workload.name}: no wrapper installed for {sorted(missing)}")
        zero = [name for name in workload.nonzero if not metrics[name]["value"] > 0]
        if zero:
            problems.append(f"{workload.name}: traced metrics read 0: {zero}")
        print(f"smoke {workload.name}: {len(ops)} ops, {tracer.ops} traced, {len(tracer.spans)} spans")
    if snapshot() != before:
        problems.append("tracing left a patched attribute behind")
    for problem in problems:
        print("SMOKE FAILED:", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, traced and untraced")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
