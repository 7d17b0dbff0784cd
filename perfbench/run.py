"""Verdict benchmark for qutrit-exact.

    python3 perfbench/run.py --workload verify|obstruct|classify2q \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark drives the package the way a
user does: it calls ``qutrit_exact.cli.main.main(argv)`` in this process on
generated circuit files, as a closed loop with one client, and checks every
verdict (stdout lines and exit code) against an answer known from theory
(see ``workloads.py``).

Set-up, outside the timed loop: the ``catalog`` self-check must print 29
VERIFIED lines, and a seeded sample of the workload's circuits is checked
against a float numpy product by ``oracle.py`` in a separate process.

``--trace 0`` runs untraced for S seconds and reports the end-to-end metrics:
``setup_s`` (median over fresh processes that import the package and run the
catalog, see ``probe.py``), ``verdicts_per_s``, ``verdict_p50_ms``,
``verdict_p90_ms`` and ``peak_rss_mb``; ``failed_share`` is printed too.

``--trace 1`` runs untraced for S/2 seconds, then replays the same requests
with the spans of ``tracing.py`` installed, and reports the per-layer
metrics: self time and calls per verdict, workload properties, a ring
microbenchmark on operands from the workload's own matrices, and the tracing
overhead.  The spans are written to ``perfbench/.out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import probe  # noqa: E402  (sibling modules, found through sys.path[0])
import tracing  # noqa: E402
import workloads  # noqa: E402

CATALOG_CLAIMS = 29
SETUP_PROBES = 5
ROUNDS = {"verify": 16, "obstruct": 48, "classify2q": 20}
MICRO_OPERANDS = 64


def die(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


# -- set-up ---------------------------------------------------------------

def setup_seconds(notes: list[str]) -> tuple[float, bool]:
    """Median time from spawning a fresh process to its being ready."""
    times, ok = [], True
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(start)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 4 or fields[0] != "ready":
            die(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        _, elapsed, code, verified = fields
        if code != "0" or int(verified) != CATALOG_CLAIMS:
            notes.append(f"set-up probe: catalog exit {code}, {verified} VERIFIED lines")
            ok = False
        times.append(int(elapsed) / 1e9)
    return statistics.median(times), ok


def catalog_ok(cli_main, notes: list[str]) -> bool:
    code, verified = probe.catalog(cli_main)
    if code != 0 or verified != CATALOG_CLAIMS:
        notes.append(f"catalog: exit {code}, {verified} of {CATALOG_CLAIMS} VERIFIED")
        return False
    return True


def oracle_ok(rounds, workload: str, seed: int, notes: list[str]) -> bool:
    """Float cross-check of one circuit of each simulated kind, in a subprocess."""
    rng = random.Random(f"oracle:{workload}:{seed}")
    by_kind: dict[str, list] = {}
    for q in rounds[0]:
        if q.matrix:
            by_kind.setdefault(q.kind, []).append(q.path)
    paths = [rng.choice(by_kind[k]) for k in sorted(by_kind)]
    proc = subprocess.run([sys.executable, str(HERE / "oracle.py"), *paths],
                          cwd=ROOT, capture_output=True, text=True, timeout=150)
    notes.extend(proc.stdout.splitlines())
    if proc.returncode != 0:
        notes.append(f"oracle: exit {proc.returncode} {proc.stderr.strip()[-500:]}")
        return False
    return True


# -- the closed loop ------------------------------------------------------

class Loop:
    """One client sending the next request when the previous one returns."""

    def __init__(self, cli_main, requests):
        self.cli_main = cli_main
        self.requests = requests
        self.failures: list[str] = []

    def one(self, q, call) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                code = call(self.cli_main, list(q.argv))
            except Exception as e:  # an exception is a failed verdict
                code = f"{type(e).__name__}: {e}"
            took = time.perf_counter_ns() - start
        if not (isinstance(code, int) and workloads.check(q.expect, code, out.getvalue())):
            self.failures.append(f"{q.kind} {' '.join(q.argv)} -> exit {code}; "
                                 f"stdout {out.getvalue()[:200]!r}")
        return took

    def run(self, seconds: float = 0.0, count: int = 0, call=None, after=None):
        """Requests for ``seconds`` or, with ``count``, exactly that many.

        Returns each request's latency and the loop's clock at its end,
        both counted from the start of the loop, in ns.
        """
        call = call or (lambda f, argv: f(argv))
        lat: list[int] = []
        ends: list[int] = []
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        while (len(lat) < count) if count else (time.perf_counter_ns() < deadline):
            q = self.requests[len(lat) % len(self.requests)]
            lat.append(self.one(q, call))
            ends.append(time.perf_counter_ns() - start)
            if after:
                after()
        return lat, ends


# -- traced run: workload properties and per-layer metrics ----------------

_DENSE = frozenset({"H", "HDG", "XPHASE"})


def _is_dense(op) -> bool:
    inner = getattr(op, "inner", None)
    return op.kind in _DENSE or (inner is not None and inner.kind in _DENSE)


class Properties:
    """Sizes seen in the traced run, from the results the tracer kept."""

    def __init__(self, seed: int):
        self.parsed_ops = 0
        self.apps = 0
        self.dense = 0
        self.den_bits = 0
        self.lde_a = 0
        self.operands: list = []
        self.rng = random.Random(f"operands:{seed}")
        self.seen = 0

    def take(self, kept: list) -> None:
        for name, args, result in kept:
            if name == "circuit.parse":
                self.parsed_ops += len(result.ops)
            elif name == "sim.circuit_matrix":
                ops = args[0].ops
                self.apps += len(ops)
                self.dense += sum(1 for op in ops if _is_dense(op))
                for row in result.rows:
                    for e in row:
                        self.den_bits = max(self.den_bits, e.denominator.bit_length())
                        if not e.is_zero():
                            self._sample(e)
            elif name == "adjoint.obstruct" and result.lde_a is not None:
                self.lde_a = max(self.lde_a, result.lde_a)
        kept.clear()

    def _sample(self, e) -> None:  # reservoir sample of nonzero entries
        self.seen += 1
        if len(self.operands) < MICRO_OPERANDS:
            self.operands.append(e)
        else:
            j = self.rng.randrange(self.seen)
            if j < MICRO_OPERANDS:
                self.operands[j] = e


def per_op_us(body, ops: int, repeats: int = 5) -> float:
    """Median over repeats of the time per operation of ``body()``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        body()
        times.append((time.perf_counter_ns() - start) / ops / 1e3)
    return statistics.median(times)


def ring_micro(operands: list) -> dict[str, float]:
    if len(operands) < 2:
        return {"rings.mul_us": 0.0, "rings.add_us": 0.0, "rings.inverse_us": 0.0}
    pairs = list(zip(operands, operands[1:] + operands[:1])) * 20
    singles = operands[:24]

    def mul():
        for a, b in pairs:
            a * b

    def add():
        for a, b in pairs:
            a + b

    def inv():
        for a in singles:
            a.inverse()

    return {"rings.mul_us": per_op_us(mul, len(pairs)),
            "rings.add_us": per_op_us(add, len(pairs)),
            "rings.inverse_us": per_op_us(inv, len(singles))}


def layer_metrics(tracer, props: Properties, n: int, overhead_pct: float,
                  micro: dict[str, float]) -> dict[str, float]:
    self_ns, calls, _ = tracer.self_times()
    cm_ns = sum(e - s for name, s, e, _, _ in tracer.spans if name == "sim.circuit_matrix")

    def ms(name):
        return self_ns.get(name, 0) / n / 1e6

    def per(name):
        return calls.get(name, 0) / n

    return {
        "rings.mul_calls": tracer.counts["rings.mul"] / n,
        "rings.add_calls": tracer.counts["rings.add"] / n,
        "rings.inverse_calls": per("rings.inverse"),
        "rings.inverse_ms": ms("rings.inverse"),
        "rings.to_alpha_calls": per("rings.to_alpha"),
        "rings.to_alpha_ms": ms("rings.to_alpha"),
        **micro,
        "circuit.parse_ms": ms("circuit.parse"),
        "circuit.expand_ms": ms("circuit.expand"),
        "circuit.ops": props.parsed_ops / n,
        "sim.circuit_matrix_ms": ms("sim.circuit_matrix"),
        "sim.gate_apps_per_s": props.apps / (cm_ns / 1e9) if cm_ns else 0.0,
        "sim.dense_share": props.dense / props.apps if props.apps else 0.0,
        "sim.matmul_calls": per("sim.matmul"),
        "sim.matmul_ms": ms("sim.matmul"),
        "sim.compare_ms": ms("sim.compare"),
        "sim.max_den_bits": props.den_bits,
        "analysis.is_clifford_calls": per("analysis.is_clifford"),
        "analysis.is_clifford_ms": ms("analysis.is_clifford"),
        "analysis.is_pauli_ms": ms("analysis.is_pauli"),
        "analysis.hierarchy_ms": ms("analysis.hierarchy"),
        "analysis.ringcert_ms": ms("analysis.ringcert"),
        "adjoint.obstruct_ms": ms("adjoint.obstruct"),
        "adjoint.adjoint_of_ms": ms("adjoint.adjoint_of"),
        "adjoint.patterns_ms": ms("adjoint.patterns"),
        "adjoint.lde_a_max": props.lde_a,
        "cli.self_ms": ms(tracing.ROOT_SPAN),
        "cli.parse_target_ms": ms("cli.parse_target"),
        "trace.overhead_pct": overhead_pct,
        "trace.missing_spans": len(tracer.missing),
    }


def write_spans(tracer, workload: str, seed: int) -> Path:
    out = HERE / ".out" / f"trace-{workload}-{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({
        "fields": ["name", "start_ns", "end_ns", "parent", "request"],
        "missing": tracer.missing,
        "counts": tracer.counts,
        "spans": tracer.spans,
    }))
    return out


# -- main -----------------------------------------------------------------

UNITS = {"setup_s": "s", "verdicts_per_s": "1/s", "verdict_p50_ms": "ms",
         "verdict_p90_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_per_s", "1/s"),
                         ("_pct", "%"), ("_share", "share"), ("_bits", "bits")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def throughput(ends: list[int], round_len: int) -> float:
    """Verdicts per second: a round's size over the median time of a whole round.

    Every round holds the same mix of requests, so the median round is robust
    to a stall that hits a few of them; a run shorter than a round falls back
    to the plain rate.
    """
    marks = [0] + ends[round_len - 1::round_len]
    if len(marks) < 2:
        return len(ends) / (ends[-1] / 1e9)
    return round_len / (statistics.median(b - a for a, b in zip(marks, marks[1:])) / 1e9)


def untraced(loop: Loop, args, setup_s: float, round_len: int, notes: list[str]):
    lat, ends = loop.run(seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ms = [t / 1e6 for t in lat]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    beyond = sum(1 for t in ms if t > p90)
    notes.append(f"{args.workload} seed {args.seed}: {len(ms)} verdicts in "
                 f"{ends[-1] / 1e9:.2f} s, {len(ms) // round_len} whole rounds "
                 f"of {round_len}, {beyond} beyond p90")
    return {
        "setup_s": setup_s,
        "verdicts_per_s": throughput(ends, round_len),
        "verdict_p50_ms": statistics.median(ms),
        "verdict_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb,
    }, len(ms)


def traced(loop: Loop, args, notes: list[str]):
    plain, _ = loop.run(seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    props = Properties(args.seed)
    tracer.install()
    try:
        spanned, _ = loop.run(count=len(plain), call=tracer.run,
                              after=lambda: props.take(tracer.kept))
    finally:
        tracer.uninstall()
    for label in tracer.missing:
        notes.append(f"trace: missing span {label}")
    _, _, per_request = tracer.self_times()
    unbalanced = sum(1 for own, root in per_request.values() if own != root)
    if unbalanced:
        notes.append(f"trace: {unbalanced} requests whose span self times "
                     "do not add up to the request span")
    overhead = (sum(spanned) / sum(plain) - 1) * 100
    micro = ring_micro(props.operands)
    path = write_spans(tracer, args.workload, args.seed)
    notes.append(f"{len(tracer.spans)} spans over {len(spanned)} traced verdicts "
                 f"written to {path.relative_to(ROOT)}")
    metrics = layer_metrics(tracer, props, len(spanned), overhead, micro)
    return metrics, len(plain) + len(spanned), not unbalanced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qutrit_exact" / "__init__.py").is_file():
        die(f"no package source under {SRC}; run from a checkout of the repository")
    if not (ROOT / "circuits").is_dir():
        die(f"no circuits/ directory under {ROOT}")
    os.chdir(ROOT)
    notes: list[str] = []
    correct = True

    if not args.trace:
        setup_s, ok = setup_seconds(notes)
        correct &= ok

    sys.path.insert(0, str(SRC))
    import qutrit_exact
    from qutrit_exact.cli.main import main as cli_main

    if Path(qutrit_exact.__file__).resolve().parent != SRC / "qutrit_exact":
        die(f"imported qutrit_exact from {qutrit_exact.__file__}, not from {SRC}")
    correct &= catalog_ok(cli_main, notes)

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rounds = workloads.build(args.workload, args.seed, ROUNDS[args.workload],
                                 str(workdir.relative_to(ROOT)))
        for q in (q for r in rounds for q in r if q.text is not None):
            Path(q.path).write_text(q.text)
        correct &= oracle_ok(rounds, args.workload, args.seed, notes)
        loop = Loop(cli_main, [q for r in rounds for q in r])
        if args.trace:
            metrics, attempted, ok = traced(loop, args, notes)
            correct &= ok
        else:
            metrics, attempted = untraced(loop, args, setup_s, len(rounds[0]), notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(loop.failures)
    correct &= failed == 0
    for line in notes + [f"fail: {f}" for f in loop.failures[:10]]:
        print(line)
    print(f"failed_share = {failed / attempted} share ({failed} of {attempted})")
    units = {name: UNITS.get(name) or layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
