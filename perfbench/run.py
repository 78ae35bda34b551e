#!/usr/bin/env python3
"""Run one benchmark workload against the geneasm sources of this checkout.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 15 --trace 0

Workloads: crossval, scale, realism, cli (see README.md).  The run is
a closed loop with a single caller: one op at a time, each timed on its
own.  It measures for at least ``--seconds`` seconds and at least
``MIN_OPS`` ops, and stops only at the end of a block of ops.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced blocks and prints the per-layer
metrics, including the tracing overhead.  Metric names and units come
from ``BENCHMARK.json`` at the repository root.  Human-readable lines
start with ``#``; the last line of stdout is one JSON object.  Results
(and, when traced, the spans) are written under ``perfbench/out/``.

The exit code is 0 when every output check passed, 1 when one failed and
2 when the geneasm sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from bench_spec import LAYER_FUNCTIONS, OPAQUE_LAYERS
from bench_trace import OP_SPAN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 110  # so that at least ten samples lie above p90
SETUP_REPEATS = 11
WARMUP_S = 1.0
HARD_CAP_S = 120.0


def _import_geneasm() -> str | None:
    """Import geneasm from this checkout; return what went wrong, if anything."""
    if not os.path.isfile(os.path.join(SRC, "geneasm", "__init__.py")):
        return f"no geneasm sources under {SRC}"
    sys.path.insert(0, SRC)
    import geneasm

    if os.path.dirname(os.path.dirname(os.path.abspath(geneasm.__file__))) != SRC:
        return f"imported geneasm from {geneasm.__file__}, not from {SRC}"
    return None


def git_sha(root: str) -> str:
    """Commit of the checkout, read from .git without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    from geneasm import kernels

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernels_backend": kernels.backend_name(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
    }


# ---------------------------------------------------------------------------
# measuring

def fresh_interpreter_s(code: str) -> float:
    """Wall time of a fresh interpreter that runs code.

    No timeout is passed: with one, ``wait`` polls with sleeps of up to
    50 ms, which would round every sample up to that grid.
    """
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - started


def median_fresh_interpreter_s(code: str, repeats: int = SETUP_REPEATS) -> float:
    """Median of repeated fresh interpreters, after one untimed one."""
    fresh_interpreter_s(code)
    return statistics.median(fresh_interpreter_s(code) for _ in range(repeats))


class Loop:
    """Runs ops one at a time, a block at a time."""

    def __init__(self, workload):
        self.w = workload
        self.cursor = 0
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, seconds: float, min_ops: int, tracer=None, between=None) -> list[list[float]]:
        """Latencies of each block, until both seconds and min_ops are reached.

        ``between(elapsed)``, if given, runs after each op; its own time
        does not count towards ``seconds``.
        """
        blocks: list[list[float]] = []
        started = time.perf_counter()
        while True:
            block = []
            for _ in range(self.w.block):
                block.append(self._op(tracer))
                if between is not None:
                    paused = time.perf_counter()
                    between(paused - started)
                    started += time.perf_counter() - paused
            blocks.append(block)
            wall = time.perf_counter() - started
            done = wall >= seconds and len(blocks) * self.w.block >= min_ops
            if done or wall >= HARD_CAP_S:
                return blocks

    def _op(self, tracer) -> float:
        w = self.w
        i = self.cursor
        self.cursor += 1
        if tracer is not None:
            # making the input is traced only as the opaque sampling step
            tracer.op_id = i
            tracer.active, tracer.only = True, OPAQUE_LAYERS
        inp = w.make_input(i)
        if tracer is not None:
            tracer.only = None
        span = tracer.open(OP_SPAN) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out, reason = w.op(inp), None
        except Exception as exc:  # a raising op is a failed op
            out, reason = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(span)
            tracer.active = False
        reason = reason or w.check(inp, out)
        if tracer is not None and reason is None and hasattr(w, "replay"):
            tracer.active = True
            try:
                out = w.replay(inp)
            except Exception as exc:
                reason = f"in-process replay raised {type(exc).__name__}: {exc}"
            finally:
                tracer.active = False
            reason = reason or w.check(inp, out)
        self.attempted += 1
        if reason:
            self.failures.append({"op": i, "reason": reason, "input": w.describe(inp)})
        return elapsed

    def warm_up(self) -> None:
        started = time.perf_counter()
        while time.perf_counter() - started < WARMUP_S:
            self._op(None)
        self.cursor = 0
        gc.collect()


def _flat(blocks: list[list[float]]) -> list[float]:
    return [x for block in blocks for x in block]


def latency_metrics(latencies: list[float]) -> dict:
    ms = sorted(x * 1000 for x in latencies)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    p90 = deciles[8]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1000),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": p90,
        "samples": len(ms),
        "above_p90": sum(1 for x in ms if x > p90),
        "timed_s": sum(ms) / 1000,
    }


def layer_metrics(tracer, op_time_s: float, overhead: float, interp_ms: float,
                  import_ms: float) -> dict:
    rows = tracer.self_times()
    counters = tracer.counters
    out = {}
    for layer in LAYER_FUNCTIONS:
        calls, self_s, _total = rows.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.busy_s"] = self_s
        out[f"{layer}.share"] = self_s / op_time_s if op_time_s else 0.0
    out["direct.candidate_edges"] = counters["direct.candidate_edges"]
    out["direct.edges_found"] = counters["direct.edges_found"]
    calls = rows.get("rewriting.successful_in", (0,))[0]
    out["rewriting.successful_in.true_ratio"] = (
        counters["rewriting.successful_in.true"] / calls if calls else 0.0
    )
    calls = rows.get("overlap.is_realistic_overlap", (0,))[0]
    out["realism.witness_ratio"] = counters["realism.witnesses"] / calls if calls else 0.0
    out["cli.interpreter_ms"] = interp_ms
    out["cli.import_ms"] = import_ms
    out["trace.overhead"] = overhead
    return out


# ---------------------------------------------------------------------------
# reporting

def _module_self_times(rows: dict) -> list[tuple[str, float]]:
    modules: dict[str, float] = {}
    for name, (_calls, self_s, _total) in rows.items():
        if name == OP_SPAN:
            continue
        key = name if name.startswith("kernels.") else name.split(".")[0]
        modules[key] = modules.get(key, 0.0) + self_s
    return sorted(modules.items(), key=lambda kv: -kv[1])


def report_layers(workload, tracer, layers: dict, op_time_s: float) -> list[str]:
    rows = tracer.self_times()
    lines = ["# per-layer self time in the traced blocks (calls, self s, share of op time):"]
    for name, (calls, self_s, _total) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        share = self_s / op_time_s if op_time_s else 0.0
        label = "op (not inside a layer)" if name == OP_SPAN else name
        lines.append(f"#   {label:44s} {calls:8d} {self_s:10.4f} s {share:7.2%}")
    ranked = _module_self_times(rows)
    if ranked:
        lines.append("# largest self time by layer: "
                     + ", ".join(f"{k} {v:.3f} s" for k, v in ranked[:4]))
    if workload.name == "cli":
        short_ops = {op for name, _s, _e, _p, op in tracer.spans
                     if name == OP_SPAN and workload.is_short(op)}
        per_op: dict[str, float] = {}
        for (name, start, end, _parent, op), child in zip(tracer.spans, tracer.child_time):
            if name != OP_SPAN and op in short_ops:
                per_op[name] = per_op.get(name, 0.0) + (end - start - child)
        top = sorted(per_op.items(), key=lambda kv: -kv[1])[:3]
        lines.append(
            f"# cli short verbs, per process: import {layers['cli.import_ms']:.1f} ms, interpreter "
            f"{layers['cli.interpreter_ms']:.1f} ms; largest in-process self time per op: "
            + ", ".join(f"{k} {v / max(len(short_ops), 1) * 1000:.2f} ms" for k, v in top)
        )
    lines.append(f"# tracing overhead (1 - traced/untraced ops_per_s): {layers['trace.overhead']:.2%}")
    return lines


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None, size: str = "full", min_ops: int = MIN_OPS) -> int:
    """Run one workload; ``size`` and ``min_ops`` shrink it for the tests."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _import_geneasm()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # input generation is traced only as the opaque sampling step
        tracer.install()
        tracer.active, tracer.only = True, OPAQUE_LAYERS
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, size)
    finally:
        if tracer is not None:
            tracer.active, tracer.only = False, None
            tracer.uninstall()
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    result = {"env": env}
    lines = [f"# env: {json.dumps(env, sort_keys=True)}"]

    loop = Loop(workload)
    if tracer is None:
        fresh_interpreter_s(workload.setup)  # untimed: writes the bytecode caches
        setup: list[float] = []  # samples spread over the run, like its ops

        def sample_setup(elapsed):
            if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * args.seconds / SETUP_REPEATS:
                setup.append(fresh_interpreter_s(workload.setup))

        loop.warm_up()
        blocks = loop.run(args.seconds, min_ops, between=sample_setup)
        while len(setup) < SETUP_REPEATS:
            setup.append(fresh_interpreter_s(workload.setup))
        lat = latency_metrics(_flat(blocks))
        values = {name: lat[name] for name in ("ops_per_s", "op_ms.p50", "op_ms.p90")}
        values["setup_s"] = statistics.median(setup)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in load_spec()["end_to_end"]}
        lines.append(f"# {args.workload}: {len(blocks)} blocks of {workload.block} ops; "
                     f"{lat['samples']} samples (one per op), {lat['timed_s']:.2f} s timed, "
                     f"{lat['above_p90']} samples above p90")
        for name, (value, unit) in metrics.items():
            lines.append(f"#   {name:10s} = {value:.6g} {unit}")
        lines.append(f"#   (setup_s: median of {SETUP_REPEATS} fresh interpreters spread over the run)")
        result["latency"] = lat
        result["blocks_ms"] = [[x * 1000 for x in b] for b in blocks]
    else:
        interp_ms = median_fresh_interpreter_s("pass") * 1000
        import_ms = median_fresh_interpreter_s("import geneasm.cli") * 1000 - interp_ms
        loop.warm_up()
        # alternate blocks, so that both sides see the same changes in machine speed
        plain_blocks, traced_blocks = [], []
        started = time.perf_counter()
        while time.perf_counter() - started < args.seconds:
            plain_blocks += loop.run(0, 1)
            tracer.install()
            try:
                traced_blocks += loop.run(0, 1, tracer)
            finally:
                tracer.uninstall()
        plain, traced = latency_metrics(_flat(plain_blocks)), latency_metrics(_flat(traced_blocks))
        overhead = 1 - traced["ops_per_s"] / plain["ops_per_s"]
        layers = layer_metrics(tracer, traced["timed_s"], overhead, interp_ms, import_ms)
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in load_spec()["per_layer"]}
        lines.append(f"# {args.workload}: untraced {plain['ops_per_s']:.4g} ops/s, traced "
                     f"{traced['ops_per_s']:.4g} ops/s; "
                     f"{len(tracer.spans)} spans")
        lines += report_layers(workload, tracer, layers, traced["timed_s"])
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
        result["untraced"], result["traced"] = plain, traced

    failed = len(loop.failures)
    lines.append(f"#   fail_ratio = {failed} / {loop.attempted} = {failed / loop.attempted:.6g}")
    for failure in loop.failures[:5]:
        lines.append(f"#   FAILED op {failure['op']}: {failure['reason']} -- {failure['input']}")
    result.update(metrics={k: v for k, (v, _u) in metrics.items()},
                  attempted=loop.attempted, failed=failed, failures=loop.failures[:100])
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
