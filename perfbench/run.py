#!/usr/bin/env python3
"""Benchmark of toric_spectrum: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload atlas --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and from nowhere else.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  See README.md next to this file.
"""

import argparse
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import (LADDER_DEPTH, LADDER_K, LADDER_RANK, ROADMAP_RANK3,  # noqa: E402
                       WORKLOADS, build, ladder_inputs)

# calls into the library that the benchmark makes itself, by module
API = {
    "semigroups": ("enumerate_faces", "contains", "hull_contains"),
    "characters": ("multiply", "involute", "polar_decompose", "evaluate",
                   "ray_limit", "chain_of_rays", "idempotent_lattice_ops"),
    "cli": ("analyze_document",),
}

# per-layer metrics: calls and self time of these spans ...
TRACED = (
    "cones.cone_from_rays", "cones.cone_from_inequalities", "cones.face_lattice",
    "cones.cone_contains_cone", "cones.Cone.contains",
    "intlinalg.rank_of_rows", "intlinalg.project_off", "intlinalg.hnf",
    "intlinalg.hnf_rows", "intlinalg.int_kernel", "intlinalg.quotient_invariants",
    "intlinalg.rational_coordinates", "intlinalg.lattice_contains",
    "semigroups.enumerate_faces", "semigroups.contains", "semigroups.hull_contains",
    "semigroups.SpectrumAtlas.meet", "semigroups.SpectrumAtlas.join",
    "characters.multiply", "characters.involute", "characters.polar_decompose",
    "characters.evaluate", "characters.ray_limit", "characters.chain_of_rays",
    "characters.idempotent_lattice_ops", "cli.analyze_document",
)
# ... plus self time per layer; "bench" is the benchmark's own code inside
# the timed region
LAYER_TOTALS = tracing.LAYERS + ("bench",)


@dataclass(frozen=True)
class Sizes:
    min_ops: int = 100       # timed operations per run, at least: p90 needs 100
    setup_reps: int = 5      # set-ups per run; setup_s is their median
    cli_reps: int = 15       # CLI subprocess runs; cli_p50_ms is their median
    ladder_reps: int = 3     # runs per ladder point; each point is their median


FULL = Sizes()

# The host's speed drifts by up to 1.8x over spells of seconds to tens of
# seconds (other tenants on the same cores), for this benchmark's code and
# the library alike.  A fixed pure-Python calibration (exact elimination on a
# constant matrix, the same kind of work as the library's) runs next to every
# timed region, and each time is scaled to the speed at which the
# calibration takes REFERENCE_CALIBRATION_S (about the median speed of a
# 2-vCPU Xeon host where the benchmark was tuned).
CALIBRATION_MATRIX = [[(3 * i + 7 * j) % 13 - 6 for j in range(6)] for i in range(6)]
REFERENCE_CALIBRATION_S = 0.005
CALIBRATION_PERIOD_S = 0.25


CLI_BASELINE = "import argparse, dataclasses, fractions, json"
REFERENCE_BASELINE_S = 0.09


def calibrate():
    start = time.perf_counter()
    for _ in range(20):
        reference.rank(CALIBRATION_MATRIX)
    return time.perf_counter() - start


def scaled(seconds, *calibrations):
    """A time at reference host speed, given the calibrations taken around
    it (their median, so that one disturbed calibration does not count)."""
    return seconds * REFERENCE_CALIBRATION_S / statistics.median(calibrations)


def import_package():
    """Import toric_spectrum afresh from the checkout's src/ and return
    (seconds, namespace of its modules)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "toric_spectrum"]:
        del sys.modules[name]
    importlib.invalidate_caches()
    start = time.perf_counter()
    modules = {name: importlib.import_module(f"toric_spectrum.{name}")
               for name in tracing.LAYERS + ("oracle",)}
    elapsed = time.perf_counter() - start
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"toric_spectrum imported from {origin}, not from {SRC}")
    return elapsed, SimpleNamespace(**modules)


def make_api(lib):
    return SimpleNamespace(**{name: getattr(getattr(lib, module), name)
                              for module, names in API.items() for name in names})


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def setup(workload, sizes):
    """Import plus the workload's preparation calls, repeated; returns the
    median time and the library state of the last repetition."""
    times = []
    for _ in range(sizes.setup_reps):
        before = calibrate()
        import_s, lib = import_package()
        api = make_api(lib)
        start = time.perf_counter()
        workload.prepare(lib, api)
        times.append(scaled(import_s + time.perf_counter() - start, before, calibrate()))
    return statistics.median(times), lib, api


def ladders(lib, seed, reps):
    """Scaling curves, untraced: p50 wall time per rung."""
    ranks, depths, targets = ladder_inputs(seed)
    out = {}

    def p50_ms(calls):
        times = []
        for call in calls:
            lib.cones.face_lattice.cache_clear()
            before = calibrate()
            start = time.perf_counter()
            call()
            times.append(scaled(time.perf_counter() - start, before, calibrate()))
        return statistics.median(times) * 1000

    def atlases(plains):
        return [lambda s=build(lib, p): lib.semigroups.enumerate_faces(s) for p in plains[:reps]]

    for r in LADDER_RANK:
        out[f"semigroups.enumerate_faces.rank{r}.p50_ms"] = p50_ms(atlases(ranks[r]))
    for d in LADDER_DEPTH:
        out[f"semigroups.enumerate_faces.depth{d}.p50_ms"] = p50_ms(atlases(depths[d]))
    spec = lib.semigroups.Generators(3, ROADMAP_RANK3)
    lib.semigroups.contains(spec, ROADMAP_RANK3[0])
    for k in LADDER_K:
        out[f"semigroups.contains.k{k}.p50_ms"] = p50_ms(
            [lambda: lib.semigroups.contains(spec, targets[k])] * reps)
    return out


class CliTimer:
    """The CLI as a serial subprocess on the workload's own commands, from
    spec files written under perfbench/out.  Each output must equal that of
    the same command run in-process.  Samples are spread evenly over the
    closed loop, so a slow spell of the machine hits few of them.

    The in-process calibration does not track a child process (it may run on
    the other core, and its time is mostly interpreter start-up and imports),
    so each CLI time is scaled instead by a baseline child started just
    before it: the interpreter importing the standard modules the CLI uses."""

    def __init__(self, workload, lib):
        self.scratch = OUT / f"cli-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times, self.bad = [], 0
        self.cases = []
        for i, (argv, doc) in enumerate(workload.cli_cases(lib)):
            path = self.scratch / f"spec{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv = [str(path) if a == "{path}" else a for a in argv]
            buffer = io.StringIO()
            code = lib.cli.main(argv, out=buffer)
            self.cases.append((argv, buffer.getvalue(), code))

    def sample(self):
        """Run the next command and record its scaled wall time."""
        argv, expected, code = self.cases[len(self.times) % len(self.cases)]
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", CLI_BASELINE], cwd=ROOT, env=self.env,
                       capture_output=True, timeout=60, check=True)
        baseline = time.perf_counter() - start
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "toric_spectrum.cli", *argv],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        self.times.append(elapsed * REFERENCE_BASELINE_S / baseline)
        self.bad += proc.returncode != code or proc.stdout != expected

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def closed_loop(workload, lib, api, seconds, sizes, tracer=None, cli=None):
    """Run operations one at a time until ``seconds`` of wall time have
    passed and at least ``sizes.min_ops`` operations completed.  Only the
    call into the library is timed; checks (and CLI samples) run between
    timed regions.  Returns the latencies at reference host speed, the
    number of failed operations, and the face and face_lattice cache counts
    of the counted prefix."""
    latencies, blocks, failed, faces = [], [], 0, 0
    face_lattice = lib.cones.face_lattice
    hits = misses = 0
    calibrations = [calibrate()]
    begin = time.perf_counter()
    for i, op in enumerate(workload.operations(lib, api)):
        now = time.perf_counter() - begin
        if now >= CALIBRATION_PERIOD_S * len(calibrations):
            calibrations.append(calibrate())
        if cli and len(cli.times) < sizes.cli_reps and (
                now >= seconds * len(cli.times) / sizes.cli_reps):
            cli.sample()
        if i >= sizes.min_ops and now >= seconds:
            break
        if tracer:
            tracer.op = i
            tracer.counting = i < sizes.min_ops
            before = face_lattice.cache_info()
            tracer.active = True
            tracer.enter("bench.op")
        result, error = None, None
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.exit()
            tracer.active = False
            if tracer.counting:
                after = face_lattice.cache_info()
                hits += after.hits - before.hits
                misses += after.misses - before.misses
        latencies.append(elapsed)
        blocks.append(len(calibrations) - 1)
        ok = error is None
        if ok:
            try:
                ok = bool(op.check(result))
            except Exception as exc:  # a check that raises is a failed check
                error = exc
                ok = False
        if not ok:
            failed += 1
            if failed <= 5:
                reason = repr(error) if error else "check failed"
                print(f"operation {i} failed: {reason}", file=sys.stderr)
        elif tracer and tracer.counting:
            faces += workload.faces_of(result)
    while cli and len(cli.times) < sizes.cli_reps:
        cli.sample()
    calibrations.append(calibrate())
    latencies = [scaled(t, *calibrations[max(0, b - 2):b + 4])
                 for t, b in zip(latencies, blocks)]
    return latencies, failed, faces, hits, misses


def environment():
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(name, seed, seconds, trace, sizes=FULL):
    """One benchmark run; returns the result object printed as JSON."""
    print(f"environment {json.dumps(environment())}", file=sys.stderr)
    workload = WORKLOADS[name](seed)
    setup_s, lib, api = setup(workload, sizes)
    workload.references(lib)
    if not trace:
        cli = CliTimer(workload, lib)
        try:
            latencies, failed, _, _, _ = closed_loop(workload, lib, api, seconds, sizes,
                                                     cli=cli)
        finally:
            cli.close()
        ms = [t * 1000 for t in latencies]
        cli_runs = len(cli.times)
        attempted = len(latencies) + cli_runs
        failed += cli.bad
        metrics = {
            "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
            "latency_p50_ms": metric(percentile(ms, 50), "ms"),
            "latency_p90_ms": metric(percentile(ms, 90), "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_frac": metric((attempted - failed) / attempted, "ratio"),
            "cli_p50_ms": metric(statistics.median(cli.times) * 1000, "ms"),
        }
        print(f"{name} seed {seed}: {len(latencies)} timed operations, {cli_runs} CLI runs, "
              f"{failed} failed", file=sys.stderr)
    else:
        metrics = {key: metric(value, "ms")
                   for key, value in ladders(lib, seed, sizes.ladder_reps).items()}
        tracer = tracing.Tracer()
        tracer.install(lib, api)
        latencies, failed, faces, hits, misses = closed_loop(workload, lib, api, seconds,
                                                             sizes, tracer)
        attempted = len(latencies)
        for span in TRACED:
            metrics[f"{span}.calls"] = metric(tracer.calls[span], "count")
            metrics[f"{span}.self_s"] = metric(tracer.self_s[span], "s")
        for layer in LAYER_TOTALS:
            metrics[f"{layer}.self_s"] = metric(tracer.layer_self_s(layer), "s")
        metrics["cones.cone_from_rays.per_face"] = metric(
            tracer.calls["cones.cone_from_rays"] / faces if faces else 0, "calls/face")
        metrics["cones.face_lattice.hit_ratio"] = metric(
            hits / (hits + misses) if hits + misses else 0, "ratio")
        metrics["traced.ops_per_s"] = metric(len(latencies) / sum(latencies), "1/s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.json")
        traced_s = sum(tracer.layer_self_s(layer) for layer in LAYER_TOTALS)
        shares = {layer: round(tracer.layer_self_s(layer) / traced_s, 3)
                  for layer in LAYER_TOTALS}
        print(f"{name} seed {seed}: {attempted} traced operations, {failed} failed; "
              f"self-time shares {json.dumps(shares)}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toric_spectrum").is_dir():
        print(f"no package source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
