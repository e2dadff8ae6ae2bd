"""Seeded benchmark for slsn: one workload per run, one closed-loop client.

    python3 perfbench/run.py --workload exact-solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up imports slsn from ``src/``,
generates the seeded corpus and writes its instance files; it is repeated
SETUP_REPS times and reported as a median.  The timed loop then runs whole
blocks of the corpus, one item at a time, until the item times add up to
``--seconds`` and the workload's minimum number of blocks ran.  Output
checks run outside the item times.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs every block twice, once with spans around each module's
public functions and once without, in alternating order, and reports the
per-layer metrics plus the traced/untraced throughput ratio; the spans are
written to ``perfbench/out/``.  The last stdout line is the JSON result.
Exit status: 0 when every output checks out, 1 when one does not, 2 on a
bad invocation or a checkout without ``src/slsn``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import corpus
import items
from checks import CheckError
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("core", "formats", "oracle", "classifier", "exact_const", "star_dst",
           "approx", "gadgets", "cli")
SETUP_REPS = 3
ITEM_CAP_S = 30.0
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


class ItemTimeout(BaseException):
    """Raised by SIGALRM when an item runs over its cap."""


def _alarm(signum, frame):
    raise ItemTimeout()


def setup(workload, seed, workdir):
    """Fresh import of slsn plus corpus generation; returns (seconds, slsn, blocks)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "slsn"]:
        del sys.modules[name]
    start = perf_counter()
    slsn = importlib.import_module("slsn")
    for name in MODULES:
        importlib.import_module(f"slsn.{name}")
    blocks = corpus.build(workload, seed, str(workdir))
    return perf_counter() - start, slsn, blocks


def run_item(fn, slsn, item):
    """(seconds, output, error) for one capped call."""
    signal.setitimer(signal.ITIMER_REAL, ITEM_CAP_S)
    start = perf_counter()
    try:
        out, error = fn(slsn, item), None
    except ItemTimeout:
        out, error = None, f"over the {ITEM_CAP_S:g} s item cap"
    except Exception:  # an item that raises is recorded as failed; the run goes on
        out, error = None, traceback.format_exc(limit=-3)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
    return elapsed, out, error


@dataclass(frozen=True)
class Attempt:
    item: corpus.Item
    seconds: float
    ok: bool  # completed without error, before the deferred checks
    pass_no: int  # one run of one block
    traced: bool


class Run:
    """The timed loop's attempts, signatures and failures."""

    def __init__(self, workload, slsn):
        self.gadget = workload == "gadget-certify"
        self.slsn = slsn
        self.attempts: list[Attempt] = []
        self.pass_no = 0
        self.traced = False
        self.signature = {}  # item key -> signature of its first completed run
        self.first = {}  # item key -> (item, output) awaiting the deferred check
        self.errors = {}  # item key -> first error

    def attempt(self, item):
        fn = items.run_gadget if self.gadget else items.run_solve
        elapsed, out, error = run_item(fn, self.slsn, item)
        if error is None:
            try:
                error = self._record(item, out)
            except CheckError as exc:
                error = f"check: {exc}"
            except Exception:  # a malformed output fails its check
                error = "check: " + traceback.format_exc(limit=-3)
        self.attempts.append(Attempt(item, elapsed, error is None, self.pass_no, self.traced))
        if error is not None:
            self.errors.setdefault(item.key, error)
        return elapsed

    def _record(self, item, out):
        if self.gadget:
            sig = items.gadget_signature(out)
        else:
            sig = items.solve_signature(out)
            if sig[1] not in (0, 3):
                return f"check: exit code {sig[1]}"
        if item.key not in self.signature:
            self.signature[item.key] = sig
            if self.gadget:
                items.check_gadget(out)  # the outputs are too large to keep
            else:
                self.first[item.key] = (item, out)
        elif self.signature[item.key] != sig:
            return "output differs from the item's first run"
        return None

    def deferred_checks(self):
        for key, (item, out) in self.first.items():
            try:
                items.check_solve(self.slsn, item, out)
            except CheckError as exc:
                self.errors.setdefault(key, f"check: {exc}")
            except Exception:  # a crashing reference is a failed check, reported
                self.errors.setdefault(key, "check: " + traceback.format_exc(limit=-3))
        self.first.clear()

    def completed(self, a):
        return a.ok and a.item.key not in self.errors

    def digest(self, blocks):
        h = hashlib.sha256()
        for block in blocks:
            for item in block:
                h.update(repr((item.key, self.signature.get(item.key))).encode())
        return h.hexdigest()[:16]


def nearest_rank(sorted_values, q):
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def tail_quantile(n_min):
    """Highest whole percentile with TAIL_BEYOND samples beyond it at n_min samples."""
    return math.floor(100 * (n_min - TAIL_BEYOND) / n_min) / 100


def timed_loop(run, blocks, min_blocks, seconds, tracer=None):
    """Whole blocks until the item times reach `seconds` and min_blocks ran.

    With a tracer, each block runs untraced and traced, in alternating
    order.  Every run of a block is one pass; run records each attempt's.
    """
    measured = 0.0
    done = 0
    while done < min_blocks or measured < seconds:
        block = blocks[done % len(blocks)]
        for with_spans in [False] if tracer is None else [done % 2 == 0, done % 2 == 1]:
            run.pass_no += 1
            run.traced = with_spans
            if with_spans:
                tracer.install()
            try:
                for item in block:
                    if with_spans:
                        tracer.item = item.key
                    measured += run.attempt(item)
            finally:
                if with_spans:
                    tracer.uninstall()
                    tracer.item = None
        done += 1


def block_throughput(run):
    """Median over untraced passes of completed items per second of item time.

    Every pass is one block, so each holds the workload's stated mix; the
    median keeps a burst of load from another process, or one block of
    unusually hard instances, from setting the figure.
    """
    per_pass = {}
    for a in run.attempts:
        if not a.traced:
            row = per_pass.setdefault(a.pass_no, [0, 0.0])
            row[0] += run.completed(a)
            row[1] += a.seconds
    return statistics.median(done / t for done, t in per_pass.values()), len(per_pass)


def per_layer_metrics(tracer, run):
    plain = sum(a.seconds for a in run.attempts if not a.traced)
    traced = sum(a.seconds for a in run.attempts if a.traced)
    traced_items = sum(a.traced for a in run.attempts)
    values = {}
    for name, (calls, busy, own) in tracer.layer_totals().items():
        values[f"{name}.calls"] = calls / traced_items
        values[f"{name}.busy_s"] = busy / traced_items
        values[f"{name}.self_s"] = own / traced_items
    for name, total in tracer.counts.items():
        values[name] = total / traced_items
    calls = values.get("core.feasibility_check.calls", 0) * traced_items
    values["core.feasibility_check.feasible_ratio"] = (
        tracer.counts.get("core.feasibility_check.feasible", 0) / calls if calls else 0.0)
    values["tracing.throughput_ratio"] = plain / traced if traced else 0.0
    values["tracing.item_s"] = traced / traced_items
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "slsn" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/slsn package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _alarm)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, workdir):
    setups = []
    for _ in range(SETUP_REPS):
        seconds, slsn, blocks = setup(args.workload, args.seed, workdir)
        setups.append(seconds)
    # The corpus stays alive for the whole run; freezing it keeps the
    # collector from rescanning it during items, as in a fresh CLI process.
    gc.collect()
    gc.freeze()
    run = Run(args.workload, slsn)
    tracer = Tracer("slsn") if args.trace else None
    min_blocks = corpus.BLOCKS[args.workload][1]
    timed_loop(run, blocks, min_blocks, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = perf_counter()
    run.deferred_checks()
    check_s = perf_counter() - start

    attempted = len(run.attempts)
    failed = sum(not run.completed(a) for a in run.attempts)
    lat = sorted(a.seconds * 1000 for a in run.attempts)
    covered = blocks[:min_blocks]
    n_min = sum(len(b) for b in covered)
    q = tail_quantile(n_min)
    p = print
    p(f"workload {args.workload} seed {args.seed} trace {args.trace} "
      f"python {sys.version.split()[0]} nproc {os.cpu_count()}")
    total_s = sum(a.seconds for a in run.attempts)
    p(f"items {attempted} in {total_s:.3f} s of item time, "
      f"blocks of {len(blocks[0])} items")
    p(f"failed_share {failed / attempted:.4f} ({failed}/{attempted})")
    for key, error in sorted(run.errors.items()):
        p(f"  failed {key}: {error.strip().splitlines()[-1]}")
    p(f"outputs_digest {run.digest(covered)} over the {n_min} items of the first "
      f"{min_blocks} blocks; "
      f"deferred checks took {check_s:.2f} s")
    for stratum in dict.fromkeys(a.item.stratum for a in run.attempts):
        ts = [a.seconds for a in run.attempts if a.item.stratum == stratum]
        p(f"  stratum {stratum}: {len(ts)} items, p50 {statistics.median(ts) * 1000:.2f} ms, "
          f"max {max(ts) * 1000:.2f} ms, {sum(ts) / total_s:.1%} of item time")

    if tracer is None:
        throughput, passes = block_throughput(run)
        values = {
            "throughput_items_per_s": throughput,
            "latency_ms_p50": statistics.median(lat),
            "latency_ms_tail": nearest_rank(lat, q),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setups),
        }
        notes = {
            "latency_ms_tail": f"p{round(q * 100)} of {attempted} samples, "
                               f"{attempted - math.ceil(q * attempted)} beyond",
            "throughput_items_per_s": f"median over {passes} blocks",
            "setup_s": f"median of {SETUP_REPS}",
            "peak_rss_mb": "process high-water RSS after the timed loop",
        }
        wanted = spec["end_to_end"]
    else:
        values = per_layer_metrics(tracer, run)
        notes = {}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        item_s = values["tracing.item_s"]
        p(f"layer self time as a share of traced item time ({item_s * 1000:.2f} ms/item):")
        shares = sorted(((v / item_s, k) for k, v in values.items() if k.endswith(".self_s")),
                        reverse=True)
        for share, name in shares:
            p(f"  {share:7.2%}  {name}")
        wanted = spec["per_layer"]

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        note = notes.get(m["name"])
        p(f"{m['name']} {metrics[m['name']]['value']:.6g} {m['unit']}"
          + (f" ({note})" if note else ""))
    correct = not any(e.startswith("check:") for e in run.errors.values())
    p(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
