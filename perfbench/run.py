"""paintnet benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload pretrain-desk --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                  # every workload, untraced

Run from the root of a paintnet checkout.  Each workload writes seeded
synthetic inputs, prepares any checkpoint it needs, then for --seconds
seconds runs its `paintnet` command again and again, each time in a
fresh process (child.py) so imports, image ingestion, checkpoint I/O and
--threads are paid as a user pays them.  A run ends at the command
boundary nearest to --seconds, but not before two untraced commands
have run, so a crossval-mid run (about 23 s a command on 2 vCPUs) takes
about 46 s.  Every command's outputs are checked.  Metrics are medians
over the commands of the run.

--trace 0 reports the end-to-end metrics with only the phase entry
points timed.  They are taken in CPU time of the command's process:
setup_s up to the first phase call, cpu_s for the whole command, and
samples_per_cpu_s, samples per CPU second inside pretrain on
pretrain-desk, finetune on crossval-mid and evaluate on evaluate-desk.
CPU time leaves out hypervisor steal and waits for a CPU, which on a
shared host move wall times by a quarter from one run to the next; the
wall-clock figures (wall_s, setup_wall_s, each phase's samples_per_s)
are printed beside them.  A change that spreads a phase over threads
shows in those, not in samples_per_cpu_s.

--trace 1 alternates untraced and traced commands and reports per-layer
self times taken from spans recorded around paintnet's public functions
(see child.py and tracer.py), plus the tracing overhead in CPU time.
On pretrain-desk each traced cycle adds a traced command at two
workers, the source of the pretrain pool metrics.  The last line of
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import synth
from tracer import PHASES, STRUCTURAL, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS thread per process: the engine's matrices are small enough that
# more BLAS threads add scheduling noise, not speed, and workers x BLAS
# threads is then just --threads, at most 2 in every workload.
BLAS_THREADS = 1
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # paintnet subcommand
    phase: str                 # engine loop whose throughput is samples_per_cpu_s
    side: int                  # model input is side x side
    channels: tuple[int, int]
    source_side: int           # generated PPMs are source_side x source_side
    images: int                # dealt round-robin to the three classes
    threads: int               # --threads given to paintnet
    pool_threads: int = 0      # traced runs add a command at this many workers
    fc_sizes: tuple[int, int] = (64, 32)
    lr0: float = 0.01
    epochs_pretrain: int = 0
    epochs_finetune: int = 0
    folds: int = 2
    why: str = ""


# Sizes.  pretrain-desk is the 64-image, 2-epoch desk run the ROADMAP's
# pretrain figures are given for: four full batches of 16 an epoch.
# crossval-mid has 36 images, 12 a class: stratified 2-fold splits deal 6
# a class to each fold, so each fold trains on 18 samples, one full batch
# of 16 and a tail of 2, as a real data set ends; with fewer than 12 a
# class some fold trains on a single partial batch.  evaluate-desk has 96
# images of 512x512 (72 MiB of PPM), enough that ingestion and the
# forward pass each take a second or so, well above the timer's grain.
#
# pretrain-desk trains at lr0 0.1 rather than the desk profile's 0.01: at
# 0.01 two epochs move the loss by under 1%, less than a fresh draw of
# corruption masks can, so the falling-loss check would fail on some seeds.
# Its timed commands run one worker: on a 2-vCPU VM whose host takes back
# up to a third of each vCPU at busy times, two-worker wall times were
# bimodal (IQR 25-28% of the median over ten seeds), more than any bound
# the benchmark can fix.  Its traced runs add a command at two workers,
# which measures the pool (autoencoder.sample_ms, batch_wait_ms,
# parallel_efficiency) and checks that --threads changes no output bit.
# crossval-mid and evaluate-desk pass --threads 2, which those commands do
# not use yet, so a change that makes them use it shows without a
# benchmark change.
WORKLOADS = {w.name: w for w in (
    Workload("pretrain-desk", "pretrain", "pretrain", side=64, channels=(8, 16),
             source_side=64, images=64, threads=1, pool_threads=2, epochs_pretrain=2,
             lr0=0.1,
             why="denoising CAE pretraining at the desk profile, timed at one worker, traced "
                 "also at two: conv/deconv forward and backward, corruption, the worker "
                 "pool; no dense layers or resampling"),
    Workload("crossval-mid", "crossval", "finetune", side=128, channels=(32, 64),
             source_side=128, images=36, threads=2, epochs_finetune=1, folds=2,
             why="classifier path at BLAS-sized shapes: 65536-wide fc1, its RNG init, "
                 "34 MB fold checkpoints, cae.dpnt loads; no decoder or corruption"),
    Workload("evaluate-desk", "evaluate", "evaluate", side=64, channels=(8, 16),
             source_side=512, images=96, threads=2,
             why="forward-only conv and dense layers plus checkpoint reads and decoding "
                 "and resampling 512x512 PPMs to 64x64"),
)}

# Timings are CPU time of the command's process, which on this kind of host
# leaves out what other tenants take: the guest kernel accounts hypervisor
# steal outside a task's CPU time, and run-queue waits are not CPU time either.
END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "samples_per_cpu_s": "1/s",
                    "peak_rss_mb": "MB"}

# wall-clock figures, printed beside the end-to-end metrics but not gated:
# on a shared host their spread between runs is wider than any bound
WALL_UNITS = {"wall_s": "s", "setup_wall_s": "s", "pretrain_samples_per_s": "1/s",
              "finetune_samples_per_s": "1/s", "evaluate_samples_per_s": "1/s"}

STAGES = ("conv1", "conv2", "dec1", "dec2", "pool", "unpool", "fc1", "head")


def per_layer_units() -> dict[str, str]:
    units = {}
    for st in STAGES:
        units[f"layers.{st}.fwd_ms"] = "ms"
        units[f"layers.{st}.bwd_ms"] = "ms"
        units[f"layers.{st}.calls"] = "count"
    units.update({
        "autoencoder.corrupt_ms": "ms", "data.rng.sample_indices_ms": "ms",
        "autoencoder.sample_ms": "ms", "autoencoder.batch_wait_ms": "ms",
        "autoencoder.parallel_efficiency": "ratio",
        "classifier.build_ms": "ms", "autoencoder.build_ms": "ms",
        "data.rng.uniform_array_ms": "ms", "data.rng.draws": "count",
        "data.image.decode_ms": "ms", "data.image.resample_ms": "ms",
        "data.image.bytes_in": "bytes",
        "persist.save_ms": "ms", "persist.bytes_out": "bytes",
        "persist.load_ms": "ms", "persist.bytes_in": "bytes",
        "optim.sgd_step_ms": "ms", "optim.steps": "count",
        "metrics.evaluate_ms": "ms",
        "pretrain.uncovered_ms": "ms", "finetune.uncovered_ms": "ms",
        "evaluate.uncovered_ms": "ms",
        "trace.overhead_share": "ratio",
    })
    return units


PER_LAYER_UNITS = per_layer_units()

# per-layer metrics taken from the commands at pool_threads workers
POOL_METRICS = ("autoencoder.sample_ms", "autoencoder.batch_wait_ms",
                "autoencoder.parallel_efficiency")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine so far, where /proc/stat exists."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return None
    return ticks[7], sum(ticks)


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without a dict-mode show_config
        pass
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# preparation (untimed)
# ---------------------------------------------------------------------------

def stage_map(w: Workload) -> dict[str, str]:
    """Channel shape -> stage name, so spans can tell conv1 from conv2."""
    c1, c2 = w.channels
    flat = c2 * (w.side // 4) ** 2
    return {f"conv:{c1}x3": "conv1", f"conv:{c2}x{c1}": "conv2",
            f"deconv:{c1}x{c2}": "dec2", f"deconv:3x{c1}": "dec1",
            f"dense:{w.fc_sizes[0]}x{flat}": "fc1"}


def prepare(w: Workload, seed: int, work: Path) -> list[str]:
    """Inputs, config and checkpoints in work; returns the paintnet arguments."""
    synth.write_dataset(work / "data", w.images, w.source_side, seed)
    config = {
        "input_size": [w.side, w.side], "conv_channels": list(w.channels),
        "fc_sizes": list(w.fc_sizes), "n_classes": len(synth.LABELS), "kernel": 5,
        "corruption_fraction": 0.2, "lr0": w.lr0, "decay": 0.98, "batch_size": 16,
        "epochs_pretrain": w.epochs_pretrain, "epochs_finetune": w.epochs_finetune,
        "folds": w.folds, "seed": seed, "tied_decoder": True, "freeze_encoder": False,
        "data_root": "data", "pretrain_manifest": "data/manifest.csv",
        "labeled_manifest": "data/manifest.csv",
        "checkpoint_dir": "checkpoints", "report_dir": "reports",
    }
    (work / "config.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    args = [w.command, "--config", "config.json", "--threads", str(w.threads),
            "--seed", str(seed)]
    if w.command == "crossval":
        synth.write_cae_checkpoint(work / "checkpoints" / "cae.dpnt", w.side, w.channels, seed)
    if w.command == "evaluate":
        synth.write_classifier_checkpoint(work / "classifier.dpnt", w.side, w.channels,
                                          w.fc_sizes, seed)
        args += ["--checkpoint", "classifier.dpnt", "--manifest", "data/manifest.csv"]
    # compile paintnet's bytecode now rather than inside the first timed command
    subprocess.run([sys.executable, "-c", "import paintnet.cli"], env=child_env(),
                   check=True, timeout=COMMAND_TIMEOUT_S)
    return args


# ---------------------------------------------------------------------------
# one command
# ---------------------------------------------------------------------------

def command_args(w: Workload, args: list[str], kind: str) -> list[str]:
    """args for a command of kind plain, traced or pool (traced at pool_threads)."""
    if kind != "pool":
        return args
    at = args.index("--threads") + 1
    return [*args[:at], str(w.pool_threads), *args[at + 1:]]


def run_command(w: Workload, work: Path, args: list[str], kind: str) -> dict:
    """Spawn child.py on args in work; returns timings, spans and stdout."""
    out_file = work / "child.json"
    out_file.unlink(missing_ok=True)
    traced = kind != "plain"
    cmd = [sys.executable, str(HERE / "child.py"), str(out_file), "1" if traced else "0",
           json.dumps(stage_map(w)), "--", *args]
    cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawned = time.monotonic_ns()
    with subprocess.Popen(cmd, cwd=work, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        except BaseException:
            proc.kill()
            raise
    wall_s = (time.monotonic_ns() - spawned) / 1e9
    cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (cpu_after.ru_utime + cpu_after.ru_stime) - \
        (cpu_before.ru_utime + cpu_before.ru_stime)
    rec = {"kind": kind, "exit_code": proc.returncode, "wall_s": wall_s, "cpu_s": cpu_s,
           "stdout": stdout, "stderr": stderr, "spans": [], "phases": {}}
    if proc.returncode != 0 or not out_file.exists():
        return rec
    child = json.loads(out_file.read_text(encoding="utf-8"))
    spans = [tuple(s) for s in child["spans"]]
    phase_spans = [s for s in spans if s[2] in PHASES]
    rec.update(spans=spans, peak_rss_mb=child["peak_rss_mb"])
    if phase_spans:
        first = min(s[4] for s in phase_spans) + child["clock_offset_ns"]
        rec["setup_wall_s"] = (first - spawned) / 1e9
        rec["setup_s"] = child["cpu_ns"]["setup"] / 1e9
    for phase in PHASES:
        mine = [s for s in phase_spans if s[2] == phase]
        if mine:
            rec["phases"][phase] = {"s": sum(s[5] - s[4] for s in mine) / 1e9,
                                    "cpu_s": child["cpu_ns"][phase] / 1e9,
                                    "samples": sum(s[6] for s in mine)}
    return rec


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def check_outputs(w: Workload, work: Path, rec: dict, checks: Checks) -> dict:
    """Checks one command's outputs; returns {output name: sha256} and quality figures."""
    from paintnet.errors import EngineError
    from paintnet.persist import load_checkpoint

    label = f"{w.name} {rec['kind']} command"
    if not checks.check(rec["exit_code"] == 0,
                        f"{label}: exit {rec['exit_code']}: {rec['stderr'][-500:]}"):
        return {"digests": {}}
    checks.check(w.phase in rec["phases"] and rec["phases"][w.phase]["samples"] > 0,
                 f"{label}: no {w.phase} phase ran")
    digests, quality = {}, {}
    reports, ckpts = work / "reports", work / "checkpoints"
    written = []
    if w.command == "pretrain":
        rows = [[float(c) for c in r[1:]] for r in _csv_rows(reports / "pretrain_loss.csv")]
        losses = [r[1] for r in rows]
        checks.check(len(rows) == w.epochs_pretrain, f"{label}: {len(rows)} loss rows")
        checks.check(all(math.isfinite(v) for r in rows for v in r), f"{label}: loss not finite")
        checks.check(losses[-1] < losses[0], f"{label}: loss did not fall {losses}")
        quality["pretrain_final_loss"] = losses[-1]
        written = [reports / "pretrain_loss.csv", ckpts / "cae.dpnt"]
    elif w.command == "crossval":
        rows = _csv_rows(reports / "crossval_report.csv")
        accs = [float(r[1]) for r in rows[:-2]]
        mean = float(rows[-2][1])
        checks.check(len(accs) == w.folds, f"{label}: {len(accs)} fold rows")
        checks.check(all(0.0 <= a <= 1.0 for a in accs), f"{label}: fold accuracy {accs}")
        checks.check(rows[-2][0] == "mean" and math.isfinite(mean), f"{label}: mean {rows[-2]}")
        quality["crossval_accuracy"] = mean
        written = [reports / "crossval_report.csv"] + \
            [ckpts / f"fold_{f:02d}.dpnt" for f in range(w.folds)]
    else:
        lines = rec["stdout"].splitlines()
        acc = float(lines[-1].split()[1])
        counts = [[int(v) for v in ln.split()] for ln in lines[-1 - len(synth.LABELS):-1]]
        checks.check(0.0 <= acc <= 1.0, f"{label}: accuracy {acc}")
        checks.check(sum(map(sum, counts)) == w.images,
                     f"{label}: confusion matrix counts {counts}")
        quality["evaluate_accuracy"] = acc
        digests["stdout"] = hashlib.sha256(rec["stdout"].encode()).hexdigest()
    for path in written:
        if checks.check(path.exists(), f"{label}: {path.name} missing"):
            digests[path.name] = _sha256(path)
            if path.suffix == ".dpnt":
                try:
                    load_checkpoint(path)
                    problem = None
                except EngineError as exc:
                    problem = exc
                checks.check(problem is None, f"{label}: {path.name} does not reload: {problem}")
    return {"digests": digests, **quality}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(w: Workload, recs: list[dict]) -> dict[str, list[float]]:
    """Per command values of every end-to-end metric and of the wall-clock figures."""
    vals: dict[str, list[float]] = {name: [] for name in (*END_TO_END_UNITS, *WALL_UNITS)}
    for rec in recs:
        if "setup_s" not in rec:
            continue
        for name in ("setup_s", "cpu_s", "peak_rss_mb", "wall_s", "setup_wall_s"):
            vals[name].append(rec[name])
        for phase, p in rec["phases"].items():
            vals[f"{phase}_samples_per_s"].append(p["samples"] / p["s"])
        main = rec["phases"].get(w.phase)
        if main:
            vals["samples_per_cpu_s"].append(main["samples"] / main["cpu_s"])
    return vals


def layer_metrics(summary: dict) -> dict[str, float]:
    names = summary["names"]

    def get(name, key):
        return names.get(name, {}).get(key, 0.0)

    m = {}
    for st in STAGES:
        m[f"layers.{st}.fwd_ms"] = get(f"layers.{st}.fwd", "self_ms")
        m[f"layers.{st}.bwd_ms"] = get(f"layers.{st}.bwd", "self_ms")
        m[f"layers.{st}.calls"] = get(f"layers.{st}.fwd", "calls") + \
            get(f"layers.{st}.bwd", "calls")
    batch_calls = get("autoencoder.batch_wait", "calls")
    workers = get("autoencoder.batch_wait", "amount") / batch_calls if batch_calls else 0
    batch_ms = get("autoencoder.batch_wait", "total_ms")
    sample_cpu_ms = get("autoencoder.sample", "amount") / 1e6
    m.update({
        "autoencoder.corrupt_ms": get("autoencoder.corrupt", "self_ms"),
        "data.rng.sample_indices_ms": get("data.rng.sample_indices", "self_ms"),
        "autoencoder.sample_ms": sample_cpu_ms,
        "autoencoder.batch_wait_ms": batch_ms,
        "autoencoder.parallel_efficiency":
            sample_cpu_ms / (workers * batch_ms) if batch_ms else 0.0,
        "classifier.build_ms": get("classifier.build", "total_ms"),
        "autoencoder.build_ms": get("autoencoder.build", "total_ms"),
        "data.rng.uniform_array_ms": get("data.rng.uniform_array", "self_ms"),
        "data.rng.draws": get("data.rng.uniform_array", "amount"),
        "data.image.decode_ms": get("data.image.decode", "self_ms"),
        "data.image.resample_ms": get("data.image.resample", "self_ms"),
        "data.image.bytes_in": get("data.image.decode", "amount"),
        "persist.save_ms": get("persist.save", "self_ms"),
        "persist.bytes_out": get("persist.save", "amount"),
        "persist.load_ms": get("persist.load", "self_ms"),
        "persist.bytes_in": get("persist.load", "amount"),
        "optim.sgd_step_ms": get("optim.sgd_step", "self_ms"),
        "optim.steps": get("optim.sgd_step", "calls"),
        "metrics.evaluate_ms": get("evaluate", "total_ms"),
    })
    for phase in PHASES:
        tree = summary["phases"][phase]
        m[f"{phase}.uncovered_ms"] = sum(tree.get(n, 0.0) for n in (phase, *STRUCTURAL))
    return m


def _stats(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    if str(SRC) not in sys.path:  # preparation and checks use paintnet's public API
        sys.path.insert(0, str(SRC))
    work = WORK / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        args = prepare(w, seed, work)
        checks = Checks()
        cycle = ["plain"]
        if trace:
            cycle += ["traced", "pool"] if w.pool_threads else ["traced"]
        recs, outputs, durations = [], [], []
        ticks_before = cpu_ticks()
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            kind = cycle[len(recs) % len(cycle)]
            rec = run_command(w, work, command_args(w, args, kind), kind)
            try:
                out = check_outputs(w, work, rec, checks)
            except (OSError, ValueError, IndexError) as exc:
                checks.check(False, f"{w.name}: unreadable outputs: {exc!r}")
                out = {"digests": {}}
            if outputs:  # also: --threads changes no bit
                checks.check(out["digests"] == outputs[0]["digests"],
                             f"{w.name}: {kind} command's outputs differ from the first's")
            recs.append(rec)
            outputs.append(out)
            durations.append(time.monotonic() - t0)
            done = len(recs) >= len(cycle) and \
                sum(r["kind"] == "plain" for r in recs) >= 2
            if done and time.monotonic() - start + statistics.median(durations) / 2 > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed_s = time.monotonic() - start
    ticks_after = cpu_ticks()
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
    return {"workload": w, "seed": seed, "trace": trace, "args": args, "records": recs,
            "outputs": outputs, "checks": checks, "elapsed_s": elapsed_s,
            "cpu_steal_share": steal}


def results(run: dict) -> tuple[dict, dict]:
    """(metrics for the final JSON line, everything for the report)."""
    w, recs = run["workload"], run["records"]
    plain = [r for r in recs if r["kind"] == "plain"]
    traced = [r for r in recs if r["kind"] == "traced"]
    pool = [r for r in recs if r["kind"] == "pool"]
    e2e = {k: _stats(v) for k, v in end_to_end(w, plain).items() if v}
    quality = {}
    for key in QUALITY_UNITS:
        vals = [o[key] for o in run["outputs"] if key in o]
        if vals:
            quality[key] = _stats(vals)
    detail = {"end_to_end": e2e, "quality": quality}
    if run["trace"]:
        layer_runs = [layer_metrics(summarize(r["spans"])) for r in traced if r["spans"]]
        cpus = [r["cpu_s"] for r in traced if r["exit_code"] == 0]
        plain_cpus = [r["cpu_s"] for r in plain if r["exit_code"] == 0]
        per_layer = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]} \
            if layer_runs else {}
        if cpus and plain_cpus:
            per_layer["trace.overhead_share"] = \
                statistics.median(cpus) / statistics.median(plain_cpus) - 1.0
        pool_runs = [layer_metrics(summarize(r["spans"])) for r in pool if r["spans"]]
        for k in POOL_METRICS if pool_runs else ():
            per_layer[k] = statistics.median(m[k] for m in pool_runs)
        detail["per_layer"] = per_layer
        # the last traced command, and the last at pool_threads workers
        detail["accounting"] = {rs[-1]["kind"]: summarize(rs[-1]["spans"])
                                for rs in (traced, pool) if rs and rs[-1]["spans"]}
        metrics = {k: {"value": per_layer[k], "unit": PER_LAYER_UNITS[k]}
                   for k in PER_LAYER_UNITS if k in per_layer}
    else:
        metrics = {k: {"value": e2e[k]["median"], "unit": u}
                   for k, u in END_TO_END_UNITS.items() if k in e2e}
    return metrics, detail


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

# quality figures, printed beside the end-to-end metrics and wall-clock figures
QUALITY_UNITS = {"pretrain_final_loss": "loss", "crossval_accuracy": "fraction",
                 "evaluate_accuracy": "fraction"}


def print_report(run: dict, detail: dict, env: dict) -> None:
    w, checks = run["workload"], run["checks"]
    n_plain = sum(r["kind"] == "plain" for r in run["records"])
    print(f"== {w.name}  seed {run['seed']}  trace {int(run['trace'])}  "
          f"commands {len(run['records'])} ({n_plain} untraced)  "
          f"elapsed {run['elapsed_s']:.1f}s")
    print(f"   why: {w.why}")
    print(f"   command: paintnet {' '.join(run['args'])}")
    print("   env " + json.dumps({**env, "cpu_steal_share": run["cpu_steal_share"]},
                              sort_keys=True))
    print(f"   {'metric':32s} {'unit':8s} {'median':>12s} {'min':>12s} {'max':>12s} {'n':>4s}")
    rows = [(k, u, detail["end_to_end"].get(k))
            for k, u in (*END_TO_END_UNITS.items(), *WALL_UNITS.items())]
    rows += [(k, u, detail["quality"].get(k)) for k, u in QUALITY_UNITS.items()]
    for name, unit, s in rows:
        if s:
            print(f"   {name:32s} {unit:8s} {s['median']:12.6g} {s['min']:12.6g} "
                  f"{s['max']:12.6g} {s['n']:4d}")
    share = len(checks.failures) / checks.attempted if checks.attempted else 1.0
    print(f"   {'failed_share':32s} {'fraction':8s} {share:12.6g}"
          f"   ({len(checks.failures)} of {checks.attempted} checks failed)")
    for failure in checks.failures[:10]:
        print(f"   FAILED: {failure}")
    for name, digest in sorted(run["outputs"][0]["digests"].items()):
        print(f"   sha256 {name} {digest}")
    if run["trace"]:
        print_trace(run, detail)


def print_trace(run: dict, detail: dict) -> None:
    print(f"   {'per-layer metric (median)':40s} {'unit':6s} {'value':>14s}")
    for name, unit in PER_LAYER_UNITS.items():
        if name in detail["per_layer"]:
            print(f"   {name:40s} {unit:6s} {detail['per_layer'][name]:14.6g}")
    for kind, acc in detail["accounting"].items():
        threads = command_args(run["workload"], run["args"], kind)
        print(f"   self time by span inside each phase, last {kind} command at --threads "
              f"{threads[threads.index('--threads') + 1]} (worker threads summed):")
        for phase, tree in acc["phases"].items():
            total = sum(tree.values())
            if not total:
                continue
            uncovered = sum(tree.get(n, 0.0) for n in (phase, *STRUCTURAL))
            print(f"   [{phase}] thread time {total:.1f} ms = stages "
                  f"{total - uncovered:.1f} ms + uncovered remainder {uncovered:.1f} ms")
            for name, ms in sorted(tree.items(), key=lambda kv: -kv[1]):
                tag = "  (uncovered)" if name in (phase, *STRUCTURAL) else ""
                print(f"      {name:36s} {ms:10.1f} ms {100 * ms / total:5.1f}%{tag}")


def _terminate(signum, frame):
    # unwind through the finally blocks that kill the child and remove the work dir
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "paintnet" / "cli.py").is_file():
        print(f"error: no paintnet sources at {SRC}; run from a paintnet checkout",
              file=sys.stderr)
        return 2

    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        run = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        metrics, detail = results(run)
        print_report(run, detail, env)
        checks = run["checks"]
        combined["correct"] &= not checks.failures
        combined["attempted"] += checks.attempted
        combined["failed"] += len(checks.failures)
        prefix = "" if len(names) == 1 else f"{name}/"
        combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
