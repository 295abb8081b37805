#!/usr/bin/env python3
"""The outemp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere inside a checkout; it measures the package in the
checkout's `src/`. One benchmark process runs a closed loop with one client:
an operation starts only after the previous one has finished and its
output has been checked. Untraced runs (--trace 0) print the end-to-end
metrics; traced runs (--trace 1) run the same operations in-process with
spans around each layer and print the per-layer metrics. The last line of
stdout is one JSON object; everything else, including every operation,
goes to .perfbench_out/<workload>-seed<N>-trace<T>/result.json. Metric
names and units come from BENCHMARK.json at the checkout root.

See perfbench/README.md for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import oracle
import station

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5        # set-ups per untraced run, spread over the timed
                         # loop; setup_s is their median
IMPORT_REPEATS = 3       # -X importtime runs per traced run
CHILD_TIMEOUT_S = 120    # one operation; a hung child is killed and counted
SIM_DAYS = 8760
SIM_PATHS = 1000
FULL_PATHS = 200
REPLICATE_STRIDE = 100_000   # replicate i of workload seed s uses s*stride + i
BATCH = 10                   # replicates per roundtrip operation
SYNTH_START_YEAR = 2000      # roundtrip series: 24 leap-free years from 2000
SYNTH_YEARS = 24
FIT_ARGV = ["fit", "--input", "station.csv", "--out", "report.json",
            "--vols-csv", "vols.csv"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- child processes ---------------------------------------------------

class Context:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.seed = seed
        self.out = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.work = self.out / "work"
        self.work.mkdir(parents=True)
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.workers: list[Worker] = []

    def file(self, name: str) -> Path:
        return self.work / name

    def python(self, args: list[str], stdout_name: str) -> dict:
        """Run a fresh interpreter; time it and take its rusage via wait4."""
        so_path, se_path = self.file(stdout_name + ".out"), self.file(stdout_name + ".err")
        with open(so_path, "wb") as so, open(se_path, "wb") as se:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.work,
                                    env=self.env, stdout=so, stderr=se)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            op_s = perf_counter() - start
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"op_s": op_s, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss,
                "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                "stdout": so_path.read_text(), "stderr": se_path.read_text()}

    def start_worker(self) -> "Worker":
        worker = Worker(self)
        self.workers.append(worker)
        return worker


class Worker:
    """perfbench/worker.py in its own interpreter, one request at a time."""

    def __init__(self, ctx: Context):
        self.log = open(ctx.out / f"worker{len(ctx.workers)}.err", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("worker.py"))],
            cwd=ctx.work, env=ctx.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        ready = self._read()
        if not Path(ready["outemp"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"worker imported outemp from {ready['outemp']}")

    def ask(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def _read(self) -> dict:
        killer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            killer.cancel()
        if not line:
            raise RuntimeError("worker exited; see its .err log")
        return json.loads(line)

    def close(self, spans: Path | None = None):
        if self.proc.poll() is None:
            try:
                self.ask(kind="exit", spans=str(spans) if spans else None)
            except (OSError, RuntimeError, ValueError):
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.log):
            try:
                stream.close()
            except OSError:
                pass


# --- workloads ---------------------------------------------------------

def _script_problems(res: dict) -> list[str]:
    if res.get("traceback") or "Traceback" in res.get("stderr", ""):
        tail = (res.get("traceback") or res["stderr"]).strip().splitlines()[-1:]
        return [f"crash: {tail}"]
    return []


class CliWorkload:
    """An operation is one CLI command: a fresh interpreter when untraced,
    `outemp.cli.main(argv)` inside the worker when traced."""

    outputs: tuple[str, ...] = ()
    simulates = False

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.worker: Worker | None = None
        self.digests: dict[str, str] = {}
        self.reference: dict[str, str] | None = None

    def write_station(self):
        self.station_text = station.station_csv(self.ctx.seed)
        self.ctx.file("station.csv").write_text(self.station_text)

    def start_trace_worker(self):
        self.worker = self.ctx.start_worker()

    def teardown(self):
        pass

    def same_setup(self) -> list[str]:
        """A repeated set-up must rewrite its inputs byte for byte."""
        return [f"a repeated set-up rewrote {name} differently"
                for name, digest in self.digests.items()
                if sha256(self.ctx.file(name).read_bytes()) != digest]

    def argv(self) -> list[str]:
        raise NotImplementedError

    def op(self, traced: bool | None, alloc: bool = False) -> dict:
        """traced=None: fresh interpreter; False/True: in the worker."""
        for name in self.outputs:
            self.ctx.file(name).unlink(missing_ok=True)
        if traced is None:
            res = self.ctx.python(["-m", "outemp.cli", *self.argv()], "op")
        else:
            self.worker.ask(kind="trace", on=traced, alloc=alloc)
            res = self.worker.ask(kind="cli", argv=self.argv())
        res["bytes"] = sum(self.ctx.file(n).stat().st_size
                           for n in self.outputs if self.ctx.file(n).exists())
        return res

    def check(self, res: dict) -> list[str]:
        bad = _script_problems(res)
        if bad:
            return bad
        texts = {n: self.ctx.file(n).read_bytes()
                 for n in self.outputs if self.ctx.file(n).exists()}
        bad = self.check_outputs(res, texts, first=self.reference is None)
        if bad:
            return bad
        digests = {n: sha256(t) for n, t in texts.items()}
        # The first passing output is checked in full; every later run with
        # the same inputs must repeat it byte for byte (criterion 10).
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            return ["outputs differ from the first run with this seed"]
        return []

    def outcome(self, res: dict) -> str:
        return "output"

    def repeat(self, res: dict) -> list[str]:
        return []


class FitCli(CliWorkload):
    outputs = ("report.json", "vols.csv")

    def setup(self):
        self.write_station()

    def after_setup(self):
        self.oracle = oracle.fit_oracle(self.station_text)
        self.digests["station.csv"] = sha256(self.station_text.encode())

    def argv(self):
        return FIT_ARGV

    def check_outputs(self, res: dict, texts: dict, first: bool) -> list[str]:
        if res["rc"] == 3:
            m = re.search(r"\[(\w+)\]", res["stderr"])
            return oracle.check_fit_outcome(None, m and m.group(1), self.oracle)
        if res["rc"] != 0:
            return [f"exit code {res['rc']}: {res['stderr'].strip()[-200:]}"]
        rep = json.loads(texts["report.json"])
        vols = texts["vols.csv"].decode()
        res["_outputs"] = (rep, vols)
        return (oracle.check_fit_outcome(rep, None, self.oracle)
                + oracle.check_vols_csv(vols, rep))

    def sentinels(self, res: dict) -> dict[str, bool]:
        rep, vols = res["_outputs"]
        bad_coef = copy.deepcopy(rep)
        bad_coef["seasonal"]["a_t"] *= 1 + 1e-6
        bad_sigma = copy.deepcopy(rep)
        bad_sigma["monthly_vols"][17]["sigma"] *= 1 + 1e-6
        bad_kappa = copy.deepcopy(rep)
        bad_kappa["kappa_t"] *= 1 + 1e-6
        lines = vols.splitlines()
        y, m, s = lines[5].split(",")
        lines[5] = f"{y},{m},{float(s) * (1 + 1e-6)!r}"
        return {
            "report seasonal coefficient": bool(oracle.check_report(bad_coef, self.oracle)),
            "report monthly sigma": bool(oracle.check_report(bad_sigma, self.oracle)),
            "report kappa_t": bool(oracle.check_report(bad_kappa, self.oracle)),
            "vols CSV sigma": bool(oracle.check_vols_csv("\n".join(lines), rep)),
            "estimation failure claimed": bool(
                oracle.check_fit_outcome(None, "volatility", self.oracle)),
        }


class SimulateCli(CliWorkload):
    paths = SIM_PATHS
    outputs = ("ens.csv",)
    simulates = True

    def setup(self):
        self.write_station()
        # The analyst's fit command, the one FitCli times.
        res = self.ctx.python(["-m", "outemp.cli", *FIT_ARGV], "setup")
        if res["rc"] != 0:
            raise RuntimeError(f"set-up fit failed: {res['stderr']}")

    def after_setup(self):
        text = self.ctx.file("report.json").read_text()
        self.report = json.loads(text)
        vols = self.ctx.file("vols.csv").read_text()
        bad = (oracle.check_fit_outcome(self.report, None,
                                        oracle.fit_oracle(self.station_text))
               + oracle.check_vols_csv(vols, self.report))
        if bad:
            raise RuntimeError(f"set-up fit is wrong: {bad[:3]}")
        self.digests["station.csv"] = sha256(self.station_text.encode())
        self.digests["report.json"] = sha256(text.encode())
        self.digests["vols.csv"] = sha256(vols.encode())

    def argv(self):
        return ["simulate", "--report", "report.json", "--paths", str(self.paths),
                "--days", str(SIM_DAYS), "--seed", str(self.ctx.seed),
                "--out", "ens.csv"]

    def check_outputs(self, res: dict, texts: dict, first: bool) -> list[str]:
        if res["rc"] != 0 or res["stderr"]:
            return [f"exit code {res['rc']}: {res['stderr'].strip()[-200:]}"]
        summary_text = texts["ens.csv"].decode()
        res["nonplain"] = oracle.wrapped_values(summary_text)
        bad, summary = oracle.check_summary(summary_text, self.report,
                                            self.paths, SIM_DAYS)
        res["_outputs"] = {"summary": summary}
        return bad

    def sentinels(self, res: dict) -> dict[str, bool]:
        summary = res["_outputs"]["summary"]
        se = summary[4000, 2] / np.sqrt(self.paths)

        def detected(day, col, value):
            bad = summary.copy()
            bad[day, col] = value
            text = oracle.SUMMARY_HEADER + "\n" + "\n".join(
                ",".join(repr(float(v)) for v in row) for row in bad) + "\n"
            return bool(oracle.check_summary(text, self.report, self.paths, SIM_DAYS)[0])

        return {
            "summary mean": detected(4000, 1, summary[4000, 1] + 20 * se),
            "summary sd": detected(5000, 2, summary[5000, 2] * 2),
            "summary p05 > p95": detected(3000, 3, summary[3000, 4] + 0.1),
            "summary day 0": detected(0, 1, summary[0, 1] * (1 + 1e-9)),
        }


class FullPathsCli(SimulateCli):
    paths = FULL_PATHS
    outputs = ("ens.csv", "mat.csv")

    def argv(self):
        return super().argv() + ["--full-paths", "mat.csv"]

    def check_outputs(self, res: dict, texts: dict, first: bool) -> list[str]:
        bad = super().check_outputs(res, texts, first)
        if bad or not first:
            return bad
        bad, paths = oracle.check_matrix(texts["mat.csv"].decode(), self.paths, SIM_DAYS)
        res["_outputs"]["paths"] = paths
        return bad or oracle.check_summary_of(paths, res["_outputs"]["summary"])

    def sentinels(self, res: dict) -> dict[str, bool]:
        found = super().sentinels(res)
        paths = res["_outputs"]["paths"].copy()
        paths[100, 7] += 0.01
        found["matrix value"] = bool(
            oracle.check_summary_of(paths, res["_outputs"]["summary"]))
        return found


class Roundtrip:
    """One operation is a batch of BATCH replicates of synth -> serialize ->
    parse -> strip -> fit in the worker, which imports the package during
    set-up. A batch lasts about two seconds, so one operation's time
    spans the machine's short speed swings instead of landing in one of
    them, and a run's median does not jump between a fast and a slow
    level."""

    simulates = True

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.worker: Worker | None = None
        self.index = 0
        self.digests = {"reference_parameters": "outemp.cli DEFAULT_* (README)",
                        "replicate_seeds": f"{ctx.seed * REPLICATE_STRIDE} + i"}

    def teardown(self):
        if self.worker is not None:
            self.worker.close()
            self.ctx.workers.remove(self.worker)
            self.worker = None

    def setup(self):
        self.worker = self.ctx.start_worker()

    def after_setup(self):
        pass

    def same_setup(self) -> list[str]:
        return []

    def start_trace_worker(self):
        pass

    def op(self, traced: bool | None, alloc: bool = False,
           replicates: range | None = None) -> dict:
        if replicates is None:
            replicates = range(self.index, self.index + BATCH)
            self.index += BATCH
        self.worker.ask(kind="trace", on=bool(traced), alloc=alloc)
        res = self.worker.ask(
            kind="roundtrip", start_year=SYNTH_START_YEAR, n_years=SYNTH_YEARS,
            seeds=[self.ctx.seed * REPLICATE_STRIDE + i for i in replicates])
        for i, rep in zip(replicates, res.get("replicates", [])):
            rep["replicate"] = i
        res.update(bytes=0, stages=[rep["stage"] for rep in res.get("replicates", [])])
        return res

    def check(self, res: dict) -> list[str]:
        bad = _script_problems(res)
        if bad:
            return bad
        if len(res["replicates"]) != BATCH:
            return [f"{len(res['replicates'])} replicates returned, not {BATCH}"]
        for rep in res["replicates"]:
            parsed = oracle.parse_series_csv(rep["csv"])
            rep["_truth"] = oracle.fit_oracle_parsed(*parsed)
            bad += [f"replicate {rep['replicate']}: {p}" for p in (
                oracle.check_synth_series(*parsed, SYNTH_START_YEAR, SYNTH_YEARS)
                + oracle.check_fit_outcome(rep["report"], rep["stage"], rep["_truth"]))]
        return bad

    def first_of_each_outcome(self, res: dict) -> list[dict]:
        firsts = {}
        for rep in res["replicates"]:
            firsts.setdefault(rep["report"] is None, rep)
        return list(firsts.values())

    def sentinels(self, res: dict) -> dict[str, bool]:
        found = {}
        for rep in self.first_of_each_outcome(res):
            truth = rep["_truth"]
            if rep["report"] is None:
                found["report where the oracle fails"] = bool(
                    oracle.check_fit_outcome({"meta": {}}, None, truth))
                found["failure at the wrong stage"] = bool(
                    oracle.check_fit_outcome(None, "seasonal", truth))
                continue
            lines = rep["csv"].splitlines()
            date, value = lines[1000].split(",")
            lines[1000] = f"{date},{float(value) + 0.5!r}"
            bad = copy.deepcopy(rep["report"])
            bad["vol"]["kappa_sigma"] *= 1 + 1e-6
            found["synthetic CSV value"] = bool(oracle.check_fit_outcome(
                rep["report"], None, oracle.fit_oracle("\n".join(lines) + "\n")))
            found["report kappa_sigma"] = bool(oracle.check_report(bad, truth))
            found["failure where the oracle fits"] = bool(
                oracle.check_fit_outcome(None, "volatility", truth))
        return found

    def outcome(self, res: dict) -> tuple[str, ...]:
        return tuple(sorted({"report" if rep["report"] is not None
                             else "estimation failure" for rep in res["replicates"]}))

    def repeat(self, res: dict) -> list[str]:
        """The first replicate of each outcome again, on its own: its
        outputs must repeat exactly."""
        bad = []
        for rep in self.first_of_each_outcome(res):
            i = rep["replicate"]
            again = self.op(False, replicates=range(i, i + 1)).get("replicates", [{}])[0]
            if any(again.get(k) != rep[k] for k in ("csv", "report", "stage")):
                bad.append(f"replicate {i} did not repeat exactly")
        return bad


WORKLOADS = {"fit-cli": FitCli, "roundtrip": Roundtrip,
             "simulate-cli": SimulateCli, "fullpaths-cli": FullPathsCli}


# --- machine record and drift monitor -----------------------------------

def reference_kernel() -> float:
    """A fixed mix of interpreter and numpy work; median of 5 timings."""
    times = []
    for _ in range(5):
        start = perf_counter()
        rng = np.random.default_rng(12345)
        a = rng.standard_normal(200_000)
        total = 0.0
        for v in a[:50_000].tolist():
            total += v * v
        np.sort(a)
        np.cumsum(a)
        times.append(perf_counter() - start)
    return median(times)


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"), "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# --- the run -----------------------------------------------------------

def import_times(ctx: Context) -> dict:
    """Cumulative import times from -X importtime in fresh interpreters."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        res = ctx.python(["-X", "importtime", "-c", "import outemp.cli"], "importtime")
        if res["rc"] != 0:
            raise RuntimeError(f"import outemp.cli failed: {res['stderr'][-300:]}")
        total, cumulative = 0, {}
        for line in res["stderr"].splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                total += int(m.group(1))
                cumulative.setdefault(m.group(4), int(m.group(2)))
        runs.append({"import.total_s": total / 1e6,
                     "import.scipy_stats_s": cumulative.get("scipy.stats", 0) / 1e6,
                     "import.numpy_s": cumulative.get("numpy", 0) / 1e6})
    return {k: median([r[k] for r in runs]) for k in runs[0]}


def timed_setup(wl) -> float:
    """Time one set-up; undoing the previous one is not part of it."""
    wl.teardown()
    start = perf_counter()
    wl.setup()
    return perf_counter() - start


def checked(wl, res: dict) -> dict:
    try:
        res["problems"] = wl.check(res)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        res["problems"] = [f"unreadable output: {exc!r}"]
    return res


def slim(res: dict) -> dict:
    keep = ("op_s", "user_s", "sys_s", "rc", "stages", "maxrss_kb", "bytes",
            "nonplain", "problems",
            "traced", "peak_alloc_bytes", "trace")
    return {k: res[k] for k in keep if k in res}


def layer_metrics(traced: list[dict], untraced: list[dict], alloc: dict | None) -> dict:
    def med(section, key):
        return median([op["trace"][section].get(key, 0) for op in traced])

    metrics = {
        "series.rows": med("counts", "series.rows"),
        "simulate.path_days": med("counts", "simulate.path_days"),
        "pipeline.fits_attempted": sum(
            op["trace"]["counts"].get("pipeline.fits_attempted", 0) for op in traced),
        "simulate.peak_alloc_mb": (alloc["peak_alloc_bytes"] / 2 ** 20) if alloc else 0.0,
        "pipeline.fit_full_model_self_s": med("self", "pipeline.fit_full_model"),
        "simulate.generate_synthetic_series_self_s":
            med("self", "simulate.generate_synthetic_series"),
        "cli.self_s": med("self", "cli.main"),
        "cli.bytes_written": median([op["bytes"] for op in traced]),
        "cli.nonplain_csv_values": median([op.get("nonplain", 0) for op in traced]),
        "trace.overhead_frac": (median([op["op_s"] for op in traced])
                                / median([op["op_s"] for op in untraced]) - 1.0),
    }
    for stage in ("seasonal", "volatility", "mean_reversion"):
        metrics[f"pipeline.estimation_failures.{stage}"] = sum(
            op["trace"]["failures"].get(stage, 0) for op in traced)
    for span in ("series.parse_csv", "series.strip_leap_days", "series.serialize_csv",
                 "seasonal.fit_seasonal_mean", "seasonal.residuals",
                 "volatility.monthly_quadratic_variation",
                 "volatility.fit_volatility_model", "meanrev.estimate_kappa",
                 "stats.describe", "stats.anderson_darling_normal",
                 "pipeline.report_to_dict", "pipeline.report_from_dict",
                 "simulate.simulate_paths", "cli.percentile"):
        metrics[f"{span}_s"] = med("inclusive", span)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    ctx = Context(workload, seed, trace)
    wl = WORKLOADS[workload](ctx)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_record(), "ref_kernel_before_s": reference_kernel()}
    try:
        # The machine's speed drifts over tens of seconds, so the set-ups
        # are spread over the run rather than taken back to back: one
        # before the first operation, the rest at even shares of the timed
        # loop. A traced run reports no setup_s and sets up once.
        setup_times = [timed_setup(wl)]
        wl.after_setup()
        record["setup_times_s"] = setup_times
        record["input_digests"] = wl.digests
        if trace:
            record["imports"] = import_times(ctx)
            wl.start_trace_worker()

        # The first output of each outcome is also corrupted, one value of
        # each kind at a time, and every corruption must fail its check.
        problems, ops, total = [], [], 0.0
        record["sentinels"], sentinel_outcomes = {}, set()
        while total < seconds or (trace and len(ops) < 2):
            if not trace and total >= seconds * len(setup_times) / SETUP_REPEATS:
                setup_times.append(timed_setup(wl))
                problems += wl.same_setup()
            traced = (len(ops) % 2 == 0) if trace else None
            res = checked(wl, wl.op(traced))
            if not res["problems"] and wl.outcome(res) not in sentinel_outcomes:
                sentinel_outcomes.add(wl.outcome(res))
                found = wl.sentinels(res)
                record["sentinels"].update(found)
                problems += [f"corrupted {k} passed its check"
                             for k, ok in found.items() if not ok]
                problems += wl.repeat(res)
            res = slim(res)
            res["traced"] = bool(traced)
            ops.append(res)
            total += res["op_s"]
        while not trace and len(setup_times) < SETUP_REPEATS:
            setup_times.append(timed_setup(wl))
            problems += wl.same_setup()
        alloc = None
        if trace and wl.simulates:
            # tracemalloc slows the layers it watches, so the allocation
            # peak comes from one extra operation outside the timings.
            alloc = slim(checked(wl, wl.op(True, alloc=True)))
            ops.append(dict(alloc, traced=None))
        record["ops"] = ops
    finally:
        spans = ctx.out / "spans.json" if trace else None
        for worker in ctx.workers:
            worker.close(spans)
    record["ref_kernel_after_s"] = reference_kernel()

    failed = sum(1 for op in ops if op["problems"])
    timed = [op for op in ops if op["traced"] is not None]
    if trace:
        traced = [op for op in timed if op["traced"]]
        untraced = [op for op in timed if not op["traced"]]
        metrics = dict(record["imports"], **layer_metrics(traced, untraced, alloc))
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": median(setup_times),
            "op_p50_s": median([op["op_s"] for op in timed]),
            "ops_per_s": len(timed) / total,
            "peak_rss_mb": median([op["maxrss_kb"] for op in timed]) / 1024.0,
            "ok_frac": (len(ops) - failed) / len(ops),
        }
        wanted = spec["end_to_end"]
    record["problems"] = problems + [p for op in ops for p in op["problems"]][:20]
    record["nonplain_csv_values"] = max((op.get("nonplain", 0) for op in ops), default=0)
    result = {
        "correct": not record["problems"],
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record["result"] = result
    (ctx.out / "result.json").write_text(json.dumps(record, indent=1))
    if result["correct"]:
        shutil.rmtree(ctx.work)   # inputs and outputs repeat from the seed
    return record


def self_test(spec: dict) -> int:
    """Every workload's outputs pass, and each corrupted output fails."""
    ok = True
    for name in WORKLOADS:
        record = run(name, 0, 2.0, False, spec)
        for kind, found in record.get("sentinels", {}).items():
            print(f"{name:14s} corrupted {kind:32s} {'detected' if found else 'MISSED'}")
            ok &= found
        for problem in record["problems"]:
            print(f"{name:14s} {problem}")
        ok &= record["result"]["correct"]
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "outemp" / "cli.py").is_file():
        print(f"error: no package source at {SRC}/outemp; run inside a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.self_test:
        return self_test(spec)
    if not args.workload:
        parser.error("--workload is required")
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    drift = record["ref_kernel_after_s"] / record["ref_kernel_before_s"] - 1.0
    print(f"workload {args.workload} seed {args.seed}: {len(record['ops'])} ops; "
          f"reference kernel {record['ref_kernel_before_s'] * 1e3:.1f} -> "
          f"{record['ref_kernel_after_s'] * 1e3:.1f} ms ({drift:+.1%} drift)")
    if record["nonplain_csv_values"]:
        print(f"format defect: {record['nonplain_csv_values']} summary values written "
              "as np.float64(...) (decoded for the checks)")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
