"""In-process worker: runs library operations on request.

Started by run.py with the checkout's `src` on PYTHONPATH. It imports the
package once, then answers one JSON request per stdin line with one JSON
reply on stdout. Requests are served one at a time (a closed loop with
one client). The CLI's own stdout and stderr are captured per request, so
they never mix with the replies.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter

import outemp
from outemp import cli, pipeline, series, simulate
from outemp.errors import EstimationError
from tracing import Tracer

# Captured before any wrapping: turning a report into JSON for the check
# is not part of the timed or traced operation.
report_to_dict = pipeline.report_to_dict


def roundtrip(seed: int, start_year: int, n_years: int):
    """The README's synth -> fit round trip at the reference parameters."""
    synth = simulate.generate_synthetic_series(
        cli.DEFAULT_SEASONAL, cli.DEFAULT_KAPPA_T, cli.DEFAULT_VOL,
        start_year=start_year, n_years=n_years, seed=seed)
    text = series.serialize_csv(synth)
    parsed = series.strip_leap_days(series.parse_csv(text))
    try:
        return text, pipeline.fit_full_model(parsed), None
    except EstimationError as exc:
        return text, None, exc.stage


def serve(requests, reply):
    tracer = Tracer()
    op = 0
    reply({"ready": True, "outemp": outemp.__file__})
    for line in requests:
        req = json.loads(line)
        kind = req["kind"]
        if kind == "exit":
            if req.get("spans"):
                tracer.write(req["spans"])
            reply({"bye": True})
            return
        if kind == "trace":
            tracer.uninstall()
            if req["on"]:
                tracer.install()
            tracer.measure_alloc = req.get("alloc", False)
            reply({"missing": tracer.missing})
            continue
        op += 1
        tracer.begin_op(op)
        out, err = io.StringIO(), io.StringIO()
        res = {}
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if kind == "roundtrip":
                    done = [roundtrip(seed, req["start_year"], req["n_years"])
                            for seed in req["seeds"]]
                    res["op_s"] = perf_counter() - start
                    res["replicates"] = [
                        {"csv": text, "stage": stage,
                         "report": None if report is None else report_to_dict(report)}
                        for text, report, stage in done]
                else:
                    res["rc"] = cli.main(req["argv"])
                    res["op_s"] = perf_counter() - start
        except SystemExit as exc:     # argparse rejected the arguments
            res["rc"] = exc.code
        except Exception:             # a crash is a result to report
            res["traceback"] = traceback.format_exc()
        res.setdefault("op_s", perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_SELF)
        res.update(user_s=after.ru_utime - before.ru_utime,
                   sys_s=after.ru_stime - before.ru_stime)
        res.update(stdout=out.getvalue(), stderr=err.getvalue(),
                   trace=tracer.op_summary() if tracer.installed else None,
                   peak_alloc_bytes=tracer.peak_alloc_bytes,
                   maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        reply(res)


def main():
    channel = sys.stdout

    def reply(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    sys.stdout = sys.stderr
    serve(sys.stdin, reply)


if __name__ == "__main__":
    main()
