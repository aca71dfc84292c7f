#!/usr/bin/env python3
"""Benchmark for quantrules: seeded CLI workloads, traced layers, output checks.

Usage (from the checkout root):

    python3 perfbench/run.py --workload shift --seed 1 --seconds 40 --trace 0

One run generates the workload's inputs from ``--seed``, then runs the
workload's commands (``mine``, ``evaluate`` and, on ``shift``, ``adapt``)
one after another through ``quantrules.cli.main`` with the CLI's default
flags, as one closed-loop client, for as many whole cycles as fit in
``--seconds`` (at least one). Every command's outputs are checked. The
last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. A traced run
alternates untraced and traced cycles; its per-layer times are medians
over the traced cycles.

``--record`` stores this seed's counts and output digests in
``perfbench/expected.json``, which later runs compare against.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, iteration_times, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")         # relative to ROOT, the working directory
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 3
C08_GATE_PCT = 30.0


def import_package():
    """Import quantrules from this checkout's ``src``; None when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import quantrules.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import quantrules from {src}: {exc}", file=sys.stderr)
        return None
    import quantrules
    if Path(quantrules.__file__).resolve().parent.parent != src.resolve():
        print(f"error: quantrules imported from {quantrules.__file__}, "
              f"not from {src}", file=sys.stderr)
        return None
    return quantrules


def environment():
    nproc = len(os.sched_getaffinity(0))
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quantrules").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "none"
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "git_sha": git_sha, "src_sha256": src.hexdigest()[:16]}


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rules_digest(path):
    """sha256 of a rules file with each ``provenance.train`` cut to its file
    name; every other byte is hashed as written."""
    h = hashlib.sha256()
    for line in Path(path).read_text(encoding="utf-8").splitlines(keepends=True):
        obj = json.loads(line) if line.strip() else {}
        train = obj.get("provenance", {}).get("train")
        if isinstance(train, str):
            line = line.replace(json.dumps(train), json.dumps(Path(train).name))
        h.update(line.encode("utf-8"))
    return h.hexdigest()


def parse_log(text, command):
    """key=value fields of the CLI's ``command=<name>`` summary line."""
    for line in reversed(text.splitlines()):
        if line.startswith(f"command={command} "):
            return dict(item.split("=", 1) for item in line.split() if "=" in item)
    return {}


# -- set-up -------------------------------------------------------------------

def import_seconds():
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import quantrules.cli"], env=env,
                   cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - start


def inputs_digest(workload, workdir):
    h = hashlib.sha256()
    for name in workload.inputs:
        h.update(name.encode() + b"\0" + (workdir / name).read_bytes())
    return h.hexdigest()


def set_up(workload, workdir, seed, trace, problems):
    """Set up SETUP_REPEATS times; each set-up is a fresh import plus writing
    every input. With ``trace`` the first write is traced. Returns (config
    path, median set-up seconds, inputs digest, spans of the traced write)."""
    times, digests, spans = [], [], None
    config = None
    for i in range(SETUP_REPEATS):
        t_import = import_seconds()
        tracer = Tracer() if trace and i == 0 else contextlib.nullcontext()
        start = time.perf_counter()
        with tracer:
            config = workload.write(workdir, seed)
        times.append(t_import + time.perf_counter() - start)
        if trace and i == 0:
            spans = tracer.spans()
        digests.append(inputs_digest(workload, workdir))
    if len(set(digests)) != 1:
        problems.append("generator: the same seed wrote different input bytes")
    return config, statistics.median(times), digests[0], spans


# -- one cycle ------------------------------------------------------------------

def run_command(cli, command, config, span):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config)])
    except Exception:  # an escaped exception is a failed command; keep measuring
        code = "exception"
        err.write(traceback.format_exc())
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def check_mine(qr, workdir, log, seen):
    rules, _ = qr.rules_io.load_rules(workdir / "rules.jsonl")
    if len(rules) != int(log["selected"]):
        return [f"mine: rules.jsonl holds {len(rules)} rules, log says {log['selected']}"]
    seen.update(enumerated=int(log["enumerated"]), selected=int(log["selected"]),
                skipped=int(log["skipped"]))
    seen["rules.jsonl"] = rules_digest(workdir / "rules.jsonl")
    return []


def check_evaluate(qr, workdir, log, seen):
    report = qr.violations.read_report(workdir / "report.json")  # checks the identity
    problems = []
    if report.total_violations != int(log["total_violations"]):
        problems.append(f"evaluate: report total {report.total_violations} != log "
                        f"{log['total_violations']}")
    if len(report.per_rule) != seen.get("selected"):
        problems.append(f"evaluate: report has {len(report.per_rule)} rules, "
                        f"mine selected {seen.get('selected')}")
    seen["total_violations"] = report.total_violations
    seen["report.json"] = sha256(workdir / "report.json")
    return problems


def check_adapt(qr, workdir, log, seen):
    before = qr.violations.read_report(workdir / "before.json")
    after = qr.violations.read_report(workdir / "after.json")
    problems = []
    if (before.total_violations, after.total_violations) != \
            (int(log["before"]), int(log["after"])):
        problems.append("adapt: before/after reports disagree with the log")
    pct = float(log["pct_reduced"])
    if pct < C08_GATE_PCT:
        problems.append(f"adapt: violation reduction {pct:.2f}% is below the c08 "
                        f"gate of {C08_GATE_PCT}%")
    with open(workdir / "trace.csv", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    if len(rows) != int(log["iterations"]):
        problems.append(f"adapt: trace.csv has {len(rows)} rows, expected "
                        f"{log['iterations']}")
    steps = sum(1 for row in rows if float(row.split(",")[1]) > 0.0)
    seen.update(violation_reduction_pct=pct, steps_taken=steps,
                iterations=int(log["iterations"]))
    seen["trace.csv"] = sha256(workdir / "trace.csv")
    return problems


CHECKS = {"mine": check_mine, "evaluate": check_evaluate, "adapt": check_adapt}
# the observed values each command is answerable for
COMMAND_FIELDS = {
    "mine": ("enumerated", "selected", "skipped", "rules.jsonl"),
    "evaluate": ("total_violations", "report.json"),
    "adapt": ("violation_reduction_pct", "steps_taken", "iterations", "trace.csv"),
}


def compare(command, seen, references):
    """Problems where ``command``'s observed values differ from a reference:
    (label, values) pairs such as the recorded values or the first cycle."""
    return [f"{command}: {field} {seen.get(field)!r} != {label} {values[field]!r}"
            for label, values in references for field in COMMAND_FIELDS[command]
            if field in values and seen.get(field) != values[field]]


def run_cycle(qr, workload, workdir, config, references, tracer=None):
    """Run the workload's commands once each, or ``workload.repeats`` times
    when untraced, checking every invocation's outputs and comparing them
    with ``references`` and with the call before. Returns (seconds of each invocation per command,
    failed invocation count, problems, observed counts and digests)."""
    seen = {}
    times, failed, problems = {}, 0, []
    for command in workload.commands:
        repeats = 1 if tracer else workload.repeats.get(command, 1)
        for call in range(repeats):
            refs = references + [("previous call", dict(seen))] if call else references
            span = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
            code, seconds, out, err = run_command(qr.cli, command, config, span)
            times.setdefault(command, []).append(seconds)
            found = []
            if code != 0:
                found.append(f"{command}: exit code {code}: {err.strip()[-2000:]}")
            else:
                try:
                    found = CHECKS[command](qr, workdir, parse_log(out, command), seen)
                except (OSError, ValueError, KeyError, AssertionError,
                        qr.errors.QuantrulesError) as exc:
                    found = [f"{command}: output check raised {exc!r}"]
                found += compare(command, seen, refs)
            if found:
                failed += 1
                problems.extend(found)
    return times, failed, problems, seen


def pass_seconds(times):
    """One mine -> evaluate (-> adapt) pass: each command at its mean."""
    return sum(statistics.fmean(t) for t in times.values())


# -- recorded outputs -----------------------------------------------------------

DIGESTED = ("rules.jsonl", "report.json", "trace.csv")
RECORDED_FIELDS = ("selected", "skipped", "total_violations", "violation_reduction_pct")


def load_expected():
    if EXPECTED.exists():
        return json.loads(EXPECTED.read_text(encoding="utf-8"))
    return {}


def recorded(workload, seed, expected):
    """The recorded values for this workload and seed, flattened like the
    observed ones, and the recorded input digest (None for an unrecorded seed)."""
    entry = expected.get(workload.name)
    if entry is None:
        return {}, None
    record = entry["seeds"].get(str(seed), {})
    values = {"enumerated": entry["enumerated"], **record.get("sha256", {}),
              **{f: record[f] for f in RECORDED_FIELDS if f in record}}
    return values, record.get("inputs")


def record(workload, seed, inputs, seen, expected):
    entry = expected.setdefault(workload.name, {"seeds": {}})
    entry["enumerated"] = seen["enumerated"]
    entry["seeds"][str(seed)] = {
        "inputs": inputs, "sha256": {f: seen[f] for f in DIGESTED if f in seen},
        **{f: seen[f] for f in RECORDED_FIELDS if f in seen}}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


# -- metrics --------------------------------------------------------------------

def end_to_end(setup_s, cycles, attempted, failed):
    """Command times are means over the whole run, not medians: the core's
    speed drifts in phases of 10-60 s, and a run's mean follows the share of
    the run spent in each phase smoothly, where its median jumps between them."""
    mean = statistics.fmean
    return {
        "setup_s": setup_s,
        "mine_s": mean([t for c in cycles for t in c["mine"]]),
        "evaluate_s": mean([t for c in cycles for t in c["evaluate"]]),
        "cycle_s": mean([pass_seconds(c) for c in cycles]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
    }


def per_layer(spans, seen):
    """Per-layer metrics of one traced cycle."""
    rows = summarize(spans)

    def row(name):
        return rows.get(name, {"calls": 0, "time": 0.0, "self": 0.0, "value": 0})

    out = {}
    for label in ("dataset.load_table", "dataset.sample_minibatches",
                  "statistics.load_boxes", "statistics.f1_score",
                  "statistics.sample_values", "bounds.learn_and_select",
                  "bounds.collect_statistics", "bounds.s1_bucket_interval",
                  "violations.evaluate", "violations.check_rule",
                  "violations.write_report", "violations.batch_violation_count",
                  "adaptation.adapt", "adaptation.forward_batch",
                  "adaptation.total_loss_grad", "model.forward", "model.backward",
                  "model.predict_columns", "rules_io.save_rules",
                  "rules_io.load_rules"):
        out[f"{label}_s"] = row(label)["time"]
    for label in ("bounds.learn_and_select", "bounds.collect_statistics",
                  "violations.evaluate", "adaptation.adapt",
                  "adaptation.total_loss_grad"):
        out[f"{label}_self_s"] = row(label)["self"]
    for label in ("statistics.f1_score", "statistics.sample_values",
                  "bounds.collect_statistics", "bounds.s1_bucket_interval",
                  "violations.check_rule"):
        out[f"{label}_calls"] = row(label)["calls"]
    out["schema.parse_s"] = row("schema.parse")["time"]
    out["schema.enumerate_s"] = row("schema.enumerate")["time"]
    out["schema.rules_enumerated"] = row("schema.enumerate")["value"]
    out["dataset.load_table_rows"] = row("dataset.load_table")["value"]
    out["dataset.minibatches_drawn"] = row("dataset.sample_minibatches")["value"]
    out["statistics.registry_builds"] = row("statistics.registry_build")["calls"]
    out["cli.self_s"] = sum(row(f"cli.{c}")["self"] for c in ("mine", "evaluate", "adapt"))

    enumerated = seen.get("enumerated") or 0
    out["bounds.rules_selected"] = seen.get("selected", 0)
    out["bounds.rules_skipped"] = seen.get("skipped", 0)
    out["bounds.selected_ratio"] = seen.get("selected", 0) / enumerated if enumerated else 0.0
    gaps = iteration_times(spans)
    p50, p99 = np.percentile(gaps, [50, 99]) if gaps.size else (0.0, 0.0)
    out["adaptation.iter_p50_ms"] = 1e3 * float(p50)
    out["adaptation.iter_p99_ms"] = 1e3 * float(p99)
    iterations = seen.get("iterations", 0)
    out["adaptation.steps_taken"] = seen.get("steps_taken", 0)
    out["adaptation.step_ratio"] = (seen.get("steps_taken", 0) / iterations
                                    if iterations else 0.0)
    out["adaptation.violation_reduction_pct"] = seen.get("violation_reduction_pct", 0.0)
    return out


def combine_traced(per_cycle, units):
    """Counts must repeat exactly across traced cycles; times take the median."""
    out, problems = {}, []
    for name in per_cycle[0]:
        values = [m[name] for m in per_cycle]
        if units[name] == "count":
            if len(set(values)) != 1:
                problems.append(f"trace: count {name} differs across cycles: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, problems


# -- command line ---------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's counts and digests in expected.json")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    os.chdir(ROOT)
    qr = import_package()
    if qr is None:
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if env["cpu_count"] > env["nproc"]:
        print(f"env_warning=cpu_count_exceeds_nproc: the CLI defaults to "
              f"{env['cpu_count']} threads on {env['nproc']} usable cores")

    expected = load_expected()
    reference, recorded_inputs = ({}, None) if args.record else \
        recorded(workload, args.seed, expected)
    problems = []
    if not args.record and not reference:
        problems.append(f"expected.json has no entry for {workload.name}")
    config, setup_s, inputs, setup_spans = set_up(workload, workdir, args.seed,
                                                  args.trace, problems)
    if recorded_inputs is not None and inputs != recorded_inputs:
        problems.append("generator: inputs differ from the recorded inputs for "
                        "this seed")
    references = [("recorded", reference)] if reference else []

    cycles, traced = [], []
    walls = {False: [], True: []}   # whole cycles, untraced and traced
    passes = {False: [], True: []}  # one pass per cycle, as in pass_seconds
    attempted = failed = 0
    first_seen = None
    start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(walls[False]) > len(walls[True])
        tracer = Tracer() if trace_this else None
        began = time.perf_counter()
        with tracer or contextlib.nullcontext():
            times, n_failed, found, seen = run_cycle(qr, workload, workdir, config,
                                                     references, tracer)
        walls[trace_this].append(time.perf_counter() - began)
        passes[trace_this].append(pass_seconds(times))
        attempted += sum(len(t) for t in times.values())
        failed += n_failed
        problems.extend(found)
        if trace_this:
            traced.append(per_layer(tracer.spans(), seen))
            if tracer.missing:
                print("trace_missing=" + ",".join(tracer.missing))
        else:
            cycles.append(times)
        if first_seen is None:
            first_seen = seen
            references = references + [("first cycle", seen)]
        print("cycle traced=%d %s" % (trace_this, " ".join(
            f"{c}_s={statistics.fmean(t):.4f}" for c, t in times.items())))
        # stop before a cycle that would end past --seconds, once the run has
        # what it reports (a traced run needs one cycle of each kind): a run
        # then ends within --seconds unless its first cycles alone exceed it
        trace_next = bool(args.trace) and len(walls[False]) > len(walls[True])
        next_wall = statistics.median(walls[trace_next] or walls[trace_this])
        late = time.perf_counter() - start + next_wall > args.seconds
        if late and (not args.trace or traced):
            break

    if args.trace:
        metrics, found = combine_traced(traced, units)
        problems.extend(found)
        untraced = statistics.median(passes[False])
        metrics["trace.overhead_pct"] = (100.0 * (statistics.median(passes[True])
                                                  - untraced) / untraced)
        metrics["model.fit_s"] = sum((s.duration for s in setup_spans
                                      if s.name == "model.fit"), 0.0)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(setup_s, cycles, attempted, failed)
        wanted = [m["name"] for m in spec["end_to_end"]]
    if args.record:
        if problems:
            print("not recording: the run has problems", file=sys.stderr)
        else:
            record(workload, args.seed, inputs, first_seen, expected)
    print(f"checks recorded_seed={'yes' if recorded_inputs else 'no'} "
          f"problems={len(problems)}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 3

    details = {"env": env, "workload": workload.name, "seed": args.seed,
               "trace": args.trace, "cycles": cycles, "walls": walls,
               "problems": problems, "observed": first_seen}
    (workdir / f"run_trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
