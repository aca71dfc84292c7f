#!/usr/bin/env python3
"""Generator self-test: seeded inputs are reproducible and typed as intended.

Usage (from the checkout root):

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload it writes the inputs for a seed twice and requires
byte-identical files, writes the next seed and requires some file to
change, and loads every table with the package's own loaders to check that
each column has its intended kind. It also checks that the tracer loses no
span and parents pool-thread spans correctly under heavy thread switching.
Exits 0 when every check passes.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import yaml

from run import ROOT, WORK, import_package
from tracer import Target, Tracer, summarize
from workloads import WORKLOADS


def digests(workload, workdir):
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in workload.inputs}


def column_kinds(path, data_cfg):
    from quantrules.dataset import FeatureSpec, load_table
    from quantrules.statistics import load_boxes

    if path.suffix == ".json":
        dataset = load_boxes(path)
    else:
        specs = [FeatureSpec(f["column"], f.get("buckets"))
                 for f in data_cfg.get("features") or ()] or None
        dataset = load_table(path, specs)
    return dict(dataset.columns)


def check(workload, seed):
    workdir = WORK / "selftest" / workload.name
    failures = []
    config = workload.write(workdir, seed)
    first = digests(workload, workdir)
    workload.write(workdir, seed)
    if digests(workload, workdir) != first:
        failures.append(f"seed {seed} wrote different bytes on a second write")
    workload.write(workdir, seed + 1)
    if digests(workload, workdir) == first:
        failures.append(f"seeds {seed} and {seed + 1} wrote identical inputs")
    workload.write(workdir, seed)
    data_cfg = yaml.safe_load(config.read_text(encoding="utf-8"))["data"]
    for name, wanted in workload.kinds.items():
        found = column_kinds(workdir / name, data_cfg)
        if found != wanted:
            wrong = sorted(set(found.items()) ^ set(wanted.items()))
            failures.append(f"{name}: column kinds differ from intended: {wrong}")
    return failures


def check_tracer(threads=8, calls=2000):
    import quantrules.schema as schema

    rule = schema.AbstractRule(kind=schema.CONDITIONAL, statistic="width")

    def work(_):
        return [schema.rule_signature(rule) for _ in range(calls)]

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Tracer([Target("sig", "quantrules.schema", "rule_signature")]) as tracer:
            with tracer.span("home"), ThreadPoolExecutor(threads) as pool:
                list(pool.map(work, range(threads)))
    finally:
        sys.setswitchinterval(previous)
    spans = tracer.spans()
    home = next(s for s in spans if s.name == "home")
    sigs = [s for s in spans if s.name == "sig"]
    failures = []
    if len(sigs) != threads * calls:
        failures.append(f"{len(sigs)} spans recorded, expected {threads * calls}")
    if len({s.id for s in spans}) != len(spans):
        failures.append("span ids repeat")
    if any(s.parent != home.id for s in sigs):
        failures.append("a pool-thread span is not parented to the home span")
    if not summarize(spans)["home"]["self"] < home.duration:
        failures.append("pool-thread spans do not reduce the home span's self time")
    return failures


def report(name, failures):
    print(f"{'PASS' if not failures else 'FAIL'} {name}")
    for failure in failures:
        print(f"  {failure}")
    return not failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    os.chdir(ROOT)
    if import_package() is None:
        return 2
    ok = report("tracer", check_tracer())
    for name in args.workload or sorted(WORKLOADS):
        ok = report(name, check(WORKLOADS[name], args.seed)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
