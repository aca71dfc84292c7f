"""Lossless JSON-lines persistence for learned rules.

The first line is a header object carrying the format version and the
bucket edges fitted at mining time, so a test set can be featurized
identically; each following line is one concrete rule. Floats round-trip
exactly (json uses repr, the shortest exact decimal); infinite bounds are
encoded as null on the open side.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ParseError
from .schema import AbstractRule, ConcreteRule, Literal

FORMAT_VERSION = 1


def _bound_out(value):
    return None if math.isinf(value) else value


def _bound_in(value, sign):
    return sign * math.inf if value is None else float(value)


def rule_to_obj(crule: ConcreteRule) -> dict:
    r = crule.rule
    obj = {
        "signature": crule.signature,
        "kind": r.kind,
        "sided": r.sided,
        "guard": r.guard,
        "statistic": r.statistic,
        "literals": [[l.feature, l.negated] for l in r.literals],
        "consequent": r.consequent,
        "s1": r.s1,
        "s1_bucket": r.s1_bucket,
        "s1_bucket_count": r.s1_bucket_count,
        "batch_size": r.batch_size,
        "lo": _bound_out(crule.lo),
        "hi": _bound_out(crule.hi),
        "delta": crule.delta,
        "s1_lo": None if crule.s1_lo is None else _bound_out(crule.s1_lo),
        "s1_hi": None if crule.s1_hi is None else _bound_out(crule.s1_hi),
        "provenance": crule.provenance,
    }
    return obj


def rule_from_obj(obj: dict) -> ConcreteRule:
    rule = AbstractRule(
        kind=obj["kind"],
        sided=obj["sided"],
        guard=obj["guard"],
        statistic=obj["statistic"],
        literals=tuple(Literal(f, bool(n)) for f, n in obj["literals"]),
        consequent=obj["consequent"],
        s1=obj["s1"],
        s1_bucket=obj["s1_bucket"],
        s1_bucket_count=obj["s1_bucket_count"],
        delta=obj["delta"],
        batch_size=obj["batch_size"],
    )
    paired = obj["s1"] is not None
    return ConcreteRule(
        rule=rule,
        lo=_bound_in(obj["lo"], -1),
        hi=_bound_in(obj["hi"], +1),
        delta=obj["delta"],
        s1_lo=_bound_in(obj["s1_lo"], -1) if paired else None,
        s1_hi=_bound_in(obj["s1_hi"], +1) if paired else None,
        provenance=obj.get("provenance", {}),
    )


def save_rules(path, rules, bucket_edges=None):
    path = Path(path)
    header = {"format_version": FORMAT_VERSION,
              "bucket_edges": {k: list(v) for k, v in (bucket_edges or {}).items()}}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for crule in rules:
            fh.write(json.dumps(rule_to_obj(crule)) + "\n")


def load_rules(path):
    """Returns (rules, header); refuses files written at another version."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty rules file, expected a header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad header: {exc}", line=1)
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"{path}: rules file format_version {version!r} is not supported "
            f"(expected {FORMAT_VERSION})")
    rules = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rules.append(rule_from_obj(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ParseError(f"{path}: bad rule object: {exc}", line=lineno)
    return rules, header
