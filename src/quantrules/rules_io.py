"""Lossless JSON-lines persistence for learned rules.

The first line is a header object carrying the format version and the
bucket edges fitted at mining time, so a test set can be featurized
identically; each following line is one concrete rule. Floats round-trip
exactly (json uses repr, the shortest exact decimal); infinite bounds are
encoded as null on the open side. A rule line is read field by field: it
must hold exactly the keys ``rule_to_obj`` writes, each of its type and
range, the fields its kind uses and no others, and its own signature.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ParseError, check_fields, is_int, is_number
from .schema import (CONDITIONAL, LOGIC, LOWER, PAIRED, SIDEDNESS, UPPER, AbstractRule,
                     ConcreteRule, literal_of)

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


def _is_str(value):
    return isinstance(value, str)


def _is_bound(value):
    return value is None or (is_number(value) and math.isfinite(value))


def _is_literal(value):
    return (isinstance(value, list) and len(value) == 2 and _is_str(value[0])
            and type(value[1]) is bool)


_KINDS = (CONDITIONAL, LOGIC, PAIRED)
_BOUND = (_is_bound, "a finite number, or null for an infinite end")
# each rule field's check and what it expects, in rule_to_obj's order; the
# range checks are comparisons, so NaN is out of every range
_RULE_FIELDS = {
    "signature": (_is_str, "a string"),
    "kind": (lambda v: v in _KINDS, f"one of {', '.join(_KINDS)}"),
    "sided": (lambda v: v in SIDEDNESS, f"one of {', '.join(SIDEDNESS)}"),
    "guard": (lambda v: v is None or _is_str(v), "a string or null"),
    "statistic": (_is_str, "a string"),
    "literals": (lambda v: isinstance(v, list) and all(map(_is_literal, v)),
                 "a list of [feature, negated] pairs"),
    "consequent": (lambda v: v is None or _is_str(v), "a string or null"),
    "s1": (lambda v: v is None or _is_str(v), "a string or null"),
    "s1_bucket": (lambda v: v is None or is_int(v) and v >= 0, "an integer >= 0 or null"),
    "s1_bucket_count": (lambda v: v is None or is_int(v) and v >= 2,
                        "an integer >= 2 or null"),
    "batch_size": (lambda v: is_int(v) and v >= 1, "an integer >= 1"),
    "lo": _BOUND,
    "hi": _BOUND,
    "delta": (lambda v: is_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "s1_lo": _BOUND,
    "s1_hi": _BOUND,
    "provenance": (lambda v: isinstance(v, dict), "an object"),
}
# the fields only some kinds use, null (literals: empty) in the other kinds;
# of these, a kind that uses a field needs it set but for the guard and the
# s1 interval, whose null is every row and an infinite end
_USED_BY = {"guard": (CONDITIONAL, PAIRED), "literals": (LOGIC,), "consequent": (LOGIC,),
            "s1": (PAIRED,), "s1_bucket": (PAIRED,), "s1_bucket_count": (PAIRED,),
            "s1_lo": (PAIRED,), "s1_hi": (PAIRED,)}
_NEEDED = ("literals", "consequent", "s1", "s1_bucket", "s1_bucket_count")


def rule_from_obj(obj, where="rule", interned=None) -> ConcreteRule:
    """The concrete rule of a ``rule_to_obj`` object. Anything else raises
    ParseError naming ``where`` and the first field at fault: a missing or
    unknown key, a value of the wrong type or range, a field the rule's kind
    does not use or one it needs left empty, bounds the rule cannot hold,
    or a signature that is not the rule's own. The rule's literals come from
    ``interned`` (``schema.literal_of``), when given."""
    check_fields(obj, where, _RULE_FIELDS)
    for key, (ok, expected) in _RULE_FIELDS.items():
        if not ok(obj[key]):
            raise ParseError(f"{where}: {key} must be {expected}, got {obj[key]!r}")
    kind = obj["kind"]
    for key, kinds in _USED_BY.items():
        empty = obj[key] in (None, [])
        if kind not in kinds and not empty:
            raise ParseError(f"{where}: a {kind} rule has no {key}, got {obj[key]!r}")
        if kind in kinds and empty and key in _NEEDED:
            raise ParseError(f"{where}: a {kind} rule needs {key}, got {obj[key]!r}")
    if (obj["statistic"] == "f1") != (kind == LOGIC):
        raise ParseError(f"{where}: a logic rule's statistic is f1, and no other rule's; "
                         f"got {obj['statistic']!r} on a {kind} rule")
    open_end = {LOWER: "hi", UPPER: "lo"}.get(obj["sided"])
    if open_end is not None and obj[open_end] is not None:
        raise ParseError(f"{where}: {open_end} must be null, the open end of a "
                         f"{obj['sided']}-sided rule; got {obj[open_end]!r}")
    if kind == PAIRED and obj["s1_bucket"] >= obj["s1_bucket_count"]:
        raise ParseError(f"{where}: s1_bucket {obj['s1_bucket']} is not below "
                         f"s1_bucket_count {obj['s1_bucket_count']}")
    paired = kind == PAIRED
    if interned is None:
        interned = {}
    try:
        crule = ConcreteRule(
            rule=AbstractRule(
                kind=kind,
                sided=obj["sided"],
                guard=obj["guard"],
                statistic=obj["statistic"],
                literals=tuple(literal_of(interned, f, n) for f, n in obj["literals"]),
                consequent=obj["consequent"],
                s1=obj["s1"],
                s1_bucket=obj["s1_bucket"],
                s1_bucket_count=obj["s1_bucket_count"],
                delta=obj["delta"],
                batch_size=obj["batch_size"],
            ),
            lo=_bound_in(obj["lo"], -1),
            hi=_bound_in(obj["hi"], +1),
            delta=obj["delta"],
            s1_lo=_bound_in(obj["s1_lo"], -1) if paired else None,
            s1_hi=_bound_in(obj["s1_hi"], +1) if paired else None,
            provenance=obj["provenance"],
        )
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from None
    if obj["signature"] != crule.signature:
        raise ParseError(f"{where}: signature {obj['signature']!r} is not the rule's own, "
                         f"{crule.signature!r}")
    return crule


def save_rules(path, rules, bucket_edges=None):
    path = Path(path)
    header = {"format_version": FORMAT_VERSION,
              "bucket_edges": {k: list(v) for k, v in (bucket_edges or {}).items()}}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for crule in rules:
            fh.write(json.dumps(rule_to_obj(crule)) + "\n")


def _is_edges(value):
    return (isinstance(value, list) and all(is_number(e) and math.isfinite(e) for e in value)
            and all(a <= b for a, b in zip(value, value[1:])))


def _check_header(header, where):
    """Raise ParseError naming ``where`` and the field unless ``header`` holds
    exactly the format_version this module writes and bucket_edges, an object
    of column -> list of finite, non-decreasing numbers."""
    if isinstance(header, dict) and "format_version" in header:
        version = header["format_version"]
        if not (is_int(version) and version == FORMAT_VERSION):
            raise ParseError(f"{where}: rules file format_version {version!r} is not "
                             f"supported (expected {FORMAT_VERSION})")
    check_fields(header, where, ("format_version", "bucket_edges"))
    edges = header["bucket_edges"]
    if not isinstance(edges, dict):
        raise ParseError(f"{where}: bucket_edges must be an object of column -> edges, "
                         f"got {edges!r}")
    for column, values in edges.items():
        if not _is_edges(values):
            raise ParseError(f"{where}: bucket_edges of column {column!r} must be a list "
                             f"of finite, non-decreasing numbers, got {values!r}")


def load_rules(path):
    """Returns (rules, header). A header other than ``save_rules`` writes, at
    this format version, or a rule line that is not JSON, or not a rule
    ``rule_from_obj`` reads, raises ParseError naming the file, the line and
    the field. Each distinct literal of the file is one ``Literal`` object."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = [(n, line) for n, line in enumerate(fh.read().splitlines(), start=1)
                 if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty rules file, expected a header line")
    lineno, line = lines[0]
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: bad header: {exc}", line=lineno)
    _check_header(header, f"{path}: header")
    rules, interned = [], {}
    for lineno, line in lines[1:]:
        where = f"{path}: line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where}: bad rule object: {exc}") from None
        rules.append(rule_from_obj(obj, where, interned))
    return rules, header
