"""Rule schemas: parse template documents and enumerate abstract rules.

A schema document is a sequence of stanzas, one per template. A stanza
opens with ``template <kind>`` and is followed by ``key: value`` lines:

    template conditional_statistic
    labels: car person rider
    statistics: aspect_ratio
    sided: two
    quantile: 0.98

Template kinds and their keys:

* ``conditional_statistic`` -- one rule per (guard label, statistic).
  ``labels: *`` makes the rules unguarded.
* ``logic_implication`` -- conjunctions of up to ``max_literals`` boolean
  feature literals implying a class label, scored by minibatch F1.
  ``literals: signed`` also enumerates negated literals (default positive).
* ``paired_bucketed`` -- per guard label, bucket by a first statistic and
  bound a second one within each bucket (``pair_buckets`` buckets).

Shared keys: ``sided`` (lower|upper|two), ``quantile`` (the 1-delta level,
default 0.98), ``batch`` (minibatch size, default 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

from .errors import ParseError, ResolutionError

CONDITIONAL = "conditional"
LOGIC = "logic"
PAIRED = "paired"

TWO_SIDED = "two"
LOWER = "lower"
UPPER = "upper"
SIDEDNESS = (LOWER, UPPER, TWO_SIDED)

DEFAULT_DELTA = 0.02

_TEMPLATE_TOKENS = {
    "conditional_statistic": CONDITIONAL,
    "logic_implication": LOGIC,
    "paired_bucketed": PAIRED,
}
_KEYS = ("labels", "statistics", "sided", "quantile", "batch",
         "max_literals", "pair_buckets", "literals")


@dataclass(frozen=True)
class TemplateSpec:
    kind: str
    labels: tuple = ()
    statistics: tuple = ()
    sided: str = TWO_SIDED
    delta: float = DEFAULT_DELTA
    batch_size: int = 1
    max_literals: int = 1
    signed_literals: bool = False
    pair_buckets: int = 4


@dataclass(frozen=True)
class RuleSchema:
    templates: tuple


@dataclass(frozen=True, order=True)
class Literal:
    feature: str
    negated: bool = False

    def __post_init__(self):
        # hashed once: readers and rule hashes look literals up by the million,
        # and the generated hash would build a tuple of the fields each time
        self.__dict__["_hash"] = hash((self.feature, self.negated))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return ("!" if self.negated else "") + self.feature


@dataclass(frozen=True)
class AbstractRule:
    """A rule's structure with unfilled bound placeholders.

    ``statistic`` holds the bounded statistic (for paired rules the second
    statistic of the pair); logic rules carry a conjunction of ``literals``
    implying ``consequent`` and are scored by the ``f1`` statistic.
    ``signature`` is ``rule_signature(rule)``, taken once, when the rule is
    made.
    """

    kind: str
    sided: str = TWO_SIDED
    guard: str | None = None
    statistic: str | None = None
    literals: tuple = ()
    consequent: str | None = None
    s1: str | None = None
    s1_bucket: int | None = None
    s1_bucket_count: int | None = None
    delta: float = DEFAULT_DELTA
    batch_size: int = 1

    def __post_init__(self):
        # rules key dicts in mining and counting; the generated hash would
        # rehash every field, literals included, on each lookup. The hash and
        # the signature are written to __dict__ directly, which is cheaper than
        # object.__setattr__; the hash first, so rule_signature may hash the rule
        self.__dict__["_hash"] = hash((
            self.kind, self.sided, self.guard, self.statistic, self.literals,
            self.consequent, self.s1, self.s1_bucket, self.s1_bucket_count,
            self.delta, self.batch_size))
        self.__dict__["signature"] = rule_signature(self)

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class ConcreteRule:
    """An abstract rule instantiated with learned quantile bounds.

    ``lo``/``hi`` may be -inf/+inf for one-sided rules. A paired rule also
    carries its learned first-statistic bucket interval (s1_lo, s1_hi], and no
    other rule does; a logic rule has at least one literal and a consequent.
    """

    rule: AbstractRule
    lo: float
    hi: float
    delta: float
    s1_lo: float | None = None
    s1_hi: float | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("rule bounds cannot be NaN")
        if self.lo > self.hi:
            raise ValueError(f"lower bound {self.lo} exceeds upper bound {self.hi}")
        if math.isinf(self.lo) and math.isinf(self.hi):
            raise ValueError("at least one bound must be finite")
        rule = self.rule
        paired = rule.kind == PAIRED
        if paired != (self.s1_lo is not None) or paired != (self.s1_hi is not None):
            raise ValueError(f"rule {self.signature}: a paired rule has a learned s1 "
                             f"interval (s1_lo, s1_hi], and no other rule has one")
        if rule.kind == LOGIC and not (rule.literals and rule.consequent is not None):
            raise ValueError(f"rule {self.signature}: a logic rule needs at least one "
                             f"literal and a consequent")

    @property
    def signature(self):
        return self.rule.signature


def rule_signature(rule: AbstractRule) -> str:
    """Canonical, injective string key for an abstract rule."""
    guard = rule.guard if rule.guard is not None else "*"
    if rule.kind == CONDITIONAL:
        return f"cond|{rule.sided}|y={guard}|phi={rule.statistic}"
    if rule.kind == LOGIC:
        body = "&".join(str(l) for l in sorted(rule.literals))
        return f"logic|{rule.sided}|{body}=>y={rule.consequent}|phi={rule.statistic}"
    if rule.kind == PAIRED:
        return (f"pair|{rule.sided}|y={guard}|s1={rule.s1}"
                f"@b{rule.s1_bucket}/{rule.s1_bucket_count}|s2={rule.statistic}")
    raise ValueError(f"unknown rule kind {rule.kind!r}")


def _parse_stanza_value(key, tokens, lineno):
    if key in ("labels", "statistics"):
        return tuple(tokens)
    if len(tokens) != 1:
        raise ParseError(f"key {key!r} takes exactly one value", line=lineno)
    tok = tokens[0]
    if key == "sided":
        if tok not in SIDEDNESS:
            raise ParseError(f"sided must be one of {SIDEDNESS}, got {tok!r}", line=lineno)
        return tok
    if key == "quantile":
        try:
            level = float(tok)
        except ValueError:
            raise ParseError(f"quantile must be a number, got {tok!r}", line=lineno)
        if not 0.0 < level < 1.0:
            raise ParseError(f"quantile must lie strictly in (0, 1), got {level}", line=lineno)
        return level
    if key == "literals":
        if tok not in ("positive", "signed"):
            raise ParseError(f"literals must be 'positive' or 'signed', got {tok!r}", line=lineno)
        return tok
    try:
        value = int(tok)
    except ValueError:
        raise ParseError(f"key {key!r} expects an integer, got {tok!r}", line=lineno)
    return value


def _finish_stanza(kind, fields, lineno, known_statistics):
    labels = fields.get("labels", ())
    if labels == ("*",):
        if kind != CONDITIONAL:
            raise ParseError("wildcard labels are only valid for conditional_statistic",
                             line=lineno)
        labels = ()
    elif not labels:
        raise ParseError(f"template {kind!r} requires a nonempty 'labels' list", line=lineno)

    statistics = fields.get("statistics", ())
    if kind == LOGIC:
        statistics = statistics or ("f1",)
        if statistics != ("f1",):
            raise ParseError("logic_implication supports only the 'f1' statistic", line=lineno)
    elif not statistics:
        raise ParseError(f"template {kind!r} requires a nonempty 'statistics' list", line=lineno)
    elif "f1" in statistics:
        raise ParseError("the 'f1' statistic is only valid for logic_implication",
                         line=lineno)
    if kind == PAIRED and len(set(statistics)) < 2:
        raise ParseError("paired_bucketed needs at least two distinct statistics", line=lineno)

    if known_statistics is not None and kind != LOGIC:
        known = set(known_statistics)
        for name in statistics:
            if name not in known:
                raise ResolutionError(
                    f"unknown statistic {name!r}; known statistics: "
                    + ", ".join(sorted(known)))

    level = fields.get("quantile", 1.0 - DEFAULT_DELTA)
    batch = fields.get("batch", 1)
    if batch < 1:
        raise ParseError(f"batch must be >= 1, got {batch}", line=lineno)
    max_literals = fields.get("max_literals", 1)
    if max_literals < 1:
        raise ParseError(f"max_literals must be >= 1, got {max_literals}", line=lineno)
    pair_buckets = fields.get("pair_buckets", 4)
    if pair_buckets < 2:
        raise ParseError(f"pair_buckets must be >= 2, got {pair_buckets}", line=lineno)

    return TemplateSpec(
        kind=kind,
        labels=tuple(labels),
        statistics=tuple(statistics),
        sided=fields.get("sided", TWO_SIDED),
        delta=1.0 - level,
        batch_size=batch,
        max_literals=max_literals,
        signed_literals=fields.get("literals", "positive") == "signed",
        pair_buckets=pair_buckets,
    )


def parse_schema(text, known_statistics=None) -> RuleSchema:
    """Parse a schema document; rejects unknown keys and out-of-range values.

    When ``known_statistics`` is given, statistic names must resolve against
    it; otherwise name resolution is deferred to the caller.
    """
    templates = []
    kind = None
    fields = {}
    stanza_line = 0

    def close(lineno):
        nonlocal kind, fields
        if kind is not None:
            templates.append(_finish_stanza(kind, fields, lineno, known_statistics))
        kind, fields = None, {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("template"):
            close(stanza_line)
            tokens = line.split()
            if len(tokens) != 2:
                raise ParseError("expected 'template <kind>'", line=lineno)
            if tokens[1] not in _TEMPLATE_TOKENS:
                raise ParseError(
                    f"unknown template kind {tokens[1]!r}; expected one of "
                    + ", ".join(sorted(_TEMPLATE_TOKENS)), line=lineno)
            kind = _TEMPLATE_TOKENS[tokens[1]]
            stanza_line = lineno
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}", line=lineno)
        if kind is None:
            raise ParseError("key outside a template stanza", line=lineno)
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}; known keys: {', '.join(_KEYS)}", line=lineno)
        if key in fields:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        fields[key] = _parse_stanza_value(key, rest.split(), lineno)
    close(stanza_line)

    if not templates:
        raise ParseError("schema document declares no templates")
    return RuleSchema(templates=tuple(templates))


def _iter_conditional(t):
    guards = t.labels if t.labels else (None,)
    for guard in guards:
        for stat in t.statistics:
            yield AbstractRule(kind=CONDITIONAL, sided=t.sided, guard=guard,
                               statistic=stat, delta=t.delta, batch_size=t.batch_size)


def literal_of(interned, feature, negated):
    """The ``Literal`` (feature, negated) of ``interned``, a dict from such
    pairs to literals, made and added on first use: the rules that share a
    dict share one object per distinct literal, so a lookup of one in a set
    or dict stops at the identity check."""
    lit = interned.get((feature, negated))
    if lit is None:
        lit = interned[feature, negated] = Literal(feature, negated)
    return lit


def _iter_logic(t, features, feature_groups, interned):
    if t.max_literals > len(features):
        raise ValueError(
            f"max_literals={t.max_literals} exceeds the {len(features)} available features")
    groups = feature_groups or {}
    signs = (False, True) if t.signed_literals else (False,)
    ordered = sorted(features)
    for f in ordered:
        for neg in signs:
            literal_of(interned, f, neg)
    for size in range(1, t.max_literals + 1):
        for combo in combinations(ordered, size):
            used = [groups.get(f, f) for f in combo]
            if len(set(used)) != len(used):
                continue  # two indicators of one bucketed column are mutually exclusive
            for assignment in product(signs, repeat=size):
                literals = tuple(map(interned.__getitem__, zip(combo, assignment)))
                for cls in t.labels:
                    yield AbstractRule(kind=LOGIC, sided=t.sided, statistic="f1",
                                       literals=literals, consequent=cls,
                                       delta=t.delta, batch_size=t.batch_size)


def _iter_paired(t):
    for guard in t.labels:
        for s1 in t.statistics:
            for s2 in t.statistics:
                if s2 == s1:
                    continue
                for j in range(t.pair_buckets):
                    yield AbstractRule(kind=PAIRED, sided=t.sided, guard=guard,
                                       statistic=s2, s1=s1, s1_bucket=j,
                                       s1_bucket_count=t.pair_buckets,
                                       delta=t.delta, batch_size=t.batch_size)


def enumerate_abstract_rules(schema, features=(), feature_groups=None):
    """All abstract rules consistent with the schema, each exactly once.

    ``features`` are the boolean feature names available to logic templates;
    ``feature_groups`` maps bucket-derived features to their source column so
    mutually exclusive indicators never share a conjunction. Output order is
    lexicographic by signature and stable across runs. Each distinct literal
    is one ``Literal`` object, shared by every rule that holds it.
    """
    rules, interned = [], {}
    for t in schema.templates:
        if t.kind == CONDITIONAL:
            rules.extend(_iter_conditional(t))
        elif t.kind == LOGIC:
            rules.extend(_iter_logic(t, features, feature_groups, interned))
        elif t.kind == PAIRED:
            rules.extend(_iter_paired(t))
    by_signature = {}  # of rules with equal signatures, the first enumerated
    for rule in rules:
        by_signature.setdefault(rule.signature, rule)
    return [by_signature[sig] for sig in sorted(by_signature)]
