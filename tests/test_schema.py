import re
from dataclasses import fields, replace
from itertools import combinations, product

import pytest

from quantrules.errors import ParseError, ResolutionError
from quantrules.schema import (CONDITIONAL, LOGIC, PAIRED, AbstractRule, ConcreteRule,
                               Literal, enumerate_abstract_rules, parse_schema,
                               rule_signature)

RUNNING_EXAMPLE = """
# two-sided statistic bounds per object class
template conditional_statistic
labels: car person rider
statistics: aspect_ratio
sided: two
quantile: 0.98
"""


def test_parse_running_example():
    schema = parse_schema(RUNNING_EXAMPLE)
    (t,) = schema.templates
    assert t.kind == CONDITIONAL
    assert t.labels == ("car", "person", "rider")
    assert t.statistics == ("aspect_ratio",)
    assert t.sided == "two"
    assert t.delta == pytest.approx(0.02)


def test_parse_defaults_quantile_to_098():
    schema = parse_schema("template conditional_statistic\nlabels: a\nstatistics: s\n")
    assert schema.templates[0].delta == pytest.approx(0.02)


def test_parse_rejects_quantile_one():
    text = "template conditional_statistic\nlabels: a\nstatistics: s\nquantile: 1.0\n"
    with pytest.raises(ParseError, match="quantile"):
        parse_schema(text)


def test_parse_rejects_unknown_key():
    text = "template conditional_statistic\nlabels: a\nstatistics: s\nbogus: 1\n"
    with pytest.raises(ParseError, match="bogus"):
        parse_schema(text)


def test_parse_rejects_empty_labels():
    with pytest.raises(ParseError, match="labels"):
        parse_schema("template conditional_statistic\nstatistics: s\n")


def test_parse_error_carries_line_number():
    text = "template conditional_statistic\nlabels: a\nstatistics: s\nquantile: x\n"
    with pytest.raises(ParseError, match="line 4"):
        parse_schema(text)


@pytest.mark.parametrize("template", ["conditional_statistic", "paired_bucketed"])
def test_parse_rejects_f1_outside_logic(template):
    text = f"# f1 scores implications only\ntemplate {template}\nlabels: a\nstatistics: f1 s\n"
    with pytest.raises(ParseError, match="line 2: .*'f1'.*logic_implication"):
        parse_schema(text, known_statistics=["f1", "s"])


def test_parse_resolves_statistics_against_known_names():
    text = "template conditional_statistic\nlabels: a\nstatistics: nope\n"
    with pytest.raises(ResolutionError, match="known statistics"):
        parse_schema(text, known_statistics=["aspect_ratio", "width"])
    parse_schema(text.replace("nope", "width"), known_statistics=["aspect_ratio", "width"])


def test_parse_wildcard_labels_mean_unguarded():
    schema = parse_schema("template conditional_statistic\nlabels: *\nstatistics: s\n")
    rules = enumerate_abstract_rules(schema)
    assert len(rules) == 1
    assert rules[0].guard is None


def test_parse_logic_defaults_f1():
    schema = parse_schema("template logic_implication\nlabels: a b\nmax_literals: 2\n")
    t = schema.templates[0]
    assert t.kind == LOGIC
    assert t.statistics == ("f1",)
    assert not t.signed_literals


# -- enumeration ---------------------------------------------------------------

def test_conditional_enumeration_is_labels_times_statistics():
    rules = enumerate_abstract_rules(parse_schema(RUNNING_EXAMPLE))
    assert len(rules) == 3
    assert sorted(r.guard for r in rules) == ["car", "person", "rider"]


def test_logic_enumeration_signed_k1():
    # oracle: 2 classes x 4 features x 2 signs = 16
    schema = parse_schema(
        "template logic_implication\nlabels: c0 c1\nmax_literals: 1\nliterals: signed\n")
    rules = enumerate_abstract_rules(schema, [f"f{i}" for i in range(4)])
    assert len(rules) == 16


def brute_force_logic_count(m, features, k, signed, groups=None):
    """Independent generate-and-count oracle for logic enumeration."""
    groups = groups or {}
    signs = (False, True) if signed else (False,)
    seen = set()
    for size in range(1, k + 1):
        for combo in combinations(sorted(features), size):
            srcs = [groups.get(f, f) for f in combo]
            if len(set(srcs)) != len(srcs):
                continue
            for assignment in product(signs, repeat=size):
                for cls in range(m):
                    seen.add((combo, assignment, cls))
    return len(seen)


@pytest.mark.parametrize("m,n,k,signed", [(2, 6, 2, True), (3, 4, 1, False),
                                          (2, 5, 3, True), (1, 6, 2, False)])
def test_logic_enumeration_matches_brute_force(m, n, k, signed):
    labels = " ".join(f"c{i}" for i in range(m))
    text = (f"template logic_implication\nlabels: {labels}\nmax_literals: {k}\n"
            + ("literals: signed\n" if signed else ""))
    rules = enumerate_abstract_rules(parse_schema(text), [f"f{i}" for i in range(n)])
    assert len(rules) == brute_force_logic_count(m, [f"f{i}" for i in range(n)], k, signed)


def test_logic_enumeration_excludes_same_source_pairs():
    features = ["age__b0", "age__b1", "smoke"]
    groups = {"age__b0": "age", "age__b1": "age"}
    text = "template logic_implication\nlabels: y\nmax_literals: 2\n"
    rules = enumerate_abstract_rules(parse_schema(text), features, groups)
    for rule in rules:
        srcs = [groups.get(l.feature, l.feature) for l in rule.literals]
        assert len(set(srcs)) == len(srcs)
    assert len(rules) == brute_force_logic_count(1, features, 2, False, groups)


def test_logic_enumeration_k_exceeding_features_errors():
    schema = parse_schema("template logic_implication\nlabels: y\nmax_literals: 3\n")
    with pytest.raises(ValueError, match="max_literals"):
        enumerate_abstract_rules(schema, ["f0", "f1"])


def test_paired_enumeration_closed_form():
    # m labels x n statistics x (n-1) partners x buckets
    text = ("template paired_bucketed\nlabels: " + " ".join(f"c{i}" for i in range(7))
            + "\nstatistics: s0 s1 s2 s3 s4 s5\npair_buckets: 4\n")
    rules = enumerate_abstract_rules(parse_schema(text))
    assert len(rules) == 7 * 6 * 5 * 4
    assert all(r.kind == PAIRED for r in rules)


def test_enumeration_is_deterministic_and_free_of_duplicates():
    text = (RUNNING_EXAMPLE
            + "\ntemplate logic_implication\nlabels: car person\nmax_literals: 2\n"
              "literals: signed\nbatch: 64\n")
    schema = parse_schema(text)
    a = enumerate_abstract_rules(schema, ["f0", "f1", "f2"])
    b = enumerate_abstract_rules(schema, ["f0", "f1", "f2"])
    sigs = [rule_signature(r) for r in a]
    assert sigs == [rule_signature(r) for r in b]
    assert len(set(sigs)) == len(sigs)
    assert sigs == sorted(sigs)


# -- signatures ------------------------------------------------------------------

def test_cached_hash_is_the_hash_of_every_field():
    # the hash is that of every field, so that equal rules hash equal
    rule = AbstractRule(kind=LOGIC, statistic="f1", consequent="y", batch_size=64,
                        literals=(Literal("b"), Literal("a", True)))
    assert hash(rule) == hash(tuple(getattr(rule, f.name) for f in fields(rule)))
    assert hash(rule) == hash(replace(rule))
    assert {rule: 1}[replace(rule)] == 1


def test_signature_identical_for_identical_structure():
    r1 = AbstractRule(kind=CONDITIONAL, guard="car", statistic="width")
    r2 = AbstractRule(kind=CONDITIONAL, guard="car", statistic="width", delta=0.1)
    assert rule_signature(r1) == rule_signature(r2)


def test_signature_sorts_literals():
    r1 = AbstractRule(kind=LOGIC, statistic="f1", consequent="y",
                      literals=(Literal("b"), Literal("a", True)))
    r2 = AbstractRule(kind=LOGIC, statistic="f1", consequent="y",
                      literals=(Literal("a", True), Literal("b")))
    assert rule_signature(r1) == rule_signature(r2)


def test_signature_distinguishes_guards():
    r1 = AbstractRule(kind=CONDITIONAL, guard="car", statistic="width")
    r2 = AbstractRule(kind=CONDITIONAL, guard="person", statistic="width")
    assert rule_signature(r1) != rule_signature(r2)


def test_rule_takes_its_signature_when_made():
    rule = AbstractRule(kind=LOGIC, statistic="f1", consequent="y",
                        literals=(Literal("b"), Literal("a", True)))
    assert rule.signature == rule_signature(rule)
    crule = ConcreteRule(rule=rule, lo=0.1, hi=0.9, delta=0.02)
    assert crule.signature is rule.signature


PAIRED_RULE = AbstractRule(kind=PAIRED, guard="car", statistic="width", s1="height",
                           s1_bucket=0, s1_bucket_count=2)


@pytest.mark.parametrize("rule, s1, reason", [
    (PAIRED_RULE, (None, None), "a paired rule has a learned s1 interval"),
    (PAIRED_RULE, (0.0, None), "a paired rule has a learned s1 interval"),
    (AbstractRule(kind=CONDITIONAL, statistic="width"), (0.0, 1.0),
     "no other rule has one"),
    (AbstractRule(kind=LOGIC, statistic="f1", consequent="y"), (None, None),
     "at least one literal and a consequent"),
    (AbstractRule(kind=LOGIC, statistic="f1", literals=(Literal("a"),)), (None, None),
     "at least one literal and a consequent"),
], ids=["paired-without-s1", "paired-half-s1", "conditional-with-s1", "logic-no-literal",
        "logic-no-consequent"])
def test_concrete_rule_checks_its_structure_against_its_kind(rule, s1, reason):
    with pytest.raises(ValueError, match=f"rule {re.escape(rule.signature)}: .*{reason}"):
        ConcreteRule(rule=rule, lo=0.0, hi=1.0, delta=0.02, s1_lo=s1[0], s1_hi=s1[1])
