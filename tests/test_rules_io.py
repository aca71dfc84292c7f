import math

import pytest

from quantrules.errors import ParseError
from quantrules.rules_io import FORMAT_VERSION, load_rules, save_rules
from quantrules.schema import (AbstractRule, ConcreteRule, Literal, enumerate_abstract_rules,
                               parse_schema)


def sample_rules():
    cond = ConcreteRule(
        rule=AbstractRule(kind="conditional", guard="car", statistic="aspect_ratio",
                          delta=0.02, batch_size=1),
        lo=0.07, hi=2.77, delta=0.02,
        provenance={"train": "train.csv", "train_seed": 7, "valid_seed": 8})
    one_sided = ConcreteRule(
        rule=AbstractRule(kind="conditional", sided="lower", guard=None,
                          statistic="width", delta=0.05),
        lo=0.1234567890123456789, hi=math.inf, delta=0.05)
    logic = ConcreteRule(
        rule=AbstractRule(kind="logic", statistic="f1", consequent="yes",
                          literals=(Literal("smoke"), Literal("active", True)),
                          delta=0.02, batch_size=256),
        lo=0.25, hi=0.75, delta=0.02)
    paired = ConcreteRule(
        rule=AbstractRule(kind="paired", guard="person", statistic="width",
                          s1="aspect_ratio", s1_bucket=0, s1_bucket_count=4),
        lo=1.0, hi=2.0, delta=0.02, s1_lo=-math.inf, s1_hi=0.5)
    return [cond, one_sided, logic, paired]


def test_round_trip_is_lossless(tmp_path):
    path = tmp_path / "rules.jsonl"
    rules = sample_rules()
    save_rules(path, rules, bucket_edges={"age": [1.5, 2.5]})
    loaded, header = load_rules(path)
    assert header["format_version"] == FORMAT_VERSION
    assert header["bucket_edges"] == {"age": [1.5, 2.5]}
    assert len(loaded) == len(rules)
    for original, restored in zip(rules, loaded):
        assert restored.rule == original.rule
        assert restored.lo == original.lo  # bit-exact float round trip
        assert restored.hi == original.hi
        assert restored.s1_lo == original.s1_lo
        assert restored.s1_hi == original.s1_hi
        assert restored.signature == original.signature
        assert restored.provenance == original.provenance


def test_round_trip_preserves_awkward_floats(tmp_path):
    path = tmp_path / "rules.jsonl"
    lo = 0.1 + 0.2  # 0.30000000000000004
    rule = ConcreteRule(rule=AbstractRule(kind="conditional", statistic="s"),
                        lo=lo, hi=1e308, delta=2**-30)
    save_rules(path, [rule])
    (restored,), _ = load_rules(path)
    assert restored.lo == lo
    assert restored.hi == 1e308
    assert restored.delta == 2**-30


def test_version_mismatch_is_refused(tmp_path):
    path = tmp_path / "rules.jsonl"
    save_rules(path, [])
    text = path.read_text(encoding="utf-8").replace(
        f'"format_version": {FORMAT_VERSION}', '"format_version": 999')
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match="format_version"):
        load_rules(path)


def test_empty_rules_file_round_trip(tmp_path):
    path = tmp_path / "rules.jsonl"
    save_rules(path, [])
    loaded, _ = load_rules(path)
    assert loaded == []


def test_missing_header_is_parse_error(tmp_path):
    path = tmp_path / "rules.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        load_rules(path)


def _one_object_per_literal(rules):
    """True when every occurrence of a literal among ``rules`` is one object."""
    seen = {}
    return all(seen.setdefault(lit, lit) is lit for rule in rules for lit in rule.literals)


def test_each_distinct_literal_is_one_object(tmp_path):
    """Enumeration and load_rules make each (feature, negated) literal once,
    across templates and rule lines."""
    text = "".join(f"template logic_implication\nlabels: {labels}\nmax_literals: 2\n"
                   f"literals: signed\nbatch: {batch}\n\n"
                   for labels, batch in (("a b", 8), ("c", 16)))
    rules = enumerate_abstract_rules(parse_schema(text), ["f", "g", "h"])
    literals = [lit for rule in rules for lit in rule.literals]
    assert len(set(literals)) == 6 and len(literals) > 6  # literals recur
    assert _one_object_per_literal(rules)

    crules = [ConcreteRule(rule=rule, lo=0.0, hi=1.0, delta=rule.delta) for rule in rules]
    path = tmp_path / "rules.jsonl"
    save_rules(path, crules)
    loaded, _ = load_rules(path)
    assert [c.rule for c in loaded] == rules
    assert _one_object_per_literal([c.rule for c in loaded])
    # equal literals made apart hash alike, and so do the rules holding them
    assert {lit for c in loaded for lit in c.rule.literals} == set(literals)
    assert {c.rule for c in loaded} == set(rules)
