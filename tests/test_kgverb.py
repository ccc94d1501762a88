from __future__ import annotations

import math
import random

import pytest

from carbonledger.errors import MalformedRow, UnknownRelation
from carbonledger.kgverb import (
    DEFAULT_TEMPLATES,
    TemplateTable,
    WeightedTriple,
    load_templates,
    load_triples,
    mask_tokens,
    parse_triples,
    select_top,
    unmask,
    verbalize,
    verbalize_all,
    write_corpus,
)

WORDS = "the a cat dog house tree runs sits kitchen garden blue old warm".split()


def random_tokens(rng: random.Random, max_len: int = 30) -> list[str]:
    return [rng.choice(WORDS) for _ in range(rng.randint(1, max_len))]


def test_parse_single_row():
    triples = parse_triples(["refrigerator\tAtLocation\tkitchen\t8.2"])
    assert triples == [WeightedTriple("refrigerator", "AtLocation", "kitchen", 8.2)]


def test_parse_empty_stream():
    assert parse_triples([]) == []


def test_parse_preserves_order_and_skips_comments():
    lines = ["# header", "a\tIsA\tb\t1", "", "c\tIsA\td\t2"]
    triples = parse_triples(lines)
    assert [t.subject for t in triples] == ["a", "c"]


def test_parse_three_fields_strict_raises_with_line_number():
    with pytest.raises(MalformedRow) as err:
        parse_triples(["a\tIsA\tb\t1", "a\tIsA\tb"])
    assert err.value.line_no == 2


def test_malformed_row_names_its_file_or_lines(tmp_path):
    with pytest.raises(MalformedRow) as err:
        parse_triples(["# header", "a\tIsA\tb\tx"])
    assert str(err.value) == "<lines>:2: could not convert string to float: 'x'"
    path = tmp_path / "t.tsv"
    path.write_text("a\tIsA\tb\t1\n\na\tIsA\tb\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        load_triples(path)
    assert str(err.value) == f"{path}:3: expected 4 fields, got 3"
    assert load_triples(path, strict=False) == [WeightedTriple("a", "IsA", "b", 1.0)]


def test_parse_lenient_skips_bad_rows():
    lines = ["a\tIsA\tb\t1", "broken row", "c\tIsA\td\tnot_a_number", "e\tIsA\tf\t2"]
    triples = parse_triples(lines, strict=False)
    assert [t.subject for t in triples] == ["a", "e"]


def test_load_triples_round_trip(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tIsA\tb\t1.5\n", encoding="utf-8")
    assert load_triples(path) == [WeightedTriple("a", "IsA", "b", 1.5)]


def test_select_top_global_prefix():
    triples = [WeightedTriple(f"s{i}", "IsA", "o", float(w)) for i, w in enumerate((5, 9, 1, 7, 3))]
    top = select_top(triples, 3, "global")
    assert [t.weight for t in top] == [9.0, 7.0, 5.0]


def test_select_top_tie_break_is_lexicographic():
    triples = [
        WeightedTriple("b", "IsA", "x", 1.0),
        WeightedTriple("a", "IsA", "y", 1.0),
        WeightedTriple("a", "IsA", "x", 1.0),
    ]
    top = select_top(triples, 3, "global")
    assert [(t.subject, t.object) for t in top] == [("a", "x"), ("a", "y"), ("b", "x")]


def test_select_top_saturates_when_n_exceeds_input():
    triples = [WeightedTriple("a", "IsA", "b", 2.0), WeightedTriple("c", "IsA", "d", 1.0)]
    assert len(select_top(triples, 100, "global")) == 2


def test_select_top_per_subject():
    triples = [
        WeightedTriple("a", "IsA", "x", 1.0),
        WeightedTriple("a", "IsA", "y", 5.0),
        WeightedTriple("b", "IsA", "z", 3.0),
        WeightedTriple("b", "IsA", "w", 4.0),
    ]
    top = select_top(triples, 1, "per-subject")
    assert [(t.subject, t.object) for t in top] == [("a", "y"), ("b", "w")]


def test_select_top_invariant_under_permutation():
    rng = random.Random(8080)
    triples = [
        WeightedTriple(rng.choice("abcde"), rng.choice(("IsA", "PartOf")), f"o{i}", rng.choice((1.0, 2.0, 3.0)))
        for i in range(60)
    ]
    for scope in ("global", "per-subject"):
        expected = select_top(triples, 7, scope)
        for _ in range(10):
            shuffled = triples[:]
            rng.shuffle(shuffled)
            assert select_top(shuffled, 7, scope) == expected


def test_verbalize_default_template():
    triple = WeightedTriple("refrigerator", "AtLocation", "kitchen", 8.2)
    assert verbalize(triple) == "You are likely to find refrigerator in kitchen."


def test_verbalize_identity_template():
    table = TemplateTable({"R": "{s} {o}"})
    assert verbalize(WeightedTriple("refrigerator", "R", "kitchen", 1.0), table) == "refrigerator kitchen"


def test_verbalize_replaces_underscores():
    triple = WeightedTriple("hot_dog", "AtLocation", "baseball_game", 1.0)
    assert verbalize(triple) == "You are likely to find hot dog in baseball game."


def test_verbalize_unknown_relation():
    with pytest.raises(UnknownRelation):
        verbalize(WeightedTriple("a", "NotARelation", "b", 1.0))


def test_verbalize_all_skips_unknown_relations():
    triples = [
        WeightedTriple("a", "IsA", "b", 1.0),
        WeightedTriple("c", "NotARelation", "d", 1.0),
    ]
    sentences, skipped = verbalize_all(triples)
    assert sentences == ["a is a b."]
    assert skipped == [triples[1]]


def test_default_table_covers_common_relations():
    for relation in ("AtLocation", "IsA", "UsedFor", "CapableOf", "Causes", "PartOf"):
        assert relation in DEFAULT_TEMPLATES


def test_template_table_validates_placeholders():
    with pytest.raises(ValueError):
        TemplateTable({"R": "only {s} here"})
    with pytest.raises(ValueError):
        TemplateTable({"R": "{s} and {o} and {o}"})


def test_load_templates(tmp_path):
    path = tmp_path / "templates.tsv"
    path.write_text("R\t{s} maps to {o}\n", encoding="utf-8")
    table = load_templates(path)
    assert verbalize(WeightedTriple("a", "R", "b", 1.0), table) == "a maps to b"


@pytest.mark.parametrize("template", ["{s} is a thing", "{o} {o} {s}", "no placeholder"])
def test_load_templates_names_the_row_that_breaks_the_placeholder_rule(tmp_path, template):
    path = tmp_path / "t.tsv"
    # the bad row is read before a good row after it
    path.write_text(f"PartOf\t{{s}} is part of {{o}}\nIsA\t{template}\nAtLocation\t{{s}} in {{o}}\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        load_templates(path)
    assert (err.value.path, err.value.line_no) == (str(path), 2)
    assert str(err.value) == f"{path}:2: template for 'IsA' must contain {{s}} and {{o}} exactly once"


def test_verbalize_pipeline_reproducible(tmp_path, triples_file):
    from carbonledger.workload import WorkloadConfig, build_corpus

    config = WorkloadConfig(triples_path=str(triples_file), top_n=3)
    first = build_corpus(config)
    second = build_corpus(config)
    assert first == second
    out = tmp_path / "corpus.txt"
    write_corpus(first, out)
    assert out.read_text(encoding="utf-8").splitlines() == first


def test_mask_deterministic_for_same_inputs():
    tokens = "the quick brown fox jumps over the lazy dog".split()
    assert mask_tokens(tokens, 0.4, seed=7) == mask_tokens(tokens, 0.4, seed=7)


def test_mask_degenerate_probability_leaves_tokens():
    tokens = [f"t{i}" for i in range(10)]
    pair = mask_tokens(tokens, 1e-12, seed=3)
    assert pair.labels == ()
    assert pair.masked_tokens == tuple(tokens)


def test_mask_merges_consecutive_tokens_into_one_span():
    # probability near 1 masks everything into a single span
    tokens = ["a", "b", "c"]
    pair = mask_tokens(tokens, 1 - 1e-12, seed=5)
    assert pair.masked_tokens == ("<extra_id_0>",)
    assert pair.labels == (("a", "b", "c"),)


def test_mask_unmask_round_trip_property():
    rng = random.Random(90210)
    for _ in range(300):
        tokens = random_tokens(rng)
        probability = rng.uniform(0.01, 0.9)
        pair = mask_tokens(tokens, probability, seed=rng.randrange(2**31))
        assert unmask(pair) == tuple(tokens)


def test_masked_fraction_concentrates_at_probability():
    tokens = [f"t{i}" for i in range(10_000)]
    pair = mask_tokens(tokens, 0.15, seed=1234)
    masked = sum(len(span) for span in pair.labels)
    sigma = math.sqrt(0.15 * 0.85 / 10_000)
    assert abs(masked / 10_000 - 0.15) <= 3 * sigma


def test_mask_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mask_tokens([], 0.15, seed=0)
    with pytest.raises(ValueError):
        mask_tokens(["a"], 0.0, seed=0)
    with pytest.raises(ValueError):
        mask_tokens(["a"], 1.0, seed=0)


def test_select_top_rejects_bad_arguments():
    triples = [WeightedTriple("a", "IsA", "b", 1.0)]
    with pytest.raises(ValueError):
        select_top(triples, 0, "global")
    with pytest.raises(ValueError):
        select_top(triples, 1, "by-object")


def test_triple_validation():
    with pytest.raises(ValueError):
        WeightedTriple("", "IsA", "b", 1.0)
    with pytest.raises(ValueError):
        WeightedTriple("a", "IsA", "b", float("nan"))
