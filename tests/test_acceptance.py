"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single
``ACCEPTANCE n: PASS|FAIL`` line so the whole gate can be read off a
plain ``pytest -v`` run.  Tolerances are stated inline with each check.
"""

import json
import random
import time

import pytest

from narrfunc import annotation, cli, paradigm, taxonomy
from narrfunc.annotation import AnnotatedSegment, parse_inline
from narrfunc.homogenization import EpisodeSet, analyze_episodes, frequency_profile
from narrfunc.metrics import Prediction, cohen_kappa, gold_instances, score_instances
from narrfunc.paradigm import builtin_paradigms, emit_pattern, mine, support

from conftest import DATA
from test_metrics import oracle_score
from test_paradigm import oracle_matches

from fractions import Fraction


def _report(n, ok):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_acceptance_1_taxonomy_counts():
    funcs = taxonomy.all_functions()
    ok = (len(funcs) == 34
          and sum(1 for f in funcs if f.status != "original") == 15
          and {f.symbol for f in funcs if f.status == "new"} == {"Fr", "Ch", "Lo"}
          and len(taxonomy.legacy_functions()) == 31)
    _report(1, ok)


def test_acceptance_2_annotation_round_trip(passages):
    symbols = []
    round_trip_ok = True
    for i, text in enumerate(passages, start=1):
        clean, anns = parse_inline(text)
        symbols.extend(a.symbol for a in anns)
        seg = AnnotatedSegment(f"p{i}", "Fantasy", clean, anns)
        emitted = annotation.emit_inline(seg)
        round_trip_ok &= parse_inline(emitted) == (clean, anns)
        # a second emit of the reparsed segment must be byte-identical
        reparsed = AnnotatedSegment(f"p{i}", "Fantasy", *parse_inline(emitted))
        round_trip_ok &= annotation.emit_inline(reparsed) == emitted
    ok = (symbols == ["K", "J", "K", "De", "E", "Fa", "Lo",
                      "A", "Re", "G", "F"]
          and round_trip_ok)
    _report(2, ok)


def test_acceptance_3_metrics(passages):
    symbols = []
    for text in passages:
        symbols.extend(a.symbol for a in parse_inline(text)[1])
    gold = gold_instances(symbols)
    partial = Prediction(
        [g.symbol if i < 4 else "X" for i, g in enumerate(gold)], 0)
    _, _, total = score_instances(gold, partial)
    ok = abs(total.accuracy - 0.364) <= 5e-4  # tolerance ±0.0005

    perfect = Prediction([g.symbol for g in gold], 0)
    ok &= all(s.accuracy == s.precision == s.recall == s.f1 == 1.0
              for s in score_instances(gold, perfect))

    rng = random.Random(20240824)
    for _ in range(1000):
        n = rng.randint(1, 12)
        syms = [taxonomy.SYMBOLS[rng.randrange(34)] for _ in range(n)]
        g = gold_instances(syms)
        pred = Prediction(
            [None if rng.random() < 0.2
             else taxonomy.SYMBOLS[rng.randrange(34)] for _ in range(n)],
            rng.randint(0, 3))
        got = score_instances(g, pred)
        want = oracle_score(g, pred)
        for split, name in zip(got, ("common", "rare", "sum")):
            ok &= split.as_dict() == pytest.approx(want[name].as_dict())
    _report(3, ok)


def test_acceptance_4_kappa():
    ok = cohen_kappa(["A", "B", "C"], ["A", "B", "C"]) == 1.0
    a = ["A", "A", "B", "B", "C", "C", "A", "B", "C", "A"]
    b = ["A", "A", "B", "B", "C", "C", "A", "B", "A", "B"]
    ok &= abs(cohen_kappa(a, b) - (0.8 - 0.34) / 0.66) <= 1e-6

    pairs = {}
    for name in ("annotator_a.jsonl", "annotator_b.jsonl"):
        with open(DATA / name, encoding="utf-8") as fh:
            for seg in annotation.load_corpus(fh):
                pairs.setdefault(seg.id, []).append(
                    annotation.sequence_of(seg))
    flat_a, flat_b = [], []
    for seq_a, seq_b in pairs.values():
        flat_a.extend(seq_a)
        flat_b.extend(seq_b)
    kappa = cohen_kappa(flat_a, flat_b)
    ok &= 0.78 <= kappa <= 0.88
    _report(4, ok)


def test_acceptance_5_paradigm_supports(plot_corpora):
    pats = {p.plot_label: p for p in builtin_paradigms()}
    start = time.perf_counter()
    ok = all(support(plot_corpora[name], pats[name]) >= Fraction(3, 5)
             for name in pats)
    elapsed = time.perf_counter() - start
    ok &= sum(len(seqs) for seqs in plot_corpora.values()) == 360
    ok &= elapsed < 1.0
    _report(5, ok)


def test_acceptance_6_mining(plot_corpora):
    battle = mine(plot_corpora["battle"], Fraction(3, 5), 2)
    ok = (battle.elements[0] == "A"
          and "Q" in battle.elements[1:-1]
          and isinstance(battle.elements[-1], paradigm.AltSet)
          and set(battle.elements[-1].options) == {"S", "O"})

    emotional = mine(plot_corpora["emotional"], Fraction(3, 5), 2)
    ok &= emit_pattern(emotional) == "(Em)~>(Ch)"

    for name, seqs in plot_corpora.items():
        mined = mine(seqs, Fraction(3, 5), 2)
        frac = support(seqs, mined)
        ok &= frac >= Fraction(3, 5)
        brute = Fraction(
            sum(oracle_matches(list(s), mined) for s in seqs), len(seqs))
        ok &= frac == brute
    _report(6, ok)


def test_acceptance_7_homogenization(episode_sets):
    report = analyze_episodes(EpisodeSet(episode_sets["doubao"]))
    ok = (report.first_marker_consistency == 1.0
          and report.last_marker_consistency == 1.0
          and abs(report.mean_similarity - 0.914) <= 1e-3)

    wins = 0
    for trial in range(100):
        rng = random.Random(7000 + trial)
        episodes = [[taxonomy.SYMBOLS[rng.randrange(34)] for _ in range(7)]
                    for _ in range(5)]
        if analyze_episodes(EpisodeSet(episodes)).mean_similarity \
                < report.mean_similarity:
            wins += 1
    ok &= wins >= 99
    _report(7, ok)


def test_acceptance_8_frequency_rule():
    rng = random.Random(332)
    ok = True
    for _ in range(1000):
        weights = [rng.randint(0, 30) for _ in range(34)]
        # rescale one trial family to the published total of 332
        seqs = [[s] * w for s, w in zip(taxonomy.SYMBOLS, weights)]
        profile = frequency_profile(seqs)
        total = sum(weights)
        ok &= profile.total == total
        for symbol in taxonomy.SYMBOLS:
            expected = Fraction(profile.counts[symbol]) > Fraction(total, 34)
            ok &= (symbol in profile.common_set) == expected
    flat = [[taxonomy.SYMBOLS[i % 34]] for i in range(332)]
    profile = frequency_profile(flat)
    ok &= profile.total == 332
    ok &= profile.mean == pytest.approx(332 / 34)
    _report(8, ok)


def test_acceptance_9_end_to_end_determinism(capsys):
    argv = ["eval", "--corpus", str(DATA / "recognition_corpus.jsonl"),
            "--backend", "mock", "--rounds", "10", "--preds", "5",
            "--seed", "0", "--output-format", "json"]
    start = time.perf_counter()
    code_a = cli.main(list(argv))
    out_a = capsys.readouterr().out
    code_b = cli.main(list(argv))
    out_b = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    report = json.loads(out_a)
    ok = (code_a == code_b == 0
          and out_a.encode("utf-8") == out_b.encode("utf-8")
          and report["metrics"]["sum"]["accuracy"]["mean"] == 1.0
          and elapsed < 5.0)
    _report(9, ok)
