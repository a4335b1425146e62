import json
import logging
import sys
import threading
from collections import Counter

import pytest

from ctlrepair import ctl
from ctlrepair import encode as enc_mod
from ctlrepair import frontend as fe
from ctlrepair import gwre as gw
from ctlrepair import pure_logic as pl
from ctlrepair import repair as rp
from ctlrepair import sedl
from ctlrepair.datalog_engine import Atom, DatalogProgram, evaluate, parse_program

import oracle_programs
from conftest import FIXTURES, Stopwatch, execute_alone, verdict


def test_verify_verdicts(fixture_text):
    assert verdict(fixture_text("overview.imp")) == "violated"
    assert verdict(fixture_text("overview_fixed.imp")) == "holds"
    assert verdict(fixture_text("unknown.imp")) == "unknown"


def test_property_flag_overrides_annotation(fixture_text):
    src = fixture_text("overview.imp")
    analysis = rp.analyze(src, "AF(y=1)")
    assert analysis.property_text == "AF(y=1)"
    assert analysis.holds  # y=1 is the very first statement


def test_property_missing(fixture_text):
    with pytest.raises(rp.PropertyMissing):
        rp.analyze(fixture_text("no_property.imp"))


def test_apply_edits_inserts_at_descending_offsets():
    source = "abcdef"
    edits = [
        rp.SourceEdit("insert-assign", (("var", "x"),), start=2, end=2, text="XX"),
        rp.SourceEdit("modify-assign", (("var", "y"),), start=4, end=5, text="YY"),
    ]
    assert rp.apply_edits(source, edits) == "abXXcdYYf"


def test_value_for_comparisons():
    assert rp._value_for(pl.Bop(pl.GTEQ, pl.Var("y"), pl.Const(1)), "y") == 1
    assert rp._value_for(pl.Bop(pl.LTEQ, pl.Var("y"), pl.Const(0)), "y") == 0
    assert rp._value_for(pl.Bop(pl.EQ, pl.Var("y"), pl.Const(5)), "y") == 5
    assert rp._value_for(pl.Bop(pl.GT, pl.Var("y"), pl.Const(3)), "y") == 4
    # the search prefers the smallest-magnitude satisfying value
    assert rp._value_for(pl.Bop(pl.LT, pl.Var("y"), pl.Const(3)), "y") == 0
    assert rp._value_for(pl.Bop(pl.EQ, pl.Var("y"), pl.Var("z")), "y") == "z"
    assert rp._value_for(pl.Bop(pl.GT, pl.Var("y"), pl.Var("z")), "y") is None


def test_rank_patches_orders_by_cost_then_latest_anchor():
    def patch(cost, anchor, tag):
        return rp.Patch(
            deltas=(rp.FactDelta("add", (("fact", Atom("Eq", ("y", 5, tag))),)),),
            edits=(),
            source="",
            cost=cost,
            iterations=1,
            anchor=anchor,
        )

    patches = [patch(2, 9, 1), patch(1, 3, 2), patch(1, 7, 3)]
    ranked = rp.rank_patches(patches)
    assert [p.cost for p in ranked] == [1, 1, 2]
    assert ranked[0].anchor == 7  # later anchors keep edits closest to the bug


def test_rank_patches_deterministic_under_input_order():
    def patch(cost, anchor, tag):
        return rp.Patch(
            deltas=(rp.FactDelta("add", (("fact", Atom("Eq", ("y", 5, tag))),)),),
            edits=(),
            source="",
            cost=cost,
            iterations=1,
            anchor=anchor,
        )

    patches = [patch(1, 4, i) for i in range(6)]
    a = rp.rank_patches(list(patches))
    b = rp.rank_patches(list(reversed(patches)))
    assert [p.to_json() for p in a] == [p.to_json() for p in b]


def test_repair_verified_program_short_circuits(fixture_text):
    result = rp.repair_loop(fixture_text("overview_fixed.imp"), rp.RepairConfig())
    assert result.verdict == "Verified"
    assert result.patches == []


def test_repair_unknown_program(fixture_text):
    result = rp.repair_loop(fixture_text("unknown.imp"), rp.RepairConfig())
    assert result.verdict == "Unknown"
    assert result.to_json()["detail"] == result.analysis.unknown != ""


def test_repair_unrepairable_program(fixture_text):
    result = rp.repair_loop(fixture_text("spin.imp"), rp.RepairConfig())
    assert result.verdict == "Unrepaired"
    assert result.patches == []


def test_sign_budget_cut_offs_are_counted(fixture_text, caplog):
    # with no sign symbols allowed every search is skipped; the report must
    # say so rather than pass the result off as a plain Unrepaired
    with caplog.at_level(logging.WARNING, logger="ctlrepair.repair"):
        result = rp.repair_loop(fixture_text("overview.imp"), rp.RepairConfig(xi_budget=0))
    assert result.verdict == "Unrepaired"
    timing = result.to_json()["timing"]
    assert timing["sign_budget_exceeded"] == timing["sign_searches"] == 11
    assert "sign_truncated" not in timing
    # the 11 searches belong to 3 templates, each logging one warning
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 3
    assert warnings[1].startswith("5 of 5 sign searches skipped for template update: ")


def test_dropped_report_disjuncts_are_counted(fixture_text):
    # one of overview's searches has more distinct disjuncts than a report
    # keeps; the report says so instead of looking complete
    report = rp.repair_loop(fixture_text("overview.imp"), rp.RepairConfig()).to_json()
    runs = [run for runs in report["constraints"].values() for run in runs]
    assert max(len(run["disjuncts"]) for run in runs) == rp._MAX_REPORT_DISJUNCTS
    assert report["timing"]["report_truncated"] == 1


def test_disjunct_cut_offs_are_counted(fixture_text, monkeypatch):
    # a search that stops at the disjunct cap says so in the report
    monkeypatch.setattr(sedl, "_MAX_DISJUNCTS", 8)
    report = rp.repair_loop(fixture_text("overview.imp"), rp.RepairConfig()).to_json()
    assert report["verdict"] == "Repaired"
    assert report["timing"]["sign_truncated"] == 5


def test_generated_program_with_reordered_signs_is_repaired():
    # seed 1219: when the sign worlds were numbers whose bits repair and
    # sedl read in two orders, no candidate replayed and the program stayed
    # Unrepaired
    repairs, wrong, _ = oracle_programs.check_repairs([1219])
    assert repairs == {"Repaired": 1}
    assert wrong == []


def _families_deleted(patch: rp.Patch) -> int:
    return sum(d.op in ("delete", "update") for d in patch.deltas)


@pytest.mark.parametrize("max_delete, most", [(1, 1), (2, 2)])
def test_max_delete_caps_deleted_families(fixture_text, max_delete, most):
    # an update deletes the family of the fact it replaces
    result = rp.repair_loop(fixture_text("infinite.imp"), rp.RepairConfig(max_delete=max_delete))
    assert result.verdict == "Repaired"
    assert max(map(_families_deleted, result.patches)) == most


def _facts_added(patch: rp.Patch) -> int:
    return sum(d.op in ("add", "update") for d in patch.deltas)


def test_caps_bound_the_whole_patch_across_rounds(fixture_text):
    # a depth-2 patch is one round plus the best sub-patch that keeps the
    # totals within both caps, so neither cap holds only per round
    config = rp.RepairConfig(depth=2, max_delete=1, max_add=1)
    result = rp.repair_loop(fixture_text("infinite.imp"), config)
    assert result.verdict == "Repaired"
    assert any(p.iterations == 2 for p in result.patches)
    for patch in result.patches:
        assert _families_deleted(patch) <= 1 and _facts_added(patch) <= 1


def test_every_patch_source_verifies(fixture_text):
    result = rp.repair_loop(fixture_text("overview.imp"), rp.RepairConfig())
    assert result.verdict == "Repaired"
    for patch in result.patches:
        assert verdict(patch.source, result.property_text) == "holds"


def test_patched_source_applies_reported_edits(fixture_text):
    src = fixture_text("overview.imp")
    result = rp.repair_loop(src, rp.RepairConfig())
    best = result.patches[0]
    assert rp.apply_edits(src, best.edits) == best.source


def test_template_order_restricts_search(fixture_text):
    src = fixture_text("subtitle_loop.imp")
    result = rp.repair_loop(src, rp.RepairConfig(template_order=("delete",)))
    assert result.patches
    for patch in result.patches:
        assert all(d.op == "delete" for d in patch.deltas)
    full = rp.repair_loop(src, rp.RepairConfig())
    assert any(d.op == "update" for p in full.patches for d in p.deltas)


def test_unknown_template_rejected(fixture_text):
    with pytest.raises(ValueError):
        rp.repair_loop(
            fixture_text("overview.imp"), rp.RepairConfig(template_order=("bogus",))
        )


def test_repeated_template_rejected(fixture_text):
    # a repeat would run that template's sign searches once per occurrence
    with pytest.raises(ValueError, match="'delete' given more than once"):
        rp.repair_loop(
            fixture_text("overview.imp"),
            rp.RepairConfig(template_order=("delete", "update", "delete")),
        )


@pytest.mark.parametrize(
    "order, message",
    [
        ((), "empty template order"),
        (("delete", "bogus"), "unknown template 'bogus'; choose from delete, update, add"),
        (("delete", "update", "delete"), "template 'delete' given more than once"),
    ],
)
def test_config_rejects_a_bad_template_order_when_made(order, message):
    # before any analysis: the config alone raises
    with pytest.raises(ValueError) as raised:
        rp.RepairConfig(template_order=order)
    assert str(raised.value) == message


def test_report_shape(fixture_text):
    result = rp.repair_loop(fixture_text("overview.imp"), rp.RepairConfig())
    report = result.to_json()
    assert set(report) == {"verdict", "property", "patches", "constraints", "timing"}
    for p in report["patches"]:
        assert set(p) == {"deltas", "source_edits", "cost", "iterations"}
    for template, runs in report["constraints"].items():
        assert template in rp.TEMPLATES
        for run in runs:
            for d in run["disjuncts"]:
                assert set(d) == {"alpha_bindings", "sign_true", "sign_false"}


def test_analyze_starts_a_fresh_entailment_memo(fixture_text):
    a, b = fixture_text("nested.imp"), fixture_text("subtitle_loop.imp")
    alone = rp.analyze(b).memo
    other = rp.analyze(a).memo
    assert other.answers and other.answers != alone.answers
    again = rp.analyze(b).memo
    assert again is not alone and again.answers == alone.answers


def _layers(source: str) -> None:
    """``cfg_to_gwre``, then ``abstract_facts``, in one fresh memo."""
    memo, parsed = pl.Memo(), fe.parse(source)
    result = gw.cfg_to_gwre(fe.build_cfg(parsed), memo)
    enc_mod.abstract_facts(result, ctl.ctl_to_datalog(ctl.parse_ctl(parsed.ctl))[2], memo)


@pytest.mark.parametrize("analyse", [rp.analyze, _layers], ids=["analyze", "layers"])
def test_debug_lines_do_not_depend_on_what_ran_before(fixture_text, caplog, analyse):
    # both orders, back to back: an analysis that inherited the memo of the
    # one before it would log more answers from the memo the second time
    # it reads subtitle_loop.imp (the two programs share no node shape, so
    # a memo carried from one to the other changes no line)
    a, b = fixture_text("nested.imp"), fixture_text("subtitle_loop.imp")
    lines = []
    for source in (a, b, b, a):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ctlrepair"):
            analyse(source)
        lines.append(
            [r.getMessage() for r in caplog.records if r.getMessage().startswith(("gwre:", "encode:"))]
        )
    assert len(lines[0]) == len(lines[1]) == 2
    assert lines[0] == lines[3] and lines[1] == lines[2]


def test_memos_on_two_threads_share_the_nodes_of_one_program(fixture_text):
    # each thread summarizes and encodes one parsed program in memos of its
    # own, so each node's tag is overwritten back and forth; a thread switch
    # every microsecond interleaves the keying walks
    programs = [fe.build_cfg(fe.parse(fixture_text(n))) for n in ("nested.imp", "overview.imp")]

    def encoded(program) -> tuple:
        memo = pl.Memo()
        result = gw.cfg_to_gwre(program, memo)
        enc = enc_mod.abstract_facts(result, [], memo)
        return str(result.phi), enc.facts, enc.rules, len(memo.ids)

    alone = [encoded(p) for p in programs]
    seen: list[list[tuple]] = [[] for _ in range(4)]

    def run(i: int) -> None:
        for _ in range(5):
            seen[i].append(encoded(programs[i % 2]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got == [alone[i % 2]] * 5 for i, got in enumerate(seen))


def test_repair_loop_shares_one_memo_across_its_analyses(fixture_text, monkeypatch):
    src = fixture_text("subtitle_loop.imp")
    first = rp.analyze(src).memo
    memos, analyze = [], rp._analyze

    def recording(source, text, memo):
        memos.append(memo)
        return analyze(source, text, memo)

    monkeypatch.setattr(rp, "_analyze", recording)
    result = rp.repair_loop(src, rp.RepairConfig())
    memo = result.analysis.memo
    assert len(memos) == result.stats["analyses"] > 1
    assert all(m is memo for m in memos) and result.stats is memo.counts
    assert first.answers.items() < memo.answers.items()


def _first_violated(n: int) -> list[str]:
    """The first ``n`` generated oracle programs found ``Violated``."""
    found, seed = [], oracle_programs.FIRST_SEED
    while len(found) < n:
        source = oracle_programs.program(seed)
        if verdict(source) == "violated":
            found.append(source)
        seed += 1
    return found


def test_a_shared_memo_repairs_as_a_fresh_memo_per_analysis(monkeypatch):
    """The decisions, rankings and compiled property that the re-analyses
    of one repair share change no byte of its report."""
    broken = ("bad_syntax.imp", "no_property.imp")  # no analysis to repair
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.imp")) if p.name not in broken]
    sources += _first_violated(40)

    def reports() -> list[str]:
        return [json.dumps(rp.repair_loop(s, rp.RepairConfig(depth=2)).to_json()) for s in sources]

    shared = reports()
    analyze = rp._analyze
    def fresh(source, text, memo):
        # counting into the loop's counter, so that the reports' timing
        # reads alike
        own = pl.Memo()
        own.counts = memo.counts
        return analyze(source, text, own)

    monkeypatch.setattr(rp, "_analyze", fresh)
    assert reports() == shared
    verdicts = {json.loads(r)["verdict"] for r in shared}
    assert {"Repaired", "Unrepaired"} <= verdicts


def test_repair_loop_ranks_each_loop_once(fixture_text, monkeypatch):
    # the re-analyses of a depth-2 repair summarize the same loop again and
    # again; the memo ranks each distinct loop (guard, clean branches and
    # leak guards) once
    find_ranking, summarize = gw._Builder._find_ranking, gw._Builder.summarize
    ranked, summaries = [], []

    def counted(self, pi_g, clean_ga, enabled, leak_guards):
        branches = tuple((g, tuple(sorted(moves.items()))) for g, moves in clean_ga)
        ranked.append((pi_g, branches, tuple(leak_guards)))
        return find_ranking(self, pi_g, clean_ga, enabled, leak_guards)

    def summarized(self, *args):
        summaries.append(args[1])
        return summarize(self, *args)

    monkeypatch.setattr(gw._Builder, "_find_ranking", counted)
    monkeypatch.setattr(gw._Builder, "summarize", summarized)
    result = rp.repair_loop(fixture_text("subtitle_loop.imp"), rp.RepairConfig(depth=2))
    assert result.stats["analyses"] > 2
    assert ranked and len(ranked) == len(set(ranked))
    assert len(summaries) > len(ranked)


def _reference(analysis: rp.Analysis, cand) -> bool:
    """Whether one candidate's own fact base derives the target: the
    encoder's facts less the families it deletes, plus its adds."""
    deleted = {fam.key for fam in cand.deletes}
    facts = [f for f in analysis.enc.facts if analysis.enc.fact_family.get(f) not in deleted]
    facts += [a for a in cand.adds if a not in facts]
    return analysis.target in evaluate(DatalogProgram(rules=list(analysis.rules), facts=facts))


def _deep_seed_1() -> list[str]:
    """The programs of ``repair-deep`` seed 1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(FIXTURES.parents[1] / "perfbench"))
        import workloads

        return [p.source for p in workloads.generate("repair-deep", 1)]


def _fixtures_and_deep_seed_1() -> list[str]:
    """The fixtures that analyse, then the programs of ``repair-deep`` seed 1."""
    broken = ("bad_syntax.imp", "no_property.imp")  # no analysis to repair
    sources = [p.read_text() for p in sorted(FIXTURES.glob("*.imp")) if p.name not in broken]
    return sources + _deep_seed_1()


@pytest.fixture(scope="module")
def searched():
    """Over the fixtures plus ``repair-deep`` seed 1 at depths 1 and 2: each
    candidate ``_search`` decides, with its analysis and bit, and each
    round's sign batch, with its rules and target."""
    decided, batches = [], []
    decide, sign_batch = rp._decide, rp.sedl.sign_batch

    def recording(analysis, candidates):
        holds = decide(analysis, candidates)
        decided.extend((analysis, cand, holds >> i & 1 == 1) for i, cand in enumerate(candidates))
        return holds

    def recording_batch(rules, target, searches, budget):
        batch = sign_batch(rules, target, searches, budget)
        batches.append((rules, target, batch))
        return batch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rp, "_decide", recording)
        mp.setattr(rp.sedl, "sign_batch", recording_batch)
        for source in _fixtures_and_deep_seed_1():
            for depth in (1, 2):
                rp.repair_loop(source, rp.RepairConfig(depth=depth))
    return decided, batches


@pytest.fixture(scope="module")
def decided(searched):
    return searched[0]


def test_each_batched_search_reads_as_a_batch_of_one(searched):
    # every block of a round's fixpoint holds what its search derives alone:
    # the same disjuncts (so the same to_json()), in the same order, and the
    # same truncation
    batches = searched[1]
    for rules, target, batch in batches:
        for i, search in enumerate(batch.searches):
            alone = execute_alone(
                rules, search.facts, target, batch.budget, search.valuations, search.worlds
            )
            psi = rp.sedl.symbolic_execute(batch, i)
            assert psi == alone
    assert max(len(batch.searches) for _, _, batch in batches) > 1
    assert any(rp.sedl.symbolic_execute(batch, 0).disjuncts for _, _, batch in batches)


def test_a_round_runs_one_fixpoint_for_its_searches_and_one_for_its_candidates(
    fixture_text, monkeypatch
):
    annotated_eval, widths = rp.sedl.annotated_eval, []

    def counted(rules, facts, full):
        widths.append(full.bit_length())
        return annotated_eval(rules, facts, full)

    monkeypatch.setattr(rp.sedl, "annotated_eval", counted)
    result = rp.repair_loop(fixture_text("overview.imp"), rp.RepairConfig(depth=1))
    assert result.verdict == "Repaired"
    assert result.stats["sign_searches"] == 11
    # the round's 11 sign searches in one batch of 1,069 bits, then its
    # candidates
    assert len(widths) == 2 and widths[0] == 1069


def test_each_round_logs_its_sign_batch(fixture_text, caplog):
    def lines(config):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="ctlrepair.repair"):
            rp.repair_loop(fixture_text("overview.imp"), config)
        return [r.getMessage() for r in caplog.records if r.getMessage().startswith("sign searches:")]

    assert lines(rp.RepairConfig(depth=1)) == [
        "sign searches: 11 run, 0 skipped for the sign budget, "
        "1069 world bits in one fixpoint, 280 disjuncts read"
    ]
    assert lines(rp.RepairConfig(depth=1, xi_budget=0)) == [
        "sign searches: 0 run, 11 skipped for the sign budget, "
        "0 world bits in one fixpoint, 0 disjuncts read"
    ]


def test_batch_decides_each_candidate_as_its_own_fact_base(decided):
    assert all(holds == _reference(analysis, cand) for analysis, cand, holds in decided)
    assert {holds for _, _, holds in decided} == {True, False}
    assert any(cand.updated is not None for _, cand, _ in decided)


def test_candidate_invariants(decided):
    # each sign search injects one fact, so a candidate adds at most one;
    # a candidate that is not an update adds only what its world added, and
    # so derives the target (an update's add is re-anchored, which the
    # search never saw)
    assert all(len(cand.adds) <= 1 for _, cand, _ in decided)
    assert all(holds for _, cand, holds in decided if cand.updated is None)


def _hand_built():
    """``top(1)`` holds where ``a(1)`` and ``c(1)`` both hold, or where the
    one member of family ``b`` is missing."""
    program = parse_program("top(S) :- a(S), c(S). top(S) :- s(S), !b(S). s(1). b(1).")
    key = enc_mod.FamilyKey("b", (), (1,))
    fam = enc_mod.Family(key, None, None, [Atom("b", (1,))])
    enc = enc_mod.EncodeResult(program.facts, [], {key: fam}, {Atom("b", (1,)): key}, {})
    analysis = rp.Analysis(
        "", "", None, None, enc, Atom("top", (1,)), program.rules, False, None, pl.Memo()
    )
    return analysis, fam


def _candidate(deletes=(), adds=()):
    return rp._Candidate(tuple(deletes), tuple(adds), None, "add")


def test_an_add_equal_to_a_deleted_member_comes_back():
    analysis, fam = _hand_built()
    cands = [_candidate([fam]), _candidate([fam], [Atom("b", (1,))])]
    assert [_reference(analysis, c) for c in cands] == [True, False]
    assert rp._decide(analysis, cands) == 0b01


def test_candidates_do_not_leak_into_each_other():
    # together the first two would derive top(1); the third's deletion must
    # not reach the fourth, which adds an unrelated fact
    analysis, fam = _hand_built()
    cands = [
        _candidate(adds=[Atom("a", (1,))]),
        _candidate(adds=[Atom("c", (1,))]),
        _candidate([fam]),
        _candidate(adds=[Atom("s", (2,))]),
    ]
    assert [_reference(analysis, c) for c in cands] == [False, False, True, False]
    assert rp._decide(analysis, cands) == 0b0100
    assert analysis.memo.counts == {"evaluations": 1}


def test_no_candidates_run_no_fixpoint(monkeypatch):
    def fail(*args):
        raise AssertionError("annotated_eval called")

    monkeypatch.setattr(rp.sedl, "annotated_eval", fail)
    analysis = _hand_built()[0]
    assert rp._decide(analysis, []) == 0
    assert analysis.memo.counts == {}


def _within_caps(deltas: tuple, config: rp.RepairConfig, deletes: int = 0, adds: int = 0) -> bool:
    """A whole patch deletes at most ``max_delete`` families and adds at most
    ``max_add`` facts (``rp._edit_counts``).  ``deletes`` and ``adds`` count
    families and facts of a patch not yet synthesized."""
    deleted, added = rp._edit_counts(deltas)
    return deletes + deleted <= config.max_delete and adds + added <= config.max_add


def _best_fitting(patches, prefix, config):
    return next(
        (p for p in rp.rank_patches(patches) if _within_caps(prefix + p.deltas, config)),
        None,
    )


_CAP_PAIRS = [(1, 1), (0, 2), (2, 0), (1, 2)]  # (max_delete, max_add)


@pytest.fixture(scope="module")
def nested_searches():
    """Each nested search reached over the fixtures plus ``repair-deep``
    seed 1 at depths 2 and 3, at depth 2 with ``max_delete=1`` and at depth
    3 under each of ``_CAP_PAIRS``: its arguments, the patches it returned,
    the analyses it counted and its answered sign searches."""
    out = []
    search = rp._search

    def recording(analysis, config, depth, searched, prefix=None):
        counts = analysis.memo.counts
        before = counts["analyses"]
        patches = search(analysis, config, depth, searched, prefix)
        if prefix is not None:
            analyses = counts["analyses"] - before
            out.append((analysis, config, depth, prefix, patches, analyses, searched))
        return patches

    configs = (
        rp.RepairConfig(depth=2),
        rp.RepairConfig(depth=3),
        rp.RepairConfig(depth=2, max_delete=1),
    ) + tuple(rp.RepairConfig(depth=3, max_delete=d, max_add=a) for d, a in _CAP_PAIRS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rp, "_search", recording)
        for source in _fixtures_and_deep_seed_1():
            for config in configs:
                rp.repair_loop(source, config)
    return out


def test_nested_search_keeps_its_best_fitting_patch(nested_searches):
    # a nested search stops at its first direct patch that does not rank
    # before its best patch so far, and returns that best patch alone; the
    # search that keeps every patch must pick the same one after the prefix
    # of the whole chain
    stopped = unfit = 0
    for analysis, config, depth, prefix, patches, analyses, _ in nested_searches:
        counts = analysis.memo.counts
        before = counts["analyses"]
        full = rp._search(analysis, config, depth, rp.run_template(analysis, config), None)
        total = counts["analyses"] - before
        reference = _best_fitting(full, prefix, config)
        assert [(p.to_json(), p.source) for p in patches] == (
            [] if reference is None else [(reference.to_json(), reference.source)]
        )
        assert analyses <= total
        stopped += analyses < total
        unfit += reference is None
    assert {depth for _, _, depth, *_ in nested_searches} == {1, 2}
    assert stopped and unfit


def test_nested_rounds_decide_the_fitting_candidates_of_the_whole_budget(nested_searches):
    # a nested round's worlds hold only the edits that fit the caps left
    # after its chain, so it decides true exactly the true candidates of the
    # unbounded round whose direct patch fits them (a candidate's deletes
    # and adds are its direct patch's), with the same templates, in order
    def held(analysis, config, searched):
        candidates = rp._candidates(analysis, config, searched)
        holds = rp._decide(analysis, candidates)
        return [c for i, c in enumerate(candidates) if holds >> i & 1]

    def keys(candidates):
        return [(frozenset(f.key for f in c.deletes), c.adds, c.template) for c in candidates]

    dropped = 0
    for analysis, config, _, prefix, _, _, searched in nested_searches:
        full = held(analysis, config, rp.run_template(analysis, config))
        fitting = [
            c for c in full if _within_caps(prefix, config, len(c.deletes), len(c.adds))
        ]
        assert keys(held(analysis, config, searched)) == keys(fitting)
        dropped += len(full) - len(fitting)
    assert dropped


def test_nested_rounds_search_only_the_worlds_their_caps_allow(monkeypatch):
    # over repair-deep seed 1 at depth 2, the nested rounds' sign batches
    # span 2,856 bits (13,509 when they searched the whole budget), and the
    # top-level rounds' keep their 3,454
    run_template, sign_batch = rp.run_template, rp.sedl.sign_batch
    nested, bits = [], Counter()

    def running(analysis, config, prefix=None):
        nested.append(prefix is not None)
        try:
            return run_template(analysis, config, prefix)
        finally:
            nested.pop()

    def batching(rules, target, searches, budget):
        batch = sign_batch(rules, target, searches, budget)
        bits["nested" if nested[-1] else "top"] += batch.bits
        return batch

    monkeypatch.setattr(rp, "run_template", running)
    monkeypatch.setattr(rp.sedl, "sign_batch", batching)
    for source in _deep_seed_1():
        rp.repair_loop(source, rp.RepairConfig(depth=2))
    assert bits == {"top": 3454, "nested": 2856}


def test_the_searches_of_a_template_share_its_signed_facts(fixture_text, monkeypatch):
    # each template's signed facts are built once; a search with a shape
    # appends its injected fact to them
    batches, sign_batch = [], rp.sedl.sign_batch

    def batching(*args):
        batches.append(sign_batch(*args))
        return batches[-1]

    monkeypatch.setattr(rp.sedl, "sign_batch", batching)
    searched = rp.run_template(rp.analyze(fixture_text("overview.imp")), rp.RepairConfig())
    (batch,) = batches
    assert len(searched) == len(batch.searches) == 11
    signed = {}
    for (template, shape, _, _), search in zip(searched, batch.searches):
        facts = search.facts if shape is None else search.facts[:-1]
        first = signed.setdefault(template, facts)
        assert len(facts) == len(first) and all(a is b for a, b in zip(facts, first))
        if shape is not None:
            injected = search.facts[-1]
            assert injected.xi == "xiA"
            assert (injected.atom.predicate, len(injected.atom.args)) == shape
    assert list(signed) == list(rp.TEMPLATES)


def test_last_nested_rounds_stop_at_their_first_fitting_patch(fixture_text):
    # each second round analyses its fitting patches in rank order and stops
    # at the first that holds: 24 analyses when it analysed its whole
    # cheapest fitting tier, 63 when every second round ran to the end
    result = rp.repair_loop(fixture_text("overview.imp"), rp.RepairConfig(depth=2))
    assert result.stats["analyses"] == 14


@pytest.mark.parametrize("name", ["calls.imp", "infinite.imp", "overview.imp"])
def test_nested_rounds_analyse_fitting_direct_patches_in_rank_order(fixture_text, name, monkeypatch):
    # at depths 2 and 3, a nested round analyses its fitting direct patches
    # in rank_patches order, up to the first that does not rank before the
    # patch it returns; only the last it analyses may hold, and then it
    # returns that
    rounds, active = [], []
    search, decide, analyze = rp._search, rp._decide, rp._analyze

    def searching(analysis, config, depth, searched, prefix=None):
        if prefix is None:
            return search(analysis, config, depth, searched, prefix)
        # the prefix is the whole chain: its caller's prefix, then more
        outer = active[-1]["prefix"] if active else ()
        assert prefix[: len(outer)] == outer and len(prefix) > len(outer)
        active.append({"analysis": analysis, "prefix": prefix, "depth": depth, "analysed": []})
        patches = search(analysis, config, depth, searched, prefix)
        rounds.append(active.pop())
        rounds[-1]["patches"] = patches
        return patches

    def deciding(analysis, candidates):
        holds = decide(analysis, candidates)
        if active and active[-1]["analysis"] is analysis:
            active[-1]["decided"] = [c for i, c in enumerate(candidates) if holds >> i & 1]
        return holds

    def analysing(source, ctl_text, memo):
        analysed = active[-1]["analysed"] if active else []
        analysed.append((source, False))  # until it is seen to hold
        sub = analyze(source, ctl_text, memo)
        analysed[-1] = (source, sub.holds and not sub.unknown)
        return sub

    monkeypatch.setattr(rp, "_search", searching)
    monkeypatch.setattr(rp, "_decide", deciding)
    monkeypatch.setattr(rp, "_analyze", analysing)
    for depth in (2, 3):
        rounds.clear()
        config = rp.RepairConfig(depth=depth)
        rp.repair_loop(fixture_text(name), config)
        _check_nested_rounds(rounds, config)
        assert any(r["patches"] for r in rounds)
        # calls.imp has rounds whose first candidates fail and a round with
        # no fitting patch, infinite.imp a round whose third candidate holds
        if name != "overview.imp":
            assert any(len(r["analysed"]) > 1 and r["patches"] for r in rounds)
        assert any(r["depth"] == depth - 1 for r in rounds)


def _check_nested_rounds(rounds, config):
    for r in rounds:
        analysis, prefix, analysed = r["analysis"], r["prefix"], r["analysed"]
        directs = [rp._synthesize(analysis, c) for c in r["decided"]]
        expected = rp.rank_patches(
            [d for d in directs if d and _within_caps(prefix + d.deltas, config)]
        )
        sources = [rp.apply_edits(analysis.source, d.edits) for d in expected]
        n = len(analysed)
        assert [source for source, _ in analysed] == sources[:n]
        held = [holds for _, holds in analysed]
        assert not any(held[:-1])
        if not r["patches"]:
            assert n == len(sources) and not any(held)
            continue
        (patch,) = r["patches"]
        assert _within_caps(prefix + patch.deltas, config)
        key = rp._rank_key(patch)
        assert n == len(expected) or rp._rank_key(expected[n]) >= key
        if held[-1]:
            assert patch.to_json() == expected[n - 1].to_json()
            assert patch.source == sources[n - 1]
        else:
            assert r["depth"] > 1 and patch.iterations > 1
            assert all(rp._rank_key(d) < key for d in expected[:n])


def test_every_patch_keeps_within_the_caps_at_depth_3():
    # a nested round returns only a patch that fits the caps after the whole
    # chain before it, which is all that keeps a composite patch in bounds
    composite = 0
    for max_delete, max_add in _CAP_PAIRS:
        config = rp.RepairConfig(depth=3, max_delete=max_delete, max_add=max_add)
        for source in _fixtures_and_deep_seed_1():
            for patch in rp.repair_loop(source, config).patches:
                assert _within_caps(patch.deltas, config)
                composite += patch.iterations > 1
    assert composite


def test_patch_cap_is_counted(fixture_text, monkeypatch):
    # overview's top-level search has more verified patches than it keeps
    source = fixture_text("overview.imp")
    timing = rp.repair_loop(source, rp.RepairConfig(depth=1)).to_json()["timing"]
    assert timing["patch_cap"] == 1
    monkeypatch.setattr(rp, "_MAX_PATCHES", 1000)
    result = rp.repair_loop(source, rp.RepairConfig(depth=1))
    assert "patch_cap" not in result.stats
    assert len(result.patches) > 10


def test_recursion_cap_is_counted(fixture_text, monkeypatch):
    # with no nested search allowed, each violated re-analysis of the
    # top-level round is one recursion_cap, and the patches are depth 1's
    violated = []
    analyze = rp._analyze

    def analysing(source, ctl_text, memo):
        sub = analyze(source, ctl_text, memo)
        violated.append(not sub.holds and not sub.unknown)
        return sub

    source = fixture_text("overview.imp")
    depth_1 = rp.repair_loop(source, rp.RepairConfig(depth=1)).to_json()
    monkeypatch.setattr(rp, "_MAX_RECURSED", 0)
    monkeypatch.setattr(rp, "_analyze", analysing)
    capped = rp.repair_loop(source, rp.RepairConfig(depth=2)).to_json()
    # the first analysis is of the program as given
    assert capped["timing"]["recursion_cap"] == sum(violated[1:]) > 0
    assert "recursion_cap" not in depth_1["timing"]
    assert capped["patches"] == depth_1["patches"]


def test_alpha_budget_cut_offs_are_counted(fixture_text):
    # p(1, S) with two constants at position 1 gives two valuations, and
    # the placeholder one more
    rules = parse_program("t(S) :- p(1, S).").rules
    consts_at = {("p", 1): (3, 4)}
    counts = Counter()
    assert len(rp._alpha_valuations(("p", 2), rules, consts_at, 3, counts)) == 3
    assert counts == {}
    assert len(rp._alpha_valuations(("p", 2), rules, consts_at, 2, counts)) == 2
    assert counts == {"alpha_budget_exceeded": 1}
    # each of overview's 10 update and add searches has more than one
    # valuation
    source = fixture_text("overview.imp")
    timing = rp.repair_loop(source, rp.RepairConfig(alpha_budget=1)).to_json()["timing"]
    assert timing["alpha_budget_exceeded"] == 10
    assert "alpha_budget_exceeded" not in rp.repair_loop(source, rp.RepairConfig()).stats


def test_row_limit_give_ups_show_in_the_timing(fixture_text, monkeypatch):
    # overview's analyses give up on Fourier-Motzkin runs past 4 rows, and
    # the repair report counts them instead of passing them off silently
    source = fixture_text("overview.imp")
    assert "row_limit" not in rp.repair_loop(source, rp.RepairConfig()).to_json()["timing"]
    monkeypatch.setattr(pl, "_ROW_LIMIT", 4)
    report = rp.repair_loop(source, rp.RepairConfig()).to_json()
    assert report["verdict"] == "Repaired"
    assert report["timing"]["row_limit"] > 0


def test_infinite_repair_at_depth_3_within_budget(fixture_text):
    watch = Stopwatch(3.0)
    result = rp.repair_loop(fixture_text("infinite.imp"), rp.RepairConfig(depth=3))
    assert result.verdict == "Repaired"
    watch.check()
