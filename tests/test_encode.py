import dataclasses
import logging
import random
import re

import pytest

from ctlrepair import ctl
from ctlrepair import encode as enc_mod
from ctlrepair import frontend as fe
from ctlrepair import gwre as gw
from ctlrepair import pure_logic as pl
from ctlrepair import repair as rp
from ctlrepair.datalog_engine import Atom, DVar

import oracle_programs
from conftest import FIXTURES, Stopwatch, calls, derivatives, effect_corpus, ifs, kif, loops, verdict


def encode(source: str, prop: str) -> enc_mod.EncodeResult:
    memo = pl.Memo()
    gwre_result = gw.cfg_to_gwre(fe.build_cfg(fe.parse(source)), memo)
    _, _, pures = ctl.ctl_to_datalog(ctl.parse_ctl(prop))
    return enc_mod.abstract_facts(gwre_result, pures, memo)


def test_overview_state_facts(fixture_text):
    enc = encode(fixture_text("overview.imp"), "AF(y=5)")
    states = {f.args[0] for f in enc.facts if f.predicate == "State"}
    assert states == set(range(1, 13))


def test_overview_tracked_facts(fixture_text):
    enc = encode(fixture_text("overview.imp"), "AF(y=5)")
    facts = set(enc.facts)
    assert Atom("Eq", ("y", 5, 11)) in facts  # y = 5 after the loop
    assert Atom("Gt", ("i", 10, 2)) in facts  # i = * case-split
    assert Atom("LtEq", ("i", 10, 2)) in facts
    assert Atom("EqVar", ("x", "y", 3)) in facts  # x = * case-split
    assert Atom("NeqVar", ("x", "y", 3)) in facts
    # y = 5 never holds inside the stuck loop
    assert not any(f == Atom("Eq", ("y", 5, 12)) for f in facts)


def test_every_fact_belongs_to_a_family(fixture_text):
    enc = encode(fixture_text("overview.imp"), "AF(y=5)")
    for f in enc.facts:
        if f.predicate in ("State", "flow", "Cyc"):
            continue
        key = enc.fact_family[f]
        assert f in enc.families[key].members


def test_complement_pairs_are_symmetric(fixture_text):
    enc = encode(fixture_text("overview.imp"), "AF(y=5)")
    assert enc.pair_of, "case-split families must be paired"
    for a, b in enc.pair_of.items():
        assert enc.pair_of[b] == a
        assert a != b


def test_guarded_flow_rules(fixture_text):
    enc = encode(fixture_text("overview.imp"), "AF(y=5)")
    rendered = {str(r) for r in enc.rules}
    assert 'flow(3, 4) :- Gt("i", 10, 3).' in rendered
    assert 'flow(3, 6) :- LtEq("i", 10, 3).' in rendered
    assert 'flow(5, 8) :- EqVar("x", "y", 5).' in rendered
    assert 'flow(5, 7) :- NeqVar("x", "y", 5).' in rendered


def test_unconditional_flow_facts(fixture_text):
    enc = encode(fixture_text("overview.imp"), "AF(y=5)")
    flows = {f.args for f in enc.facts if f.predicate == "flow"}
    assert flows == {
        (1, 2),
        (2, 3),
        (4, 5),
        (7, 11),
        (8, 12),
        (9, 11),
        (10, 12),
        (11, 11),  # final states self-loop: the transition relation is total
        (12, 12),
    }


def test_infeasible_branch_is_pruned():
    enc = encode(
        """//@ ctl: AF(y=1)
void main() {
  int x = 1;
  int y = 0;
  if (x < 0) { y = 1; }
  return;
}
""",
        "AF(y=1)",
    )
    # the store x=1 contradicts the branch guard x<0: no y=1 fact anywhere
    assert not any(f.predicate == "Eq" and f.args[:2] == ("y", 1) for f in enc.facts)


def test_comparisons_decided_only_where_read(fixture_text):
    enc = encode(fixture_text("overview.imp"), "AF(y=5)")
    facts = set(enc.facts)
    # state 4 (the guard i > 10) reads nothing and defines nothing
    assert Atom("Gt", ("i", 10, 4)) not in facts
    assert Atom("Gt", ("i", 10, 3)) in facts  # read by flow(3, 4)
    assert Atom("Gt", ("i", 10, 2)) in facts  # i's def-state member


def _analyzable_fixtures(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.imp")):
        try:
            ast = fe.parse(path.read_text())
            if ast.ctl is None:
                continue
            gwre_result = gw.cfg_to_gwre(fe.build_cfg(ast), pl.Memo())
        except (fe.ImpSyntaxError, gw.SummaryInconclusive):
            continue
        phi = ctl.parse_ctl(ast.ctl)
        yield path.name, gwre_result, phi


def _matches(lit: Atom, fact: Atom) -> bool:
    return lit.predicate == fact.predicate and len(lit.args) == len(fact.args) and all(
        isinstance(a, DVar) or a == b for a, b in zip(lit.args, fact.args)
    )


def _complement(fact: Atom) -> Atom:
    op = fact.predicate.removesuffix("Var")
    return Atom(pl._OP_COMPLEMENT[op] + fact.predicate[len(op):], fact.args)


def test_every_comparison_fact_is_read_or_at_a_def_state(fixtures_dir):
    """A comparison is decided where its fact or its complement's is read, or
    where one of its variables is defined."""
    for name, gwre_result, phi in _analyzable_fixtures(fixtures_dir):
        _, ctl_rules, pures = ctl.ctl_to_datalog(phi)
        enc = enc_mod.abstract_facts(gwre_result, pures, pl.Memo())
        body = [lit.atom for r in list(enc.rules) + ctl_rules for lit in r.body]
        for fact, key in enc.fact_family.items():
            fam = enc.families[key]
            read = any(_matches(lit, f) for lit in body for f in (fact, _complement(fact)))
            assert read or fact.args[-1] in fam.key.def_states, (name, fact)
            assert fam.read == any(_matches(lit, m) for m in fam.members for lit in body)


def test_read_sets_cover_every_guard_rule(fixtures_dir):
    for name, gwre_result, phi in _analyzable_fixtures(fixtures_dir):
        reads = enc_mod.read_sets(gw.automaton(gwre_result.phi))
        enc = enc_mod.abstract_facts(gwre_result, ctl.ctl_to_datalog(phi)[2], pl.Memo())
        for rule in enc.rules:
            prev = rule.head.args[0]
            for lit in rule.body:
                shape = (lit.atom.predicate, lit.atom.args[:-1])
                assert lit.atom.args[-1] == prev
                assert shape in reads.get(prev, ()), (name, str(rule))


def _read_sets_by_postorder(phi: gw.Re) -> dict[int, set[tuple]]:
    """``read_sets`` as one post-order pass over the effect worked it out:
    each node's nullability, leading guards' shapes and end states, a
    sequence following the ends of each prefix with the next item's heads,
    and an omega block its body's ends with its body's heads."""
    reads: dict[int, set[tuple]] = {}
    info: dict[int, tuple[bool, frozenset, frozenset]] = {}
    none = frozenset()

    def follow(ends: frozenset, shapes: frozenset) -> None:
        if shapes:
            for s in ends:
                reads.setdefault(s, set()).update(shapes)

    for node in gw.postorder(phi, info):
        if isinstance(node, gw.Ev):
            info[id(node)] = (False, none, frozenset((node.s,)))
        elif isinstance(node, gw.Guard):
            shapes = frozenset(map(enc_mod._shape, pl.conjuncts(node.pi))) - {None}
            info[id(node)] = (False, shapes, frozenset((node.s,)))
        elif isinstance(node, gw.Seq):
            nul, heads, ends = info[id(node.items[0])]
            for item in node.items[1:]:
                item_nul, item_heads, item_ends = info[id(item)]
                follow(ends, item_heads)
                heads = heads | item_heads if nul else heads
                ends = item_ends | ends if item_nul else item_ends
                nul = nul and item_nul
            info[id(node)] = (nul, heads, ends)
        elif isinstance(node, gw.OrRe):
            nuls, heads, ends = zip(*(info[id(alt)] for alt in node.alts))
            info[id(node)] = (any(nuls), none.union(*heads), none.union(*ends))
        elif isinstance(node, gw.Omega):
            _, bf, bl = info[id(node.body)]
            follow(bl, bf)
            info[id(node)] = (False, bf, none)
        else:
            info[id(node)] = (not isinstance(node, gw.Bot), none, none)
    return reads


def test_read_sets_and_live_sets_are_those_of_the_effect():
    # the unions over the automaton's edges give what one post-order pass
    # over the effect gives; the live variables of an edge are what its
    # segment and every leaf of the derivative it leads to mention or read
    # at their states, as the interned shapes of that derivative gave them
    for name, result in effect_corpus():
        a = gw.automaton(result.phi)
        reads = enc_mod.read_sets(a)
        assert reads == _read_sets_by_postorder(result.phi), name
        enc = enc_mod._Encoder([], reads, set(), pl.Memo())
        enc.automaton = a
        effects = derivatives(a, result.phi)
        for q, pairs in a.pairs.items():
            for f, k, n in pairs:
                if not isinstance(f, gw.Omega):
                    effect_vars = frozenset().union(*map(enc.leaf_vars, gw._leaves(effects[n])))
                    live = enc.entry_key(f, k, n, enc_mod.SymStore())[1]
                    assert live == tuple(sorted(enc.leaf_vars(f) | effect_vars)), (name, q)


def _encoding(gwre_result, phi) -> tuple:
    """All that ``abstract_facts`` gives, in its order."""
    enc = enc_mod.abstract_facts(gwre_result, ctl.ctl_to_datalog(phi)[2], pl.Memo())
    families = [(k, f.pure, f.var, f.members, f.read) for k, f in enc.families.items()]
    return enc.facts, enc.rules, families, list(enc.fact_family.items()), list(enc.pair_of.items())


# Each defeats one rule of the merge: a comparison over a variable that
# nothing reads later is still decided where its other variable is
# defined; a branch that cannot run rejoins one that can, with the
# contradiction on a variable that nothing reads later; two branches leave
# x equal but defined at different states, which its families tell apart;
# and the paths through x's two definitions alternate, so the last to
# reach a fact of x is one that merges.
MERGE_PROGRAMS = {
    "def-state-partner": (
        "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = *;\n  int y = *;\n"
        "  if (x > y) { x = 1; }\n  if (*) { y = 7; } else { y = 2; }\n"
        "  x = 5;\n  return;\n}\n"
    ),
    "infeasible-branch": (
        "//@ ctl: AG(x >= 0)\nvoid main() {\n  int c = 0;\n  int x = *;\n"
        "  if (c > 0) { } else { }\n  if (x > 3) { x = 0; }\n  return;\n}\n"
    ),
    "def-state-only": (
        "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = 0;\n"
        "  if (*) { x = 0; } else { }\n  int y = 0;\n  if (x > 3) { x = 1; }\n  return;\n}\n"
    ),
    "last-family-write": (
        "//@ ctl: AF(Exit(_))\nvoid main() {\n  int c = *;\n  int x = 0;\n"
        "  if (c > 0) { } else { }\n  if (c <= 5) { x = 1; } else { x = 1; }\n"
        "  int y = 0;\n  if (x > 3) { x = 2; }\n  return;\n}\n"
    ),
}


def _two_returns(n: int) -> str:
    """``calls(n)`` with f's two returns at different states, so the path
    expression holds the code after each call once, after both."""
    return calls(n).replace("if (*) { } else { }\n  return z;", "if (*) { return z; }\n  return z;")


def _merge_corpus():
    """(name, source) of every program the merge is checked on."""
    import workloads  # perfbench/, which the test puts on sys.path

    for path in sorted(FIXTURES.glob("*.imp")):
        yield path.name, path.read_text()
    yield from MERGE_PROGRAMS.items()
    for seed in range(oracle_programs.FIRST_SEED, oracle_programs.FIRST_SEED + 200):
        yield f"oracle-{seed}", oracle_programs.program(seed)
    for n in range(1, 9):
        yield f"ifs-{n}", ifs(n)
        yield f"loops-{n}", loops(n)
        yield f"calls-{n}", calls(n)
        yield f"two-returns-{n}", _two_returns(n)
    for prog in workloads.generate("verify-branchy", 1):
        yield f"verify-branchy-{prog.index}", prog.source


def test_merged_walk_encodes_as_the_full_walk(monkeypatch):
    """Skipping an entry already walked from an equivalent live store
    changes no fact, rule, family or pair (ROADMAP item 3)."""
    monkeypatch.syspath_prepend(str(FIXTURES.parents[1] / "perfbench"))
    merge, replay = enc_mod._Encoder.merge, enc_mod._Encoder.replay

    def unrecorded(self, step, phi, rest, store):
        return None, enc_mod._Walk(store, (), 0)

    def counted(self, walk):
        merges.append(walk)
        replay(self, walk)

    merges = []
    monkeypatch.setattr(enc_mod._Encoder, "replay", counted)
    merging = set()
    for name, source in _merge_corpus():
        try:
            ast = fe.parse(source)
            if ast.ctl is None:
                continue
            gwre_result = gw.cfg_to_gwre(fe.build_cfg(ast), pl.Memo())
        except (fe.ImpSyntaxError, gw.SummaryInconclusive):
            continue
        phi = ctl.parse_ctl(ast.ctl)
        # the reference records no walk, so nothing merges
        monkeypatch.setattr(enc_mod._Encoder, "merge", unrecorded)
        full = _encoding(gwre_result, phi)
        monkeypatch.setattr(enc_mod._Encoder, "merge", merge)
        before = len(merges)
        assert _encoding(gwre_result, phi) == full, name
        if len(merges) > before:
            merging.add(name)
    # the shapes, the verify-branchy programs and a few oracle programs merge
    assert len(merging) > 40


def test_family_key_hash_is_cached_and_survives_pickling():
    # the repr, which the patch search sorts by, shows the three fields
    # only; a key pickled by a process with another str-hash seed must hash
    # as a key built here
    import pickle
    import subprocess
    import sys

    key = enc_mod.FamilyKey("Gt", ("x", 3), (2,))
    assert str(key) == "FamilyKey(predicate='Gt', args=('x', 3), def_states=(2,))"
    code = (
        "import pickle, sys; from ctlrepair.encode import FamilyKey; "
        "sys.stdout.buffer.write(pickle.dumps(FamilyKey('Gt', ('x', 3), (2,))))"
    )
    env = {"PYTHONHASHSEED": "1", "PYTHONPATH": ":".join(sys.path)}
    payload = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, check=True
    ).stdout
    assert pickle.loads(payload) in {key}


def _whole(store: enc_mod.SymStore) -> pl.Pure:
    """The whole path constraint of ``store``: all its blocks."""
    pi = pl.TRUE
    for _, block in store.blocks:
        pi = pl.mk_and(pi, block)
    return pi


def test_sliced_queries_encode_as_whole_queries(monkeypatch):
    """Deciding a comparison over the constraint blocks that share a symbol
    with it, and feasibility block by block, changes no fact, rule, family
    or pair."""
    monkeypatch.syspath_prepend(str(FIXTURES.parents[1] / "perfbench"))
    sliced, feasible = enc_mod._Encoder.slice, enc_mod._Encoder.feasible
    smaller = []

    def counted(self, store, names):
        pi = sliced(self, store, names)
        smaller.append(len(pl.conjuncts(pi)) < len(pl.conjuncts(_whole(store))))
        return pi

    for name, source in _merge_corpus():
        try:
            ast = fe.parse(source)
            if ast.ctl is None:
                continue
            gwre_result = gw.cfg_to_gwre(fe.build_cfg(ast), pl.Memo())
        except (fe.ImpSyntaxError, gw.SummaryInconclusive):
            continue
        phi = ctl.parse_ctl(ast.ctl)
        monkeypatch.setattr(enc_mod._Encoder, "slice", lambda self, store, names: _whole(store))
        monkeypatch.setattr(
            enc_mod._Encoder, "feasible", lambda self, store: pl.satisfiable(_whole(store), self.memo)
        )
        whole = _encoding(gwre_result, phi)
        monkeypatch.setattr(enc_mod._Encoder, "slice", counted)
        monkeypatch.setattr(enc_mod._Encoder, "feasible", feasible)
        assert _encoding(gwre_result, phi) == whole, name
    # most queries leave some of the constraint out
    assert sum(smaller) > len(smaller) / 2


def test_constraint_blocks_join_on_shared_symbols():
    enc = enc_mod._Encoder([], {}, set(), pl.Memo())
    x, y = pl.Var("x"), pl.Var("y")
    x_pos, y_pos, x_lt_y = pl.Bop(pl.GT, x, pl.Const(0)), pl.Bop(pl.GT, y, pl.Const(0)), pl.Bop(pl.LT, x, y)
    store = enc_mod.SymStore(env={"a": x, "b": y})
    enc.conjoin(store, pl.mk_and(x_pos, y_pos))
    assert [names for names, _ in store.blocks] == [{"x"}, {"y"}]
    assert enc.slice(store, frozenset({"a"})) == x_pos
    no_symbol = pl.Bop(pl.LT, pl.Const(1), pl.Const(2))
    enc.conjoin(store, no_symbol)
    assert store.blocks[2] == (frozenset(), no_symbol)
    enc.conjoin(store, x_lt_y)
    assert [names for names, _ in store.blocks] == [set(), {"x", "y"}]
    assert pl.conjuncts(store.blocks[1][1]) == [x_pos, y_pos, x_lt_y]
    assert pl.conjuncts(enc.slice(store, frozenset({"a"}))) == [x_pos, y_pos, x_lt_y]
    assert enc.feasible(store)
    enc.conjoin(store, pl.Bop(pl.LT, pl.Const(2), pl.Const(1)))
    assert not enc.feasible(store)


def test_row_limit_give_ups_show_on_the_encode_line(monkeypatch, caplog):
    # after x > 0 the encoder asks whether x > 5 follows: one elimination;
    # the gwre: and encode: lines split the memo's row_limit count
    source = (
        "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = *;\n"
        "  if (x > 0) { if (x > 5) { x = 1; } }\n  return;\n}\n"
    )

    def give_ups(prefix: str) -> int:
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith(prefix)]
        return int(re.search(r"(\d+) row-limit give-ups", line).group(1))

    with caplog.at_level(logging.DEBUG, logger="ctlrepair"):
        counts = rp.analyze(source).memo.counts
        assert give_ups("encode:") == give_ups("gwre:") == 0
        assert "row_limit" not in counts
        caplog.clear()
        monkeypatch.setattr(pl, "_ROW_LIMIT", 0)
        counts = rp.analyze(source).memo.counts
        assert give_ups("encode:") > 0
        assert give_ups("gwre:") + give_ups("encode:") == counts["row_limit"]


def test_emit_asks_about_each_decision_once(fixture_text, monkeypatch):
    """Within one analysis ``emit`` asks ``pl.entails`` about one decision
    key at most once (for the comparison, then its complement); where the
    key repeats, the memo answers (ROADMAP item 3)."""
    emit, decision_key, entails = enc_mod._Encoder.emit, enc_mod._Encoder.decision_key, pl.entails
    keys = []  # every key emit looked up, in order
    asked: dict[tuple, set[int]] = {}  # per key, the lookups that asked pl.entails
    inside = []

    def emitting(self, *args):
        inside.append(True)
        try:
            emit(self, *args)
        finally:
            inside.pop()

    def keyed(self, *args):
        keys.append(decision_key(self, *args))
        return keys[-1]

    def counted(state, goal, memo):
        if inside:
            asked.setdefault(keys[-1], set()).add(len(keys))
        return entails(state, goal, memo)

    monkeypatch.setattr(enc_mod._Encoder, "emit", emitting)
    monkeypatch.setattr(enc_mod._Encoder, "decision_key", keyed)
    monkeypatch.setattr(pl, "entails", counted)
    rp.analyze(fixture_text("overview_fixed.imp"))
    assert len(set(keys)) < len(keys)  # some key repeats
    assert all(len(lookups) == 1 for lookups in asked.values())
    assert set(asked) == set(keys)  # each key was asked about once


def test_encode_line_counts_decisions_from_the_memo(fixture_text, caplog):
    def decided() -> tuple[int, int]:
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("encode:")]
        caplog.clear()
        found = re.search(r"(\d+) comparisons decided, (\d+) of them from the memo", line)
        return int(found.group(1)), int(found.group(2))

    source = fixture_text("overview_fixed.imp")
    with caplog.at_level(logging.DEBUG, logger="ctlrepair.encode"):
        memo = rp.analyze(source).memo
        total, remembered = decided()
        assert 0 < remembered < total
        # a second analysis within the same memo decides nothing anew
        rp._analyze(source, None, memo)
        assert decided() == (total, total)


def test_feasibility_asks_only_blocks_built_since_known_feasible(monkeypatch):
    # each guard of ifs(n) is on its own variable, so it adds one block;
    # a store known to be feasible asks that block alone
    satisfiable, feasible = pl.satisfiable, enc_mod._Encoder.feasible
    asked, checks = [], []

    def counted_satisfiable(pi, memo):
        asked.append(pi)
        return satisfiable(pi, memo)

    def counted_feasible(self, store):
        if store.feasible is None:
            checks.append(len(asked))
        return feasible(self, store)

    monkeypatch.setattr(pl, "satisfiable", counted_satisfiable)
    monkeypatch.setattr(enc_mod._Encoder, "feasible", counted_feasible)
    encode(ifs(12), "AF(Exit(_))")
    checks.append(len(asked))
    per_check = [b - a for a, b in zip(checks, checks[1:])]
    assert len(per_check) > 100 and max(per_check) <= 1


def test_checked_counts_the_leading_blocks_known_satisfiable():
    enc = enc_mod._Encoder([], {}, set(), pl.Memo())
    x, y = pl.Var("x"), pl.Var("y")
    store = enc_mod.SymStore(env={"a": x, "b": y})
    enc.conjoin(store, pl.Bop(pl.GT, x, pl.Const(0)))
    assert enc.feasible(store) and store.checked == 1
    copy = store.copy()
    enc.conjoin(copy, pl.mk_and(pl.Bop(pl.LT, y, pl.Const(0)), pl.Bop(pl.GT, y, pl.Const(0))))
    assert not enc.feasible(copy) and copy.checked == 1 and store.checked == 1
    # joining x's block into y's leaves no block known to be satisfiable
    enc.conjoin(copy, pl.Bop(pl.EQ, x, y))
    assert copy.checked == 0 and not enc.feasible(copy)


def _tree(re: gw.Re) -> gw.Re:
    """``re`` expanded into a tree, with one fresh object per occurrence."""
    if isinstance(re, gw.Seq):
        return gw.Seq(tuple(map(_tree, re.items)))
    if isinstance(re, gw.OrRe):
        return gw.OrRe(tuple(map(_tree, re.alts)))
    if isinstance(re, gw.Omega):
        return gw.Omega(_tree(re.body))
    return dataclasses.replace(re) if isinstance(re, (gw.Ev, gw.Guard)) else re


def test_dag_numbers_and_encodes_as_its_tree(monkeypatch):
    """Every walk that visits a shared node once gives what it gives on the
    tree the DAG stands for: ``renumber``'s mapping and the whole encoding."""
    monkeypatch.syspath_prepend(str(FIXTURES.parents[1] / "perfbench"))
    renumber, built = gw.renumber, []
    monkeypatch.setattr(gw, "renumber", lambda re: built.append(re) or renumber(re))
    sharing = 0
    for name, source in _merge_corpus():
        try:
            ast = fe.parse(source)
            if ast.ctl is None:
                continue
            gwre_result = gw.cfg_to_gwre(fe.build_cfg(ast), pl.Memo())
        except (fe.ImpSyntaxError, gw.SummaryInconclusive):
            continue
        dag, tree = built[-1], _tree(built[-1])
        assert renumber(tree)[1] == renumber(dag)[1], name
        phi = ctl.parse_ctl(ast.ctl)
        tree_result = dataclasses.replace(gwre_result, phi=_tree(gwre_result.phi))
        assert _encoding(tree_result, phi) == _encoding(gwre_result, phi), name
        sharing += len(list(gw._leaves(dag))) < len(list(gw._leaves(tree)))
    # the shapes, the verify-branchy programs and many oracle programs share
    assert sharing > 100


def _merged_entries(caplog, source: str) -> int:
    with caplog.at_level(logging.DEBUG, logger="ctlrepair.encode"):
        rp.analyze(source)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("encode:")]
    return int(re.search(r"(\d+) segment entries merged", line).group(1))


def test_merge_counts_are_exact(caplog):
    # two branches that leave the same store rejoin in each call of f, so
    # the rest of the program is walked once per call rather than once per
    # path; with _two_returns the first state after each call is keyed from
    # its second entry on; a program with no rejoining branch merges nothing
    assert _merged_entries(caplog, calls(14)) == 14
    caplog.clear()
    assert _merged_entries(caplog, _two_returns(12)) == 28
    caplog.clear()
    straight = "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = 0;\n  return;\n}\n"
    assert _merged_entries(caplog, straight) == 0


def test_merge_compares_at_most_one_earlier_walk(monkeypatch):
    # the walks of one entry key are indexed by what they must agree on, so
    # a merge works out its own walk's match and at most that of the key's
    # first walk; comparing every earlier walk of the key one by one made
    # 77,254 connected calls for the 5,118 merges of kif-10
    merge, match = enc_mod._Encoder.merge, enc_mod._Encoder.match
    compared = []  # per merge, the earlier walks it matched

    def counted_merge(self, *args):
        compared.append([])
        earlier, walk = merge(self, *args)
        compared[-1] = [w for w in compared[-1] if w is not walk]
        return earlier, walk

    def counted_match(self, walk):
        compared[-1].append(walk)
        return match(self, walk)

    monkeypatch.setattr(enc_mod._Encoder, "merge", counted_merge)
    monkeypatch.setattr(enc_mod._Encoder, "match", counted_match)
    assert rp.analyze(kif(10)).holds
    assert len(compared) == 5118
    assert max(map(len, compared)) == 1


def test_calls_14_analyze_within_budget():
    # every one of its 2^14 paths was walked to the end: 2.0-3.7 s
    watch = Stopwatch(1.0)
    analysis = rp.analyze(calls(14))
    assert analysis.unknown is None and analysis.holds
    watch.check()


def test_loops_12_analyze_within_budget():
    # every one of its 2^12 paths was walked to the end: about 6 s
    watch = Stopwatch(2.0)
    analysis = rp.analyze(loops(12))
    assert analysis.unknown is None and analysis.holds
    watch.check()


def test_ifs_12_analyze_within_budget():
    # the code after each if was built, numbered and interned once per
    # path: 1.1 s on a 2-CPU VM
    watch = Stopwatch(1.0)
    analysis = rp.analyze(ifs(12))
    assert analysis.unknown is None and analysis.holds
    watch.check()


def test_calls_16_with_two_returns_analyze_within_budget():
    # renumber processed each of the 2^16 paths: 2.7 s on a 2-CPU VM
    watch = Stopwatch(1.0)
    analysis = rp.analyze(_two_returns(16))
    assert analysis.unknown is None and analysis.holds
    watch.check()


def test_long_code_after_a_branch_encodes_within_budget():
    # every entry after the if is keyed, and the id of what is left of the
    # sequence is read off the entry before it rather than rebuilt from its
    # items, which took 3.4 s here on a 2-CPU VM
    watch = Stopwatch(2.0)
    source = (
        "//@ ctl: AF(Exit(_))\nvoid main() {\n  int x = 0;\n  int c = *;\n"
        "  if (c > 0) { } else { }\n" + "  x = x + 1;\n" * 3000 + "  return;\n}\n"
    )
    analysis = rp.analyze(source)
    assert analysis.unknown is None and analysis.holds
    watch.check()


# Programs with a run that breaks the property, which the encoding still
# reports as Verified (ROADMAP item 10): an undecided comparison emits both
# facts of its pair and the AP rule reads one alone; a D3 loop event
# assigns nothing, so the store in the omega block is the loop's entry
# store; and an omega body is walked once, from its entry store.
WRONG_VERIFIED = {
    "undecided-pair": ("AG(x >= 0)", "int x = *; return;"),
    "loop-event-store": ("AG(n < 100)", "int n = 5; while (n > 0) { n = n + 1; } return;"),
    "omega-body-once": ("AG(n < 100)", "int n = 5; while (1) { n = n + 1; }"),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: the encoding's soundness holes")
@pytest.mark.parametrize("name", sorted(WRONG_VERIFIED))
def test_verified_only_if_every_run_satisfies_the_property(name):
    prop, body = WRONG_VERIFIED[name]
    assert verdict(f"//@ ctl: {prop}\nvoid main() {{\n  {body}\n}}\n") != "holds"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 10: guard_rule drops an Or conjunct, and y is read at "
    "state 1, before int y = 0, where no Neq fact holds",
)
def test_disjunctive_guard_keeps_its_condition():
    # x stays 0, so y = 1 never runs; the flow into it has no body
    source = (
        "//@ ctl: AG(y!=1)\nvoid main() {\n  int x = 0;\n  int y = 0;\n"
        "  if (x > 0 || x < -5) { y = 1; }\n  return;\n}\n"
    )
    assert verdict(source) == "holds"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: guard_rule drops an Or conjunct")
def test_disjunctive_guard_after_the_property_variable_keeps_its_condition():
    # as above with y declared first, so only the guard is at fault
    source = (
        "//@ ctl: AG(y!=1)\nvoid main() {\n  int y = 0;\n  int x = 0;\n"
        "  if (x > 0 || x < -5) { y = 1; }\n  return;\n}\n"
    )
    assert verdict(source) == "holds"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: a negative constant has no fact shape")
def test_negative_constant_guard_keeps_its_condition():
    # the parser builds -5 as Neg(Const(5)), which pure_atom cannot encode,
    # so neither flow out of the if has a body
    source = (
        "//@ ctl: AG(y!=1)\nvoid main() {\n  int y = 0;\n  int x = 0;\n"
        "  if (x < -5) { y = 1; }\n  return;\n}\n"
    )
    assert verdict(source) == "holds"


def test_oracle_seed_1148_verifies_with_every_run_keeping_x_at_0():
    # with x, y and z set to 0 every run returns from the first while and
    # keeps x = 0.  That loop was summarized once per path into it, and
    # the flow rules out of the state before it, which all four paths
    # share, read the facts the one feasible path left there; so they
    # reached the summary guards of the copies on infeasible paths, where
    # an unsatisfiable store emits no fact, and AG(x <= 3) failed there
    source = oracle_programs.program(1148, "AG(x <= 3)")
    assert verdict(source) == "holds"
    program = fe.build_cfg(fe.parse(source))
    for seed in range(16):
        run = fe.steps(program, "main", {}, random.Random(seed), max_steps=200)
        assert all(store.get("x", 0) == 0 for _, store in run), seed
