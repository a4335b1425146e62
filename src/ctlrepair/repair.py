"""Find-and-fix loop: fact-level repair templates and source-level patches.

A violated property is repaired by searching, symbolically, for small
changes to the abstract fact base — deleting a fact family, adding a fresh
fact, or updating an assignment's facts — that make the property's top
predicate derivable again.  A repair round takes two fixpoints: one answers
every sign search of every template (``run_template``), and one checks
every candidate at fact level before any source edit is made
(``_decide``).  Each candidate that passes is mapped back to a source
edit, and every patch is verified end to end by re-analyzing the edited
program.  A nested round searches only the sign worlds whose edits fit the
caps left after its chain of rounds: the others yield no candidate it
could keep (``run_template``).  ``RepairConfig`` rejects an empty, unknown
or repeated template in its order when it is made, before any analysis.
"""

from __future__ import annotations

import itertools
import logging
from collections import Counter
from dataclasses import dataclass, field, replace

from . import ctl as ctl_mod
from . import encode as enc_mod
from . import frontend as fe
from . import gwre as gw
from . import pure_logic as pl
from . import sedl
from .datalog_engine import Atom, DatalogProgram, DVar, evaluate

log = logging.getLogger(__name__)

TEMPLATES = ("delete", "update", "add")


@dataclass
class RepairConfig:
    template_order: tuple[str, ...] = TEMPLATES
    alpha_budget: int = 64
    xi_budget: int = 16
    max_add: int = 2
    max_delete: int = 2
    depth: int = 1

    def __post_init__(self) -> None:
        if not self.template_order:
            raise ValueError("empty template order")
        for t in self.template_order:
            if t not in TEMPLATES:
                raise ValueError(f"unknown template {t!r}; choose from {', '.join(TEMPLATES)}")
            if self.template_order.count(t) > 1:
                raise ValueError(f"template {t!r} given more than once")


# ---------------------------------------------------------------------------
# Whole-program analysis
# ---------------------------------------------------------------------------


class PropertyMissing(ValueError):
    """No property given: neither a --ctl flag nor a //@ ctl: annotation."""


@dataclass
class Analysis:
    source: str
    property_text: str
    cfg: fe.Program
    gwre: gw.GwreResult | None
    enc: enc_mod.EncodeResult | None
    target: Atom | None  # the property's top atom at the entry state
    rules: list
    holds: bool
    unknown: str | None
    memo: pl.Memo  # what it asked and counted, shared by its re-analyses


def analyze(source: str, ctl_text: str | None = None) -> Analysis:
    """Parse, summarize, encode, and evaluate one program end to end.

    Starts a new ``pl.Memo``: its entailment answers, and the decisions,
    loop rankings and compiled property derived from them, are shared by
    nothing that came before.
    """
    return _analyze(source, ctl_text, pl.Memo())


def _analyze(source: str, ctl_text: str | None, memo: pl.Memo) -> Analysis:
    """``analyze`` within ``memo``."""
    memo.counts["analyses"] += 1
    parsed = fe.parse(source)
    text = ctl_text or parsed.ctl
    if text is None:
        raise PropertyMissing(
            "no property: pass --ctl or add a first-line //@ ctl: annotation"
        )
    pures, top, ctl_rules = _compiled(text, memo)
    cfg = fe.build_cfg(parsed)
    try:
        gwre_result = gw.cfg_to_gwre(cfg, memo)
    except gw.SummaryInconclusive as exc:
        return Analysis(source, text, cfg, None, None, None, [], False, str(exc), memo)
    enc = enc_mod.abstract_facts(gwre_result, list(pures), memo)
    target = Atom(top, (gwre_result.entry_state,))
    rules = list(enc.rules) + list(ctl_rules)
    memo.counts["evaluations"] += 1
    holds = target in evaluate(DatalogProgram(rules=rules, facts=list(enc.facts)))
    return Analysis(source, text, cfg, gwre_result, enc, target, rules, holds, None, memo)


def _compiled(text: str, memo: pl.Memo) -> tuple[tuple, str, tuple]:
    """The property ``text``'s atomic payloads, top predicate and rules, as
    ``ctl.ctl_to_datalog`` gives them for ``ctl.parse_ctl(text)``,
    remembered in ``memo.derived`` by the text."""
    key = ("property", text)
    compiled = memo.derived.get(key)
    if compiled is None:
        top, rules, pures = ctl_mod.ctl_to_datalog(ctl_mod.parse_ctl(text))
        compiled = memo.derived[key] = (tuple(pures), top, tuple(rules))
    return compiled


# ---------------------------------------------------------------------------
# Fact deltas and source edits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactDelta:
    """A change to the facts: ``op`` is ``delete`` (a family, by its
    representative), ``add`` or ``update``; ``fields`` are the report's
    entries after ``op``, in order, each an atom."""

    op: str
    fields: tuple[tuple[str, Atom], ...]

    def to_json(self) -> dict:
        return {"op": self.op, **{name: str(atom) for name, atom in self.fields}}


@dataclass(frozen=True)
class SourceEdit:
    """Replace ``source[start:end]`` with ``text``; ``fields`` are the
    report's entries between ``kind`` and ``text``, in order."""

    kind: str
    fields: tuple
    start: int
    end: int
    text: str

    def to_json(self) -> dict:
        return {"kind": self.kind, **dict(self.fields), "text": self.text}


def apply_edits(source: str, edits) -> str:
    out = source
    for e in sorted(edits, key=lambda e: e.start, reverse=True):
        out = out[: e.start] + e.text + out[e.end :]
    return out


@dataclass
class Patch:
    deltas: tuple
    edits: tuple
    source: str  # fully patched source, end-to-end verified; "" before that
    cost: int
    iterations: int
    anchor: int

    def to_json(self) -> dict:
        return {
            "deltas": [d.to_json() for d in self.deltas],
            "source_edits": [e.to_json() for e in self.edits],
            "cost": self.cost,
            "iterations": self.iterations,
        }


def _rank_key(p: Patch) -> tuple:
    return (p.cost, -p.anchor, str(p.to_json()))


def rank_patches(patches: list[Patch]) -> list[Patch]:
    """Cheapest first; ties prefer edits later in control flow, then a
    stable textual order."""
    return sorted(patches, key=_rank_key)


# ---------------------------------------------------------------------------
# Symbol injection
# ---------------------------------------------------------------------------


def _body_literals(rules) -> list[Atom]:
    return [lit.atom for r in rules for lit in r.body]


def _xi_families(enc: enc_mod.EncodeResult, template: str) -> list[enc_mod.Family]:
    fams = [f for f in enc.families.values() if f.read]
    if template == "delete":
        # only facts modeling a nondeterministic value carry a sign: these
        # are exactly the families emitted as undecided closure pairs
        return [f for f in fams if f.key in enc.pair_of]
    if template == "update":
        return fams
    return []  # add: no signs on existing facts


def _alpha_shapes(rules) -> list[tuple[str, int]]:
    """Injectable fact shapes: comparison predicates consulted by rules."""
    heads = {r.head.predicate for r in rules}
    shapes: list[tuple[str, int]] = []
    for lit in _body_literals(rules):
        p = lit.predicate
        if p in heads or p not in ctl_mod.COMPARISON_PREDICATES:
            continue
        shape = (p, len(lit.args))
        if shape not in shapes:
            shapes.append(shape)
    return shapes


def inject_symbols(
    enc: enc_mod.EncodeResult, template: str
) -> tuple[list[sedl.SymbolicFact], dict[str, enc_mod.Family]]:
    """Mark the template's facts with signs.

    Sign ``xi{i+1}`` names the ``i``-th family to own a fact of
    ``enc.facts``, so the signs are numbered in the order ``sedl`` meets
    and reports them, and the ``xiA`` of a fact that ``run_template``
    injects after them comes last.  A family whose every member
    ``enc.fact_family`` gives to a later family gets no sign."""
    fams = {fam.key: fam for fam in _xi_families(enc, template)}
    owners = dict.fromkeys(k for k in map(enc.fact_family.get, enc.facts) if k in fams)
    fam_of_xi = {f"xi{i + 1}": fams[key] for i, key in enumerate(owners)}
    xi_of_key = {fam.key: name for name, fam in fam_of_xi.items()}
    facts = [
        sedl.SymbolicFact(f, xi_of_key.get(enc.fact_family.get(f)))
        for f in enc.facts
    ]
    return facts, fam_of_xi


# ---------------------------------------------------------------------------
# Valuation and sign-world candidates
# ---------------------------------------------------------------------------


def _alpha_valuations(shape, rules, consts_at, budget: int, counts) -> list[dict[str, object]]:
    """Instantiations worth trying: unify the injected fact against every
    rule literal of its shape, filling variable positions from the constants
    known to interact there (``consts_at``, from ``sedl.compute_depend``),
    then the all-placeholder one, each once in the order met.  At most
    ``budget`` of them: one that drops any adds one to ``counts``'
    ``alpha_budget_exceeded``."""
    pred, arity = shape
    combos = dict.fromkeys(
        combo
        for lit in _body_literals(rules)
        if lit.predicate == pred and len(lit.args) == arity
        for combo in itertools.product(
            *(consts_at.get((pred, i), ()) if isinstance(a, DVar) else [a] for i, a in enumerate(lit.args))
        )
    )
    combos.setdefault(tuple(sedl.placeholder(i + 1) for i in range(arity)))
    if len(combos) > budget:
        counts["alpha_budget_exceeded"] += 1
    return [{f"alpha{i + 1}": a for i, a in enumerate(args)} for args in itertools.islice(combos, budget)]


# ---------------------------------------------------------------------------
# Patch generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Candidate:
    deletes: tuple  # Family objects
    adds: tuple  # at most one Atom, re-anchored at ``updated``'s def_state
    # the first deleted family on the add's variable: the add is the new
    # fact of that family's assignment
    updated: enc_mod.Family | None
    template: str


def _fam_representative(fam: enc_mod.Family) -> Atom:
    for m in fam.members:
        if m.args[-1] == fam.def_state:
            return m
    return fam.members[0]


_VALUE_SEARCH = [0] + [s * i for i in range(1, 11) for s in (1, -1)]


def _value_for(pure: pl.Pure, var: str) -> object | None:
    """A small right-hand side making the comparison true."""
    others = [v for v in pl.names(pure) if v != var]
    if others:
        # variable-to-variable comparison: only equality is expressible
        if isinstance(pure, pl.Bop) and pure.op == pl.EQ and len(others) == 1:
            return others[0]
        return None
    for v in _VALUE_SEARCH:
        if pl.eval_pure(pure, {var: v}):
            return v
    return None


def run_template(analysis: Analysis, config: RepairConfig, prefix: tuple | None = None):
    """Every sign search of one round that kept within the sign budget, with
    its answer, as ``(template, shape, fam_of_xi, psi)`` in
    ``config.template_order``.

    Every (template, injected shape) sign search of the round is built
    first, and one ``sedl.sign_batch`` fixpoint answers them all.  The
    round's counts go to ``analysis.memo.counts``.

    A nested round passes the deltas of its chain as ``prefix``, and its
    worlds then hold only edits that fit the caps left after them: at most
    the deletes left false family signs, and the injected fact present only
    while an add is left.  That is exact: a world with more signs false
    yields only candidates past the caps, and without an add left a world
    with the injected fact yields only adds, also past them, or deletes that
    its twin world without the fact yields too when they derive the target."""
    enc, counts = analysis.enc, analysis.memo.counts
    consts_at = sedl.compute_depend(analysis.rules, enc.facts)
    deleted, added = _edit_counts(prefix or ())
    add_left = prefix is None or added < config.max_add
    plan = []  # each search's template, shape and sign families
    searches: list[sedl.SignSearch] = []
    for template in config.template_order:
        counts["templates"] += 1
        signed, fam_of_xi = inject_symbols(enc, template)
        worlds = [
            frozenset(off)
            for r in range(config.max_delete - deleted + 1)
            for off in itertools.combinations(fam_of_xi, r)
        ]
        for shape in _alpha_shapes(analysis.rules) if template in ("update", "add") else [None]:
            facts, valuations, search_worlds = signed, [{}], worlds
            if shape is not None:
                pred, arity = shape
                alphas = tuple(sedl.Alpha(f"alpha{i + 1}") for i in range(arity))
                facts = signed + [sedl.SymbolicFact(Atom(pred, alphas), "xiA")]
                valuations = _alpha_valuations(
                    shape, analysis.rules, consts_at, config.alpha_budget, counts
                )
                absent = [off | {"xiA"} for off in worlds]
                search_worlds = worlds + absent if add_left else absent
            plan.append((template, shape, fam_of_xi))
            searches.append(sedl.SignSearch(facts, valuations, search_worlds))
    batch = sedl.sign_batch(analysis.rules, analysis.target, searches, config.xi_budget)
    out, read = [], 0
    skipped: dict[str, list[sedl.SignBudgetExceeded]] = {}
    for i, (template, shape, fam_of_xi) in enumerate(plan):
        counts["sign_searches"] += 1
        try:
            psi = sedl.symbolic_execute(batch, i)
        except sedl.SignBudgetExceeded as exc:
            counts["sign_budget_exceeded"] += 1
            skipped.setdefault(template, []).append(exc)
            continue
        read += len(psi.disjuncts)
        if psi.truncated:
            counts["sign_truncated"] += 1
        out.append((template, shape, fam_of_xi, psi))
    for template, excs in skipped.items():
        log.warning(
            "%d of %d sign searches skipped for template %s: %s",
            len(excs), sum(t == template for t, _, _ in plan), template, excs[-1],
        )
    log.debug(
        "sign searches: %d run, %d skipped for the sign budget, "
        "%d world bits in one fixpoint, %d disjuncts read",
        len(out), len(searches) - len(out), batch.bits, read,
    )
    return out


def _constraints(searched, config: RepairConfig, counts: Counter) -> dict:
    """The report of a round's answered sign searches (``run_template``):
    per template, each search's shape, the representative fact of each
    sign and its distinct disjuncts.  A search with more than
    ``_MAX_REPORT_DISJUNCTS`` of them adds one to ``report_truncated``."""
    constraints: dict = {template: [] for template in config.template_order}
    for template, shape, fam_of_xi, psi in searched:
        report = {}  # distinct report disjuncts by their text, first kept
        for d in psi.disjuncts:
            dj = d.to_json()
            if shape is not None and "xiA" in d.sign_false:
                dj["alpha_bindings"] = {}
            report.setdefault(str(dj), dj)
        if len(report) > _MAX_REPORT_DISJUNCTS:
            counts["report_truncated"] += 1
        constraints[template].append(
            {
                "shape": f"{shape[0]}/{shape[1]}" if shape else None,
                "xi": {name: str(_fam_representative(fam)) for name, fam in fam_of_xi.items()},
                "disjuncts": list(report.values())[:_MAX_REPORT_DISJUNCTS],
            }
        )
    return constraints


def _disjunct_candidate(d, fam_of_xi, shape, enc, config, template) -> _Candidate | None:
    # at most the deletes left after the round's chain (config.max_delete at
    # the top level): run_template's worlds cap the false signs
    deletes = [fam_of_xi[n] for n in d.sign_false if n in fam_of_xi]
    keys = {f.key for f in deletes}
    for f in deletes:
        if enc.pair_of.get(f.key) in keys:
            return None  # deleting both halves of a closure pair says nothing
    adds: tuple[Atom, ...] = ()
    updated = None
    if shape is not None and "xiA" in d.sign_true:
        args = []
        for i in range(shape[1]):
            v = d.alpha.get(f"alpha{i + 1}")
            if sedl.is_placeholder(v):
                v = d.bindings.get(v, v)
            args.append(v)
        if not any(sedl.is_placeholder(a) for a in args):
            if config.max_add < 1:
                return None
            add = Atom(shape[0], tuple(args))
            # paired with a same-variable deletion, the added fact describes
            # the new fact of that assignment, anchored where the variable
            # is defined
            var = ctl_mod.fact_var(add)
            updated = next((f for f in deletes if f.var == var and var), None)
            if updated is not None:
                add = Atom(add.predicate, add.args[:-1] + (updated.def_state,))
            adds = (add,)
    if not deletes and not adds:
        return None
    return _Candidate(tuple(deletes), adds, updated, template)


# ---------------------------------------------------------------------------
# Source-edit synthesis
# ---------------------------------------------------------------------------


def _stmt_span(analysis: Analysis, state: int):
    origin = analysis.gwre.origins.get(state)
    if origin is None or origin.kind not in ("stmt", "return") or origin.node is None:
        return None
    proc = analysis.cfg.procedures.get(origin.proc)
    if proc is None or origin.node not in proc.spans:
        return None
    return origin, proc, proc.spans[origin.node]


def _synthesize(analysis: Analysis, cand: _Candidate) -> Patch | None:
    """The direct patch realizing a candidate, or None if inexpressible.  Its
    cost is its delta count, which equals ``_estimated_cost(cand)``, and its
    ``source`` stays "" until the edits are applied and verified."""
    deltas: list = []
    edits: list = []
    anchor = 0
    fam = cand.updated
    if fam is not None:
        edit = _modify_assign(analysis, fam, cand.adds[0])
        if edit is None:
            return None
        edits.append(edit)
        deltas.append(FactDelta("update", (("old", _fam_representative(fam)), ("new", cand.adds[0]))))
        anchor = max(anchor, fam.def_state)
    plain_deletes = [f for f in cand.deletes if f is not fam]
    plain_adds = cand.adds if fam is None else ()
    if plain_deletes:
        exit_edit, exit_anchor = _early_exit(analysis, plain_deletes) or (None, 0)
        if exit_edit is None:
            return None
        edits.append(exit_edit)
        deltas.extend(FactDelta("delete", (("fact", _fam_representative(f)),)) for f in plain_deletes)
        anchor = max(anchor, exit_anchor)
    for a in plain_adds:
        edit = _insert_assign(analysis, a)
        if edit is None:
            return None
        edits.append(edit)
        deltas.append(FactDelta("add", (("fact", a),)))
        anchor = max(anchor, a.args[-1] if isinstance(a.args[-1], int) else 0)
    if not edits:
        return None
    return Patch(tuple(deltas), tuple(edits), "", len(deltas), 1, anchor)


def _modify_assign(analysis: Analysis, fam: enc_mod.Family, new_atom: Atom):
    info = _stmt_span(analysis, fam.def_state)
    if info is None:
        return None
    origin, proc, span = info
    node = proc.nodes.get(origin.node)
    var = fam.var
    if isinstance(node, fe.Assign):
        if node.x != var:
            return None
    elif isinstance(node, fe.Call):
        if node.r != var:
            return None
    else:
        return None
    pure = ctl_mod.fact_pure(new_atom)
    if pure is None:
        return None
    value = _value_for(pure, var)
    if value is None:
        return None
    stmt_text = analysis.source[span.start : span.end]
    prefix = "int " if stmt_text.lstrip().startswith("int ") else ""
    text = f"{prefix}{var} = {value};"
    fields = (("state", fam.def_state), ("var", var), ("value", value))
    return SourceEdit("modify-assign", fields, span.start, span.end, text)


def _insert_assign(analysis: Analysis, atom: Atom):
    state = atom.args[-1]
    if not isinstance(state, int):
        return None
    var = ctl_mod.fact_var(atom)
    pure = ctl_mod.fact_pure(atom)
    if var is None or pure is None:
        return None
    value = _value_for(pure, var)
    if value is None:
        return None
    origin = analysis.gwre.origins.get(state)
    if origin is None:
        return None
    proc = analysis.cfg.procedures.get(origin.proc)
    if proc is None:
        return None
    text = f"{var} = {value}; "
    if origin.kind == "return" and origin.node in proc.spans:
        offset = proc.spans[origin.node].start
    elif origin.kind in ("loop-event", "exit-event") and origin.join is not None:
        offset = proc.loop_insert.get(origin.join)
        if offset is None:
            return None
    elif origin.kind == "stmt" and origin.node in proc.spans:
        offset, text = proc.spans[origin.node].end, f" {var} = {value};"
    else:
        return None
    fields = (("var", var), ("value", value), ("after_state", state), ("offset", offset))
    return SourceEdit("insert-assign", fields, offset, offset, text)


def _early_exit(analysis: Analysis, fams: list[enc_mod.Family]):
    anchor_state = -1
    for fam in fams:
        for s in fam.key.def_states:
            anchor_state = max(anchor_state, s)
    info = _stmt_span(analysis, anchor_state)
    if info is None or info[0].kind != "stmt":
        return None
    origin, proc, span = info
    conds = []
    for fam in fams:
        cond = fe._pp_cond(fam.pure)
        if cond not in conds:
            conds.append(cond)
    condition = " || ".join(conds)
    text = f" if ({condition}) {{ return; }}"
    fields = (("condition", condition), ("before_state", anchor_state), ("offset", span.end))
    return SourceEdit("insert-early-exit", fields, span.end, span.end, text), anchor_state


# ---------------------------------------------------------------------------
# Candidate check and the repair loop
# ---------------------------------------------------------------------------


def _decide(analysis: Analysis, candidates: list[_Candidate]) -> int:
    """Bit ``i`` is set when candidate ``i``'s facts derive the target.  One
    fixpoint decides every candidate in its own world: an encoder fact holds
    in all but the worlds deleting its family, an added fact in its own."""
    if not candidates:
        return 0
    kept = {}
    full = (1 << len(candidates)) - 1
    for i, cand in enumerate(candidates):
        for fam in cand.deletes:
            kept[fam.key] = kept.get(fam.key, full) & ~(1 << i)
    adds = [(a, 1 << i) for i, cand in enumerate(candidates) for a in cand.adds]
    DatalogProgram(facts=[a for a, _ in adds]).validate()  # _analyze checked the rest
    facts = [(f, kept.get(analysis.enc.fact_family.get(f), full)) for f in analysis.enc.facts]
    analysis.memo.counts["evaluations"] += 1
    return sedl.annotated_eval(analysis.rules, facts + adds, full).get(analysis.target, 0)


@dataclass
class RepairResult:
    verdict: str  # Verified | Repaired | Unrepaired | Unknown
    property_text: str
    analysis: Analysis  # of the program as given
    patches: list[Patch] = field(default_factory=list)
    constraints: dict = field(default_factory=dict)

    @property
    def stats(self) -> Counter:
        """The counts of the repair's memo, which ``timing`` reports."""
        return self.analysis.memo.counts

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "property": self.property_text,
            "patches": [p.to_json() for p in self.patches],
            "constraints": self.constraints,
            "timing": {k: self.stats[k] for k in sorted(self.stats)},
        }
        if self.verdict == "Unknown":
            out["detail"] = self.analysis.unknown
        return out


_MAX_RECURSED = 6
_MAX_PATCHES = 10
_MAX_REPORT_DISJUNCTS = 64


def repair_loop(source: str, config: RepairConfig, ctl_text: str | None = None) -> RepairResult:
    # starts the memo that every re-analysis in _search shares: entailment
    # answers, comparison decisions, loop rankings, the compiled property
    # and the counts that the report shows
    analysis = analyze(source, ctl_text)
    if analysis.unknown:
        return RepairResult("Unknown", analysis.property_text, analysis)
    if analysis.holds:
        return RepairResult("Verified", analysis.property_text, analysis)
    searched = run_template(analysis, config)
    patches = rank_patches(_search(analysis, config, config.depth, searched))
    constraints = _constraints(searched, config, analysis.memo.counts)
    verdict = "Repaired" if patches else "Unrepaired"
    return RepairResult(verdict, analysis.property_text, analysis, patches, constraints)


def _estimated_cost(cand: _Candidate) -> int:
    """Delta count after a delete/add pair merges into a single update."""
    return len(cand.deletes) + len(cand.adds) - (cand.updated is not None)


def _edit_counts(deltas: tuple) -> tuple[int, int]:
    """The families ``deltas`` delete and the facts they add; an update is
    one of each."""
    return sum(d.op != "add" for d in deltas), sum(d.op != "delete" for d in deltas)


def _candidates(analysis: Analysis, config: RepairConfig, searched) -> list[_Candidate]:
    """The distinct candidates of the answered sign searches ``searched``
    (``run_template``), in the order ``_search`` tries them: cheapest first,
    then by template, then by text."""
    candidates: list[_Candidate] = []
    seen = set()
    for template, shape, fam_of_xi, psi in searched:
        for d in psi.disjuncts:
            c = _disjunct_candidate(d, fam_of_xi, shape, analysis.enc, config, template)
            if c is None:
                continue
            key = (frozenset(f.key for f in c.deletes), frozenset(c.adds))
            if key not in seen:
                seen.add(key)
                candidates.append(c)
    order = {t: i for i, t in enumerate(config.template_order)}
    return sorted(
        candidates,
        key=lambda c: (
            _estimated_cost(c),
            order[c.template],
            repr((tuple(str(f.key) for f in c.deletes), tuple(map(str, c.adds)))),
        ),
    )


def _search(
    analysis: Analysis, config: RepairConfig, depth: int, searched, prefix: tuple | None = None
) -> list[Patch]:
    """Verified patches for the analysis, from the candidates of its
    answered sign searches ``searched`` (``run_template``).

    The top-level search has no prefix, tries its candidates cheapest first
    and keeps every patch, up to ``_MAX_PATCHES``.  A nested search gets
    the deltas of the whole chain of rounds before it as ``prefix``, whose
    caps ``run_template`` already held its candidates to, and returns the
    one patch best by ``rank_patches``, or none.  It analyses its direct
    patches in ``rank_patches`` order and stops at the first that does
    not rank before the best patch so far.  That is exact: every later
    direct patch ranks after it too, and a composite patch built on it
    costs at least one more than it, which costs no less than the best
    patch, and ``rank_patches`` orders by cost first."""
    candidates = _candidates(analysis, config, searched)
    counts = analysis.memo.counts
    holds = _decide(analysis, candidates)
    nested = prefix is not None
    directs = (
        _synthesize(analysis, c)
        for i, c in enumerate(candidates)
        if holds >> i & 1
    )
    if nested:
        directs = sorted((d for d in directs if d is not None), key=_rank_key)
    patches: list[Patch] = []
    recursed = 0
    for direct in directs:
        if len(patches) >= _MAX_PATCHES:
            counts["patch_cap"] += 1
            break
        if direct is None:
            continue
        if nested and patches and _rank_key(direct) >= _rank_key(patches[0]):
            break
        new_source = apply_edits(analysis.source, direct.edits)
        try:
            sub_analysis = _analyze(new_source, analysis.property_text, analysis.memo)
        except (fe.ImpSyntaxError, gw.UnsupportedProgram):
            continue
        if sub_analysis.unknown:
            continue
        if sub_analysis.holds:
            patch = replace(direct, source=new_source)
        elif depth > 1:
            if recursed >= _MAX_RECURSED:
                counts["recursion_cap"] += 1
                continue
            recursed += 1
            chain = (prefix or ()) + direct.deltas
            searched = run_template(sub_analysis, config, chain)
            found = _search(sub_analysis, config, depth - 1, searched, chain)
            if not found:
                continue
            (best,) = found
            patch = Patch(
                direct.deltas + best.deltas,
                direct.edits + best.edits,
                best.source,
                direct.cost + best.cost,
                1 + best.iterations,
                direct.anchor,
            )
        else:
            continue
        if not nested:
            patches.append(patch)
        elif not patches or _rank_key(patch) < _rank_key(patches[0]):
            patches = [patch]
    return patches
