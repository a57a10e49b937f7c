"""Determinism rule pack.

These rules prove the absence of the replay-divergence hazard classes the
dynamic byte-identity batteries check by sampling: global randomness that
does not flow through :func:`repro.sim.randomness.derive_seed`, iteration
over unordered (or merely insertion-ordered) containers feeding
ordering-sensitive sinks, first-seen tie-breaking, and wall-clock reads
inside simulation/service code.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.engine import (
    Finding,
    ModuleContext,
    Rule,
    _walk_same_scope,
    register_rule,
)

#: ``random``-module draws that consume the unseeded global stream.
_RANDOM_DRAWS = {
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
}

_SERIALIZE_CALLS = {
    "json.dump",
    "json.dumps",
    "print",
    "repro.io.results.canonical_json",
    "repro.io.results.results_to_json",
    "repro.io.results.write_json",
    "canonical_json",
    "results_to_json",
    "write_json",
    "write_edge_list",
}

_LIST_MUTATORS = {"append", "extend", "insert", "appendleft"}


def _root_name(node: ast.AST) -> Optional[ast.Name]:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def _resolved_via_import(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether the Name/Attribute chain starts at an imported binding.

    Guards against a *local variable* that happens to be called ``random``
    or ``time`` being mistaken for the module of the same name.
    """
    root = _root_name(node)
    return root is not None and root.id in ctx.imports


def _is_serialize_call(ctx: ModuleContext, call: ast.Call) -> bool:
    name = ctx.call_qualname(call)
    if name in _SERIALIZE_CALLS:
        return True
    if isinstance(call.func, ast.Attribute) and call.func.attr == "write":
        return True
    return False


def _names_assigned_in(nodes: List[ast.stmt]) -> Set[str]:
    assigned: Set[str] = set()
    for stmt in nodes:
        for node in _walk_same_scope(stmt):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                assigned.add(node.target.id)
    return assigned


@register_rule
class UnseededRandomRule(Rule):
    """Module-level ``random`` / ``numpy.random`` draws are unseeded.

    Every stochastic component must take an explicit seed or stream —
    derive independent streams with ``repro.sim.randomness.derive_seed``
    or ``SeededRandom.child`` — so that replay never depends on global
    interpreter state or call interleaving.
    """

    rule_id = "det-unseeded-random"
    pack = "determinism"
    description = "unseeded random/numpy.random module-level call"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.call_qualname(node)
            if name is None or not _resolved_via_import(ctx, node.func):
                continue
            flagged = None
            if name.startswith("random.") and name.split(".", 1)[1] in _RANDOM_DRAWS:
                flagged = name
            elif name.startswith("numpy.random.") and not name.endswith(
                (".Generator", ".RandomState", ".default_rng", ".SeedSequence")
            ):
                flagged = name
            if flagged is not None:
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"call to {flagged}() draws from the unseeded global stream; "
                    f"use an explicit SeededRandom/Generator derived via "
                    f"repro.sim.randomness.derive_seed",
                )


@register_rule
class SetIterationRule(Rule):
    """Unsorted iteration over a set feeding an ordering-sensitive sink.

    Set iteration order depends on element hashes and insertion history;
    when it feeds list construction, edge construction, accumulation,
    ``yield`` or serialization, two equal networks can produce different
    bytes.  Dict views are insertion-ordered, so they are only flagged
    when feeding edge construction or serialization directly (their
    insertion order follows the history of the data).
    """

    rule_id = "det-set-iteration"
    pack = "determinism"
    description = "unsorted set/dict-view iteration into an ordering-sensitive sink"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_for(ctx, node)
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                yield from self._check_comp(ctx, node)
            elif isinstance(node, ast.Call):
                yield from self._check_conversion(ctx, node)

    def _check_for(self, ctx: ModuleContext, loop: ast.For) -> Iterator[Finding]:
        scope = ctx.enclosing_scope(loop)
        kind = ctx.is_unordered_source(loop.iter, scope)
        if kind is None:
            return
        sink = self._body_sink(ctx, loop.body, kind)
        if sink is not None:
            yield ctx.finding(
                self.rule_id,
                loop.iter,
                f"iteration over a {kind} feeds an ordering-sensitive sink "
                f"({sink}); wrap the iterable in sorted(...)",
            )

    def _body_sink(
        self, ctx: ModuleContext, body: List[ast.stmt], kind: str
    ) -> Optional[str]:
        local_names = _names_assigned_in(body)
        for stmt in body:
            for node in _walk_same_scope(stmt):
                if isinstance(node, ast.Call):
                    if _is_serialize_call(ctx, node):
                        return "serialization"
                    if isinstance(node.func, ast.Attribute):
                        attr = node.func.attr
                        if attr in ("add_edge", "add_edges_from"):
                            return "edge construction"
                        if kind == "set" and attr in _LIST_MUTATORS:
                            target = node.func.value
                            if isinstance(target, ast.Name) and target.id not in local_names:
                                return f"list .{attr}()"
                elif kind == "set" and isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return "yield"
        return None

    def _check_comp(self, ctx: ModuleContext, comp: ast.AST) -> Iterator[Finding]:
        scope = ctx.enclosing_scope(comp)
        for generator in comp.generators:
            if ctx.is_unordered_source(generator.iter, scope) != "set":
                continue
            parent = ctx.parent(comp)
            if isinstance(comp, ast.ListComp):
                if isinstance(parent, ast.Call) and ctx.call_qualname(parent) == "sorted":
                    continue
                yield ctx.finding(
                    self.rule_id,
                    generator.iter,
                    "list built from unsorted set iteration; the element order "
                    "is not deterministic — iterate sorted(...)",
                )
            elif isinstance(parent, ast.Call):
                consumer = ctx.call_qualname(parent)
                if consumer in ("list", "tuple") or _is_serialize_call(ctx, parent) or (
                    isinstance(parent.func, ast.Attribute) and parent.func.attr == "join"
                ):
                    yield ctx.finding(
                        self.rule_id,
                        generator.iter,
                        "ordered consumer driven by unsorted set iteration; "
                        "iterate sorted(...)",
                    )

    def _check_conversion(self, ctx: ModuleContext, call: ast.Call) -> Iterator[Finding]:
        if ctx.call_qualname(call) not in ("list", "tuple") or len(call.args) != 1:
            return
        if call.keywords:
            return
        scope = ctx.enclosing_scope(call)
        if ctx.is_unordered_source(call.args[0], scope) != "set":
            return
        if ctx.sorted_guard(call):
            return
        yield ctx.finding(
            self.rule_id,
            call,
            "list()/tuple() of a set captures nondeterministic iteration "
            "order; use sorted(...)",
        )


@register_rule
class FloatSumOrderRule(Rule):
    """Float accumulation in container-iteration order.

    Float addition is not associative: summing the same values in a
    different order can change the result bit-for-bit.  ``sum()`` over a
    set or dict view — or a loop accumulator driven by one — therefore
    ties the output bytes to insertion history.  Sum over
    ``sorted(...)`` (or use ``math.fsum``, which is order-independent).
    """

    rule_id = "det-float-sum-order"
    pack = "determinism"
    description = "sum()/accumulation over unordered or insertion-ordered iteration"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and ctx.call_qualname(node) == "sum":
                yield from self._check_sum(ctx, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_loop(ctx, node)

    def _comp_list_names(self, ctx: ModuleContext, scope: ast.AST) -> Set[str]:
        """Names assigned a list comprehension over an unordered source."""
        names: Set[str] = set()
        body = getattr(scope, "body", [])
        for stmt in body:
            for node in _walk_same_scope(stmt):
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                target = node.targets[0]
                value = node.value
                if not isinstance(target, ast.Name):
                    continue
                # ``xs = [...] or [0.0]`` still binds the comprehension's order.
                candidates = value.values if isinstance(value, ast.BoolOp) else [value]
                for candidate in candidates:
                    if isinstance(candidate, ast.ListComp) and any(
                        ctx.is_unordered_source(generator.iter, scope) is not None
                        for generator in candidate.generators
                    ):
                        names.add(target.id)
        return names

    def _check_sum(self, ctx: ModuleContext, call: ast.Call) -> Iterator[Finding]:
        if not call.args:
            return
        argument = call.args[0]
        scope = ctx.enclosing_scope(call)
        source = None
        if isinstance(argument, (ast.GeneratorExp, ast.ListComp)):
            for generator in argument.generators:
                source = ctx.is_unordered_source(generator.iter, scope)
                if source is not None:
                    break
        elif isinstance(argument, ast.Name):
            if argument.id in self._comp_list_names(ctx, scope):
                source = "list built from unordered iteration"
        else:
            source = ctx.is_unordered_source(argument, scope)
        if source is not None:
            yield ctx.finding(
                self.rule_id,
                call,
                f"sum() accumulates floats in {source} order, which is not "
                f"canonical; sum over sorted(...) items (or use math.fsum)",
            )

    def _check_loop(self, ctx: ModuleContext, loop: ast.For) -> Iterator[Finding]:
        scope = ctx.enclosing_scope(loop)
        if ctx.is_unordered_source(loop.iter, scope) is None:
            return
        # A name (re)assigned inside the body is per-iteration state, not an
        # accumulator carrying float error across iterations.
        loop_locals = _names_assigned_in(loop.body)
        for stmt in loop.body:
            for node in _walk_same_scope(stmt):
                if (
                    isinstance(node, ast.AugAssign)
                    and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult))
                    and isinstance(node.target, ast.Name)
                    and node.target.id not in loop_locals
                ):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "accumulator updated in unordered iteration order; "
                        "iterate sorted(...) so float accumulation is canonical",
                    )
                    return


@register_rule
class OrderTiebreakRule(Rule):
    """``id()``-based or insertion-order-dependent tie-breaking.

    A best-so-far update that compares only part of the stored value
    (``if k not in best or d < best[k][0]: best[k] = (d, node)``) keeps
    the *first-seen* candidate on ties, so the winner depends on
    enumeration order.  Compare full tuples with an explicit final
    tie-break key (e.g. the node id).  ``id()`` values change run to run
    and must never order anything.
    """

    rule_id = "det-order-tiebreak"
    pack = "determinism"
    description = "id()-based or first-seen tie-breaking"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = ctx.call_qualname(node)
                if name == "id" and "id" not in ctx.imports:
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "id() is an ephemeral memory address; ordering or keying "
                        "by it diverges across runs and processes",
                    )
                elif name in ("min", "max"):
                    yield from self._check_min_max(ctx, node)
            elif isinstance(node, ast.If):
                yield from self._check_best_so_far(ctx, node)

    def _check_min_max(self, ctx: ModuleContext, call: ast.Call) -> Iterator[Finding]:
        if not call.args or not any(kw.arg == "key" for kw in call.keywords):
            return
        scope = ctx.enclosing_scope(call)
        if ctx.is_unordered_source(call.args[0], scope) == "set":
            yield ctx.finding(
                self.rule_id,
                call,
                "min()/max() with a key over a set returns the first-seen "
                "element on ties; break ties explicitly (e.g. key=(value, id))",
            )

    def _check_best_so_far(self, ctx: ModuleContext, node: ast.If) -> Iterator[Finding]:
        test = node.test
        if not (isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or)):
            return
        if len(test.values) != 2:
            return
        membership, comparison = test.values
        if not (
            isinstance(membership, ast.Compare)
            and len(membership.ops) == 1
            and isinstance(membership.ops[0], ast.NotIn)
            and isinstance(membership.comparators[0], ast.Name)
        ):
            return
        container = membership.comparators[0].id
        if not (
            isinstance(comparison, ast.Compare)
            and len(comparison.ops) == 1
            and isinstance(comparison.ops[0], (ast.Lt, ast.Gt, ast.LtE, ast.GtE))
        ):
            return
        operands = [comparison.left] + list(comparison.comparators)
        partial = any(
            isinstance(operand, ast.Subscript)
            and isinstance(operand.value, ast.Subscript)
            and isinstance(operand.value.value, ast.Name)
            and operand.value.value.id == container
            for operand in operands
        )
        if not partial:
            return
        assigns_back = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id == container
                for target in stmt.targets
            )
            for stmt in node.body
        )
        if assigns_back:
            yield ctx.finding(
                self.rule_id,
                node.test,
                f"best-so-far update into {container!r} compares one component "
                f"of the stored value, so equal keys keep the first-seen "
                f"candidate; compare full tuples with a deterministic final "
                f"tie-break (e.g. the node id)",
            )


@register_rule
class WallClockRule(Rule):
    """Wall-clock reads inside simulation/service hot paths.

    Simulated time comes from the event engine; real-clock reads leak
    nondeterminism into anything they touch.  Justified measurement code
    (profiling, latency histograms) suppresses this rule inline with a
    ``-- justification``.
    """

    rule_id = "det-wall-clock"
    pack = "determinism"
    description = "wall-clock read in a determinism-scoped path"
    default_scopes = (
        "repro/sim",
        "repro/scenarios",
        "repro/service",
        "repro/traffic",
        "repro/core",
    )

    _CLOCKS = {
        "datetime.date.today",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "time.clock",
        "time.gmtime",
        "time.localtime",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.time",
        "time.time_ns",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                continue
            parent = ctx.parent(node)
            if isinstance(parent, ast.Attribute):
                continue  # flag the full chain once, at its outermost node
            name = ctx.qualname(node)
            if name in self._CLOCKS and _resolved_via_import(ctx, node):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{name} reads the wall clock inside a determinism-scoped "
                    f"path; simulated time must come from the event engine "
                    f"(suppress with a justification if this is measurement "
                    f"code by design)",
                )
