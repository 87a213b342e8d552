"""Checkers for the design-smell rules.

Design predicates that upstream tools define over whole projects are
evaluated over the single compilation unit under analysis; when one file
cannot exhibit a smell the predicate yields nothing.  Hierarchy rules apply
only when the unit declares several types or uses extends/implements, which
keeps them silent on lone classes.
"""

from __future__ import annotations

import re

from ..code_metrics import cyclomatic_complexity
from ..java_syntax import nodes as n
from .context import FileFacts, RuleContext, TypeMembers, expr_source_name, reachable, strip_parens
from .model import SmellRule, Violation

_ACCESSOR = re.compile(r"^(get|set|is)[A-Z_$].*")


# ---- modularity -------------------------------------------------------------

def check_god_class(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    max_members = rule.threshold("max_members")
    max_foreign = rule.threshold("max_foreign_accesses")
    out = []
    for decl in ctx.facts.classes:
        members = ctx.facts.type_members(decl)
        size = len(members.methods) + len(members.field_names)
        if size <= max_members:
            continue
        foreign = _foreign_receivers(ctx.facts, decl)
        if len(foreign) > max_foreign:
            out.append(
                ctx.violation(
                    rule, decl.name_span,
                    f"'{decl.name}' has {size} members and touches {len(foreign)} foreign objects",
                )
            )
    return out


def _foreign_receivers(facts: FileFacts, decl: n.TypeDecl) -> set[str]:
    """Distinct simple-name receivers of member accesses, excluding this/super."""
    out: set[str] = set()
    for member in decl.members:
        if isinstance(member, n.TypeDecl):
            continue
        for node in facts.of_type(n.MethodCall, n.FieldAccess, within=member):
            receiver = node.receiver
            if receiver is None:
                continue
            base = strip_parens(receiver)
            if isinstance(base, n.Name) and base.identifier not in (decl.name,):
                out.add(base.identifier)
    return out


def check_data_class(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    min_accessors = rule.threshold("min_accessors")
    out = []
    for decl in ctx.facts.classes:
        methods, _, fields, _ = ctx.facts.type_members(decl)
        if not fields or len(methods) < min_accessors:
            continue
        if all(_is_accessor(m) for m in methods):
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' only stores data behind accessors"))
    return out


def _is_accessor(m: n.MethodDecl) -> bool:
    if not _ACCESSOR.match(m.name) or m.body is None:
        return False
    return len(m.body.statements) <= 1


def check_too_many_methods(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_methods")
    out = []
    for decl in ctx.facts.classes:
        count = len(ctx.facts.type_members(decl).methods)
        if count > limit:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' declares {count} methods (max {limit})"))
    return out


def check_too_many_fields(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_fields")
    out = []
    for decl in ctx.facts.classes:
        count = len(ctx.facts.type_members(decl).field_names)
        if count > limit:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' declares {count} fields (max {limit})"))
    return out


def _utility_shaped(decl: n.TypeDecl, members: TypeMembers) -> bool:
    """True when decl is not abstract, every field and method is static,
    and its constructors, if any, are not all private."""
    if decl.is_abstract:
        return False
    for f in members.fields:
        if "static" not in f.modifiers:
            return False
    for m in members.methods:
        if not m.is_static:
            return False
    ctors = members.constructors
    return not ctors or not all("private" in c.modifiers for c in ctors)


def check_use_utility_class(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl in ctx.facts.classes:
        members = ctx.facts.type_members(decl)
        if members.methods and _utility_shaped(decl, members):
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' has only static methods; make it a utility class"))
    return out


def check_hide_utility_class_constructor(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl in ctx.facts.classes:
        members = ctx.facts.type_members(decl)
        if (members.fields or members.methods) and _utility_shaped(decl, members):
            out.append(ctx.violation(rule, decl.name_span, f"utility class '{decl.name}' should hide its constructor"))
    return out


def check_broken_modularization(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl in ctx.facts.classes:
        methods, constructors, fields, _ = ctx.facts.type_members(decl)
        instance_fields = [f for f in fields if "static" not in f.modifiers]
        if instance_fields and not methods and not constructors:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' holds data with no behavior"))
    return out


def check_cyclically_dependent_modularization(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    edges = ctx.facts.edges
    in_cycle = {name for name, succs in edges.items() if name in reachable(edges.__getitem__, succs)}
    out = []
    for decl in ctx.facts.types:
        if decl.name in in_cycle:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' takes part in a reference cycle"))
    return out


def check_hub_like_modularization(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    min_in = rule.threshold("min_fan_in")
    min_out = rule.threshold("min_fan_out")
    edges = ctx.facts.edges
    fan_in: dict[str, int] = {name: 0 for name in edges}
    for src, targets in edges.items():
        for t in targets:
            fan_in[t] += 1
    out = []
    for decl in ctx.facts.types:
        fi = fan_in.get(decl.name, 0)
        fo = len(edges.get(decl.name, ()))
        if fi >= min_in and fo >= min_out:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' is a hub (fan-in {fi}, fan-out {fo})"))
    return out


def check_insufficient_modularization(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    max_public = rule.threshold("max_public_methods")
    max_total = rule.threshold("max_total_methods")
    max_cyclo = rule.threshold("max_method_cyclomatic")
    out = []
    for decl in ctx.facts.classes:
        methods = ctx.facts.type_members(decl).methods
        public_count = sum(1 for m in methods if "public" in m.modifiers)
        worst = max(
            (cyclomatic_complexity(m.body, ctx.facts.subtree) for m in methods if m.body is not None), default=0
        )
        if public_count > max_public or len(methods) > max_total or worst > max_cyclo:
            out.append(
                ctx.violation(
                    rule, decl.name_span,
                    f"'{decl.name}' is too large or complex for one module "
                    f"(public {public_count}, total {len(methods)}, worst complexity {worst})",
                )
            )
    return out


def check_law_of_demeter(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    max_chain = rule.threshold("max_chain")
    out = []
    flagged: set[int] = set()
    for node in ctx.facts.of_type(n.MethodCall):
        if id(node) in flagged:
            continue
        chain = [node]
        current = node.receiver
        while isinstance(current, n.MethodCall):
            chain.append(current)
            current = current.receiver
        if len(chain) < max_chain:
            continue
        for link in chain:
            flagged.add(id(link))
        if _is_builder_chain(chain, current):
            continue
        out.append(ctx.violation(rule, node.span, f"call chain of {len(chain)} hops"))
    return out


def _is_builder_chain(chain: list[n.MethodCall], base: n.Expr | None) -> bool:
    names = [c.name for c in chain]
    if len(set(names)) == 1:
        return True  # fluent same-method chains (append().append()...)
    if any("builder" in name.lower() for name in names):
        return True
    if base is not None:
        b = strip_parens(base)
        if isinstance(b, n.Name) and "builder" in b.identifier.lower():
            return True
        if isinstance(b, n.NewObject) and "builder" in b.type.simple_name.lower():
            return True
        if isinstance(b, n.ThisExpr):
            return True
    return False


def check_coupling_between_objects(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_coupling")
    out = []
    for decl, names in ctx.facts.class_refs:
        count = len(names)
        if count > limit:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' couples to {count} types (max {limit})"))
    return out


def check_class_fan_out(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_fan_out")
    out = []
    for decl, names in ctx.facts.class_refs:
        count = len(names)
        if count > limit:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' fans out to {count} types (max {limit})"))
    return out


# ---- encapsulation -----------------------------------------------------------

def check_visibility_modifier(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl, member in ctx.facts.fields:
        if decl.kind != "interface" and not member.is_static_final and "private" not in member.modifiers:
            names = ", ".join(d.name for d in member.declarators)
            out.append(ctx.violation(rule, member.span, f"field '{names}' must be private"))
    return out


def check_excessive_public_count(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    limit = rule.threshold("max_public")
    out = []
    for decl in ctx.facts.classes:
        methods, _, fields, _ = ctx.facts.type_members(decl)
        count = sum(1 for m in methods if "public" in m.modifiers)
        count += sum(len(f.declarators) for f in fields if "public" in f.modifiers)
        if count > limit:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' exposes {count} public members (max {limit})"))
    return out


def check_deficient_encapsulation(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl in ctx.facts.classes:
        exposed = [
            d.name
            for f in ctx.facts.type_members(decl).fields
            if "public" in f.modifiers and not f.is_static_final
            for d in f.declarators
        ]
        if exposed:
            out.append(
                ctx.violation(rule, decl.name_span, f"'{decl.name}' exposes public fields: {', '.join(exposed)}")
            )
    return out


def check_final_parameters(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for _, member in ctx.facts.methods:
        for p in member.params:
            if not p.is_final:
                out.append(ctx.violation(rule, p.name_span, f"parameter '{p.name}' should be final"))
    return out


def check_final_class(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl in ctx.facts.classes:
        ctors = ctx.facts.type_members(decl).constructors
        if ctors and all("private" in c.modifiers for c in ctors) and "final" not in decl.modifiers:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' has only private constructors; declare it final"))
    return out


def check_hidden_field(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl, member in ctx.facts.methods:
        fields = ctx.facts.type_members(decl).field_names
        if not fields:
            continue
        for p in member.params:
            if p.name in fields:
                out.append(ctx.violation(rule, p.name_span, f"parameter '{p.name}' shadows a field"))
        if member.body is not None:
            for _, d, _ in ctx.facts.local_decls(member.body):
                if d.name in fields:
                    out.append(ctx.violation(rule, d.name_span, f"local '{d.name}' shadows a field"))
    return out


def check_unexploited_encapsulation(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    min_checks = rule.threshold("min_type_checks")
    out = []
    for _, member in ctx.facts.methods:
        if member.body is None:
            continue
        per_operand: dict[str, int] = {}
        for node in ctx.facts.of_type(n.InstanceOf, within=member.body):
            name = expr_source_name(node.expr)
            if name:
                per_operand[name] = per_operand.get(name, 0) + 1
        for name, count in sorted(per_operand.items()):
            if count >= min_checks:
                out.append(
                    ctx.violation(
                        rule, member.name_span,
                        f"'{member.name}' type-checks '{name}' {count} times instead of using polymorphism",
                    )
                )
                break
    return out


# ---- hierarchy ---------------------------------------------------------------

def check_broken_hierarchy(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    if not ctx.facts.hierarchy_applies:
        return []
    return _overriding_violations(ctx, rule, want_empty=True, reason="silently drops inherited behavior")


def check_rebellious_hierarchy(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    if not ctx.facts.hierarchy_applies:
        return []
    return _overriding_violations(ctx, rule, want_empty=False, reason="rejects the supertype contract by throwing")


def _overriding_violations(ctx: RuleContext, rule: SmellRule, want_empty: bool, reason: str) -> list[Violation]:
    declared = ctx.facts.by_name
    out = []
    for decl in ctx.facts.classes:
        if not decl.extends:
            continue
        parent = declared.get(decl.extends[0].simple_name)
        if parent is None:
            continue
        parent_sigs = {(m.name, len(m.params)) for m in ctx.facts.type_members(parent).methods}
        for m in ctx.facts.type_members(decl).methods:
            if (m.name, len(m.params)) not in parent_sigs or m.body is None:
                continue
            stmts = m.body.statements
            if want_empty and not stmts:
                out.append(ctx.violation(rule, m.name_span, f"override '{m.name}' {reason}"))
            elif not want_empty and len(stmts) == 1 and isinstance(stmts[0], n.ThrowStmt):
                out.append(ctx.violation(rule, m.name_span, f"override '{m.name}' {reason}"))
    return out


def check_cyclic_hierarchy(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    if not ctx.facts.hierarchy_applies:
        return []
    subtypes = ctx.facts.subtypes
    out = []
    for decl in ctx.facts.types:
        subs = reachable(subtypes.__getitem__, subtypes[decl.name])
        if not subs:
            continue
        used = ctx.facts.simple_names(decl) | {node.simple_name for node in ctx.facts.of_type(n.TypeRef, within=decl)}
        used -= {s.simple_name for s in decl.extends + decl.implements}
        hits = sorted(subs & used)
        if hits:
            out.append(ctx.violation(rule, decl.name_span, f"supertype '{decl.name}' references subtype '{hits[0]}'"))
    return out


def check_deep_hierarchy(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    if not ctx.facts.hierarchy_applies:
        return []
    limit = rule.threshold("max_depth")
    out = []
    for decl in ctx.facts.classes:
        depth = ctx.facts.inheritance_depth(decl)
        if depth > limit:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' sits {depth} levels deep (max {limit})"))
    return out


def check_missing_hierarchy(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    if len(ctx.facts.types) < 2:
        return []
    min_branches = rule.threshold("min_branches")
    out = []
    for _, member in ctx.facts.methods:
        if member.body is not None and _has_tag_dispatch(ctx.facts, member.body, min_branches):
            out.append(
                ctx.violation(rule, member.name_span, f"'{member.name}' dispatches on a tag value; consider a hierarchy")
            )
    return out


def _has_tag_dispatch(facts: FileFacts, body: n.Block, min_branches: int) -> bool:
    for node in facts.of_type(n.SwitchStmt, n.IfStmt, within=body):
        if isinstance(node, n.SwitchStmt):
            selector = strip_parens(node.selector)
            if isinstance(selector, (n.Name, n.FieldAccess)) and node.case_label_count() >= min_branches:
                return True
        else:
            if _equality_chain_length(node) >= min_branches:
                return True
    return False


def _equality_chain_length(stmt: n.IfStmt) -> int:
    operands: list[str] = []
    current: n.Stmt | None = stmt
    while isinstance(current, n.IfStmt):
        name = _equality_operand(current.cond)
        if name is None:
            return 0
        operands.append(name)
        current = current.orelse
    if len(set(operands)) == 1:
        return len(operands)
    return 0


def _equality_operand(cond: n.Expr) -> str | None:
    e = strip_parens(cond)
    if isinstance(e, n.Binary) and e.op == "==":
        for side, other in ((e.left, e.right), (e.right, e.left)):
            o = strip_parens(other)
            if isinstance(o, n.Literal) or isinstance(o, n.Name) and o.identifier.isupper():
                return expr_source_name(side)
        return None
    if isinstance(e, n.MethodCall) and e.name == "equals" and e.receiver is not None and len(e.args) == 1:
        return expr_source_name(e.receiver)
    return None


def check_multipath_hierarchy(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    if not ctx.facts.hierarchy_applies:
        return []
    facts = ctx.facts

    def parents(name: str) -> list[str]:
        return facts.supertypes(facts.by_name[name])

    out = []
    for decl in facts.types:
        direct = facts.supertypes(decl)
        if len(direct) < 2:
            continue
        reached: dict[str, int] = {}
        for p in direct:
            for ancestor in reachable(parents, [p]):
                reached[ancestor] = reached.get(ancestor, 0) + 1
        shared = sorted(a for a, count in reached.items() if count >= 2)
        if shared:
            out.append(
                ctx.violation(rule, decl.name_span, f"'{decl.name}' inherits '{shared[0]}' through multiple paths")
            )
    return out


def check_wide_hierarchy(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    if not ctx.facts.hierarchy_applies:
        return []
    limit = rule.threshold("max_width")
    subtypes = ctx.facts.subtypes
    out = []
    for decl in ctx.facts.types:
        count = len(subtypes[decl.name])
        if count > limit:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' has {count} direct subtypes (max {limit})"))
    return out


def check_dependency_cycles_between_packages(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    if not ctx.facts.hierarchy_applies:
        return []
    pkg = ctx.unit.package
    if pkg is None:
        return []
    out = []
    for imp in ctx.unit.imports:
        container = imp.name if imp.on_demand else imp.name.rsplit(".", 1)[0]
        if container == pkg.name:
            out.append(ctx.violation(rule, imp.span, f"import cycles back into package '{pkg.name}'"))
    return out


# ---- abstraction --------------------------------------------------------------

def check_imperative_abstraction(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    max_fields = rule.threshold("max_fields")
    out = []
    for decl in ctx.facts.classes:
        if decl.is_abstract:
            continue
        members = ctx.facts.type_members(decl)
        if len(members.methods) != 1:
            continue
        m = members.methods[0]
        field_count = len(members.field_names)
        if "public" in m.modifiers and not m.is_static and field_count <= max_fields:
            out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' wraps the single operation '{m.name}'"))
    return out


def check_multifaceted_abstraction(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl in ctx.facts.classes:
        members = ctx.facts.type_members(decl)
        fields = [d.name for f in members.fields if "static" not in f.modifiers for d in f.declarators]
        methods = [m for m in members.methods if m.body is not None]
        if len(fields) < 2 or len(methods) < 2:
            continue
        components = _usage_components(ctx.facts, fields, methods)
        full = [c for c in components if c["fields"] and c["methods"]]
        if len(full) >= 2:
            out.append(
                ctx.violation(rule, decl.name_span, f"'{decl.name}' bundles {len(full)} unrelated responsibilities")
            )
    return out


def _usage_components(facts: FileFacts, fields: list[str], methods: list[n.MethodDecl]) -> list[dict]:
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        parent[find(a)] = find(b)

    field_set = set(fields)
    uses: dict[str, set[str]] = {}
    for m in methods:
        key = f"m:{m.name}/{len(m.params)}"
        shadowed = {p.name for p in m.params}
        shadowed.update(d.name for _, d, _ in facts.local_decls(m.body))
        plain = facts.simple_names(m.body)
        this_acc = {
            node.name for node in facts.of_type(n.FieldAccess, within=m.body) if isinstance(node.receiver, n.ThisExpr)
        }
        used = {f for f in field_set if (f in plain and f not in shadowed) or f in this_acc}
        uses[key] = used
        for f in used:
            union(key, f"f:{f}")

    groups: dict[str, dict] = {}
    for f in fields:
        root = find(f"f:{f}")
        groups.setdefault(root, {"fields": set(), "methods": set()})["fields"].add(f)
    for m in uses:
        root = find(m)
        groups.setdefault(root, {"fields": set(), "methods": set()})["methods"].add(m)
    return list(groups.values())


def check_unnecessary_abstraction(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    out = []
    for decl in ctx.facts.classes:
        fields = ctx.facts.type_members(decl).fields
        if len(fields) < len(decl.members):  # a method, constructor, initializer or nested type
            continue
        instance_fields = [f for f in fields if "static" not in f.modifiers]
        if instance_fields:
            continue
        out.append(ctx.violation(rule, decl.name_span, f"'{decl.name}' has no behavior and no instance data"))
    return out


def check_unutilized_abstraction(ctx: RuleContext, rule: SmellRule) -> list[Violation]:
    types = ctx.facts.types
    if len(types) < 2:
        return []
    first_top_level = ctx.unit.types[0].name if ctx.unit.types else None
    out = []
    for decl in types:
        if decl.name == first_top_level or decl.visibility() == "public":
            continue
        if _referenced_outside(ctx, decl):
            continue
        out.append(ctx.violation(rule, decl.name_span, f"type '{decl.name}' is never used in this file"))
    return out


def _referenced_outside(ctx: RuleContext, decl: n.TypeDecl) -> bool:
    """Whether a token spelling the type's name lies outside its declaration."""
    span = decl.span
    start, end = ctx.offset_of(span.start_line, span.start_col), ctx.offset_of(span.end_line, span.end_col)
    toks = ctx.tokens
    name = decl.name
    return any(
        not start <= offset <= end - len(name)
        for lexeme, offset in zip(toks.lexemes, toks.offsets)
        if lexeme == name
    )
