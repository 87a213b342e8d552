"""Method metrics and class structure: counting rules, invariances, and guard rails."""

from __future__ import annotations

import pytest

from smellscore.code_metrics import (
    AbstractBodyError,
    MethodMetrics,
    cognitive_complexity,
    cyclomatic_complexity,
    method_metrics,
)
from smellscore.java_syntax import nodes as n
from smellscore.java_syntax import parse_text
from smellscore.rules.context import FileFacts


def method_of(body: str, params: str = "int a, int b"):
    out = parse_text("T.java", "class T {\n    void m(%s) {\n%s\n    }\n}\n" % (params, body))
    assert out.ok, out.failure
    return out.ast.types[0].methods[0]


class TestMethodMetrics:
    def test_straight_line(self):
        m = method_metrics(method_of("        int x = 0;"))
        assert m.cyclomatic == 1
        assert m.cognitive == 0

    def test_if_containing_while(self):
        m = method_metrics(method_of("        if (a > 0) {\n            while (b > 0) {\n                b--;\n            }\n        }"))
        assert m.cyclomatic == 3
        assert m.cognitive == 3  # if, while, plus one nesting increment

    def test_switch_case_labels(self):
        body = (
            "        switch (a) {\n"
            "            case 1:\n                break;\n"
            "            case 2:\n                break;\n"
            "            case 3:\n                break;\n"
            "            default:\n                break;\n"
            "        }"
        )
        m = method_metrics(method_of(body))
        assert m.cyclomatic == 4  # one per case label, default excluded

    def test_boolean_operators_count(self):
        m = method_metrics(method_of("        if (a > 0 && b > 0 || a < -5) {\n            return;\n        }"))
        assert m.cyclomatic == 4  # if, &&, ||
        assert m.cognitive == 3  # if plus two operator runs

    def test_ternary_counts(self):
        m = method_metrics(method_of("        int x = a > b ? a : b;"))
        assert m.cyclomatic == 2

    def test_catch_counts(self):
        m = method_metrics(method_of("        try {\n            run();\n        } catch (Exception e) {\n            stop();\n        }"))
        assert m.cyclomatic == 2
        assert m.cognitive == 1

    def test_else_if_chain_cognitive(self):
        body = (
            "        if (a > 2) {\n            a = 0;\n"
            "        } else if (b > 2) {\n            b = 0;\n"
            "        } else {\n            a = b;\n        }"
        )
        m = method_metrics(method_of(body))
        assert m.cyclomatic == 3
        assert m.cognitive == 3  # if +1, else-if +1, else +1

    def test_loc_is_physical_body_lines(self):
        m = method_metrics(method_of("        int x = 0;"))
        # opening brace line through closing brace line
        assert m.loc == 3

    def test_bodiless_method_raises(self):
        out = parse_text("T.java", "abstract class T { abstract void m(); }")
        with pytest.raises(AbstractBodyError):
            method_metrics(out.ast.types[0].methods[0])

    def test_comment_and_whitespace_invariance(self):
        plain = method_of("        if (a > 0) {\n            b = 1;\n        }")
        commented = method_of("        // guard\n        if (a > 0) {\n\n            b = 1; /* set */\n        }")
        assert cyclomatic_complexity(plain.body) == cyclomatic_complexity(commented.body)
        assert cognitive_complexity(plain.body) == cognitive_complexity(commented.body)

    def test_lambda_nesting_increments(self):
        m = method_metrics(method_of("        items.forEach(s -> {\n            if (a > 0) {\n                run(s);\n            }\n        });"))
        # lambda adds nesting but no structural increment: if at nesting 1
        assert m.cognitive == 2

    def test_cognitive_increments_skip_anonymous_and_local_classes_and_case_labels(self):
        body = (
            "        Runnable r = new Runnable() { public void run() { if (a > 0) { b = 1; } } };\n"
            "        class L { void q() { while (a > 0) { a--; } } }\n"
            "        switch (a) { case 1: b = a > 0 && b > 0 ? 1 : 2; break; default: break; }"
        )
        # switch +1; in its arm (nesting 1): the && run +1, the ternary +2
        assert method_metrics(method_of(body)).cognitive == 4

    def test_cognitive_reads_boolean_runs_through_parentheses_and_not(self):
        # (a && b) && !(c && d) is one run; || starts a second, f(a && b) a third
        m = method_metrics(method_of("        boolean x = (a > 0 && b > 0) && !(a < 9 && b < 9) || f(a > 1 && b > 1);"))
        assert m.cognitive == 3


# A chain of N links: an else-if chain scores +1 per branch; a ternary nested
# in each false arm scores 1 + its nesting, so N + N(N-1)/2.
LONG_CHAIN = 10_000
LONG_CHAINS = {
    "else-if": ("if (a) { x(); }" + " else if (a) { x(); }" * (LONG_CHAIN - 1), LONG_CHAIN),
    "ternary": ("return " + "a ? 1 : " * LONG_CHAIN + "2;", LONG_CHAIN + LONG_CHAIN * (LONG_CHAIN - 1) // 2),
}


@pytest.fixture(scope="module", params=sorted(LONG_CHAINS))
def long_chain(request):
    """(source, expected cognitive complexity, its tree) for a 10,000-link chain."""
    body, expected = LONG_CHAINS[request.param]
    text = "class A {\n    int m(boolean a) {\n        %s\n    }\n}\n" % body
    out = parse_text("A.java", text)
    assert out.ok, out.failure
    return text, expected, out.ast


class TestLongChains:
    """The parser reads else-if and ternary chains of any length in a loop;
    what walks the tree afterwards must return on them too."""

    def test_metrics_return(self, long_chain):
        _, expected, unit = long_chain
        method = unit.types[0].methods[0]
        assert cognitive_complexity(method.body) == expected
        assert method_metrics(method) == MethodMetrics(name="m", loc=3, cyclomatic=LONG_CHAIN + 1, cognitive=expected)

    def test_repr_and_eq_return(self, long_chain):
        text, _, unit = long_chain
        text_repr = repr(unit)
        assert text_repr.startswith("CompilationUnit(span=")
        assert text_repr.count("IfStmt(") + text_repr.count("Ternary(") == LONG_CHAIN
        again = parse_text("A.java", text).ast
        assert again == unit
        deepest = [node for node in n.walk(again) if isinstance(node, n.Name)][-1]
        deepest.identifier = "b"
        assert again != unit


def fan_out(text: str) -> set[str]:
    """The names ``FileFacts.referenced_type_names`` gives for the first class of ``text``."""
    out = parse_text("A.java", text)
    assert out.ok, out.failure
    return FileFacts(out.ast).referenced_type_names(out.ast.types[0])


class TestClassMetrics:
    def test_empty_class(self):
        assert fan_out("class A {}") == set()

    def test_fan_out_distinct_type_names(self):
        fields = "\n".join(f"    T{i} f{i};" for i in range(21)) + "\n    T0 again;"
        assert fan_out(f"class A {{\n{fields}\n}}\n") == {f"T{i}" for i in range(21)}

    def test_fan_out_ignores_primitives_own_name_and_type_params(self):
        text = "class A<T> { T value; int count; A next; String label; <U> U pick(U u, long[] v) { var w = u; return w; } }"
        assert fan_out(text) == {"String"}

    def test_fan_out_leaves_nested_types_to_themselves(self):
        text = "class A extends B<C> { D d; class Inner { E e; } }"
        assert fan_out(text) == {"B", "C", "D"}

    def test_inheritance_hint_within_file(self):
        out = parse_text("A.java", "class A {}\nclass B extends A {}\nclass C extends B {}\nclass D extends External {}\n")
        facts = FileFacts(out.ast)
        assert facts.inheritance_depth(facts.by_name["A"]) == 0
        assert facts.inheritance_depth(facts.by_name["C"]) == 2
        assert facts.inheritance_depth(facts.by_name["D"]) == 1

    def test_inheritance_hint_follows_classes_only(self):
        # the interface B declared last does not hide the class B
        out = parse_text("A.java", "class A {}\nclass B extends A {}\nclass C extends B {}\ninterface B {}\n")
        facts = FileFacts(out.ast)
        assert facts.by_name["B"].kind == "interface"
        assert facts.inheritance_depth(facts.by_name["C"]) == 2
