"""Per-rule fixture suite: every cataloged rule has at least one positive
fixture with an exact expected count and location, and one negative fixture
expected to stay silent.  Each case runs the engine with only its own rule,
so fixtures never need to dodge unrelated rules."""

from __future__ import annotations

from dataclasses import dataclass, field
from textwrap import dedent

import pytest

from smellscore.java_syntax import SourceFile, TokenKind, tokenize
from smellscore.rules.catalog import catalog, rule_by_id
from smellscore.smell_engine import detect_file


@dataclass
class RuleCase:
    rule_id: str
    positive: str
    expected: int
    lines: list[int]  # expected violation start lines, sorted
    negative: str
    path: str = "Fixture.java"


def _gen_method_length_case() -> RuleCase:
    body = "        i = i + 1;\n" * 149
    positive = "class A {\n    void m() {\n" + body + "    }\n}\n"
    negative = "class A {\n    void m() {\n        i = i + 1;\n    }\n}\n"
    # method signature line 2 through closing brace line 152: 151 lines > 150
    return RuleCase("method-length", positive, 1, [2], negative)


def _gen_god_class_case() -> RuleCase:
    fields = "\n".join(f"    int f{i};" for i in range(36))
    methods = "\n".join(
        f"    void m{i}() {{\n        r{i}.call();\n    }}" for i in range(6)
    )
    positive = f"class G {{\n{fields}\n{methods}\n}}\n"
    negative = "class G {\n    int f0;\n    void m0() {\n        r0.call();\n    }\n}\n"
    return RuleCase("god-class", positive, 1, [1], negative)


def _gen_too_many_methods_case() -> RuleCase:
    def cls(count: int) -> str:
        methods = "\n".join(f"    void m{i}() {{\n    }}" for i in range(count))
        return f"class A {{\n{methods}\n}}\n"

    return RuleCase("too-many-methods", cls(11), 1, [1], cls(10))


def _gen_too_many_fields_case() -> RuleCase:
    def cls(count: int) -> str:
        fields = "\n".join(f"    int f{i};" for i in range(count))
        return f"class A {{\n{fields}\n}}\n"

    return RuleCase("too-many-fields", cls(16), 1, [1], cls(15))


def _gen_excessive_public_count_case() -> RuleCase:
    def cls(count: int) -> str:
        fields = "\n".join(f"    public int f{i};" for i in range(count))
        return f"class A {{\n{fields}\n}}\n"

    return RuleCase("excessive-public-count", cls(46), 1, [1], cls(45))


def _gen_fan_out_case(rule_id: str) -> RuleCase:
    def cls(count: int) -> str:
        fields = "\n".join(f"    T{i} f{i};" for i in range(count))
        return f"class A {{\n{fields}\n}}\n"

    return RuleCase(rule_id, cls(21), 1, [1], cls(20))


def _gen_deep_hierarchy_case() -> RuleCase:
    chain = "class C0 {\n}\n" + "".join(f"class C{i} extends C{i - 1} {{\n}}\n" for i in range(1, 8))
    shallow = "class C0 {\n}\n" + "".join(f"class C{i} extends C{i - 1} {{\n}}\n" for i in range(1, 7))
    # classes are two lines each; C7 is declared on line 15
    return RuleCase("deep-hierarchy", chain, 1, [15], shallow)


def _gen_wide_hierarchy_case() -> RuleCase:
    def tree(subs: int) -> str:
        return "class Base {\n}\n" + "".join(f"class S{i} extends Base {{\n}}\n" for i in range(subs))

    return RuleCase("wide-hierarchy", tree(11), 1, [1], tree(10))


def _gen_insufficient_modularization_case() -> RuleCase:
    branches = "\n".join(f"        if (k == {i}) {{\n            k = {i};\n        }}" for i in range(11))
    positive = f"class A {{\n    void m(int k) {{\n{branches}\n    }}\n}}\n"
    negative = "class A {\n    void m(int k) {\n        if (k == 1) {\n            k = 2;\n        }\n    }\n}\n"
    return RuleCase("insufficient-modularization", positive, 1, [1], negative)


def _gen_line_length_case() -> RuleCase:
    long_line = "// " + "x" * 105
    positive = f"class A {{\n}}\n{long_line}\n"
    negative = "class A {\n}\n// short\n"
    return RuleCase("line-length", positive, 1, [3], negative)


CASES: list[RuleCase] = [
    RuleCase(
        "local-variable-name",
        dedent(
            """\
            class A {
                void m() {
                    int BAD = 3;
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                void m() {
                    int good = 3;
                }
            }
            """
        ),
    ),
    RuleCase(
        "parameter-name",
        "class A {\n    void m(int Bad) {\n    }\n}\n",
        1,
        [2],
        "class A {\n    void m(int good) {\n    }\n}\n",
    ),
    RuleCase(
        "method-name",
        "class A {\n    void BadMethod() {\n    }\n}\n",
        1,
        [2],
        "class A {\n    void goodMethod() {\n    }\n}\n",
    ),
    RuleCase(
        "class-name",
        "class badName {\n}\n",
        1,
        [1],
        "class GoodName {\n}\n",
    ),
    RuleCase(
        "generics-name",
        "class A<Type> {\n}\n",
        1,
        [1],
        "class A<T> {\n}\n",
    ),
    RuleCase(
        "abbreviation-as-word-in-name",
        "class A {\n    void m() {\n        int dataXML = 0;\n    }\n}\n",
        1,
        [3],
        "class A {\n    void m() {\n        int dataXml = 0;\n    }\n}\n",
    ),
    RuleCase(
        "abstract-class-name",
        "abstract class Worker {\n}\n",
        1,
        [1],
        "abstract class AbstractWorker {\n}\n",
    ),
    RuleCase(
        "catch-parameter-name",
        dedent(
            """\
            class A {
                void m() {
                    try {
                        run();
                    } catch (Exception BAD) {
                        report();
                    }
                }
            }
            """
        ),
        1,
        [5],
        dedent(
            """\
            class A {
                void m() {
                    try {
                        run();
                    } catch (Exception e) {
                        report();
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "constant-name",
        "class A {\n    static final int badName = 4;\n}\n",
        1,
        [2],
        "class A {\n    static final int GOOD_NAME = 4;\n}\n",
    ),
    RuleCase(
        "illegal-identifier-name",
        "class A {\n    void m() {\n        int var = 8;\n    }\n}\n",
        1,
        [3],
        "class A {\n    void m() {\n        int value = 8;\n    }\n}\n",
    ),
    RuleCase(
        "simplify-boolean-expression",
        dedent(
            """\
            class A {
                void m(boolean flag) {
                    if (flag == true) {
                        run();
                    }
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                void m(boolean flag) {
                    if (flag) {
                        run();
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "simplify-conditional",
        dedent(
            """\
            class A {
                void m(Object o) {
                    if (o != null && o instanceof String) {
                        run();
                    }
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                void m(Object o, Object s) {
                    if (o != null && s instanceof String) {
                        run();
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "simplify-boolean-return",
        dedent(
            """\
            class A {
                boolean m(int x) {
                    if (x > 0) {
                        return true;
                    } else {
                        return false;
                    }
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                int m(int x) {
                    if (x > 0) {
                        return 1;
                    } else {
                        return 2;
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "simplified-ternary",
        dedent(
            """\
            class A {
                boolean m(int x, boolean y) {
                    return x > 0 ? true : y;
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                int m(int x) {
                    return x > 0 ? 1 : 2;
                }
            }
            """
        ),
    ),
    _gen_line_length_case(),
    _gen_method_length_case(),
    RuleCase(
        "excessive-parameter-list",
        "class A {\n    void m(int a, int b, int c, int d, int e, int f, int g, int h) {\n    }\n}\n",
        1,
        [2],
        "class A {\n    void m(int a, int b, int c, int d, int e, int f, int g) {\n    }\n}\n",
    ),
    RuleCase(
        "redundant-import",
        dedent(
            """\
            package a;
            import java.lang.String;
            import a.Helper;
            import java.util.List;
            import java.util.List;
            class A {
            }
            """
        ),
        3,
        [2, 3, 5],
        dedent(
            """\
            package a;
            import java.util.List;
            class A {
            }
            """
        ),
    ),
    RuleCase(
        "redundant-modifier",
        "interface I {\n    public void m();\n}\n",
        1,
        [2],
        "interface I {\n    void m();\n}\n",
    ),
    RuleCase(
        "copy-paste",
        dedent(
            """\
            class A {
                void m() {
                    a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7; h = 8;
                }
                void n() {
                    a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7; h = 8;
                }
            }
            """
        ),
        1,
        [5],  # run starts at the "( ) {" shared by both method headers
        dedent(
            """\
            class A {
                void m() {
                    a = 1; b = 2; c = 3; d = 4; e = 5; f = 6; g = 7; h = 8;
                }
                void n() {
                    p = 9; q = 10; r = 11; s = 12; t = 13; u = 14; v = 15; w = 16;
                }
            }
            """
        ),
    ),
    RuleCase(
        "missing-switch-default",
        dedent(
            """\
            class A {
                void m(int k) {
                    switch (k) {
                        case 1:
                            break;
                    }
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                void m(int k) {
                    switch (k) {
                        case 1:
                            break;
                        default:
                            break;
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "todo-comment",
        "class A {\n    // TODO: finish this\n    void m() {\n    }\n}\n",
        1,
        [2],
        "class A {\n    // all done here\n    void m() {\n    }\n}\n",
    ),
    RuleCase(
        "empty-control-statement",
        dedent(
            """\
            class A {
                void m(int x) {
                    if (x > 0) {
                    }
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                void m(int x) {
                    if (x > 0) {
                        run();
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "empty-catch-block",
        dedent(
            """\
            class A {
                void m() {
                    try {
                        run();
                    } catch (Exception e) {
                    }
                }
            }
            """
        ),
        1,
        [5],
        dedent(
            """\
            class A {
                void m() {
                    try {
                        run();
                    } catch (Exception e) {
                        report();
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "empty-block",
        dedent(
            """\
            class A {
                void m() {
                    try {
                    } catch (Exception e) {
                        report();
                    }
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                void m() {
                    try {
                        run();
                    } catch (Exception e) {
                        report();
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "indentation",
        "class A {\n    void m() {\n          int x = 1;\n    }\n}\n",
        1,
        [3],
        "class A {\n    void m() {\n        int x = 1;\n    }\n}\n",
    ),
    RuleCase(
        "file-tab-character",
        "class A {\n\tvoid m() {\n\t}\n}\n",
        2,
        [2, 3],
        "class A {\n    void m() {\n    }\n}\n",
    ),
    RuleCase(
        "need-braces",
        dedent(
            """\
            class A {
                void m(int x) {
                    if (x > 0)
                        run();
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                void m(int x) {
                    if (x > 0) {
                        run();
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "useless-parentheses",
        "class A {\n    void m() {\n        int y = (5);\n    }\n}\n",
        1,
        [3],
        "class A {\n    void m(int a, int b, int c) {\n        int y = (a + b) * c;\n    }\n}\n",
    ),
    RuleCase(
        "left-curly",
        "class A\n{\n}\n",
        1,
        [2],
        "class A {\n}\n",
    ),
    RuleCase(
        "right-curly",
        dedent(
            """\
            class A {
                void m(int x) {
                    if (x > 0) {
                        x = 1;
                    }
                    else {
                        x = 2;
                    }
                }
            }
            """
        ),
        1,
        [5],
        dedent(
            """\
            class A {
                void m(int x) {
                    if (x > 0) {
                        x = 1;
                    } else {
                        x = 2;
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "paren-pad",
        dedent(
            """\
            class A {
                void m(int x) {
                    if ( x > 0 ) {
                        run();
                    }
                }
            }
            """
        ),
        2,
        [3, 3],
        dedent(
            """\
            class A {
                void m(int x) {
                    if (x > 0) {
                        run();
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "method-param-pad",
        "class A {\n    void m (int a) {\n    }\n}\n",
        1,
        [2],
        "class A {\n    void m(int a) {\n    }\n}\n",
    ),
    RuleCase(
        "variable-declaration-usage-distance",
        dedent(
            """\
            class A {
                void m() {
                    int d = 1;
                    a = 1;
                    b = 2;
                    c = 3;
                    e = 4;
                    f = d;
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                void m() {
                    int d = 1;
                    a = 1;
                    f = d;
                }
            }
            """
        ),
    ),
    RuleCase(
        "declaration-order",
        "class A {\n    void m() {\n    }\n    int x;\n}\n",
        1,
        [4],
        "class A {\n    int x;\n    void m() {\n    }\n}\n",
    ),
    RuleCase(
        "magic-number",
        "class A {\n    void m() {\n        int t = 86400;\n    }\n}\n",
        1,
        [3],
        "class A {\n    static final int DAY = 86400;\n    void m() {\n        int i = 0;\n    }\n}\n",
    ),
    RuleCase(
        "unused-formal-parameter",
        "class A {\n    private void m(int unused) {\n        x = 1;\n    }\n}\n",
        1,
        [2],
        "class A {\n    private void m(int used) {\n        x = used;\n    }\n}\n",
    ),
    RuleCase(
        "unused-local-variable",
        "class A {\n    void m() {\n        int dead = 1;\n        x = 2;\n    }\n}\n",
        1,
        [3],
        "class A {\n    void m() {\n        int live = 1;\n        x = live;\n    }\n}\n",
    ),
    RuleCase(
        "unused-private-field",
        "class A {\n    private int dead;\n}\n",
        1,
        [2],
        "class A {\n    private int live;\n    int get() {\n        return live;\n    }\n}\n",
    ),
    RuleCase(
        "unused-private-method",
        "class A {\n    private void helper() {\n    }\n}\n",
        1,
        [2],
        "class A {\n    private void helper() {\n    }\n    void m() {\n        helper();\n    }\n}\n",
    ),
    RuleCase(
        "unused-import",
        "import java.util.List;\nclass A {\n}\n",
        1,
        [1],
        "import java.util.List;\nclass A {\n    List items;\n}\n",
    ),
    RuleCase(
        "close-resource",
        dedent(
            """\
            class A {
                void m() {
                    FileReader r = new FileReader("x");
                    r.read();
                }
            }
            """
        ),
        1,
        [3],
        dedent(
            """\
            class A {
                void m() {
                    FileReader r = new FileReader("x");
                    r.read();
                    r.close();
                }
            }
            """
        ),
    ),
    RuleCase(
        "avoid-instantiating-objects-in-loops",
        dedent(
            """\
            class A {
                void m() {
                    for (int i = 0; i < 10; i++) {
                        Object o = new Object();
                    }
                }
            }
            """
        ),
        1,
        [4],
        dedent(
            """\
            class A {
                void m() {
                    Object o = new Object();
                    for (int i = 0; i < 10; i++) {
                        use(o);
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "comment-required",
        "public class A {\n}\n",
        1,
        [1],
        "// header comment\npublic class A {\n}\n",
    ),
    RuleCase(
        "comment-size",
        "/*\n 1\n 2\n 3\n 4\n 5\n 6\n 7\n 8\n 9\n 10\n*/\nclass A {\n}\n",
        1,
        [1],
        "/* short comment */\nclass A {\n}\n",
    ),
    RuleCase(
        "comment-content",
        "class A {\n    // temporary hack for the demo\n    void m() {\n    }\n}\n",
        1,
        [2],
        "class A {\n    // a clean explanation\n    void m() {\n    }\n}\n",
    ),
    RuleCase(
        "javadoc-method",
        "class A {\n    public void m() {\n    }\n}\n",
        1,
        [2],
        "class A {\n    /** Runs. */\n    public void m() {\n    }\n}\n",
    ),
    RuleCase(
        "javadoc-type",
        "public class A {\n}\n",
        1,
        [1],
        "/** A type. */\npublic class A {\n}\n",
    ),
    RuleCase(
        "missing-javadoc-package",
        "package a;\n",
        1,
        [1],
        "/** The a package. */\npackage a;\n",
        path="package-info.java",
    ),
    RuleCase(
        "javadoc-variable",
        "class A {\n    int x;\n}\n",
        1,
        [2],
        "class A {\n    /** Count. */\n    int x;\n}\n",
    ),
    _gen_god_class_case(),
    RuleCase(
        "data-class",
        dedent(
            """\
            class A {
                int x;
                int getX() {
                    return x;
                }
                void setX(int v) {
                    x = v;
                }
            }
            """
        ),
        1,
        [1],
        dedent(
            """\
            class A {
                int x;
                int getX() {
                    return x;
                }
                int compute(int v) {
                    y = v * 2;
                    return y + x;
                }
            }
            """
        ),
    ),
    _gen_too_many_methods_case(),
    _gen_too_many_fields_case(),
    RuleCase(
        "use-utility-class",
        "class U {\n    static int f() {\n        return 0;\n    }\n}\n",
        1,
        [1],
        "class U {\n    private U() {\n    }\n    static int f() {\n        return 0;\n    }\n}\n",
    ),
    RuleCase(
        "hide-utility-class-constructor",
        "class U {\n    static int f() {\n        return 0;\n    }\n}\n",
        1,
        [1],
        "class U {\n    private U() {\n    }\n    static int f() {\n        return 0;\n    }\n}\n",
    ),
    RuleCase(
        "broken-modularization",
        "class D {\n    int a;\n    int b;\n}\n",
        1,
        [1],
        "class D {\n    int a;\n    int get() {\n        return a;\n    }\n}\n",
    ),
    RuleCase(
        "cyclically-dependent-modularization",
        "class A {\n    B b;\n}\nclass B {\n    A a;\n}\n",
        2,
        [1, 4],
        "class A {\n    B b;\n}\nclass B {\n    int x;\n}\n",
    ),
    RuleCase(
        "hub-like-modularization",
        dedent(
            """\
            class H {
                A a;
                B b;
                C c;
            }
            class A {
                H h;
            }
            class B {
                H h;
            }
            class C {
                H h;
            }
            """
        ),
        1,
        [1],
        "class H {\n    A a;\n}\nclass A {\n    H h;\n}\n",
    ),
    _gen_insufficient_modularization_case(),
    RuleCase(
        "law-of-demeter",
        "class A {\n    void m(Order o) {\n        o.customer().address().city();\n    }\n}\n",
        1,
        [3],
        "class A {\n    void m(StringBuilder sb) {\n        sb.append(1).append(2).append(3);\n    }\n}\n",
    ),
    _gen_fan_out_case("coupling-between-objects"),
    _gen_fan_out_case("class-fan-out"),
    RuleCase(
        "visibility-modifier",
        "class A {\n    public int x;\n}\n",
        1,
        [2],
        "class A {\n    private int x;\n}\n",
    ),
    _gen_excessive_public_count_case(),
    RuleCase(
        "deficient-encapsulation",
        "class A {\n    public int x;\n}\n",
        1,
        [1],
        "class A {\n    private int x;\n}\n",
    ),
    RuleCase(
        "final-parameters",
        "class A {\n    void m(int a, int b) {\n    }\n}\n",
        2,
        [2, 2],
        "class A {\n    void m(final int a, final int b) {\n    }\n}\n",
    ),
    RuleCase(
        "final-class",
        "class A {\n    private A() {\n    }\n}\n",
        1,
        [1],
        "final class A {\n    private A() {\n    }\n}\n",
    ),
    RuleCase(
        "hidden-field",
        "class A {\n    int x;\n    void m(int x) {\n    }\n}\n",
        1,
        [3],
        "class A {\n    int x;\n    void m(int value) {\n    }\n}\n",
    ),
    RuleCase(
        "unexploited-encapsulation",
        dedent(
            """\
            class C {
                void m(Object o) {
                    if (o instanceof Integer) {
                        x = 1;
                    }
                    if (o instanceof Long) {
                        x = 2;
                    }
                }
            }
            """
        ),
        1,
        [2],
        dedent(
            """\
            class C {
                void m(Object o) {
                    if (o instanceof Integer) {
                        x = 1;
                    }
                }
            }
            """
        ),
    ),
    RuleCase(
        "broken-hierarchy",
        dedent(
            """\
            class Base {
                void act() {
                    x = 1;
                }
            }
            class Sub extends Base {
                void act() {
                }
            }
            """
        ),
        1,
        [7],
        dedent(
            """\
            class Base {
                void act() {
                    x = 1;
                }
            }
            class Sub extends Base {
                void act() {
                    x = 2;
                }
            }
            """
        ),
    ),
    RuleCase(
        "cyclic-hierarchy",
        "class Parent {\n    Child c;\n}\nclass Child extends Parent {\n}\n",
        1,
        [1],
        "class Parent {\n    int x;\n}\nclass Child extends Parent {\n}\n",
    ),
    _gen_deep_hierarchy_case(),
    RuleCase(
        "missing-hierarchy",
        dedent(
            """\
            class A {
                void m(int k) {
                    if (k == 1) {
                        x = 1;
                    } else if (k == 2) {
                        x = 2;
                    } else if (k == 3) {
                        x = 3;
                    }
                }
            }
            class B {
            }
            """
        ),
        1,
        [2],
        dedent(
            """\
            class A {
                void m(int k) {
                    if (k == 1) {
                        x = 1;
                    } else if (k == 2) {
                        x = 2;
                    }
                }
            }
            class B {
            }
            """
        ),
    ),
    RuleCase(
        "multipath-hierarchy",
        dedent(
            """\
            interface I {
            }
            class Base implements I {
            }
            class Sub extends Base implements I {
            }
            """
        ),
        1,
        [5],
        dedent(
            """\
            interface I {
            }
            class Base implements I {
            }
            class Sub extends Base {
            }
            """
        ),
    ),
    RuleCase(
        "rebellious-hierarchy",
        dedent(
            """\
            class Base {
                void act() {
                    x = 1;
                }
            }
            class Sub extends Base {
                void act() {
                    throw new UnsupportedOperationException();
                }
            }
            """
        ),
        1,
        [7],
        dedent(
            """\
            class Base {
                void act() {
                    x = 1;
                }
            }
            class Sub extends Base {
                void act() {
                    x = 2;
                }
            }
            """
        ),
    ),
    _gen_wide_hierarchy_case(),
    RuleCase(
        "dependency-cycles-between-packages",
        "package app;\nimport app.Helper;\nclass Main {\n    Helper h;\n}\nclass Helper {\n}\n",
        1,
        [2],
        "package app;\nimport java.util.List;\nclass Main {\n    List l;\n}\nclass Helper {\n}\n",
    ),
    RuleCase(
        "imperative-abstraction",
        "class Runner {\n    public void run() {\n        x = 1;\n    }\n}\n",
        1,
        [1],
        "class Runner {\n    public void run() {\n        x = 1;\n    }\n    public void stop() {\n        x = 0;\n    }\n}\n",
    ),
    RuleCase(
        "multifaceted-abstraction",
        dedent(
            """\
            class A {
                int x;
                int y;
                void mx() {
                    x = 1;
                }
                void my() {
                    y = 2;
                }
            }
            """
        ),
        1,
        [1],
        dedent(
            """\
            class A {
                int x;
                int y;
                void mx() {
                    x = y;
                }
                void my() {
                    y = x;
                }
            }
            """
        ),
    ),
    RuleCase(
        "unnecessary-abstraction",
        "class Constants {\n    static final int MAX = 10;\n}\n",
        1,
        [1],
        "class Config {\n    static final int MAX = 10;\n    static int max() {\n        return MAX;\n    }\n}\n",
    ),
    RuleCase(
        "unutilized-abstraction",
        dedent(
            """\
            class Main {
                void m() {
                    x = 1;
                }
            }
            class Orphan {
                void n() {
                    y = 2;
                }
            }
            """
        ),
        1,
        [6],
        dedent(
            """\
            class Main {
                Orphan o;
            }
            class Orphan {
                void n() {
                    y = 2;
                }
            }
            """
        ),
    ),
]


def _detect(rule_id: str, text: str, path: str) -> list:
    source = SourceFile.from_text(path, text)
    report = detect_file(source, ("fixture", "test"), rules=[rule_by_id(rule_id)])
    assert report.parse_ok, f"fixture for {rule_id} failed to parse: {report.parse_error}"
    return report.violations


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.rule_id)
def test_positive_fixture(case: RuleCase):
    violations = _detect(case.rule_id, case.positive, case.path)
    assert len(violations) == case.expected, [v.message for v in violations]
    assert sorted(v.span.start_line for v in violations) == sorted(case.lines)
    assert all(v.rule_id == case.rule_id for v in violations)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.rule_id)
def test_negative_fixture(case: RuleCase):
    violations = _detect(case.rule_id, case.negative, case.path)
    assert violations == [], [v.message for v in violations]


def test_every_rule_has_a_case():
    covered = {c.rule_id for c in CASES}
    all_rules = {r.rule_id for r in catalog()}
    assert covered == all_rules, f"missing: {sorted(all_rules - covered)}, extra: {sorted(covered - all_rules)}"


def test_magic_number_reads_a_hex_floating_point_literal():
    text = "class A {\n    double f() {\n        return 0x1p3 + 0x1.0p0 + 0x1p-1f;\n    }\n}\n"
    violations = _detect("magic-number", text, "A.java")
    # 0x1.0p0 is 1.0, which ignore_numbers holds as 1
    assert [(v.message, v.span.as_tuple()) for v in violations] == [
        ("magic number 0x1p3", (3, 16, 3, 21)),
        ("magic number 0x1p-1f", (3, 34, 3, 41)),
    ]


def test_a_number_of_non_ascii_digits_is_no_magic_number():
    """JLS 3.10.1: a decimal literal's digits are ASCII, so '٣٣' fails to lex."""
    text = "class A {\n    int f() {\n        return \u0663\u0663;\n    }\n}\n"
    report = detect_file(SourceFile.from_text("A.java", text), ("fixture", "test"), rules=[rule_by_id("magic-number")])
    assert not report.parse_ok and report.violations == []
    assert report.parse_error == "illegal character '\u0663' at (3, 16, 3, 17)"


# ---- which naming rules read which kind of declaration

# Each source declares one name ReCORD.  It is UpperCamelCase, so class-name
# accepts it, but it breaks every other naming pattern of the catalog, it
# holds a run of four capitals, and it is the restricted word record in
# another case.  The value is the set of naming rules that flag it there; the
# others must stay silent on it.
NAMING_KINDS = {
    "type": ("class ReCORD {\n}\n", {"abbreviation-as-word-in-name", "illegal-identifier-name"}),
    "class-type-parameter": ("class A<ReCORD> {\n}\n", {"generics-name"}),
    "method-type-parameter": ("class A {\n    <ReCORD> void f() {\n    }\n}\n", {"generics-name"}),
    "field": ("class A {\n    int ReCORD;\n}\n", {"abbreviation-as-word-in-name", "illegal-identifier-name"}),
    "static-final-field": ("class A {\n    static final int ReCORD = 1;\n}\n", {"constant-name", "illegal-identifier-name"}),
    "interface-field": ("interface I {\n    int ReCORD = 1;\n}\n", {"constant-name", "illegal-identifier-name"}),
    "method": (
        "class A {\n    void ReCORD() {\n    }\n}\n",
        {"method-name", "abbreviation-as-word-in-name", "illegal-identifier-name"},
    ),
    "constructor-parameter": (
        "class A {\n    A(int ReCORD) {\n    }\n}\n",
        {"parameter-name", "abbreviation-as-word-in-name", "illegal-identifier-name"},
    ),
    "local": (
        "class A {\n    void f() {\n        int ReCORD = 1;\n    }\n}\n",
        {"local-variable-name", "abbreviation-as-word-in-name", "illegal-identifier-name"},
    ),
    "for-init-local": (
        "class A {\n    void f() {\n        for (int ReCORD = 0; ; ) {\n        }\n    }\n}\n",
        {"local-variable-name", "abbreviation-as-word-in-name", "illegal-identifier-name"},
    ),
    "try-resource": (
        "class A {\n    void f() {\n        try (R ReCORD = open()) {\n        }\n    }\n}\n",
        {"local-variable-name"},
    ),
    "for-each-variable": (
        "class A {\n    void f(int[] xs) {\n        for (int ReCORD : xs) {\n        }\n    }\n}\n",
        {"local-variable-name", "abbreviation-as-word-in-name", "illegal-identifier-name"},
    ),
    "catch-parameter": (
        "class A {\n    void f() {\n        try {\n        } catch (Exception ReCORD) {\n        }\n    }\n}\n",
        {"catch-parameter-name"},
    ),
}


@pytest.mark.parametrize("kind", list(NAMING_KINDS))
def test_each_naming_rule_reads_its_kinds_of_declaration(kind):
    text, expected = NAMING_KINDS[kind]
    report = detect_file(SourceFile.from_text("A.java", text), ("fixture", "test"))
    assert report.parse_ok, report.parse_error
    naming = [v for v in report.violations if rule_by_id(v.rule_id).smell_type == "inconsistent-naming"]
    assert {v.rule_id for v in naming} == expected
    assert len(naming) == len(expected)
    line = next(i for i, row in enumerate(text.splitlines(), 1) if "ReCORD" in row)
    col = text.splitlines()[line - 1].index("ReCORD") + 1
    assert {v.span.as_tuple()[:2] for v in naming} == {(line, col)}
    assert all("ReCORD" in v.message for v in naming)


# ---- paren-pad against the whitespace-token reading it replaced

def reference_paren_pad(text: str) -> list[tuple[tuple[int, int, int, int], str]]:
    """(span, message) for each '(' followed, and each ')' preceded, by a
    whitespace token of the lossless stream that holds no line end (JLS 3.4:
    CR LF, CR or LF)."""
    toks = tokenize(SourceFile.from_text("P.java", text))
    out = []
    for i, t in enumerate(toks):
        if t.lexeme == "(" and t.kind is TokenKind.SEPARATOR:
            if i + 1 < len(toks) and toks[i + 1].kind is TokenKind.WHITESPACE and not set("\r\n") & set(toks[i + 1].lexeme):
                out.append((t.span.as_tuple(), "space after '('"))
        elif t.lexeme == ")" and t.kind is TokenKind.SEPARATOR:
            if i - 1 >= 0 and toks[i - 1].kind is TokenKind.WHITESPACE and not set("\r\n") & set(toks[i - 1].lexeme):
                out.append((t.span.as_tuple(), "space before ')'"))
    return out


PAREN_PAD_BODIES = {
    "space-after-open": ("f( x);", 1),
    "space-before-close": ("f(x );", 1),
    "blank-between": ("f( );", 2),
    "newline-after-open": ("f(\n x);", 0),
    "newline-before-close": ("f(x\n );", 0),
    "block-comment-after-open": ("f( /*c*/x);", 1),
    "block-comment-before-close": ("f(x /*c*/ );", 1),
    "comment-then-newline": ("f(x // c\n );", 0),
    "crlf": ("f(\r\n x);\r\n    g(x\r\n);\r\n    h( x );", 2),
    "carriage-return-only": ("f(\rx\r);", 0),
    "tab-and-form-feed": ("f(\tx\f);", 2),
    "newline-inside-run": ("f( \n x \t\n );", 0),
    "in-string-char-and-comments": ('s = "( x )"; c = \'(\'; d = \' \'; /* ( y ) */ // ( z )\n    f(x);', 0),
    "padded-and-in-string": ('f( "( x )" );', 2),
}


@pytest.mark.parametrize("name", sorted(PAREN_PAD_BODIES))
def test_paren_pad_matches_the_whitespace_token_reading(name):
    body, count = PAREN_PAD_BODIES[name]
    text = f"class A {{\n  void m() {{\n    {body}\n  }}\n}}\n"
    if "\r\n" in body:
        text = text.replace("\n", "\r\n").replace("\r\r\n", "\r\n")
    got = [(v.span.as_tuple(), v.message) for v in _detect("paren-pad", text, "P.java")]
    assert got == reference_paren_pad(text)
    assert len(got) == count


# ---- line endings: the carriage return of a CRLF pair is not part of its line

@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_line_length_and_snippet_leave_out_the_carriage_return_of_crlf(ending):
    at_limit = "    int " + "x" * 87 + " = 1;"
    over = at_limit.replace("= 1", "= 12")
    assert (len(at_limit), len(over)) == (100, 101)
    assert _detect("line-length", ending.join(["class A {", at_limit, "}", ""]), "A.java") == []
    [violation] = _detect("line-length", ending.join(["class A {", over, "}", ""]), "A.java")
    assert (violation.span.as_tuple(), violation.message, violation.snippet) == (
        (2, 101, 2, 102), "line is 101 characters (max 100)", over,
    )
