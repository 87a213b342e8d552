"""The canonical rule catalog.

Each conceptual detection rule appears exactly once.  Its origins are the
(detector, native rule name) pairs that implement it upstream; when the same
rule is known to more than one detector it carries several origins, and its
violations are counted once regardless of how many detectors report it.  The
external-report importer translates native names through these pairs, so
each name is declared here and nowhere else.  Checkstyle names are the last
segment of the check class without its "Check" suffix, PMD names the rule
name, DesigniteJava names the smell column text.  Every numeric default is
declared here, next to its rule, and can be overridden per run.
"""

from __future__ import annotations

from .model import SmellRule

PMD = "pmd"
CHECKSTYLE = "checkstyle"
DESIGNITE = "designite"


def _rule(
    rule_id: str,
    smell_type: str,
    origins: list[tuple[str, str]],
    description: str,
    **thresholds,
) -> SmellRule:
    return SmellRule(
        rule_id=rule_id,
        smell_type=smell_type,
        origins=tuple(origins),
        description=description,
        thresholds=thresholds,
    )


_RULES: tuple[SmellRule, ...] = (
    # ---- inconsistent-naming -------------------------------------------------
    _rule(
        "local-variable-name", "inconsistent-naming",
        [(PMD, "LocalVariableNamingConventions"), (CHECKSTYLE, "LocalVariableName")],
        "Local variable names must be lowerCamelCase.",
        pattern=r"^[a-z][a-zA-Z0-9]*$",
    ),
    _rule(
        "parameter-name", "inconsistent-naming",
        [(PMD, "FormalParameterNamingConventions")],
        "Formal parameter names must be lowerCamelCase.",
        pattern=r"^[a-z][a-zA-Z0-9]*$",
    ),
    _rule(
        "method-name", "inconsistent-naming",
        [(PMD, "MethodNamingConventions"), (CHECKSTYLE, "MethodName")],
        "Method names must be lowerCamelCase.",
        pattern=r"^[a-z][a-zA-Z0-9]*$",
    ),
    _rule(
        "class-name", "inconsistent-naming",
        [(PMD, "ClassNamingConventions")],
        "Class, interface, and enum names must be UpperCamelCase.",
        pattern=r"^[A-Z][a-zA-Z0-9]*$",
    ),
    _rule(
        "generics-name", "inconsistent-naming",
        [(PMD, "GenericsNaming")],
        "Type parameter names must be a single capital letter, optionally followed by one digit.",
        pattern=r"^[A-Z][0-9]?$",
    ),
    _rule(
        "abbreviation-as-word-in-name", "inconsistent-naming",
        [(CHECKSTYLE, "AbbreviationAsWordInName")],
        "Declared names must not embed runs of three or more consecutive capitals; "
        "constant (static final) field names are exempt.",
        max_consecutive_capitals=2,
    ),
    _rule(
        "abstract-class-name", "inconsistent-naming",
        [(CHECKSTYLE, "AbstractClassName")],
        "Abstract class names must start with 'Abstract'.",
        pattern=r"^Abstract.+$",
    ),
    _rule(
        "catch-parameter-name", "inconsistent-naming",
        [(CHECKSTYLE, "CatchParameterName")],
        "Catch parameter names must be 'e', 't', 'ex', or a lowerCamelCase word of 3+ characters.",
        pattern=r"^(e|t|ex|[a-z][a-z][a-zA-Z]+)$",
    ),
    _rule(
        "constant-name", "inconsistent-naming",
        [(CHECKSTYLE, "ConstantName")],
        "static final fields (and interface fields) must be UPPER_SNAKE_CASE.",
        pattern=r"^[A-Z][A-Z0-9]*(_[A-Z0-9]+)*$",
    ),
    _rule(
        "illegal-identifier-name", "inconsistent-naming",
        [(CHECKSTYLE, "IllegalIdentifierName")],
        "Declared names must not be the restricted words var, record, yield, permits, sealed "
        "(case-insensitive).",
    ),
    # ---- excessive-complexity ---------------------------------------------------
    _rule(
        "simplify-boolean-expression", "excessive-complexity",
        [(CHECKSTYLE, "SimplifyBooleanExpression")],
        "Boolean expressions must not compare with or combine boolean literals "
        "(x == true, x || false, !true).",
    ),
    _rule(
        "simplify-conditional", "excessive-complexity",
        [(PMD, "SimplifyConditional")],
        "A null check is redundant next to instanceof on the same value.",
    ),
    _rule(
        "simplify-boolean-return", "excessive-complexity",
        [(PMD, "SimplifyBooleanReturns"), (CHECKSTYLE, "SimplifyBooleanReturn")],
        "if/else that returns boolean literals on both paths should return the condition.",
    ),
    _rule(
        "simplified-ternary", "excessive-complexity",
        [(PMD, "SimplifiedTernary")],
        "Ternaries with a boolean-literal branch should be boolean operators.",
    ),
    _rule(
        "line-length", "excessive-complexity",
        [(CHECKSTYLE, "LineLength")],
        "Lines must not exceed the column limit.",
        max_line_length=100,
    ),
    _rule(
        "method-length", "excessive-complexity",
        [(CHECKSTYLE, "MethodLength"), (DESIGNITE, "Long Method")],
        "Methods must not span more physical lines than the limit (signature through closing brace).",
        max_method_lines=150,
    ),
    _rule(
        "excessive-parameter-list", "excessive-complexity",
        [(PMD, "ExcessiveParameterList"), (DESIGNITE, "Long Parameter List")],
        "Methods must not declare more parameters than the limit.",
        max_parameters=7,
    ),
    # ---- redundancy ----------------------------------------------------------
    _rule(
        "redundant-import", "redundancy",
        [(CHECKSTYLE, "RedundantImport")],
        "Duplicate imports, imports from java.lang, and imports from the file's own package.",
    ),
    _rule(
        "redundant-modifier", "redundancy",
        [(CHECKSTYLE, "RedundantModifier")],
        "Modifiers implied by context: public/abstract on interface methods, "
        "public/static/final on interface fields, final methods in final classes, "
        "static on nested interfaces and enums.",
    ),
    _rule(
        "copy-paste", "redundancy",
        [(PMD, "CopyPasteDetector"), (PMD, "CPD")],
        "Duplicated token runs within the file; each repeat after the first is a violation. "
        "The minimum is scaled down from whole-project defaults because corpus programs are small.",
        min_duplicate_tokens=30,
    ),
    # ---- incompleteness ----------------------------------------------------------
    _rule(
        "missing-switch-default", "incompleteness",
        [(CHECKSTYLE, "MissingSwitchDefault")],
        "switch statements must carry a default arm.",
    ),
    _rule(
        "todo-comment", "incompleteness",
        [(CHECKSTYLE, "TodoComment")],
        "Comments containing TODO or FIXME mark unfinished code.",
    ),
    _rule(
        "empty-control-statement", "incompleteness",
        [(PMD, "EmptyControlStatement")],
        "Empty bodies of if/else/for/while/do, empty switches, and stray semicolon statements. "
        "try/catch/finally and initializer blocks are covered by empty-block and empty-catch-block.",
    ),
    _rule(
        "empty-catch-block", "incompleteness",
        [(PMD, "EmptyCatchBlock"), (CHECKSTYLE, "EmptyCatchBlock")],
        "catch blocks with no statements swallow exceptions (comments do not excuse them).",
    ),
    _rule(
        "empty-block", "incompleteness",
        [(CHECKSTYLE, "EmptyBlock")],
        "Empty try, finally, synchronized, and initializer blocks.",
    ),
    # ---- improper-alignment ---------------------------------------------------
    _rule(
        "indentation", "improper-alignment",
        [(CHECKSTYLE, "Indentation")],
        "Statements and declarations that start a line must be indented 4 columns per nesting "
        "level; continuation lines are not checked.",
        indent_width=4,
    ),
    _rule(
        "file-tab-character", "improper-alignment",
        [(CHECKSTYLE, "FileTabCharacter")],
        "Tab characters are not allowed; one violation per line containing a tab.",
    ),
    _rule(
        "need-braces", "improper-alignment",
        [(CHECKSTYLE, "NeedBraces")],
        "if/else/for/while/do bodies must be brace-delimited blocks (else-if chains allowed).",
    ),
    _rule(
        "useless-parentheses", "improper-alignment",
        [(PMD, "UselessParentheses")],
        "Parentheses around atoms, and around whole expressions in positions that never "
        "need grouping (return values, initializers, assignment right sides, conditions, "
        "call arguments).",
    ),
    _rule(
        "left-curly", "improper-alignment",
        [(CHECKSTYLE, "LeftCurly")],
        "Opening braces of declarations and control-flow bodies belong at the end of the "
        "preceding line, never alone on their own line.",
    ),
    _rule(
        "right-curly", "improper-alignment",
        [(CHECKSTYLE, "RightCurly")],
        "The closing brace before else/catch/finally/while-of-do must share its line with "
        "that keyword.",
    ),
    _rule(
        "paren-pad", "improper-alignment",
        [(CHECKSTYLE, "ParenPad")],
        "No space directly inside parentheses (after '(' or before ')') on the same line.",
    ),
    _rule(
        "method-param-pad", "improper-alignment",
        [(CHECKSTYLE, "MethodParamPad")],
        "No whitespace between a method name and its parameter list, in declarations and calls.",
    ),
    _rule(
        "variable-declaration-usage-distance", "improper-alignment",
        [(CHECKSTYLE, "VariableDeclarationUsageDistance")],
        "A local variable must be declared close to its first use.",
        max_distance=3,
    ),
    _rule(
        "declaration-order", "improper-alignment",
        [(CHECKSTYLE, "DeclarationOrder")],
        "Class members must appear as static fields, then instance fields, then constructors, "
        "then methods.",
    ),
    # ---- magic-number ----------------------------------------------------------
    _rule(
        "magic-number", "magic-number",
        [(CHECKSTYLE, "MagicNumber")],
        "Numeric literals outside the ignore set must be named constants; "
        "static final initializers are exempt.",
        ignore_numbers=(-1, 0, 1, 2),
    ),
    # ---- dead-code ------------------------------------------------------------
    _rule(
        "unused-formal-parameter", "dead-code",
        [(PMD, "UnusedFormalParameter")],
        "Parameters of private methods that the body never references (name-based).",
    ),
    _rule(
        "unused-local-variable", "dead-code",
        [(PMD, "UnusedLocalVariable"), (CHECKSTYLE, "UnusedLocalVariable")],
        "Local variables whose name never appears again in the enclosing body (name-based).",
    ),
    _rule(
        "unused-private-field", "dead-code",
        [(PMD, "UnusedPrivateField")],
        "Private fields never referenced elsewhere in the file (name-based; "
        "serialVersionUID exempt).",
    ),
    _rule(
        "unused-private-method", "dead-code",
        [(PMD, "UnusedPrivateMethod")],
        "Private methods whose name is never referenced elsewhere in the file (name-based).",
    ),
    _rule(
        "unused-import", "dead-code",
        [(CHECKSTYLE, "UnusedImports")],
        "Single-type imports whose simple name never occurs in the file body.",
    ),
    # ---- resource-handling -------------------------------------------------------
    _rule(
        "close-resource", "resource-handling",
        [(PMD, "CloseResource")],
        "Locals initialized with a closeable-looking type (streams, readers, writers, "
        "channels, JDBC handles, sockets, scanners) must be closed in the method or "
        "declared as try resources.",
    ),
    _rule(
        "avoid-instantiating-objects-in-loops", "resource-handling",
        [(PMD, "AvoidInstantiatingObjectsInLoops")],
        "Object or array creation inside a loop body.",
    ),
    # ---- documentation ----------------------------------------------------------
    _rule(
        "comment-required", "documentation",
        [(PMD, "CommentRequired")],
        "public classes need a header comment of any kind.",
    ),
    _rule(
        "comment-size", "documentation",
        [(PMD, "CommentSize")],
        "Comments must not span more lines than the limit.",
        max_comment_lines=10,
    ),
    _rule(
        "comment-content", "documentation",
        [(PMD, "CommentContent")],
        "Comments must not contain disallowed words.",
        disallowed_words=("hack", "wtf", "xxx"),
    ),
    _rule(
        "javadoc-method", "documentation",
        [(CHECKSTYLE, "JavadocMethod")],
        "public/protected methods and constructors need a Javadoc comment "
        "(@Override implementations exempt; interface methods count as public).",
    ),
    _rule(
        "javadoc-type", "documentation",
        [(CHECKSTYLE, "JavadocType")],
        "public/protected type declarations need a Javadoc comment.",
    ),
    _rule(
        "missing-javadoc-package", "documentation",
        [(CHECKSTYLE, "MissingJavadocPackage")],
        "package-info.java must document its package with a Javadoc comment.",
    ),
    _rule(
        "javadoc-variable", "documentation",
        [(CHECKSTYLE, "JavadocVariable")],
        "Field declarations need a Javadoc comment (all visibilities).",
    ),
    # ---- modularity (design) ------------------------------------------------
    _rule(
        "god-class", "modularity",
        [(PMD, "GodClass")],
        "Classes that are both oversized (NOM+NOA beyond the limit) and reach into many "
        "foreign objects (distinct non-this receivers beyond the limit).",
        max_members=40,
        max_foreign_accesses=5,
    ),
    _rule(
        "data-class", "modularity",
        [(PMD, "DataClass")],
        "Classes holding fields whose methods are all one-statement accessors (get/set/is).",
        min_accessors=2,
    ),
    _rule(
        "too-many-methods", "modularity",
        [(PMD, "TooManyMethods")],
        "Classes declaring more methods than the limit.",
        max_methods=10,
    ),
    _rule(
        "too-many-fields", "modularity",
        [(PMD, "TooManyFields")],
        "Classes declaring more fields than the limit.",
        max_fields=15,
    ),
    _rule(
        "use-utility-class", "modularity",
        [(PMD, "UseUtilityClass")],
        "Instantiable classes whose methods are all static should be utility classes "
        "(final with a private constructor).",
    ),
    _rule(
        "hide-utility-class-constructor", "modularity",
        [(CHECKSTYLE, "HideUtilityClassConstructor")],
        "Classes with only static members must hide their constructor.",
    ),
    _rule(
        "broken-modularization", "modularity",
        [(DESIGNITE, "Broken Modularization")],
        "Data-only classes: instance fields but no methods or constructors.",
    ),
    _rule(
        "cyclically-dependent-modularization", "modularity",
        [(DESIGNITE, "Cyclically-dependent Modularization")],
        "Types in the file that reference each other in a cycle; every member of a cycle "
        "is flagged.",
    ),
    _rule(
        "hub-like-modularization", "modularity",
        [(DESIGNITE, "Hub-like Modularization")],
        "Types both referenced by and referencing many other types in the file. "
        "Thresholds are scaled to single-unit analysis.",
        min_fan_in=3,
        min_fan_out=3,
    ),
    _rule(
        "insufficient-modularization", "modularity",
        [(DESIGNITE, "Insufficient Modularization")],
        "Classes that are too large or too complex to be one module: public method count, "
        "total method count, or any method's cyclomatic complexity beyond its limit.",
        max_public_methods=20,
        max_total_methods=30,
        max_method_cyclomatic=10,
    ),
    _rule(
        "law-of-demeter", "modularity",
        [(PMD, "LawOfDemeter")],
        "Method-call chains of the configured length or more on non-builder receivers.",
        max_chain=3,
    ),
    _rule(
        "coupling-between-objects", "modularity",
        [(PMD, "CouplingBetweenObjects")],
        "Classes referencing more distinct type names than the limit.",
        max_coupling=20,
    ),
    _rule(
        "class-fan-out", "modularity",
        [(CHECKSTYLE, "ClassFanOutComplexity")],
        "Classes depending on more distinct type names than the limit.",
        max_fan_out=20,
    ),
    # ---- encapsulation ----------------------------------------------------------
    _rule(
        "visibility-modifier", "encapsulation",
        [(CHECKSTYLE, "VisibilityModifier")],
        "Fields must be private unless static final (interface constants exempt).",
    ),
    _rule(
        "excessive-public-count", "encapsulation",
        [(PMD, "ExcessivePublicCount")],
        "Classes exposing more public methods and fields than the limit.",
        max_public=45,
    ),
    _rule(
        "deficient-encapsulation", "encapsulation",
        [(DESIGNITE, "Deficient Encapsulation")],
        "Classes exposing non-constant public fields.",
    ),
    _rule(
        "final-parameters", "encapsulation",
        [(CHECKSTYLE, "FinalParameters")],
        "Method and constructor parameters should be declared final.",
    ),
    _rule(
        "final-class", "encapsulation",
        [(CHECKSTYLE, "FinalClass")],
        "Classes with only private constructors should be final.",
    ),
    _rule(
        "hidden-field", "encapsulation",
        [(CHECKSTYLE, "HiddenField")],
        "Parameters and locals must not shadow fields of the enclosing class.",
    ),
    _rule(
        "unexploited-encapsulation", "encapsulation",
        [(DESIGNITE, "Unexploited Encapsulation")],
        "Methods running chained instanceof type checks on one value instead of relying "
        "on polymorphism.",
        min_type_checks=2,
    ),
    # ---- hierarchy --------------------------------------------------------------
    # All hierarchy rules are evaluated only when the unit declares more than
    # one type or uses extends/implements; they cannot apply to a lone class.
    _rule(
        "broken-hierarchy", "hierarchy",
        [(DESIGNITE, "Broken Hierarchy")],
        "Subclasses overriding an in-file parent method with an empty body, silently "
        "dropping inherited behavior.",
    ),
    _rule(
        "cyclic-hierarchy", "hierarchy",
        [(DESIGNITE, "Cyclic Hierarchy")],
        "Supertypes that reference one of their own subtypes.",
    ),
    _rule(
        "deep-hierarchy", "hierarchy",
        [(DESIGNITE, "Deep Hierarchy")],
        "Classes whose in-file extends chain is deeper than the limit.",
        max_depth=6,
    ),
    _rule(
        "missing-hierarchy", "hierarchy",
        [(DESIGNITE, "Missing Hierarchy")],
        "Methods dispatching on one value with 3+ way equality chains or switches where a "
        "type hierarchy should carry the variation.",
        min_branches=3,
    ),
    _rule(
        "multipath-hierarchy", "hierarchy",
        [(DESIGNITE, "Multipath Hierarchy")],
        "Types inheriting from the same in-file ancestor through more than one path.",
    ),
    _rule(
        "rebellious-hierarchy", "hierarchy",
        [(DESIGNITE, "Rebellious Hierarchy")],
        "Subclasses overriding an in-file parent method with a throw-only body, rejecting "
        "the supertype contract.",
    ),
    _rule(
        "wide-hierarchy", "hierarchy",
        [(DESIGNITE, "Wide Hierarchy")],
        "Supertypes with more direct in-file subtypes than the limit.",
        max_width=10,
    ),
    _rule(
        "dependency-cycles-between-packages", "hierarchy",
        [(DESIGNITE, "Dependency Cycles btw Packages")],
        "Package-level cycles; degraded to the single-unit signal of importing a type "
        "from the file's own package.",
    ),
    # ---- abstraction ---------------------------------------------------------
    _rule(
        "imperative-abstraction", "abstraction",
        [(DESIGNITE, "Imperative Abstraction")],
        "Classes that wrap a single public instance method and little data: an operation "
        "modeled as a class.",
        max_fields=1,
    ),
    _rule(
        "multifaceted-abstraction", "abstraction",
        [(DESIGNITE, "Multifaceted Abstraction")],
        "Classes whose method/field usage graph splits into disjoint responsibility "
        "clusters.",
    ),
    _rule(
        "unnecessary-abstraction", "abstraction",
        [(DESIGNITE, "Unnecessary Abstraction")],
        "Classes with no behavior and no instance data: empty classes and bare constant "
        "holders.",
    ),
    _rule(
        "unutilized-abstraction", "abstraction",
        [(DESIGNITE, "Unutilized Abstraction")],
        "Non-public helper types never referenced by the rest of the file "
        "(the file's first top-level type is its entry point and exempt).",
    ),
)

_BY_ID = {r.rule_id: r for r in _RULES}
assert len(_BY_ID) == len(_RULES), "duplicate rule_id in catalog"

_BY_ORIGIN = {origin: r.rule_id for r in _RULES for origin in r.origins}
assert len(_BY_ORIGIN) == sum(len(r.origins) for r in _RULES), "native rule name declared twice in catalog"


def catalog() -> list[SmellRule]:
    """All canonical rules, in catalog order."""
    return list(_RULES)


def rule_by_id(rule_id: str) -> SmellRule:
    return _BY_ID[rule_id]


def rule_for_origin(detector: str, native_name: str) -> str | None:
    """The rule id a detector's native rule name maps to, or None if unknown."""
    return _BY_ORIGIN.get((detector, native_name))


def rule_types() -> dict[str, str]:
    """rule_id -> smell_type for every cataloged rule."""
    return {r.rule_id: r.smell_type for r in _RULES}


def multi_origin_rules() -> list[SmellRule]:
    return [r for r in _RULES if len(r.origin_tags) > 1]
