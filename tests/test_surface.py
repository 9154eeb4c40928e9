"""The library surface that only tests reach is pinned, and each part says why
it stays.

A top-level definition in src/dsgdlab counts as reached when some other code
in src/dsgdlab or in the benchmark harness (perfbench, its tests excluded)
references its name: as a name, an attribute, an import alias, or an
identifier-shaped string (the harness's tracer looks names up by string).
References inside the definition's own body do not count. The unreached
definitions must be exactly TEST_ONLY, and each one's docstring must carry the
line `Test-only: <reason>` with its pinned reason.

The methods and properties of every class that is not itself test-only are
scanned the same way, by `Class.member`: a member counts as reached when its
name is referenced outside its own body (other members of its class count).
Dunder methods are reached by the language and are not scanned. The unreached
members must be exactly TEST_ONLY_MEMBERS, each with its `Test-only:` line.

The scan matches names, not bindings, so a definition whose name is also used
for something else counts as reached.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

TEST_ONLY = {
    "general_step": "the single-step reference of the general form (acceptance test_01).",
    "agentwise_step": "the single-step reference of the agentwise form (acceptance test_01).",
    "per_step": "the one-step-at-a-time view of a chunk observer.",
    "integrate_dgf": "acceptance test_10 integrates the flow that runs track.",
    "discrete_vs_continuous_gap": "acceptance test_10 measures the discrete-continuous gap.",
    "linearize": "acceptance test_07 checks the spectral structure one time at a time.",
    "relu_regression": "the nonsmooth network loss of acceptance test_01.",
    "finite_difference_gradient": "the oracle that subgradients are checked against.",
    "_decay_scan": "the seam that checks the scan against the sequential recursion.",
    "eta": "the paper's distance functional, checked on and off the manifold.",
}

TEST_ONLY_MEMBERS = {
    "SaddleContext.restricted_hessian":
        "acceptance test_07 compares the spectrum with its eigenvalues.",
    "ManifoldModel.coordinate_change_inverse":
        "the round trip of the coordinate change and eta's on-manifold points.",
    "CampaignResult.recompute_aggregates":
        "the check that a result's aggregates follow from its records.",
}


def _definitions(node):
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _references(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and IDENTIFIER.match(sub.value)):
            yield sub.value


def _trees():
    """The parsed modules of src/dsgdlab and of the harness (its tests excluded)."""
    src = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "dsgdlab").glob("*.py"))]
    harness = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")]
    return src, harness


def _scan():
    """(definitions by name, names referenced from outside their own body)."""
    definitions, referenced = {}, set()
    src, harness = _trees()
    for tree in src:
        for node in tree.body:
            own = _definitions(node)
            for name in own:
                definitions[name] = node
            referenced.update(set(_references(node)) - set(own))
    for tree in harness:
        referenced.update(_references(tree))
    return definitions, referenced


def _members():
    """(methods and properties of each class that is not test-only, by
    `Class.member`, names of those referenced from outside their own body)."""
    definitions, _ = _scan()
    members = {f"{cls}.{node.name}": node
               for cls, class_node in definitions.items()
               if isinstance(class_node, ast.ClassDef) and cls not in TEST_ONLY
               for node in class_node.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    counts = Counter()
    for tree in sum(_trees(), []):
        counts.update(_references(tree))
    reached = {name for name, node in members.items()
               if counts[node.name] > Counter(_references(node))[node.name]}
    return members, reached


def _says_why(node, reason):
    doc = ast.get_docstring(node) or ""
    return f"Test-only: {reason}" in [line.strip() for line in doc.splitlines()]


def test_unreached_definitions_are_the_pinned_test_only_surface():
    definitions, referenced = _scan()
    assert {name for name in definitions if name not in referenced} == set(TEST_ONLY)


def test_each_test_only_definition_says_why():
    definitions, _ = _scan()
    for name, reason in TEST_ONLY.items():
        assert _says_why(definitions[name], reason), name


def test_unreached_members_are_the_pinned_test_only_members():
    members, reached = _members()
    assert set(members) - reached == set(TEST_ONLY_MEMBERS)


def test_each_test_only_member_says_why():
    members, _ = _members()
    for name, reason in TEST_ONLY_MEMBERS.items():
        assert _says_why(members[name], reason), name
