"""The site finder of tools/guard_mutants.py, checked in process with no subprocess."""
import importlib.util
import io
import tokenize
from pathlib import Path

from phaselab import errors

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "phaselab").glob("*.py"))


def load_tool():
    path = ROOT / "tools" / "guard_mutants.py"
    spec = importlib.util.spec_from_file_location("guard_mutants", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def domain_errors():
    """DomainError and its subclasses, walked at run time."""
    names, todo = set(), [errors.DomainError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def raise_lines(source, names):
    """The line of each ``raise`` token whose next token is one of names: a count made from
    the token stream, apart from the finder's syntax tree."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.NL, tokenize.COMMENT)]
    return [t.start[0] for t, after in zip(tokens, tokens[1:])
            if t.type == tokenize.NAME and t.string == "raise" and after.string in names]


def test_finder_sees_every_domain_error_raise():
    tool, names = load_tool(), domain_errors()
    assert tool.error_classes((ROOT / "src" / "phaselab" / "errors.py").read_text()) == names
    counts = {}
    for path in SOURCES:
        source = path.read_text()
        sites = tool.guard_sites(source, names)
        assert [site.lineno for site in sites] == raise_lines(source, names), path.name
        counts[path.stem] = len(sites)
        # each mutant drops its own site and no other, and still parses
        for site in sites:
            text = tool.mutant(source, site)
            assert len(tool.guard_sites(text, names)) == len(sites) - 1
            assert "pass" in text.splitlines()[site.lineno - 1]
    assert counts["errors"] == 0 and min(counts["phase_filters"], counts["fock_core"]) > 0
