import functools
import importlib
import re
from pathlib import Path

import chaincert

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {path.stem for path in Path(chaincert.__file__).parent.glob("*.py")} - {"__init__"}
FILE_SUFFIXES = {"cfg", "csv", "gz", "json", "md", "py", "toml", "txt"}  # verify.csv is a file, not a name


def _module_names(text):
    """Dotted names that open a backticked span and start with a chaincert module, chaincert. dropped."""
    names = set()
    for span in re.findall(r"`([^`]*)`", text):
        match = re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if not match:
            continue
        parts = match.group(0).split(".")
        if parts[0] == "chaincert":
            parts = parts[1:]
        if len(parts) > 1 and parts[0] in MODULES and parts[-1] not in FILE_SUFFIXES:
            names.add(".".join(parts))
    return names


def test_readme_names_only_code_that_exists():
    names = _module_names(README.read_text(encoding="utf-8"))
    assert {"mspace._triu", "chain._check_agreement", "cli.CAPITALIZED_VERDICTS"} <= names
    missing = []
    for name in sorted(names):
        module, *attrs = name.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"chaincert.{module}"))
        except AttributeError:
            missing.append(name)
    assert missing == []


def test_module_names_skip_files_and_other_packages():
    text = "`verify.csv`, `np.dot`, `Check.worst()`, `chaincert.mc.sample`, `verify._gone(x)`, `mspace`"
    assert _module_names(text) == {"mc.sample", "verify._gone"}
