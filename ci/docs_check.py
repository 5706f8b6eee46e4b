#!/usr/bin/env python3
"""Documentation gate: Doxygen build (when available) + doc lint.

Two layers, so the check is useful both on hosted CI (doxygen
installed, full parse) and on minimal dev containers (no doxygen):

1. When a `doxygen` binary is on PATH, build the checked-in Doxyfile
   and fail on any warning (undocumented public symbol in the scoped
   headers, malformed doc comment, unresolved reference). The warning
   log is printed on failure.

2. Always run a lightweight doc-comment lint over the source headers:

   - every header under src/ must open with a `@file` comment block
     (the subsystem-orientation docs ARCHITECTURE.md links into);
   - in the Doxygen-scoped directories (src/ground, src/core), every
     namespace-scope declaration — class/struct/enum definitions,
     constexpr constants, free functions — must be immediately
     preceded by a `/** ... */` doc comment.

   The lint is a heuristic over the house style (declarations start
   in column 0, members are indented; clang-format enforces this), so
   it cannot replace the doxygen pass — it exists to catch the common
   regression (a new undocumented symbol) in environments where
   doxygen is not installed.

3. Always check the metric inventory in both directions: every metric
   name passed as a string literal to
   `telemetry::counter|gauge|histogram("...")` in a source file under
   src/ must appear, in backticks, in docs/OBSERVABILITY.md — a metric
   nobody documented is one nobody can find in a snapshot — and every
   backticked dotted name in that file's Counters/Gauges/Histograms
   bullets must be registered that way — an inventory entry whose
   metric is gone sends readers after a name no snapshot holds.

4. Always check the codec layering: no file under src/ground or
   src/net includes a `codec/` header, except the tile server
   (`tile_server.*`), whose `quality` hint is the one stream consumer
   outside the codec. The archive, the downlink and the wire carry
   opaque bytes; their integrity check is util/crc32.hh.

5. Always check that no file under src/ outside src/codec names
   `truncateStream` or `streamHeaderFloor`: the cutter builds a new
   stream, and the serving path decodes at a byte budget
   (codec::decodeTiles) instead of building a cut record to serve.

6. Always check the environment switches in both directions: every
   `EARTHPLUS_*` name a file under src/ reads through `getenv` or
   `envFlag` must be named in docs/*.md or README.md — a switch nobody
   documented is one nobody can find — and every `EARTHPLUS_*` row of
   the Switches table in docs/OBSERVABILITY.md must be read that way
   under src/ — a documented switch the program never reads does
   nothing.

Exit status: 0 clean, 1 findings, 2 usage/config error.
"""

import os
import re
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose namespace-scope declarations must be documented
# (matches the Doxyfile INPUT).
LINT_SCOPE = ["src/ground", "src/core"]
# Directories whose headers must carry an @file block.
FILE_DOC_SCOPE = ["src"]
# The metric inventory every registered metric name must appear in.
METRIC_DOC = "docs/OBSERVABILITY.md"
# A registry lookup by literal name, qualified or (inside the telemetry
# namespace) bare, possibly wrapped onto the next line.
METRIC_RE = re.compile(
    r"(?<![\w.>])(?:telemetry::)?(counter|gauge|histogram)\(\s*\"([^\"]+)\"")
# One inventory bullet of METRIC_DOC, up to the next bullet or blank
# line.
INVENTORY_RE = re.compile(
    r"^- \*\*(?:Counters|Gauges|Histograms)\*\*(.*?)(?=^- |^\s*$)",
    re.M | re.S)
# A backticked metric name inside a bullet; the other backticked words
# there (`quality`, `ServeError::Shed`, ...) are not dotted lowercase.
DOC_METRIC_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")

# Directories whose files may not include codec/ headers, and the one
# file stem there that may.
CODEC_FREE_SCOPE = ["src/ground", "src/net"]
CODEC_CONSUMER = "tile_server"
CODEC_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*["<]codec/', re.M)

# The cutter's API, which only src/codec may name.
CUT_SCOPE = "src/codec"
CUT_API_RE = re.compile(r"\b(truncateStream|streamHeaderFloor)\b")

# An environment read by literal name: std::getenv("...") or
# telemetry's envFlag("...", default).
ENV_READ_RE = re.compile(
    r"\b(?:std::)?(?:getenv|envFlag)\(\s*\"(EARTHPLUS_[A-Z0-9_]+)\"")
# The docs an environment switch may be named in.
ENV_DOC_FILES = ["README.md"]
ENV_DOC_DIR = "docs"
# The Switches table of METRIC_DOC, and one of its EARTHPLUS_* rows.
SWITCHES_RE = re.compile(r"^## Switches\n(.*?)(?=^## )", re.M | re.S)
SWITCH_ROW_RE = re.compile(r"^\| `(EARTHPLUS_[A-Z0-9_]+)", re.M)

DECL_RE = re.compile(r"^(class|struct|enum)\s+[A-Za-z_]")
FORWARD_DECL_RE = re.compile(r"^(class|struct)\s+\w+;\s*$")
CONST_RE = re.compile(r"^(constexpr|using|typedef)\b")
# A line that is only a (possibly templated) type: the return type of
# a function declared in the two-line house style.
BARE_TYPE_RE = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*$")
# Single-line start of a function declaration/definition.
FUNC_RE = re.compile(r"^[A-Za-z_][\w:<>,&*\s]*\b\w+\s*\(")
SKIP_RE = re.compile(
    r"^(#|//|/\*|\*|\{|\}|namespace\b|template\b|extern\b|public:|"
    r"private:|protected:)")


def strip_comments(line, state):
    """Remove comment text; `state` tracks open block comments."""
    out = []
    i = 0
    while i < len(line):
        if state["block"]:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            state["block"] = False
            i = end + 2
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            state["block"] = True
            i += 2
            continue
        out.append(line[i])
        i += 1
    return "".join(out), state["block"]


def lint_header(path, in_scope):
    """Return a list of (line number, message) findings for one file."""
    findings = []
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    if not any("@file" in line for line in lines[:8]):
        findings.append((1, "missing @file comment block"))
    if not in_scope:
        return findings

    state = {"block": False}
    paren_depth = 0
    prev = ""       # previous significant raw line
    prev2 = ""      # the one before it
    skip_next = False
    for num, raw in enumerate(lines, 1):
        stripped = raw.strip()
        code, in_block = strip_comments(raw, state)
        if in_block or not stripped:
            if stripped:
                prev2, prev = prev, stripped
            continue
        if paren_depth > 0:
            # Continuation of a multi-line declaration.
            paren_depth += code.count("(") - code.count(")")
            prev2, prev = prev, stripped
            continue
        is_col0 = bool(raw) and not raw[0].isspace()
        decl = None
        if is_col0 and code.strip() and not SKIP_RE.match(stripped):
            text = code.strip()
            if skip_next:
                # The name line of a two-line declaration whose
                # return-type line was already checked.
                skip_next = False
            elif DECL_RE.match(text) and not FORWARD_DECL_RE.match(text):
                decl = "type"
            elif CONST_RE.match(text):
                decl = "constant"
            elif FUNC_RE.match(text):
                decl = "function"
            elif BARE_TYPE_RE.match(text) and not text.endswith(";"):
                decl = "function"
                skip_next = True
        if decl:
            documented = prev.endswith("*/") or (
                prev.startswith("template") and prev2.endswith("*/"))
            if not documented:
                findings.append(
                    (num, f"undocumented namespace-scope {decl}: "
                          f"'{stripped[:60]}'"))
        paren_depth += code.count("(") - code.count(")")
        if paren_depth < 0:
            paren_depth = 0
        prev2, prev = prev, stripped
    return findings


def run_lint():
    findings = []
    for scope in FILE_DOC_SCOPE:
        for root, _dirs, files in os.walk(os.path.join(REPO, scope)):
            for name in sorted(files):
                if not name.endswith(".hh"):
                    continue
                path = os.path.join(root, name)
                rel = os.path.relpath(path, REPO)
                in_scope = any(
                    rel.startswith(s + os.sep) for s in LINT_SCOPE)
                for line, message in lint_header(path, in_scope):
                    findings.append(f"{rel}:{line}: {message}")
    return findings


def registered_metrics():
    """(name, kind, "path:line") of every literal metric registration."""
    found = []
    for root, _dirs, files in os.walk(os.path.join(REPO, "src")):
        for name in sorted(files):
            if not name.endswith((".cc", ".hh")):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            rel = os.path.relpath(path, REPO)
            for m in METRIC_RE.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                found.append((m.group(2), m.group(1), f"{rel}:{line}"))
    return sorted(found)


def run_metric_inventory():
    with open(os.path.join(REPO, METRIC_DOC), encoding="utf-8") as f:
        doc = f.read()
    registered = registered_metrics()
    findings = [f"{where}: {kind} '{name}' is not listed in {METRIC_DOC}"
                for name, kind, where in registered
                if f"`{name}`" not in doc]
    names = {name for name, _kind, _where in registered}
    for bullet in INVENTORY_RE.finditer(doc):
        for m in DOC_METRIC_RE.finditer(bullet.group(1)):
            if m.group(1) not in names:
                line = doc.count("\n", 0, bullet.start(1) + m.start()) + 1
                findings.append(
                    f"{METRIC_DOC}:{line}: '{m.group(1)}' is not "
                    f"registered by literal name under src/")
    return findings


def run_codec_layering():
    findings = []
    for scope in CODEC_FREE_SCOPE:
        for root, _dirs, files in os.walk(os.path.join(REPO, scope)):
            for name in sorted(files):
                if (not name.endswith((".cc", ".hh")) or
                        name.split(".")[0] == CODEC_CONSUMER):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                rel = os.path.relpath(path, REPO)
                for m in CODEC_INCLUDE_RE.finditer(text):
                    line = text.count("\n", 0, m.start()) + 1
                    findings.append(
                        f"{rel}:{line}: includes a codec/ header; only "
                        f"{CODEC_CONSUMER}.* may outside src/codec")
    return findings


def run_cut_scope():
    findings = []
    for root, _dirs, files in os.walk(os.path.join(REPO, "src")):
        rel_root = os.path.relpath(root, REPO)
        if rel_root == CUT_SCOPE or rel_root.startswith(CUT_SCOPE + os.sep):
            continue
        for name in sorted(files):
            if not name.endswith((".cc", ".hh")):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            rel = os.path.relpath(path, REPO)
            for m in CUT_API_RE.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{rel}:{line}: names codec::{m.group(1)}; outside "
                    f"{CUT_SCOPE} decode at a budget instead of cutting")
    return findings


def env_reads():
    """(name, "path:line") of every literal EARTHPLUS_* read in src/."""
    found = []
    for root, _dirs, files in os.walk(os.path.join(REPO, "src")):
        for name in sorted(files):
            if not name.endswith((".cc", ".hh")):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            rel = os.path.relpath(path, REPO)
            for m in ENV_READ_RE.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                found.append((m.group(1), f"{rel}:{line}"))
    return sorted(found)


def run_env_switches():
    docs = ENV_DOC_FILES + sorted(
        os.path.join(ENV_DOC_DIR, name)
        for name in os.listdir(os.path.join(REPO, ENV_DOC_DIR))
        if name.endswith(".md"))
    text = ""
    for rel in docs:
        with open(os.path.join(REPO, rel), encoding="utf-8") as f:
            text += f.read()
    reads = env_reads()
    findings = [f"{where}: reads {name}, which no doc in "
                f"{ENV_DOC_DIR}/*.md or README.md names"
                for name, where in reads
                if not re.search(rf"\b{name}\b", text)]
    read_names = {name for name, _where in reads}
    with open(os.path.join(REPO, METRIC_DOC), encoding="utf-8") as f:
        doc = f.read()
    table = SWITCHES_RE.search(doc)
    if not table:
        return findings + [f"{METRIC_DOC}: no '## Switches' section"]
    for m in SWITCH_ROW_RE.finditer(table.group(1)):
        if m.group(1) not in read_names:
            line = doc.count("\n", 0, table.start(1) + m.start()) + 1
            findings.append(
                f"{METRIC_DOC}:{line}: Switches row {m.group(1)} is "
                f"not read through getenv/envFlag under src/")
    return findings


def run_doxygen():
    doxygen = shutil.which("doxygen")
    if not doxygen:
        print("docs_check: doxygen not installed; skipping the full "
              "API-doc build (the doc lint below still runs — CI runs "
              "doxygen)")
        return []
    os.makedirs(os.path.join(REPO, "build-docs"), exist_ok=True)
    proc = subprocess.run([doxygen, "Doxyfile"], cwd=REPO,
                          capture_output=True, text=True)
    log_path = os.path.join(REPO, "build-docs", "doxygen-warnings.log")
    warnings = []
    if os.path.exists(log_path):
        with open(log_path, encoding="utf-8", errors="replace") as f:
            warnings = [w for w in f.read().splitlines() if w.strip()]
    if proc.returncode != 0:
        warnings.append(f"doxygen exited with status {proc.returncode}: "
                        f"{proc.stderr.strip()[:500]}")
    else:
        print("docs_check: doxygen build completed")
    return warnings


def main():
    failures = run_doxygen()
    failures += run_lint()
    failures += run_metric_inventory()
    failures += run_codec_layering()
    failures += run_cut_scope()
    failures += run_env_switches()
    if failures:
        print("docs_check: FAILED")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("docs_check: documentation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
