#!/usr/bin/env python3
"""AST-grounded static analysis for the protocol layer (docs/STATIC.md).

Two passes over the real sources — no regex scraping of code:

  Pass 1 (protocol model): recover, for every protocol family registered in
  `src/proto/factory.cpp`, the effective `Protocol::handle` dispatch — the
  family's own switch merged with any base-class switch its `default:`
  explicitly delegates to — plus the `DirState` switches inside each home
  handler. Prove MsgKind exhaustiveness (every enumerator handled, owned by
  the sync service, or explicitly annotated `// proto-lint: unreachable`),
  flag dead/duplicate/stale cases, attribute message *send* sites to
  families through the class hierarchy (virtual overrides narrow the
  attribution), emit `build/proto_model.json`, and cross-validate the model
  against the tables in docs/PROTOCOL.md.

  Pass 2 (determinism lint): walk every source under `src/` for constructs
  that can break the bit-identical-stats contract the golden digests and
  `--jobs` reproducibility depend on: `std::unordered_*` containers
  (iteration-order hazard — use util::FlatMap/FlatSet or annotate),
  pointer-keyed ordered containers, and entropy/wall-clock calls
  (`rand`, `std::random_device`, `std::mt19937` without a derived seed,
  `*_clock::now`, `gettimeofday`, `time`). `// det-lint: ok(reason)`
  allowlists a specific line.

The analysis is grounded in a token-level parse of the translation units:
a built-in C++ lexer + structural parser with zero dependencies,
deterministic and tested by the fixture suite.

Run `scripts/run_static_checks.py` for the CI entry point.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
          "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")


@dataclass
class Tok:
    kind: str  # id | num | str | chr | punct
    text: str
    line: int


@dataclass
class Comment:
    line: int        # first line of the comment
    end_line: int    # last line
    col: int         # start column on its first line
    text: str


class LexError(Exception):
    pass


def lex(text: str):
    """Tokenize C++ source. Returns (tokens, comments). Preprocessor lines
    (including continuations) are dropped; comments are collected separately
    for annotation scanning."""
    toks: list[Tok] = []
    comments: list[Comment] = []
    i, n, line = 0, len(text), 1
    col = 0
    at_line_start = True

    def newline_count(s: str) -> int:
        return s.count("\n")

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 0
            at_line_start = True
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            col += 1
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: skip to unescaped end of line.
            j = i
            while j < n:
                if text[j] == "\\" and j + 1 < n and text[j + 1] == "\n":
                    j += 2
                    line += 1
                    continue
                if text[j] == "\n":
                    break
                j += 1
            i = j
            continue
        at_line_start = False
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            comments.append(Comment(line, line, col, text[i + 2:j]))
            i = j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise LexError(f"line {line}: unterminated block comment")
            body = text[i + 2:j]
            comments.append(Comment(line, line + newline_count(body), col,
                                    body))
            line += newline_count(body)
            i = j + 2
            continue
        if c == 'R' and text[i:i + 2] == 'R"':
            # Raw string literal R"delim( ... )delim"
            m = re.match(r'R"([^()\\ ]*)\(', text[i:])
            if m is None:
                raise LexError(f"line {line}: bad raw string")
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            if j < 0:
                raise LexError(f"line {line}: unterminated raw string")
            lit = text[i:j + len(close)]
            toks.append(Tok("str", lit, line))
            line += newline_count(lit)
            i = j + len(close)
            continue
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise LexError(f"line {line}: unterminated string")
            toks.append(Tok("str", text[i:j + 1], line))
            i = j + 1
            continue
        if c == "'" and not (toks and toks[-1].kind == "num"):
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            if j >= n:
                raise LexError(f"line {line}: unterminated char literal")
            toks.append(Tok("chr", text[i:j + 1], line))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._'" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        for p in PUNCT3:
            if text.startswith(p, i):
                toks.append(Tok("punct", p, line))
                i += 3
                break
        else:
            for p in PUNCT2:
                if text.startswith(p, i):
                    toks.append(Tok("punct", p, line))
                    i += 2
                    break
            else:
                toks.append(Tok("punct", c, line))
                i += 1
        col += 1
    return toks, comments


# ---------------------------------------------------------------------------
# Annotations
# ---------------------------------------------------------------------------

# Anchored: an annotation must begin the comment text, so prose that merely
# *mentions* the grammar (docs, fixture headers) is never parsed as one.
ANNOT_RE = re.compile(r"\s*(proto-lint|det-lint)\s*:\s*(unreachable|ok)\s*\(")


@dataclass
class Annotation:
    tool: str        # proto-lint | det-lint
    verb: str        # unreachable | ok
    names: list[str]  # for proto-lint: enumerators (or ["*"]); det-lint: []
    reason: str
    line: int        # line of the annotation itself
    attach_line: int  # code line the annotation governs
    used: bool = False


def _merge_comment_run(comments: list[Comment], start: int) -> tuple[str, int]:
    """Join a run of consecutive single-line comments starting at index
    `start` until parentheses balance. Returns (joined text, end line)."""
    text = comments[start].text
    end = comments[start].end_line
    k = start
    while text.count("(") > text.count(")") and k + 1 < len(comments):
        nxt = comments[k + 1]
        if nxt.line != comments[k].end_line + 1:
            break
        text += " " + nxt.text
        end = nxt.end_line
        k += 1
    return text, end


def parse_annotations(toks: list[Tok], comments: list[Comment]
                      ) -> tuple[list[Annotation], list[dict]]:
    """Extract proto-lint/det-lint annotations and compute the code line
    each one attaches to (its own line when code precedes the comment,
    otherwise the next line holding a token)."""
    token_lines = sorted({t.line for t in toks})
    findings: list[dict] = []
    out: list[Annotation] = []
    for idx, c in enumerate(comments):
        m = ANNOT_RE.match(c.text)
        if m is None:
            continue
        tool, verb = m.group(1), m.group(2)
        merged, end_line = _merge_comment_run(comments, idx)
        m2 = ANNOT_RE.match(merged)
        depth, j = 1, m2.end()
        while j < len(merged) and depth > 0:
            if merged[j] == "(":
                depth += 1
            elif merged[j] == ")":
                depth -= 1
            j += 1
        if depth != 0:
            findings.append({"rule": "annotation-syntax", "line": c.line,
                             "msg": f"{tool}: {verb}(...) never closes"})
            continue
        body = merged[m2.end():j - 1].strip()
        names: list[str] = []
        reason = body
        if tool == "proto-lint":
            # unreachable(<Name>[, <Name>...] : reason)  |  unreachable(*: r)
            head, sep, tail = body.partition(":")
            if sep and not head.strip().startswith('"'):
                names = [s.strip() for s in head.split(",") if s.strip()]
                reason = tail.strip()
            else:
                names, reason = [], ""
        if not reason:
            findings.append({"rule": "annotation-reason", "line": c.line,
                             "msg": f"{tool}: {verb}() carries no reason "
                                    "string (grammar: ...(names: reason))"})
            continue
        # Attachment: same line if code precedes the comment, else the next
        # code line after the comment block.
        same_line_code = any(t.line == c.line for t in toks)
        if same_line_code:
            attach = c.line
        else:
            attach = next((ln for ln in token_lines if ln > end_line), -1)
        out.append(Annotation(tool, verb, names, reason, c.line, attach))
    return out, findings


# ---------------------------------------------------------------------------
# Structural parser
# ---------------------------------------------------------------------------

@dataclass
class CaseGroup:
    labels: list[str]            # enumerator names (qualifier stripped)
    qualifier: str               # e.g. "MsgKind", "DirState", "" for default
    line: int
    is_default: bool = False
    body: list[Tok] = field(default_factory=list)
    asserts_false: bool = False  # body is an assert(false...) sentinel
    handler: str = ""            # `return fn(msg, start)` target, if any
    delegate: str = ""           # `return Base::handle(...)` in default


@dataclass
class Switch:
    subject: str                 # source text of the controlling expression
    line: int
    enum: str                    # qualifier of the first labelled case
    groups: list[CaseGroup] = field(default_factory=list)

    def case_names(self) -> list[str]:
        names = []
        for g in self.groups:
            names += g.labels
        return names

    def default_group(self):
        for g in self.groups:
            if g.is_default:
                return g
        return None


@dataclass
class Func:
    qualname: str                # Class::name or bare name
    cls: str                     # enclosing/qualifying class ("" if free)
    name: str
    file: str
    start: int
    end: int
    body: list[Tok] = field(default_factory=list)
    switches: list[Switch] = field(default_factory=list)
    msgkind_uses: list[str] = field(default_factory=list)  # outside labels
    returns_str: str = ""        # literal of a lone `return "...";` body


@dataclass
class SourceModel:
    """Per-repo parse results."""
    enums: dict[str, list[str]] = field(default_factory=dict)
    enum_files: dict[str, str] = field(default_factory=dict)
    bases: dict[str, str] = field(default_factory=dict)      # class -> base
    funcs: list[Func] = field(default_factory=list)
    annotations: dict[str, list[Annotation]] = field(default_factory=dict)
    annot_findings: dict[str, list[dict]] = field(default_factory=dict)
    tags: dict[str, str] = field(default_factory=dict)       # kTag* -> file:line
    consts: dict[str, str] = field(default_factory=dict)     # other k* consts

    def functions_of(self, cls: str) -> set[str]:
        return {f.name for f in self.funcs if f.cls == cls}

    def find_func(self, cls: str, name: str):
        for f in self.funcs:
            if f.cls == cls and f.name == name:
                return f
        return None

    def resolve_method(self, cls: str, name: str) -> str:
        """Walk `cls` up its base chain to the class that defines `name`."""
        c = cls
        while c:
            if self.find_func(c, name) is not None:
                return c
            c = self.bases.get(c, "")
        return ""


def _tok_text(toks: list[Tok]) -> str:
    return " ".join(t.text for t in toks)


def _find_matching(toks: list[Tok], i: int, open_t: str, close_t: str) -> int:
    """Index of the token closing the bracket opened at i."""
    depth = 0
    for j in range(i, len(toks)):
        if toks[j].text == open_t:
            depth += 1
        elif toks[j].text == close_t:
            depth -= 1
            if depth == 0:
                return j
    raise LexError(f"line {toks[i].line}: unbalanced {open_t}")


def _parse_enum(toks: list[Tok], i: int):
    """toks[i] == 'enum'. Returns (name, members, end_index) or None."""
    j = i + 1
    if j < len(toks) and toks[j].text in ("class", "struct"):
        j += 1
    if j >= len(toks) or toks[j].kind != "id":
        return None
    name = toks[j].text
    j += 1
    while j < len(toks) and toks[j].text not in ("{", ";"):
        j += 1
    if j >= len(toks) or toks[j].text != "{":
        return None  # forward declaration
    close = _find_matching(toks, j, "{", "}")
    members = []
    depth = 0
    expect_member = True
    for k in range(j + 1, close):
        t = toks[k]
        if t.text in ("(", "{", "["):
            depth += 1
        elif t.text in (")", "}", "]"):
            depth -= 1
        elif depth == 0 and t.text == ",":
            expect_member = True
        elif depth == 0 and expect_member and t.kind == "id":
            members.append(t.text)
            expect_member = False
    return name, members, close


def _label_end(toks: list[Tok], i: int) -> int:
    """Index of the ':' ending a case label starting at toks[i]=='case'."""
    depth = 0
    ternary = 0
    j = i + 1
    while j < len(toks):
        t = toks[j].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == "?":
            ternary += 1
        elif t == ":" and depth == 0:
            if ternary:
                ternary -= 1
            else:
                return j
        j += 1
    raise LexError(f"line {toks[i].line}: case label without ':'")


def _parse_switch(toks: list[Tok], i: int) -> tuple[Switch, int]:
    """toks[i] == 'switch'. Returns (Switch, index past the closing brace)."""
    par = i + 1
    assert toks[par].text == "("
    par_close = _find_matching(toks, par, "(", ")")
    subject = _tok_text(toks[par + 1:par_close]).replace(" :: ", "::")
    subject = subject.replace(" . ", ".").replace(" -> ", "->")
    brace = par_close + 1
    while toks[brace].text != "{":
        brace += 1
    brace_close = _find_matching(toks, brace, "{", "}")
    sw = Switch(subject=subject, line=toks[i].line, enum="")

    j = brace + 1
    depth = 0
    cur: CaseGroup | None = None
    while j < brace_close:
        t = toks[j]
        if t.text in ("{", "(", "["):
            depth += 1
        elif t.text in ("}", ")", "]"):
            depth -= 1
        if depth == 0 and t.text == "case" and toks[j].kind == "id":
            colon = _label_end(toks, j)
            label_toks = toks[j + 1:colon]
            # qualifier::name  or  bare name
            name = label_toks[-1].text
            qual = ""
            if len(label_toks) >= 3 and label_toks[-2].text == "::":
                qual = label_toks[-3].text
            if cur is None or cur.body:
                cur = CaseGroup(labels=[], qualifier=qual, line=t.line)
                sw.groups.append(cur)
            cur.labels.append(name)
            if qual and not cur.qualifier:
                cur.qualifier = qual
            if qual and not sw.enum:
                sw.enum = qual
            j = colon + 1
            continue
        if depth == 0 and t.text == "default" and toks[j + 1].text == ":":
            if cur is None or cur.body:
                cur = CaseGroup(labels=[], qualifier="", line=t.line)
                sw.groups.append(cur)
            cur.is_default = True
            j += 2
            continue
        if cur is not None:
            cur.body.append(t)
        j += 1

    for g in sw.groups:
        _summarize_case(g)
    return sw, brace_close + 1


def _summarize_case(g: CaseGroup) -> None:
    body = g.body
    texts = [t.text for t in body]
    if "assert" in texts:
        k = texts.index("assert")
        if k + 2 < len(texts) and texts[k + 1] == "(" and texts[k + 2] == "false":
            g.asserts_false = True
    # `return fn ( msg , start ) ;`  |  `return Base :: handle ( ... ) ;`
    if texts[:1] == ["return"] and len(texts) > 2:
        if len(texts) > 4 and texts[2] == "::" and texts[4] == "(":
            g.delegate = f"{texts[1]}::{texts[3]}"
        elif texts[1].isidentifier() and texts[2] == "(":
            g.handler = texts[1]


def _scan_body(fn: Func) -> None:
    """Populate switches and MsgKind uses (excluding case labels and switch
    subjects) for a parsed function body."""
    toks = fn.body
    label_spans: list[tuple[int, int]] = []
    j = 0
    while j < len(toks):
        if toks[j].text == "switch" and toks[j].kind == "id":
            sw, _ = _parse_switch(toks, j)
            fn.switches.append(sw)
        if toks[j].text == "case" and toks[j].kind == "id":
            label_spans.append((j, _label_end(toks, j)))
        j += 1
    for k in range(len(toks) - 2):
        if (toks[k].text == "MsgKind" and toks[k + 1].text == "::" and
                toks[k + 2].kind == "id"):
            if any(a <= k <= b for a, b in label_spans):
                continue
            fn.msgkind_uses.append(toks[k + 2].text)
    # `return "Name";` bodies (protocol name() overrides)
    texts = [t.text for t in toks]
    if len(texts) == 3 and texts[0] == "return" and toks[1].kind == "str":
        fn.returns_str = texts[1][1:-1]


_SCOPE_KEYWORDS = ("if", "for", "while", "switch", "do", "else", "try",
                   "catch")


def parse_file(path: Path, rel: str, model: SourceModel) -> None:
    text = path.read_text()
    toks, comments = lex(text)
    annots, afinds = parse_annotations(toks, comments)
    model.annotations[rel] = annots
    model.annot_findings[rel] = afinds

    # Statement scanner at namespace/class scope.
    i = 0
    n = len(toks)
    class_stack: list[str] = []  # enclosing class names ("" for non-class)

    def scan_scope(i: int, end: int, cls: str) -> None:
        """Scan tokens [i, end) at namespace/class scope."""
        head_start = i
        while i < end:
            t = toks[i]
            if t.text == ";":
                _scan_decl_head(toks, head_start, i, rel, model, cls)
                i += 1
                head_start = i
                continue
            if t.text == "enum":
                r = _parse_enum(toks, i)
                if r is not None:
                    name, members, close = r
                    if name not in model.enums:
                        model.enums[name] = members
                        model.enum_files[name] = rel
                    i = close + 1
                    head_start = i
                    continue
                i += 1
                continue
            if t.text in ("class", "struct") and toks[i + 1].kind == "id":
                # Type definition or forward declaration?
                j = i + 1
                name = toks[j].text
                j += 1
                base = ""
                while j < end and toks[j].text not in ("{", ";"):
                    if toks[j].text == ":" and toks[j - 1].text != ":":
                        k = j + 1
                        while k < end and toks[k].text in ("public", "private",
                                                           "protected",
                                                           "virtual"):
                            k += 1
                        # qualified base: A::B -> take last id before , {
                        ids = []
                        while k < end and toks[k].text not in (",", "{"):
                            if toks[k].kind == "id":
                                ids.append(toks[k].text)
                            k += 1
                        if ids:
                            base = ids[-1]
                    j += 1
                if j < end and toks[j].text == "{":
                    close = _find_matching(toks, j, "{", "}")
                    if base:
                        model.bases[name] = base
                    elif name not in model.bases:
                        model.bases.setdefault(name, "")
                    scan_scope(j + 1, close, name)
                    i = close + 1
                    # swallow trailing `;`
                    if i < end and toks[i].text == ";":
                        i += 1
                    head_start = i
                    continue
                # forward declaration: fall through to `;` handling
                i = j
                continue
            if t.text == "namespace":
                j = i + 1
                while j < end and toks[j].text != "{" and toks[j].text != ";":
                    j += 1
                if j < end and toks[j].text == "{":
                    close = _find_matching(toks, j, "{", "}")
                    scan_scope(j + 1, close, cls)
                    i = close + 1
                    head_start = i
                    continue
                i = j + 1
                head_start = i
                continue
            if t.text == "{":
                close = _find_matching(toks, i, "{", "}")
                _scan_braced_head(toks, head_start, i, close, rel, model, cls)
                i = close + 1
                if i < end and toks[i].text == ";":
                    i += 1
                head_start = i
                continue
            if t.text == "=" and i + 1 < end and toks[i + 1].text == "{":
                # brace initializer in a declaration: skip it
                close = _find_matching(toks, i + 1, "{", "}")
                i = close + 1
                continue
            if t.text == "(":
                i = _find_matching(toks, i, "(", ")") + 1
                continue
            i += 1
        # trailing headless tokens ignored

    def _scan_braced_head(toks, head_start, brace, close, rel, model, cls):
        """A `{` at namespace/class scope: function definition if the head
        contains a parameter list."""
        head = toks[head_start:brace]
        par = next((k for k, t in enumerate(head) if t.text == "("), None)
        if par is None or par == 0:
            return
        # name = trailing id/:: chain before the first '('
        k = par - 1
        parts = []
        while k >= 0 and (head[k].kind == "id" or head[k].text == "::" or
                          head[k].text == "~"):
            parts.append(head[k].text)
            k -= 1
            if len(parts) >= 2 and parts[-1] != "::" and parts[-2] != "::":
                if parts[-1] not in ("::",):
                    break
        parts.reverse()
        chain = [p for p in parts if p != "::"]
        if not chain:
            return
        name = chain[-1]
        fcls = chain[-2] if len(chain) >= 2 and "::" in parts else cls
        if name in _SCOPE_KEYWORDS or not name.isidentifier():
            return
        fn = Func(qualname=(f"{fcls}::{name}" if fcls else name),
                  cls=fcls, name=name, file=rel,
                  start=head[0].line if head else toks[brace].line,
                  end=toks[close].line,
                  body=toks[brace + 1:close])
        _scan_body(fn)
        model.funcs.append(fn)

    def _scan_decl_head(toks, head_start, semi, rel, model, cls):
        """Declaration ending in ';' — harvest constexpr k* constants."""
        head = toks[head_start:semi]
        texts = [t.text for t in head]
        if "constexpr" in texts and "=" in texts:
            eq = texts.index("=")
            for k in range(eq - 1, -1, -1):
                if head[k].kind == "id" and re.fullmatch(r"k[A-Z]\w*",
                                                         head[k].text):
                    where = f"{rel}:{head[k].line}"
                    if head[k].text.startswith("kTag"):
                        model.tags[head[k].text] = where
                    else:
                        model.consts[head[k].text] = where
                    break

    scan_scope(0, n, "")


# ---------------------------------------------------------------------------
# Pass 1: protocol model
# ---------------------------------------------------------------------------

PROTO_FILES = ("src/proto", "src/mesh/message.hpp", "src/check/checker.hpp",
               "src/sim/event.hpp", "src/core/params.hpp")


def load_model(root: Path) -> SourceModel:
    model = SourceModel()
    files: list[Path] = []
    for spec in PROTO_FILES:
        p = root / spec
        if p.is_dir():
            files += sorted(p.glob("*.hpp")) + sorted(p.glob("*.cpp"))
        elif p.is_file():
            files.append(p)
    for f in files:
        parse_file(f, str(f.relative_to(root)), model)
    return model


@dataclass
class Family:
    name: str                  # display name ("SC", "LRC-ext", ...)
    cls: str                   # implementing class ("Sc", ...)
    chain: list[str]           # class chain up to ProtocolBase
    handle: str = ""           # qualname of the effective handle
    transitions: dict = field(default_factory=dict)   # kind -> info
    unreachable: dict = field(default_factory=dict)   # kind -> reason
    sends: dict = field(default_factory=dict)         # kind -> [qualnames]


def discover_families(model: SourceModel) -> list[Family]:
    """Families = the factory switch in make_protocol: one per ProtocolKind
    enumerator, class from the make_unique target, display name from the
    class's name() override."""
    factory = model.find_func("", "make_protocol")
    fams: list[Family] = []
    if factory is None or not factory.switches:
        return fams
    sw = factory.switches[0]
    for g in sw.groups:
        if g.is_default and not g.labels:
            continue
        texts = [t.text for t in g.body]
        cls = ""
        for k, t in enumerate(texts):
            if t == "make_unique" and k + 2 < len(texts):
                cls = texts[k + 2]
                break
        if not cls:
            continue
        chain = [cls]
        c = cls
        while model.bases.get(c):
            c = model.bases[c]
            chain.append(c)
        name_cls = model.resolve_method(cls, "name")
        name_fn = model.find_func(name_cls, "name") if name_cls else None
        display = name_fn.returns_str if (name_fn and name_fn.returns_str) \
            else cls
        for label in g.labels:
            fams.append(Family(name=display, cls=cls, chain=chain))
    return fams


def family_classes_of(model: SourceModel, fams: list[Family],
                      cls: str, name: str) -> set[str]:
    """Display names of the families whose virtual dispatch of `name`
    lands on `cls::name` (override-aware attribution)."""
    out = set()
    for fam in fams:
        if model.resolve_method(fam.cls, name) == cls:
            out.add(fam.name)
    return out


def effective_dispatch(model: SourceModel, fam: Family, findings: list[dict]):
    """Merge the family's handle switch with explicitly-delegated base
    switches. Fills fam.handle / fam.transitions / fam.unreachable."""
    cls = model.resolve_method(fam.cls, "handle")
    if not cls:
        findings.append({"rule": "no-handle", "family": fam.name,
                         "msg": f"{fam.cls}: no handle() in class chain"})
        return
    seen_kinds: dict[str, str] = {}
    chain_fns: list[str] = []
    while cls:
        fn = model.find_func(cls, "handle")
        if fn is None or not fn.switches:
            findings.append({"rule": "no-dispatch-switch", "family": fam.name,
                             "msg": f"{cls}::handle has no dispatch switch"})
            return
        sw = fn.switches[0]
        chain_fns.append(fn.qualname)
        next_cls = ""
        for g in sw.groups:
            for label in g.labels:
                if label in seen_kinds:
                    findings.append({
                        "rule": "shadowed-case", "family": fam.name,
                        "gating": False,
                        "msg": f"{fn.qualname} case {label} shadowed by "
                               f"{seen_kinds[label]} earlier in the chain"})
                    continue
                handler = g.handler or ("(inline)" if g.body else "")
                hq = handler
                if handler and handler not in ("(inline)",):
                    hcls = model.resolve_method(cls, handler)
                    hq = f"{hcls}::{handler}" if hcls else handler
                seen_kinds[label] = fn.qualname
                fam.transitions[label] = {
                    "handler": hq,
                    "dispatch": fn.qualname,
                    "source": f"{fn.file}:{g.line}",
                }
            if g.is_default:
                if g.delegate:
                    base_cls, base_fn = g.delegate.split("::", 1)
                    if base_fn == "handle":
                        next_cls = base_cls
                ann = _annotation_for(model, fn.file, g.line, "proto-lint")
                if ann is not None:
                    if ann.names == ["*"]:
                        findings.append({
                            "rule": "wildcard-unreachable", "family": fam.name,
                            "msg": f"{fn.qualname}: wildcard proto-lint "
                                   "annotation not allowed in a protocol "
                                   "dispatch switch — list the kinds"})
                    for nm in ann.names:
                        # Kinds already dispatched by a more-derived switch
                        # in this family's chain never reach this default —
                        # the annotation is simply vacuous for this family.
                        if nm not in seen_kinds:
                            fam.unreachable[nm] = ann.reason
                    ann.used = True
        cls = next_cls
    fam.handle = chain_fns[0]
    fam.dispatch_chain = chain_fns  # type: ignore


def _annotation_for(model: SourceModel, rel: str, line: int, tool: str):
    for a in model.annotations.get(rel, []):
        if a.tool == tool and a.attach_line == line:
            return a
    return None


def dir_state_switches(model: SourceModel, fam: Family) -> dict:
    """DirState switches inside the family's home-side handlers, with
    per-state assert-unreachable auditing."""
    out = {}
    for kind, info in fam.transitions.items():
        h = info.get("handler", "")
        if "::" not in h:
            continue
        hcls, hname = h.split("::", 1)
        fn = model.find_func(hcls, hname)
        if fn is None:
            continue
        for sw in fn.switches:
            if sw.enum != "DirState":
                continue
            states = {}
            for g in sw.groups:
                for label in g.labels:
                    states[label] = {"asserts_unreachable": g.asserts_false,
                                     "line": g.line}
            out.setdefault(h, {"file": fn.file, "line": sw.line,
                               "states": states, "kinds": []})
            if kind not in out[h]["kinds"]:
                out[h]["kinds"].append(kind)
    for h in out.values():
        h["kinds"].sort()
    return out


def check_exhaustiveness(model: SourceModel, fams: list[Family],
                         sync_kinds: set[str], findings: list[dict]) -> None:
    msg_kinds = [m for m in model.enums.get("MsgKind", []) if m != "kCount"]
    for fam in fams:
        handled = set(fam.transitions)
        annotated = set(fam.unreachable)
        for k in msg_kinds:
            if k in handled or k in sync_kinds:
                continue
            if k in annotated:
                continue
            findings.append({
                "rule": "unhandled-kind", "family": fam.name,
                "msg": f"{fam.name}: MsgKind::{k} reaches {fam.handle}'s "
                       "default but is neither handled nor annotated "
                       "`// proto-lint: unreachable(...)`"})
        for k in sorted(annotated):
            if k in handled:
                findings.append({
                    "rule": "stale-annotation", "family": fam.name,
                    "msg": f"{fam.name}: MsgKind::{k} is annotated "
                           f"unreachable but {fam.transitions[k]['dispatch']} "
                           "handles it"})
            elif k in sync_kinds:
                findings.append({
                    "rule": "stale-annotation", "family": fam.name,
                    "msg": f"{fam.name}: MsgKind::{k} is annotated "
                           "unreachable but is owned by the sync service"})
            elif k not in model.enums.get("MsgKind", []):
                findings.append({
                    "rule": "unknown-annotation", "family": fam.name,
                    "msg": f"{fam.name}: annotation names unknown "
                           f"enumerator {k}"})


def audit_state_switches(model: SourceModel, fams: list[Family],
                         findings: list[dict]) -> dict:
    all_states = model.enums.get("DirState", [])
    per_family = {}
    for fam in fams:
        sws = dir_state_switches(model, fam)
        per_family[fam.name] = sws
        for h, info in sws.items():
            for state, st in info["states"].items():
                if st["asserts_unreachable"]:
                    ann = _annotation_for(model, info["file"], st["line"],
                                          "proto-lint")
                    if ann is None or (state not in ann.names and
                                       ann.names != ["*"]):
                        findings.append({
                            "rule": "unannotated-dead-case",
                            "family": fam.name,
                            "msg": f"{h} ({info['file']}:{st['line']}): "
                                   f"case {state} asserts unreachable but "
                                   "carries no proto-lint: unreachable "
                                   "annotation"})
                    elif ann is not None:
                        ann.used = True
            missing = [s for s in all_states if s not in info["states"]]
            if missing:
                findings.append({
                    "rule": "missing-state-case", "family": fam.name,
                    "msg": f"{h} ({info['file']}:{info['line']}): DirState "
                           f"switch missing {', '.join(missing)}"})
    return per_family


def collect_sends(model: SourceModel, fams: list[Family]) -> None:
    """Attribute MsgKind uses outside case labels to families through the
    virtual-dispatch chain of the enclosing method."""
    for fam in fams:
        fam.sends = {}
    for fn in model.funcs:
        if not fn.msgkind_uses or not fn.file.startswith("src/proto"):
            continue
        if fn.cls == "SyncManager":
            targets = {f.name for f in fams}
        elif fn.cls:
            targets = family_classes_of(model, fams, fn.cls, fn.name)
        else:
            continue
        if not targets:
            continue
        for fam in fams:
            if fam.name not in targets:
                continue
            for k in fn.msgkind_uses:
                fam.sends.setdefault(k, [])
                if fn.qualname not in fam.sends[k]:
                    fam.sends[k].append(fn.qualname)


def build_protocol_model(root: Path):
    """Returns (model_dict, findings). Gating findings have gating != False."""
    model = load_model(root)
    findings: list[dict] = []
    for rel, fs in model.annot_findings.items():
        for f in fs:
            findings.append({**f, "file": rel})

    fams = discover_families(model)
    if not fams:
        findings.append({"rule": "no-families",
                         "msg": "factory.cpp: no protocol families found"})
        return {}, findings

    # Sync service ownership: the kinds SyncManager::handle dispatches.
    sync_fn = model.find_func("SyncManager", "handle")
    sync_kinds: set[str] = set()
    if sync_fn is not None and sync_fn.switches:
        sync_kinds = set(sync_fn.switches[0].case_names())
        d = sync_fn.switches[0].default_group()
        if d is not None:
            ann = _annotation_for(model, sync_fn.file, d.line, "proto-lint")
            if ann is not None:
                ann.used = True

    for fam in fams:
        effective_dispatch(model, fam, findings)
    check_exhaustiveness(model, fams, sync_kinds, findings)
    state_sw = audit_state_switches(model, fams, findings)
    collect_sends(model, fams)

    # Annotations that never matched anything are stale.
    for rel, annots in model.annotations.items():
        for a in annots:
            if a.tool == "proto-lint" and not a.used:
                findings.append({
                    "rule": "orphan-annotation", "file": rel,
                    "msg": f"{rel}:{a.line}: proto-lint annotation attaches "
                           "to nothing the extractor audits"})

    # Families sharing a handler chain produce identical findings — dedup.
    uniq: dict[tuple, dict] = {}
    for f in findings:
        uniq.setdefault((f["rule"], f["msg"]), f)
    findings = list(uniq.values())

    out = {
        "generator": "tools/proto_model.py",
        "enums": {k: v for k, v in sorted(model.enums.items())},
        "enum_files": dict(sorted(model.enum_files.items())),
        "tags": dict(sorted(model.tags.items())),
        "consts": dict(sorted(model.consts.items())),
        "sync_kinds": sorted(sync_kinds),
        "families": {},
        "functions": {
            f.qualname: {"file": f.file, "start": f.start, "end": f.end}
            for f in sorted(model.funcs, key=lambda f: (f.file, f.start))
            if f.qualname
        },
    }
    for fam in fams:
        out["families"][fam.name] = {
            "class": fam.cls,
            "chain": fam.chain,
            "handle": fam.handle,
            "dispatch_chain": getattr(fam, "dispatch_chain", []),
            "transitions": {k: fam.transitions[k]
                            for k in sorted(fam.transitions)},
            "dir_state_switches": state_sw.get(fam.name, {}),
            "unreachable": dict(sorted(fam.unreachable.items())),
            "sends": {k: sorted(v) for k, v in sorted(fam.sends.items())},
        }
    return out, findings


# ---------------------------------------------------------------------------
# Doc cross-validation (docs/PROTOCOL.md)
# ---------------------------------------------------------------------------

def _doc_families(cell: str, all_names: list[str]) -> set[str]:
    cell = cell.strip()
    if cell.lower() == "all":
        return set(all_names)
    return {s.strip() for s in cell.split(",") if s.strip()}


def check_docs(root: Path, model_json: dict) -> list[dict]:
    doc = (root / "docs" / "PROTOCOL.md").read_text()
    findings: list[dict] = []
    fam_names = sorted(model_json["families"])
    sync_kinds = set(model_json["sync_kinds"])

    # --- Message vocabulary table: per-kind "Used by" parity vs send sites.
    vocab: dict[str, set[str]] = {}
    in_vocab = False
    for line in doc.splitlines():
        if line.startswith("## "):
            in_vocab = line.strip() == "## Message vocabulary"
        if not in_vocab or not line.startswith("| `k"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 4:
            continue
        kinds = re.findall(r"`(k[A-Z]\w*)`", cells[0])
        used = _doc_families(cells[2], fam_names)
        for k in kinds:
            vocab[k] = used

    model_used: dict[str, set[str]] = {}
    for fname, fam in model_json["families"].items():
        for k in fam["sends"]:
            model_used.setdefault(k, set()).add(fname)
    for k in sorted(set(vocab) | set(model_used)):
        if k in sync_kinds:
            continue  # sync kinds are attributed to every family by design
        doc_set = vocab.get(k)
        mod_set = model_used.get(k)
        if doc_set is None:
            findings.append({"rule": "doc-missing-kind",
                             "msg": f"PROTOCOL.md vocabulary table has no "
                                    f"row for {k} (sent by "
                                    f"{', '.join(sorted(mod_set))})"})
        elif mod_set is None:
            findings.append({"rule": "doc-phantom-kind",
                             "msg": f"PROTOCOL.md lists {k} but no send "
                                    "site exists in src/proto"})
        elif doc_set != mod_set:
            findings.append({
                "rule": "doc-used-by-drift",
                "msg": f"PROTOCOL.md says {k} is used by "
                       f"{{{', '.join(sorted(doc_set))}}} but the AST "
                       f"attributes its send sites to "
                       f"{{{', '.join(sorted(mod_set))}}}"})

    # --- Home-transition tables: row kinds and state columns per family.
    for fam_name, heading in (("SC", "## SC and ERC"), ("LRC", "## LRC —")):
        fam = model_json["families"].get(fam_name)
        if fam is None:
            continue
        section = doc.find(heading)
        sub = doc.find("### Home transitions", section) if section >= 0 else -1
        header, rows = None, []
        if sub >= 0:
            for line in doc[sub:].splitlines()[1:]:
                if line.startswith("### ") or line.startswith("## "):
                    break
                if not line.startswith("|"):
                    if header is not None and rows:
                        break  # table ended
                    continue
                cells = [c.strip() for c in line.strip().strip("|").split("|")]
                if header is None:
                    header = cells
                    continue
                if set("".join(cells)) <= set("-| :"):
                    continue  # separator row
                rows.append(cells)
        if header is None:
            findings.append({"rule": "doc-missing-table",
                             "msg": f"PROTOCOL.md: no home-transition table "
                                    f"under {heading}"})
            continue
        doc_rows = set()
        for cells in rows:
            doc_rows |= {t for t in re.findall(r"`(k[A-Z]\w*)`", cells[0])
                         if not t.startswith("kTag")}
        model_home = {k for k, t in fam["transitions"].items()
                      if t["handler"].split("::")[-1].startswith("home_")}
        if doc_rows != model_home:
            only_doc = doc_rows - model_home
            only_model = model_home - doc_rows
            bits = []
            if only_doc:
                bits.append(f"doc-only: {', '.join(sorted(only_doc))}")
            if only_model:
                bits.append(f"code-only: {', '.join(sorted(only_model))}")
            findings.append({
                "rule": "doc-table-rows",
                "msg": f"PROTOCOL.md {fam_name} home-transition rows drift "
                       f"from the extracted home handlers ({'; '.join(bits)})"
            })
        doc_cols = set(re.findall(r"`(k[A-Z]\w*)`", " ".join(header[1:])))
        model_cols = set()
        for h in fam["dir_state_switches"].values():
            for state, st in h["states"].items():
                if not st["asserts_unreachable"]:
                    model_cols.add(state)
        if doc_cols != model_cols:
            findings.append({
                "rule": "doc-table-columns",
                "msg": f"PROTOCOL.md {fam_name} table columns "
                       f"{{{', '.join(sorted(doc_cols))}}} != reachable "
                       f"DirState cases "
                       f"{{{', '.join(sorted(model_cols))}}}"})
    return findings


# ---------------------------------------------------------------------------
# Pass 2: determinism lint
# ---------------------------------------------------------------------------

UNORDERED = {"unordered_map", "unordered_set", "unordered_multimap",
             "unordered_multiset"}
CLOCKS = {"steady_clock", "system_clock", "high_resolution_clock"}
ORDERED_KEYED = {"map", "set", "multimap", "multiset"} | UNORDERED

LINT_DEFAULT_DIRS = ("src",)


def lint_file(path: Path, rel: str) -> list[dict]:
    try:
        toks, comments = lex(path.read_text())
    except LexError as e:
        return [{"rule": "lex-error", "file": rel, "line": 0, "msg": str(e)}]
    annots, afinds = parse_annotations(toks, comments)
    findings = [{**f, "file": rel} for f in afinds
                if f["rule"].startswith("annotation")]
    allow = {a.attach_line: a for a in annots
             if a.tool == "det-lint" and a.verb == "ok"}

    raw: list[dict] = []

    def flag(rule: str, line: int, msg: str):
        raw.append({"rule": rule, "file": rel, "line": line, "msg": msg})

    for i, t in enumerate(toks):
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        if t.kind != "id":
            continue
        if t.text in UNORDERED:
            flag("unordered-container", t.line,
                 f"std::{t.text}: iteration order is unspecified and can "
                 "leak into stats/reports — use util::FlatMap/FlatSet or "
                 "annotate `// det-lint: ok(reason)`")
        elif t.text in ("rand", "srand") and nxt == "(":
            prev = toks[i - 1].text if i > 0 else ""
            if prev not in (".", "->", "::"):
                flag("entropy", t.line, f"{t.text}(): nondeterministic seed "
                     "source on a simulation path")
        elif t.text == "random_device":
            flag("entropy", t.line, "std::random_device: hardware entropy "
                 "breaks replayability")
        elif t.text in ("mt19937", "mt19937_64") and nxt in ("(", "<") or \
                (t.text in ("mt19937", "mt19937_64") and toks[i - 1].text
                 == "::" and nxt not in (";",)):
            flag("entropy", t.line, f"std::{t.text}: engine seed must be "
                 "derived from run parameters — annotate the derivation "
                 "`// det-lint: ok(seed source)`")
        elif t.text in CLOCKS and nxt == "::":
            flag("wall-clock", t.line, f"std::chrono::{t.text}::now() "
                 "reads wall time; simulation results must not depend on it")
        elif t.text == "gettimeofday" and nxt == "(":
            flag("wall-clock", t.line, "gettimeofday(): wall time on a "
                 "simulation path")
        elif t.text == "time" and nxt == "(" and i > 0 and \
                toks[i - 1].text not in (".", "->", "::", ")"):
            flag("wall-clock", t.line, "time(): wall time on a simulation "
                 "path")
        if t.text in ORDERED_KEYED and nxt == "<":
            # pointer-valued key: first template argument contains '*'
            depth, j, key_has_ptr = 0, i + 1, False
            while j < len(toks):
                txt = toks[j].text
                if txt == "<":
                    depth += 1
                elif txt in (">", ">>"):
                    depth -= 2 if txt == ">>" else 1
                    if depth <= 0:
                        break
                elif txt == "," and depth == 1:
                    break
                elif txt == "*" and depth == 1:
                    key_has_ptr = True
                j += 1
            if key_has_ptr:
                flag("pointer-key", t.line,
                     f"std::{t.text} keyed by a pointer: ordering/iteration "
                     "follows allocation addresses, which vary across runs")

    dedup: dict[tuple, dict] = {}
    for f in raw:
        dedup.setdefault((f["rule"], f["line"]), f)
    for (rule, line), f in sorted(dedup.items(), key=lambda kv: kv[0][1]):
        a = allow.get(line)
        if a is not None:
            a.used = True
            continue
        findings.append(f)
    for a in annots:
        if a.tool == "det-lint" and not a.used:
            findings.append({"rule": "orphan-annotation", "file": rel,
                             "line": a.line,
                             "msg": "det-lint: ok annotation allowlists "
                                    "nothing (stale?)"})
    return findings


def lint_tree(root: Path, dirs=LINT_DEFAULT_DIRS) -> list[dict]:
    findings: list[dict] = []
    for d in dirs:
        base = root / d
        if not base.exists():
            continue
        for f in sorted(base.rglob("*.hpp")) + sorted(base.rglob("*.cpp")):
            findings += lint_file(f, str(f.relative_to(root)))
    return findings


# ---------------------------------------------------------------------------
# Fixture self-audit: switch checks over enums local to one file
# ---------------------------------------------------------------------------

def audit_fixture(path: Path) -> list[dict]:
    """Single-file switch audit used by the fixture suite: switches over
    enums declared in the same file are checked for missing enumerators,
    duplicate labels, and unannotated assert-unreachable cases."""
    model = SourceModel()
    rel = path.name
    parse_file(path, rel, model)
    findings = [{**f, "file": rel} for f in model.annot_findings[rel]]

    def ann_for(line: int):
        return _annotation_for(model, rel, line, "proto-lint")

    for fn in model.funcs:
        for sw in fn.switches:
            if sw.enum not in model.enums:
                continue
            members = [m for m in model.enums[sw.enum] if m != "kCount"]
            seen: dict[str, int] = {}
            annotated: set[str] = set()
            default_annotated: set[str] = set()
            default = sw.default_group()
            if default is not None:
                a = ann_for(default.line)
                if a is not None:
                    default_annotated = set(a.names)
                    annotated |= default_annotated
                    a.used = True
            for g in sw.groups:
                if g.asserts_false and g.labels:
                    a = ann_for(g.line)
                    if a is not None and (set(g.labels) <= set(a.names) or
                                          a.names == ["*"]):
                        a.used = True
                        annotated |= set(g.labels)
                    else:
                        findings.append({
                            "rule": "unannotated-dead-case", "file": rel,
                            "line": g.line,
                            "msg": f"{fn.qualname}: case "
                                   f"{', '.join(g.labels)} asserts "
                                   "unreachable without annotation"})
                for label in g.labels:
                    if label in seen:
                        findings.append({
                            "rule": "duplicate-case", "file": rel,
                            "line": g.line,
                            "msg": f"{fn.qualname}: duplicate case {label} "
                                   f"(first at line {seen[label]})"})
                    seen[label] = g.line
            handled = set(seen) | annotated
            missing = [m for m in members if m not in handled]
            if missing and default is not None:
                findings.append({
                    "rule": "unhandled-kind", "file": rel, "line": sw.line,
                    "msg": f"{fn.qualname}: switch({sw.subject}) covers "
                           f"neither nor annotates {', '.join(missing)}"})
            # Only the default's annotation can be stale this way — a
            # dead *case* is expected to name its own label.
            for m in sorted(default_annotated):
                if m in seen:
                    findings.append({
                        "rule": "stale-annotation", "file": rel,
                        "line": sw.line,
                        "msg": f"{fn.qualname}: {m} annotated unreachable "
                               "but handled"})
    return findings


# ---------------------------------------------------------------------------
# Static-vs-dynamic coverage
# ---------------------------------------------------------------------------

def coverage_report(model_json: dict, observed_path: Path) -> list[str]:
    """Informational: declared transitions never exercised by the observed
    (family, state-before, kind) triples (see docs/STATIC.md for how
    check::TransitionRecorder produces them)."""
    # The recorder logs the to_string() names ("Dirty", "ReadReq"); the
    # model carries the enumerator names ("kDirty", "kReadReq"). Map the
    # stripped spellings back through the model's own enum inventory.
    canon = {m[1:]: m
             for e in ("DirState", "MsgKind")
             for m in model_json["enums"].get(e, [])}
    observed: set[tuple[str, str, str]] = set()
    for line in observed_path.read_text().splitlines():
        parts = line.split("\t")
        if len(parts) == 3:
            fam, st, kind = parts
            observed.add((fam, canon.get(st, st), canon.get(kind, kind)))
    seen_kinds = {(f, k) for f, _s, k in observed}
    lines: list[str] = []
    for fname, fam in sorted(model_json["families"].items()):
        for kind in sorted(fam["transitions"]):
            if (fname, kind) not in seen_kinds:
                lines.append(f"{fname}: declared transition for {kind} "
                             "never exercised by the corpus")
        for h, info in sorted(fam["dir_state_switches"].items()):
            for state, st in sorted(info["states"].items()):
                if st["asserts_unreachable"]:
                    continue
                hit = any((fname, state, k) in observed
                          for k in info["kinds"])
                if not hit:
                    lines.append(f"{fname}: {h} state {state} (for "
                                 f"{', '.join(info['kinds'])}) never "
                                 "entered by the corpus")
    return lines


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def gating(findings: list[dict]) -> list[dict]:
    return [f for f in findings if f.get("gating", True)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=["extract", "check-docs", "lint",
                                        "coverage", "audit-fixture"])
    ap.add_argument("--repo", type=Path, default=Path(__file__).resolve()
                    .parent.parent)
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--observed", type=Path, default=None)
    ap.add_argument("--fixture", type=Path, default=None)
    args = ap.parse_args()

    if args.command == "audit-fixture":
        for f in audit_fixture(args.fixture):
            print(f"{f['file']}:{f.get('line', 0)}: [{f['rule']}] {f['msg']}")
        return 0

    model_json, findings = build_protocol_model(args.repo)
    if args.command == "extract":
        out = args.out or (args.repo / "build" / "proto_model.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(model_json, indent=1, sort_keys=False)
                       + "\n")
        for f in findings:
            print(f"[{f['rule']}] {f['msg']}")
        print(f"proto model: {len(model_json.get('families', {}))} families "
              f"-> {out}")
        return 1 if gating(findings) else 0
    if args.command == "check-docs":
        findings += check_docs(args.repo, model_json)
        for f in findings:
            print(f"[{f['rule']}] {f['msg']}")
        return 1 if gating(findings) else 0
    if args.command == "lint":
        lfinds = lint_tree(args.repo)
        for f in lfinds:
            print(f"{f['file']}:{f['line']}: [{f['rule']}] {f['msg']}")
        print(f"determinism lint: {len(lfinds)} finding(s)")
        return 1 if lfinds else 0
    if args.command == "coverage":
        if args.observed is None or not args.observed.is_file():
            print("coverage: no observed-transition log; skipping "
                  "(informational)")
            return 0
        for line in coverage_report(model_json, args.observed):
            print("  " + line)
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
