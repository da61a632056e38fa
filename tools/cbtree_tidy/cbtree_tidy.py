#!/usr/bin/env python3
"""cbtree-tidy: project-specific static checks for the concurrent B-trees.

Implements the six cbtree-* checks as a dependency-free lexical analyzer
with the same names, semantics, and fixture behavior as the clang-tidy
plugin in this directory (CbtreeTidyModule.cpp). The plugin needs clang-tidy
development headers, which most toolchain images do not ship; this script is
the always-available engine that run_clang_tidy.sh and the tidy_plugin_test
ctest drive, and the plugin is loaded on top when the host has the headers.

Checks (see docs/STATIC_ANALYSIS.md, "Project-specific checks"):

  cbtree-epoch-guard       OLC node field access and Retire/RetireObject
                           must sit under a live EpochGuard declared earlier
                           in the function, or carry one of the contract
                           markers (CBTREE_REQUIRES_EPOCH,
                           CBTREE_REQUIRES_SHARED(epoch_),
                           CBTREE_EPOCH_QUIESCENT). EpochGuard itself must
                           never be heap-allocated, stored as a member, or
                           made static.
  cbtree-version-validate  Every ReadLockOrRestart stamp must flow into a
                           Validate/UpgradeLockOrRestart (directly or via
                           assignment to another stamp); Validate's result
                           must be used; raw version-word mutations are
                           confined to the named version-lock primitives.
  cbtree-latch-wrapper     Raw latch member calls (node->latch.lock() and
                           friends) and std lock adapters over a node latch
                           are forbidden outside the instrumented
                           LatchShared/LatchExclusive/Unlatch* wrappers and
                           NodeLatch's own methods.
  cbtree-obs-compile-out   CBTREE_OBS_ENABLED is always defined (0 or 1),
                           so #ifdef/#ifndef/defined() tests of it are
                           always-true bugs outside the default-define
                           idiom; obs::internal is private to src/obs/; a
                           file testing the macro must include an obs header
                           that establishes the default.
  cbtree-node-alloc        Naked new of a node type only in the arena and
                           AllocateNode paths; naked delete of a node-typed
                           pointer only in destructors and
                           CBTREE_EPOCH_QUIESCENT reclamation paths.
  cbtree-wal-append        Logged mutation paths (anything calling the WAL
                           group-commit API: Append*/WaitDurable/
                           WhenDurable/SyncAll or
                           the WalLog*/WalWaitDurable tree hooks) must never
                           issue raw write-side file syscalls
                           (write/pwrite/fwrite/fsync/fdatasync/...); inside
                           the wal namespace itself, those syscalls are
                           confined to the writer-side I/O layer
                           (WriteAll/FlushGroup/OpenSegment/SealSegment/
                           SyncFd/WriterLoop/Open/Close).

Diagnostics print in clang-tidy's format:

  file:line:col: warning: message [cbtree-check-name]

`// NOLINT`, `// NOLINT(check)`, and `// NOLINTNEXTLINE(check)` suppress a
diagnostic exactly as in clang-tidy. Exit status is 1 when any diagnostic
was emitted, else 0.
"""

import argparse
import os
import re
import sys

ALL_CHECKS = [
    "cbtree-epoch-guard",
    "cbtree-version-validate",
    "cbtree-latch-wrapper",
    "cbtree-obs-compile-out",
    "cbtree-node-alloc",
    "cbtree-wal-append",
]

NODE_TYPES = ("OlcNode", "CNode")
# Only the OLC tree reads nodes without latches; the latched trees' CNode
# never needs an epoch pin (readers hold the node latch across the access).
EPOCH_NODE_TYPES = ("OlcNode",)
NODE_FIELDS = ("keys", "children", "values", "right", "high_key", "count",
               "level", "version")
LATCH_METHODS = ("lock", "unlock", "try_lock", "lock_shared", "unlock_shared",
                 "try_lock_shared", "native_handle")
# Functions allowed to touch the raw version word (mutations).
VERSION_PRIMITIVES = {
    "ReadLockOrRestart", "Validate", "LockNode", "TryLockNode",
    "UpgradeLockOrRestart", "UnlockNode", "UnlockObsolete",
    "BumpVersionForTest",
}
# Functions allowed to contain a raw latch member call.
LATCH_WRAPPERS = {
    "LatchShared", "LatchExclusive", "UnlatchShared", "UnlatchExclusive",
}
# Functions allowed to `new` a node type.
NODE_ALLOCATORS = {"AllocateNode", "Allocate"}
# The WAL's writer-side I/O layer: the only functions (all on the dedicated
# log-writer thread, plus Open/Close) allowed to issue raw write-side
# syscalls against the log.
WAL_WRITER_SIDE = {
    "WriteAll", "FlushGroup", "OpenSegment", "SealSegment", "SyncFd",
    "WriterLoop", "Open", "Close",
}
# The group-commit API: a function calling any of these is on a logged
# mutation path and must not also write files by hand.
WAL_APPEND_API = (
    "AppendInsert", "AppendDelete", "WaitDurable", "WhenDurable", "SyncAll",
    "LogInsert", "LogDelete", "WalLogInsert", "WalLogDelete",
    "WalWaitDurable",
)
# Raw write-side file syscalls, including those that size the file
# (preallocation and trimming). Read-side and crash-repair I/O (fread,
# pread, path-based truncate, unlink) are recovery's business and stay
# unconstrained.
WAL_RAW_IO = ("write", "pwrite", "writev", "pwritev", "fwrite",
              "fsync", "fdatasync", "sync_file_range",
              "fallocate", "posix_fallocate", "ftruncate")
# Functions exempt from the epoch-guard rule by their own name: the retire
# machinery itself (EpochManager::Retire/RetireObject).
RETIRE_SELF = {"Retire", "RetireObject"}

EPOCH_MARKERS = ("CBTREE_REQUIRES_EPOCH", "CBTREE_EPOCH_QUIESCENT")
EPOCH_REQUIRES_SHARED_RE = re.compile(
    r"CBTREE_REQUIRES_SHARED\s*\(\s*epoch_\s*\)")


class Diagnostic:
    def __init__(self, path, line, col, message, check):
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        self.check = check

    def render(self):
        return "%s:%d:%d: warning: %s [%s]" % (
            self.path, self.line, self.col, self.message, self.check)


def strip_comments_and_strings(text):
    """Returns text with comments/strings/chars replaced by spaces.

    Newlines are preserved so offsets, lines, and columns stay identical to
    the original file.
    """
    out = []
    i, n = 0, len(text)
    state = None  # None | "line" | "block" | "str" | "chr" | "raw"
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
            elif c == '"' and text[max(0, i - 1):i] == "R":
                m = re.match(r'R"([^(]*)\(', text[i - 1:])
                if m:
                    state = "raw"
                    raw_delim = ")" + m.group(1) + '"'
                    out.append(" " * (len(m.group(0)) - 1))
                    i += len(m.group(0)) - 1
                else:
                    state = "str"
                    out.append(" ")
                    i += 1
            elif c == '"':
                state = "str"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "chr"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            elif c == "\\" and nxt == "\n":
                out.append(" \n")
                i += 1
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = None
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = None
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


class Function:
    """One function definition: header text, body span, scope context."""

    def __init__(self, name, qualified, head, head_start, body_start,
                 body_end, containers):
        self.name = name                # unqualified (last component)
        self.qualified = qualified      # as written (may contain ::)
        self.head = head                # text between previous ;/{/} and {
        self.head_start = head_start    # offset of head in file
        self.body_start = body_start    # offset just past the opening {
        self.body_end = body_end        # offset of the closing }
        self.containers = containers    # enclosing class/struct names


class SourceFile:
    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.code = strip_comments_and_strings(text)
        self.lines = text.splitlines()
        self.functions = []
        self.container_spans = []  # (name, body_start, body_end)
        self._parse()

    def line_col(self, offset):
        line = self.text.count("\n", 0, offset) + 1
        last_nl = self.text.rfind("\n", 0, offset)
        col = offset - last_nl
        return line, col

    def _parse(self):
        """Walks braces, classifying each block as container, function, or
        plain block, and records function definitions."""
        code = self.code
        stack = []  # (kind, name, head_start, body_start)
        seg_start = 0  # start of the current pre-brace segment
        i, n = 0, len(code)
        while i < n:
            c = code[i]
            if c in ";":
                seg_start = i + 1
                i += 1
                continue
            if c == "{":
                head = code[seg_start:i]
                kind, name, qualified = self._classify(head)
                stack.append((kind, name, qualified, seg_start, i + 1))
                seg_start = i + 1
                i += 1
                continue
            if c == "}":
                if stack:
                    kind, name, qualified, head_start, body_start = stack.pop()
                    if kind == "function" and not self._inside_function(stack):
                        self.functions.append(Function(
                            name, qualified, code[head_start:body_start - 1],
                            head_start, body_start, i,
                            [s[1] for s in stack if s[0] == "container"]))
                    elif kind == "container":
                        self.container_spans.append((name, body_start, i))
                seg_start = i + 1
                i += 1
                continue
            i += 1

    @staticmethod
    def _inside_function(stack):
        return any(kind == "function" for kind, _, _, _, _ in stack)

    _container_re = re.compile(
        r"\b(namespace|class|struct|union|enum)\b(?:\s+(?:CBTREE_\w+"
        r"(?:\([^()]*\))?\s+)*)?\s*(\w+)?")

    def _classify(self, head):
        """Classifies the text before a '{' as namespace/class ("container"),
        function definition, or other (init braces, etc.)."""
        h = head.strip()
        m = self._container_re.search(h)
        if m and "(" not in h[:m.start()]:
            # `struct X {`, `class Y : public Z {`, `namespace {` — but a
            # function whose head merely *returns* a struct carries parens
            # after the keyword; a real container head has none outside its
            # base-clause.
            after = h[m.end():]
            if "(" not in after or after.lstrip().startswith(":"):
                return "container", m.group(2) or "", m.group(2) or ""
        # Function definition: the head must contain a parameter list.
        paren = h.find("(")
        if paren <= 0:
            return "other", "", ""
        pre = h[:paren].rstrip()
        name_m = re.search(r"((?:~?\w+\s*::\s*)*~?\w+)$", pre)
        if name_m is None:
            return "other", "", ""
        qualified = re.sub(r"\s+", "", name_m.group(1))
        name = qualified.split("::")[-1]
        if name in ("if", "for", "while", "switch", "catch", "return"):
            return "other", "", ""
        # Require the parameter list's closing paren before the brace (the
        # tail may carry const/override/attributes/init-lists).
        depth = 0
        for idx in range(paren, len(h)):
            if h[idx] == "(":
                depth += 1
            elif h[idx] == ")":
                depth -= 1
                if depth == 0:
                    return "function", name, qualified
        return "other", "", ""

    def container_of(self, offset):
        for name, start, end in self.container_spans:
            if start <= offset < end:
                return name
        return ""


def harvest_markers(path):
    """Maps function name -> set of epoch markers, from this file AND its
    sibling header/source (markers may live on either declaration)."""
    markers = {}
    candidates = [path]
    base, ext = os.path.splitext(path)
    sibling = {".cc": ".h", ".h": ".cc", ".cpp": ".h", ".hpp": ".cpp"}
    if ext in sibling and os.path.exists(base + sibling[ext]):
        candidates.append(base + sibling[ext])
    decl_re = re.compile(
        r"(~?\w+)\s*\(", re.S)
    for cand in candidates:
        try:
            with open(cand, "r", encoding="utf-8", errors="replace") as f:
                code = strip_comments_and_strings(f.read())
        except OSError:
            continue
        # A declaration or definition head: from each marker occurrence,
        # look backward for the nearest function name before a '('.
        for marker in EPOCH_MARKERS + ("CBTREE_REQUIRES_SHARED",):
            for m in re.finditer(re.escape(marker), code):
                if marker == "CBTREE_REQUIRES_SHARED":
                    tail = code[m.start():m.start() + 80]
                    if not EPOCH_REQUIRES_SHARED_RE.match(tail):
                        continue
                head = code[max(0, m.start() - 400):m.start()]
                names = decl_re.findall(head)
                if not names:
                    continue
                markers.setdefault(names[-1], set()).add(
                    "epoch" if marker == "CBTREE_REQUIRES_SHARED" else marker)
    return markers


def nolint_suppressed(src, line, check):
    def has(text):
        m = re.search(r"NOLINT(NEXTLINE)?(\(([^)]*)\))?", text)
        if not m:
            return False
        if m.group(3) is None:
            return True
        return check in [c.strip() for c in m.group(3).split(",")]

    idx = line - 1
    if 0 <= idx < len(src.lines) and "NOLINTNEXTLINE" not in src.lines[idx] \
            and has(src.lines[idx]):
        return True
    if idx - 1 >= 0 and "NOLINTNEXTLINE" in src.lines[idx - 1] \
            and has(src.lines[idx - 1]):
        return True
    return False


# ---------------------------------------------------------------------------
# cbtree-epoch-guard
# ---------------------------------------------------------------------------

def check_epoch_guard(src, diags):
    markers = harvest_markers(src.path)
    field_re = re.compile(
        r"(?:->|\.)\s*(%s)\b\s*[\.\[]" % "|".join(NODE_FIELDS))
    retire_re = re.compile(r"\b(RetireObject|Retire)\s*\(")
    guard_re = re.compile(r"\bEpochGuard\s+\w+\s*[({]")

    for fn in src.functions:
        body = src.code[fn.body_start:fn.body_end]
        mentions_node = any(
            re.search(r"\b%s\b" % t, fn.head + body)
            for t in EPOCH_NODE_TYPES)
        accesses = []
        if mentions_node:
            accesses += [(m.start(), "OLC node field '%s' accessed" %
                          m.group(1)) for m in field_re.finditer(body)]
        if fn.name not in RETIRE_SELF:
            accesses += [(m.start(), "node retired via '%s'" % m.group(1))
                         for m in retire_re.finditer(body)]
        if not accesses:
            continue
        fn_markers = markers.get(fn.name, set())
        if fn_markers:
            continue  # contract marker: caller provides (or no) guard
        guard = guard_re.search(body)
        accesses.sort()
        first_off, what = accesses[0]
        if guard is not None and guard.start() < first_off:
            continue
        off = fn.body_start + first_off
        line, col = src.line_col(off)
        if guard is not None:
            msg = ("%s before the EpochGuard is taken; hoist the guard above "
                   "the first node access" % what)
        else:
            msg = ("%s outside a live EpochGuard; take a guard, or mark the "
                   "function CBTREE_REQUIRES_EPOCH / "
                   "CBTREE_REQUIRES_SHARED(epoch_) / CBTREE_EPOCH_QUIESCENT"
                   % what)
        diags.append(Diagnostic(src.path, line, col, msg,
                                "cbtree-epoch-guard"))

    # Escape rules, anywhere in the file.
    for m in re.finditer(r"\bnew\s+EpochGuard\b", src.code):
        line, col = src.line_col(m.start())
        diags.append(Diagnostic(
            src.path, line, col,
            "EpochGuard must not be heap-allocated; its pin is only sound "
            "with scoped lifetime", "cbtree-epoch-guard"))
    for m in re.finditer(r"\bstatic\s+EpochGuard\b", src.code):
        line, col = src.line_col(m.start())
        diags.append(Diagnostic(
            src.path, line, col,
            "EpochGuard must not have static storage; it would pin an epoch "
            "for the process lifetime", "cbtree-epoch-guard"))
    # Member declaration: `EpochGuard name;` / `EpochGuard* name;` directly
    # inside a class/struct body, outside any function.
    for m in re.finditer(r"\bEpochGuard\s*[*&]?\s*\w+\s*[;={]", src.code):
        inside_fn = any(fn.body_start <= m.start() < fn.body_end
                        for fn in src.functions)
        if inside_fn or not src.container_of(m.start()):
            continue
        if src.container_of(m.start()) == "EpochGuard":
            continue
        line, col = src.line_col(m.start())
        diags.append(Diagnostic(
            src.path, line, col,
            "EpochGuard must not escape a function scope (member of '%s'); "
            "guards are strictly scoped" % src.container_of(m.start()),
            "cbtree-epoch-guard"))


# ---------------------------------------------------------------------------
# cbtree-version-validate
# ---------------------------------------------------------------------------

def check_version_validate(src, diags):
    stamp_re = re.compile(r"\bReadLockOrRestart\s*\(([^;()]*?),\s*&\s*(\w+)\s*\)")
    mutate_re = re.compile(
        r"(?:->|\.)\s*version\s*\.\s*"
        r"(store|compare_exchange_weak|compare_exchange_strong|exchange|"
        r"fetch_add|fetch_sub|fetch_or|fetch_and|fetch_xor)\s*\(")

    for fn in src.functions:
        body = src.code[fn.body_start:fn.body_end]

        # (a) every stamp must reach a validate (or hand off to a stamp that
        # does — `v = cv;` chains are fine, checked one hop at a time).
        for m in stamp_re.finditer(body):
            var = m.group(2)
            rest = body[m.end():]
            validated = re.search(
                r"\b(?:Validate|UpgradeLockOrRestart)\s*\([^;]*?[,(]\s*%s\s*\)"
                % re.escape(var), rest)
            handoff = re.search(r"\b\w+\s*=\s*%s\b" % re.escape(var), rest)
            if validated or handoff:
                continue
            off = fn.body_start + m.start()
            line, col = src.line_col(off)
            diags.append(Diagnostic(
                src.path, line, col,
                "version stamp '%s' is never validated; data read under it "
                "must not escape without Validate/UpgradeLockOrRestart" % var,
                "cbtree-version-validate"))

        # (b) Validate's result must be consumed.
        for m in re.finditer(r"\bValidate\s*\(", body):
            before = body[:m.start()].rstrip()
            if before.endswith((";", "{", "}")) or not before:
                off = fn.body_start + m.start()
                line, col = src.line_col(off)
                diags.append(Diagnostic(
                    src.path, line, col,
                    "Validate result is discarded; an unchecked validate "
                    "proves nothing", "cbtree-version-validate"))

        # (c) raw version-word mutations only inside the primitives.
        if fn.name in VERSION_PRIMITIVES:
            continue
        for m in mutate_re.finditer(body):
            off = fn.body_start + m.start()
            line, col = src.line_col(off)
            diags.append(Diagnostic(
                src.path, line, col,
                "raw version-word mutation ('%s') outside the version-lock "
                "primitives" % m.group(1), "cbtree-version-validate"))


# ---------------------------------------------------------------------------
# cbtree-latch-wrapper
# ---------------------------------------------------------------------------

def check_latch_wrapper(src, diags):
    call_re = re.compile(
        r"(?:->|\.)\s*latch\s*\.\s*(%s)\s*\(" % "|".join(LATCH_METHODS))
    adapter_re = re.compile(
        r"\b(?:std\s*::\s*)?(lock_guard|unique_lock|shared_lock|scoped_lock)"
        r"\s*<[^;{}]*>\s*\w*\s*\(([^;()]*latch[^;()]*)\)")

    for fn in src.functions:
        if fn.name in LATCH_WRAPPERS or "NodeLatch" in fn.containers \
                or fn.qualified.startswith("NodeLatch::"):
            continue
        body = src.code[fn.body_start:fn.body_end]
        for m in call_re.finditer(body):
            off = fn.body_start + m.start()
            line, col = src.line_col(off)
            diags.append(Diagnostic(
                src.path, line, col,
                "raw latch call '.latch.%s()' outside the instrumented "
                "LatchShared/LatchExclusive/Unlatch* wrappers" % m.group(1),
                "cbtree-latch-wrapper"))
        for m in adapter_re.finditer(body):
            off = fn.body_start + m.start()
            line, col = src.line_col(off)
            diags.append(Diagnostic(
                src.path, line, col,
                "std::%s over a node latch bypasses the instrumented "
                "wrappers (and the latch_check validator)" % m.group(1),
                "cbtree-latch-wrapper"))


# ---------------------------------------------------------------------------
# cbtree-obs-compile-out
# ---------------------------------------------------------------------------

def _reaches_obs_header(path, seen=None, depth=0):
    """True if `path` includes (transitively, quoted includes only) a header
    under obs/ or one that defines CBTREE_OBS_ENABLED itself."""
    if seen is None:
        seen = set()
    real = os.path.normpath(path)
    if real in seen or depth > 8:
        return False
    seen.add(real)
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError:
        return False
    if re.search(r"#\s*define\s+CBTREE_OBS_ENABLED\b", text):
        return True
    for m in re.finditer(r'#\s*include\s*"([^"]+)"', text):
        inc = m.group(1)
        if inc.startswith("obs/"):
            return True
        # Resolve against the including file's dir and its ancestors (the
        # build adds src/ to the include path; walking up covers it without
        # hardcoding the layout).
        base = os.path.dirname(path)
        for _ in range(4):
            cand = os.path.join(base, inc)
            if os.path.exists(cand):
                if _reaches_obs_header(cand, seen, depth + 1):
                    return True
                break
            base = os.path.join(base, os.pardir)
    return False


def check_obs_compile_out(src, diags):
    norm = src.path.replace(os.sep, "/")
    in_obs = "/obs/" in norm or norm.startswith("obs/")
    lines = src.code.splitlines()

    includes_obs_header = _reaches_obs_header(src.path)
    defines_default = any(
        re.search(r"#\s*define\s+CBTREE_OBS_ENABLED\b", ln) for ln in lines)

    for idx, ln in enumerate(lines):
        line_no = idx + 1
        m = re.search(r"#\s*(ifdef|ifndef)\s+CBTREE_OBS_ENABLED\b", ln)
        if m:
            # The one legal shape: `#ifndef CBTREE_OBS_ENABLED` immediately
            # followed by `#define CBTREE_OBS_ENABLED <0|1>` (the
            # default-define idiom in the obs headers).
            follow = ""
            for nxt in lines[idx + 1:idx + 3]:
                if nxt.strip():
                    follow = nxt
                    break
            idiom = (m.group(1) == "ifndef" and
                     re.search(r"#\s*define\s+CBTREE_OBS_ENABLED\b", follow))
            if not idiom:
                col = m.start() + 1
                diags.append(Diagnostic(
                    src.path, line_no, col,
                    "CBTREE_OBS_ENABLED is always defined (0 or 1); "
                    "#%s is always-%s — use '#if CBTREE_OBS_ENABLED'"
                    % (m.group(1),
                       "true" if m.group(1) == "ifdef" else "false"),
                    "cbtree-obs-compile-out"))
        m = re.search(r"\bdefined\s*\(\s*CBTREE_OBS_ENABLED\s*\)", ln)
        if m:
            diags.append(Diagnostic(
                src.path, line_no, m.start() + 1,
                "CBTREE_OBS_ENABLED is always defined (0 or 1); defined() "
                "is always true — test its value instead",
                "cbtree-obs-compile-out"))
        if not in_obs:
            m = re.search(r"\bobs\s*::\s*internal\s*::", ln)
            if m:
                diags.append(Diagnostic(
                    src.path, line_no, m.start() + 1,
                    "obs::internal is private to src/obs/; go through the "
                    "compile-out-safe Counter/Gauge/Timer handles",
                    "cbtree-obs-compile-out"))
        m = re.search(r"#\s*(?:el)?if\b.*\bCBTREE_OBS_ENABLED\b", ln)
        if m and not in_obs and not includes_obs_header and not defines_default:
            diags.append(Diagnostic(
                src.path, line_no, m.start() + 1,
                "CBTREE_OBS_ENABLED tested without including an obs header "
                "that establishes its default; '#if' on an undefined macro "
                "silently compiles the layer out",
                "cbtree-obs-compile-out"))


# ---------------------------------------------------------------------------
# cbtree-node-alloc
# ---------------------------------------------------------------------------

def check_node_alloc(src, diags):
    new_re = re.compile(r"\bnew\s+(%s)\b" % "|".join(NODE_TYPES))

    for fn in src.functions:
        body = src.code[fn.body_start:fn.body_end]
        head_and_body = fn.head + body
        if fn.name not in NODE_ALLOCATORS and fn.name not in NODE_TYPES:
            for m in new_re.finditer(head_and_body):
                off = fn.head_start + m.start()
                line, col = src.line_col(off)
                diags.append(Diagnostic(
                    src.path, line, col,
                    "naked 'new %s' outside the arena/AllocateNode paths; "
                    "nodes must come from their allocator" % m.group(1),
                    "cbtree-node-alloc"))

        # Naked delete of a node-typed pointer: the pointer's declaration
        # must be visible in this function (param or local).
        node_ptrs = set()
        for t in NODE_TYPES:
            for m in re.finditer(
                    r"\b(?:const\s+)?%s\s*\*\s*(?:const\s+)?(\w+)" % t,
                    head_and_body):
                node_ptrs.add(m.group(1))
        if not node_ptrs:
            continue
        if fn.name.startswith("~"):
            continue  # quiescent teardown owns its nodes
        markers = harvest_markers(src.path).get(fn.name, set())
        if "CBTREE_EPOCH_QUIESCENT" in markers:
            continue
        for m in re.finditer(r"\bdelete\s+(\w+)\s*;", body):
            if m.group(1) not in node_ptrs:
                continue
            off = fn.body_start + m.start()
            line, col = src.line_col(off)
            diags.append(Diagnostic(
                src.path, line, col,
                "naked 'delete %s' outside destructor/epoch-reclamation "
                "paths; retire nodes to the epoch manager instead"
                % m.group(1), "cbtree-node-alloc"))


# ---------------------------------------------------------------------------
# cbtree-wal-append
# ---------------------------------------------------------------------------

def check_wal_append(src, diags):
    raw_re = re.compile(r"(::\s*)?\b(%s)\s*\(" % "|".join(WAL_RAW_IO))
    api_re = re.compile(r"\b(?:%s)\s*\(" % "|".join(WAL_APPEND_API))

    for fn in src.functions:
        if fn.name in WAL_WRITER_SIDE:
            continue  # the log's own I/O layer
        body = src.code[fn.body_start:fn.body_end]
        raw_calls = []
        for m in raw_re.finditer(body):
            # A plain `x.write(...)` / `s->write(...)` is a member call on
            # some other abstraction, not the file syscall; `::write` and
            # bare `write(fd, ...)` are.
            if m.group(1) is None:
                before = body[:m.start()].rstrip()
                if before.endswith(".") or before.endswith("->"):
                    continue
            raw_calls.append(m)
        if not raw_calls:
            continue
        on_mutation_path = api_re.search(body) is not None
        in_wal_layer = ("wal" in fn.containers or
                        "ShardLog" in fn.containers or
                        fn.qualified.startswith("ShardLog::"))
        for m in raw_calls:
            off = fn.body_start + m.start()
            line, col = src.line_col(off)
            if on_mutation_path:
                diags.append(Diagnostic(
                    src.path, line, col,
                    "raw '%s' on a logged mutation path; tree writes reach "
                    "the log only through the group-commit API "
                    "(Append*/WaitDurable/WhenDurable)" % m.group(2),
                    "cbtree-wal-append"))
            elif in_wal_layer:
                diags.append(Diagnostic(
                    src.path, line, col,
                    "raw '%s' in the WAL outside the writer-side I/O layer "
                    "(WriteAll/FlushGroup/OpenSegment/SealSegment/SyncFd); "
                    "appenders go through Append*/WaitDurable/WhenDurable"
                    % m.group(2),
                    "cbtree-wal-append"))


CHECK_FNS = {
    "cbtree-epoch-guard": check_epoch_guard,
    "cbtree-version-validate": check_version_validate,
    "cbtree-latch-wrapper": check_latch_wrapper,
    "cbtree-obs-compile-out": check_obs_compile_out,
    "cbtree-node-alloc": check_node_alloc,
    "cbtree-wal-append": check_wal_append,
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checks", default="*",
                        help="comma-separated check names ('*' = all)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    parser.add_argument("files", nargs="*")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check in ALL_CHECKS:
            print(check)
        return 0

    if args.checks == "*":
        selected = list(ALL_CHECKS)
    else:
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in selected if c not in ALL_CHECKS]
        if unknown:
            print("cbtree-tidy: unknown check(s): %s" % ", ".join(unknown),
                  file=sys.stderr)
            return 2

    diags = []
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as err:
            print("cbtree-tidy: cannot read %s: %s" % (path, err),
                  file=sys.stderr)
            return 2
        src = SourceFile(path, text)
        for check in selected:
            CHECK_FNS[check](src, diags)

    emitted = 0
    diags.sort(key=lambda d: (d.path, d.line, d.col, d.check))
    for d in diags:
        srcs = [s for s in (d,)]  # keep flake-style simple
        with open(d.path, "r", encoding="utf-8", errors="replace") as f:
            file_lines = f.read().splitlines()
        probe = SourceFile.__new__(SourceFile)
        probe.lines = file_lines
        if nolint_suppressed(probe, d.line, d.check):
            continue
        print(d.render())
        emitted += 1

    if not args.quiet:
        print("cbtree-tidy: %d warning(s) across %d file(s)"
              % (emitted, len(args.files)), file=sys.stderr)
    return 1 if emitted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
