#!/usr/bin/env python3
"""cbtree-tidy: project-specific static checks for the concurrent B-trees.

Implements the six cbtree-* checks as a dependency-free lexical analyzer: a
comment/string-aware scanner, a brace walker that finds function, lambda
and class scopes, and per-file name harvesting (contract markers, functions
and members of node-pointer type) from each file and its sibling
header/source. tools/run_clang_tidy.sh and the tidy_check_test ctest run
it.

Checks (docs/STATIC_ANALYSIS.md has the full contracts, and what a lexical
engine cannot see):

  cbtree-epoch-guard       OLC node access and retirement under a live
                           EpochGuard or a contract marker; guards never
                           heap-allocated, static, or class members.
  cbtree-version-validate  every version stamp validated, every Validate
                           result used; version-word writes only in the
                           version-lock primitives.
  cbtree-latch-wrapper     raw latch calls and std lock adapters over a node
                           latch only in the instrumented wrappers.
  cbtree-obs-compile-out   CBTREE_OBS_ENABLED tested by value, after an obs
                           header; obs::internal private to src/obs/.
  cbtree-node-alloc        naked node new only in the allocators; naked node
                           delete only in destructors and quiescent paths.
  cbtree-wal-append        no raw write-side file syscalls on a logged
                           mutation path, or in the WAL outside its
                           writer-side I/O layer.

Diagnostics print in clang-tidy's format:

  file:line:col: warning: message [cbtree-check-name]

`// NOLINT`, `// NOLINT(check)`, and `// NOLINTNEXTLINE(check)` suppress a
diagnostic exactly as in clang-tidy. Exit status is 1 when any diagnostic
was emitted, else 0.
"""

import argparse
import collections
import functools
import os
import re
import sys

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


Diagnostic = collections.namedtuple("Diagnostic",
                                    "path line col message check")


def blank(text):
    """Replaces every character but newlines with a space."""
    return re.sub(r"[^\n]", " ", text)


# Comments (a `//` comment continues past a backslash-newline), raw
# strings, strings and character literals, leftmost first.
NOISE_RE = re.compile(r"//(?:\\\n|[^\n])*|/\*.*?(?:\*/|\Z)|"
                      r'R"([^(\s]*)\(.*?\)\1"|'
                      r'"(?:\\.|[^"\\\n])*"|'
                      r"'(?:\\.|[^'\\\n])*'", re.S)


def strip_comments_and_strings(text):
    """Returns text with comments/strings/chars replaced by spaces.

    Newlines are preserved so offsets, lines, and columns stay identical to
    the original file.
    """
    return NOISE_RE.sub(lambda m: blank(m.group(0)), text)


def call_args(text, open_idx):
    """Splits the bracketed list opening at `open_idx` (one of `(`/`{`/`[`)
    into its top-level comma-separated items."""
    args, depth, start = [], 0, open_idx + 1
    for idx in range(open_idx, len(text)):
        if text[idx] in "([{":
            depth += 1
        elif text[idx] in ")]}":
            depth -= 1
            if depth == 0:
                break
        elif text[idx] == "," and depth == 1:
            args.append(text[start:idx])
            start = idx + 1
    return args + [text[start:idx]]


def declares(text, name):
    """True if `text` declares a parameter or local variable `name`."""
    for m in re.finditer(r"\b%s\s*[;={(,)\[]" % re.escape(name), text):
        if re.search(r"\b(?!return\b|case\b|else\b|delete\b|throw\b)"
                     r"[\w:]+\s*(?:<[^;{}()]*>)?\s*[*&]*\s*$",
                     text[max(0, m.start() - 80):m.start()]):
            return True
    return False


class Function:
    """One function (or lambda) definition: its spans and scope.

    A lambda is a function of its own, named "<lambda>", as the compiler
    sees it: a guard, a wrapper exemption or a writer-side name of the
    enclosing function does not extend into a body that may run elsewhere
    or later. `body` is the function's own text, with the bodies of the
    lambdas nested in it blanked out; `outer` is the outermost enclosing
    function definition (the function itself when it is not a lambda).
    """

    def __init__(self, name, qualified, head_start, body_start, body_end,
                 containers):
        self.name = name                # unqualified (last component)
        self.qualified = qualified      # as written (may contain ::)
        self.head_start = head_start    # offset of head in file
        self.body_start = body_start    # offset just past the opening {
        self.body_end = body_end        # offset of the closing }
        self.containers = containers    # enclosing namespace/class names
        self.body = ""
        self.outer = self

    @property
    def is_lambda(self):
        return self.name == "<lambda>"

    def scopes(self):
        """Enclosing namespace/class names plus the qualifiers of the
        outermost definition's name (`void wal::Foo()` is in `wal`)."""
        return self.containers + self.outer.qualified.split("::")[:-1]


class SourceFile:
    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.code = strip_comments_and_strings(text)
        self.lines = text.splitlines()
        self.functions = []
        # (keyword, name, head_start, body_start, body_end) per container.
        self.container_spans = []
        self._parse()

    def line_col(self, offset):
        line = self.text.count("\n", 0, offset) + 1
        last_nl = self.text.rfind("\n", 0, offset)
        col = offset - last_nl
        return line, col

    def _parse(self):
        """Walks braces, classifying each block as container, function,
        lambda, or plain block, and records function definitions."""
        code = self.code
        # (kind, name, detail, head_start, body_start); detail is a
        # function's qualified name, or a container's keyword.
        stack = []
        seg_start = 0  # start of the current pre-brace segment
        for i, c in enumerate(code):
            if c == ";":
                seg_start = i + 1
            elif c == "{":
                stack.append(self._classify(code[seg_start:i]) +
                             (seg_start, i + 1))
                seg_start = i + 1
            elif c == "}":
                if stack:
                    kind, name, detail, head_start, body_start = stack.pop()
                    nested = any(k == "function" for k, _, _, _, _ in stack)
                    if kind == "lambda" or (kind == "function" and
                                            not nested):
                        containers = []
                        for k, n, _, _, _ in stack:
                            if k == "container":
                                containers += n.split("::")
                        self.functions.append(Function(
                            name, detail, head_start, body_start, i,
                            containers))
                    elif kind == "container":
                        self.container_spans.append(
                            (detail, name, head_start, body_start, i))
                seg_start = i + 1
        lambdas = [fn for fn in self.functions if fn.is_lambda]
        for fn in self.functions:
            body = code[fn.body_start:fn.body_end]
            for lam in lambdas:
                if fn.body_start < lam.body_start and lam.body_end <= \
                        fn.body_end:
                    a = lam.body_start - fn.body_start
                    b = lam.body_end - fn.body_start
                    body = body[:a] + blank(body[a:b]) + body[b:]
            fn.body = body
        for lam in lambdas:
            for fn in self.functions:
                if not fn.is_lambda and fn.body_start < lam.body_start and \
                        lam.body_end <= fn.body_end:
                    lam.outer = fn

    _container_re = re.compile(
        r"\b(namespace|class|struct|union|enum)\b(?:\s+(?:CBTREE_\w+"
        r"(?:\([^()]*\))?\s+)*)?\s*((?:\w+\s*::\s*)*\w+)?")
    # A lambda introducer at the end of a head: the capture list follows a
    # token that cannot end an operand (so `arr[3] {` is not a lambda),
    # then optional parameters, specifiers and a trailing return type.
    _lambda_re = re.compile(
        r"(?:^|[^\w\]\)\s]|\breturn)\s*\[[^\[\]{};]*\]\s*"
        r"(?:\((?:[^()]|\([^()]*\))*\))?\s*"
        r"(?:(?:mutable|constexpr|noexcept)\b\s*)*"
        r"(?:->\s*[\w:<>,\s*&]+)?$")

    def _classify(self, head):
        """Classifies the text before a '{' as namespace/class ("container",
        with its keyword as the third field), lambda, function definition,
        or other (init braces, etc.)."""
        h = head.strip()
        if self._lambda_re.search(h):
            return "lambda", "<lambda>", "<lambda>"
        m = self._container_re.search(h)
        if m and "(" not in h[:m.start()]:
            # `struct X {`, `class Y : public Z {`, `namespace {` — but a
            # function whose head merely *returns* a struct carries parens
            # after the keyword; a real container head has none outside its
            # base-clause.
            after = h[m.end():]
            if "(" not in after or after.lstrip().startswith(":"):
                name = re.sub(r"\s+", "", m.group(2) or "")
                return "container", name, m.group(1)
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

    def containers_at(self, offset):
        """(keyword, name) of every container around `offset`, outermost
        first."""
        spans = sorted((start, keyword, name) for keyword, name, _, start, end
                       in self.container_spans if start <= offset < end)
        return [(keyword, name) for _, keyword, name in spans]

    def in_function(self, offset):
        return any(fn.body_start <= offset < fn.body_end
                   for fn in self.functions)


@functools.lru_cache(maxsize=None)
def load_source(path):
    """Parses `path` once per run; None if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            return SourceFile(path, f.read())
    except OSError:
        return None


def sibling_paths(path):
    """`path` plus its sibling header/source, when one exists."""
    paths = [path]
    base, ext = os.path.splitext(path)
    sibling = {".cc": ".h", ".h": ".cc", ".cpp": ".h", ".hpp": ".cpp"}
    if ext in sibling and os.path.exists(base + sibling[ext]):
        paths.append(base + sibling[ext])
    return paths


@functools.lru_cache(maxsize=None)
def harvest_markers(path):
    """Maps function name -> set of epoch markers, from this file AND its
    sibling header/source (markers may live on either declaration)."""
    markers = {}
    decl_re = re.compile(r"(~?\w+)\s*\(", re.S)
    for cand in sibling_paths(path):
        other = load_source(cand)
        if other is None:
            continue
        code = other.code
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


@functools.lru_cache(maxsize=None)
def node_vocabulary(path, types):
    """Names that yield a pointer to one of `types` (node type names) in
    this file and its sibling: functions declared to return one, and
    variables or members declared as one outside any function (the nodes'
    own fields excluded). Returns (functions, variables) as sets.

    This is the lexical stand-in for the pointer's type: `auto* n = Root();`
    and `root_->count` name a node without spelling its type."""
    alt = "|".join(types)
    fn_re = re.compile(r"\b(?:%s)\s*\*\s*(?:const\s+)?(?:~?\w+\s*::\s*)*"
                       r"(\w+)\s*\(" % alt)
    var_re = re.compile(r"(?:\b(?:%s)\s*\*|<\s*(?:%s)\s*\*\s*>)\s*"
                        r"(?:const\s+)?(\w+)\s*(?:[;={]|CBTREE_)" % (alt, alt))
    functions, variables = set(), set()
    for cand in sibling_paths(path):
        other = load_source(cand)
        if other is None:
            continue
        functions.update(m.group(1) for m in fn_re.finditer(other.code))
        for m in var_re.finditer(other.code):
            owners = [name for _, name in other.containers_at(m.start())]
            if other.in_function(m.start()) or set(owners) & set(types):
                continue
            variables.add(m.group(1))
    return functions, variables


def mentions_node_re(path, types):
    """Matches text that names a node of `types`: the type itself, a call
    to a function returning one, or a variable declared as one."""
    functions, variables = node_vocabulary(path, types)
    parts = [r"\b(?:%s)\b" % "|".join(types)]
    if functions:
        parts.append(r"\b(?:%s)\s*\(" % "|".join(sorted(functions)))
    if variables:
        parts.append(r"\b(?:%s)\b" % "|".join(sorted(variables)))
    return re.compile("|".join(parts))


def outer_text(src, fn):
    """Head and full body of the outermost definition around `fn`."""
    return src.code[fn.outer.head_start:fn.outer.body_end]


def looks_like_params(args):
    """True if a parenthesised list reads as parameters, not arguments:
    `EpochGuard Pin(EpochManager* m);` declares a function, while
    `EpochGuard g(mgr);` defines a variable."""
    first = args[0].strip()
    return (not first or first == "void" or re.match(
        r"(?:const\s+)?[\w:<>]+(?:\s*[*&]+\s*\w*|\s+\w+)$", first)
            is not None)


# A trailing `a::b.` / `x->` qualifier chain.
QUALIFIER_TAIL_RE = re.compile(r"(?:\b\w+\s*(?:::|\.|->)\s*|::\s*)+$")


def strip_qualifier(before):
    """Drops a trailing qualifier chain from `before`, then whitespace."""
    before = before.rstrip()
    window = before[-200:]
    m = QUALIFIER_TAIL_RE.search(window)
    if m:
        before = before[:len(before) - len(window) + m.start()]
    return before.rstrip()


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

def check_epoch_guard(src, report):
    markers = harvest_markers(src.path)
    mentions_olc = mentions_node_re(src.path, EPOCH_NODE_TYPES)
    fields = "|".join(NODE_FIELDS)
    # Any member access that is not a method call: `n->keys[0]`,
    # `n->count.load()`, and the implicit atomic conversion `n->count`.
    field_re = re.compile(r"(?:->|\.)\s*(%s)\b(?!\s*\()" % fields)
    # Inside the node's own methods the field needs no object (implicit
    # this).
    self_field_re = re.compile(r"(?<![\w.>:])(%s)\b(?!\s*\()" % fields)
    retire_re = re.compile(r"\b(RetireObject|Retire)\s*\(")
    guard_re = re.compile(r"\bEpochGuard\s+\w+\s*[({]")

    for fn in src.functions:
        body = fn.body
        accesses = []
        if mentions_olc.search(outer_text(src, fn)):
            accesses += [(m.start(), "OLC node field '%s' accessed" %
                          m.group(1)) for m in field_re.finditer(body)]
        if any(t in fn.scopes() for t in EPOCH_NODE_TYPES):
            accesses += [(m.start(), "OLC node field '%s' accessed" %
                          m.group(1)) for m in self_field_re.finditer(body)]
        if fn.name not in RETIRE_SELF:
            accesses += [(m.start(), "node retired via '%s'" % m.group(1))
                         for m in retire_re.finditer(body)]
        if not accesses or markers.get(fn.name):
            continue  # contract marker: caller provides (or no) guard
        guard = guard_re.search(body)
        first_off, what = min(accesses)
        if guard is None:
            report(fn.body_start + first_off,
                   "%s outside a live EpochGuard; take a guard, or mark the "
                   "function CBTREE_REQUIRES_EPOCH / "
                   "CBTREE_REQUIRES_SHARED(epoch_) / CBTREE_EPOCH_QUIESCENT"
                   % what)
        elif first_off < guard.start():
            report(fn.body_start + first_off,
                   "%s before the EpochGuard is taken; hoist the guard above "
                   "the first node access" % what)

    # Escape rules, anywhere in the file.
    for m in re.finditer(r"\bnew\s+EpochGuard\b", src.code):
        report(m.start(), "EpochGuard must not be heap-allocated; its pin is "
               "only sound with scoped lifetime")
    static_msg = ("EpochGuard must not have static storage; it would pin an "
                  "epoch for the process lifetime")
    for m in re.finditer(r"\bstatic\s+EpochGuard\b", src.code):
        report(m.start(), static_msg)
    # A declaration outside any function: a class member, or a variable at
    # namespace/file scope (static storage even without `static`).
    for m in re.finditer(r"\bEpochGuard\s*[*&]?\s*\w+\s*([;={(])", src.code):
        if src.in_function(m.start()) or re.search(
                r"\bstatic\s*$", src.code[max(0, m.start() - 20):m.start()]):
            continue  # a local, or reported above
        if m.group(1) == "(" and looks_like_params(
                call_args(src.code, m.end() - 1)):
            continue  # a function declaration returning a guard
        scopes = src.containers_at(m.start())
        keyword, name = scopes[-1] if scopes else ("namespace", "")
        if keyword == "namespace":
            report(m.start(), static_msg)
        elif name != "EpochGuard":
            report(m.start(), "EpochGuard must not escape a function scope "
                   "(member of '%s'); guards are strictly scoped" % name)


# ---------------------------------------------------------------------------
# cbtree-version-validate
# ---------------------------------------------------------------------------

def check_version_validate(src, report):
    # `node->version.store(...)`, or bare `version.store(...)` in the node's
    # own methods (implicit this).
    mutate_re = re.compile(
        r"(?:(?:->|\.)\s*|(?<![\w.>:]))version\s*\.\s*"
        r"(store|compare_exchange_weak|compare_exchange_strong|exchange|"
        r"fetch_add|fetch_sub|fetch_or|fetch_and|fetch_xor)\s*\(")

    for fn in src.functions:
        body = fn.body

        # (a) every stamp must reach a validate (or hand off to a stamp that
        # does — a plain `v = cv;` assignment, checked one hop at a time; a
        # copy into a new variable is no hand-off).
        for m in re.finditer(r"\bReadLockOrRestart\s*\(", body):
            args = call_args(body, m.end() - 1)
            stamp = re.match(r"\s*&\s*(\w+)\s*$", args[1]) \
                if len(args) > 1 else None
            if stamp is None:
                continue
            var = re.escape(stamp.group(1))
            rest = src.code[fn.body_start + m.end():fn.outer.body_end]
            validated = re.search(
                r"\b(?:Validate|UpgradeLockOrRestart)\s*\([^;]*?[,(]\s*%s\s*\)"
                % var, rest)
            handoff = re.search(
                r"(?:[;{}(),]|\belse|\bdo)\s*\**[\w.\[\]]+"
                r"(?:\s*->\s*[\w.\[\]]+)*\s*=\s*%s\s*[;,)]" % var, rest)
            if not validated and not handoff:
                report(fn.body_start + m.start(),
                       "version stamp '%s' is never validated; data read "
                       "under it must not escape without "
                       "Validate/UpgradeLockOrRestart" % stamp.group(1))

        # (b) Validate's result must be consumed, however it is qualified.
        # Only the (node, stamp) form is the version check: a no-argument
        # `params.Validate();` that throws on bad input is another API.
        for m in re.finditer(r"\bValidate\s*\(", body):
            if len(call_args(body, m.end() - 1)) != 2:
                continue
            before = strip_qualifier(body[:m.start()])
            if before.endswith((";", "{", "}")) or not before:
                report(fn.body_start + m.start(), "Validate result is "
                       "discarded; an unchecked validate proves nothing")

        # (c) raw version-word mutations only inside the primitives.
        if fn.name in VERSION_PRIMITIVES:
            continue
        for m in mutate_re.finditer(body):
            if m.group(0).startswith("version") and \
                    declares(outer_text(src, fn), "version"):
                continue  # a local named `version`, not a member
            report(fn.body_start + m.start(),
                   "raw version-word mutation ('%s') outside the "
                   "version-lock primitives" % m.group(1))


# ---------------------------------------------------------------------------
# cbtree-latch-wrapper
# ---------------------------------------------------------------------------

def check_latch_wrapper(src, report):
    # `node->latch.lock()`, or bare `latch.lock()` in a node's own methods.
    call_re = re.compile(
        r"(?:(?:->|\.)\s*|(?<![\w.>:]))latch\s*\.\s*(%s)\s*\("
        % "|".join(LATCH_METHODS))
    # A lock adapter variable, with or without template arguments, with
    # parentheses or braces; its arguments are checked for a latch below.
    adapter_re = re.compile(
        r"\b(?:std\s*::\s*)?(lock_guard|unique_lock|shared_lock|scoped_lock)"
        r"\b\s*(?:<[^;{}]*?>)?\s*\w*\s*[({]")

    for fn in src.functions:
        if not fn.is_lambda and (fn.name in LATCH_WRAPPERS or
                                 "NodeLatch" in fn.scopes()):
            continue
        body = fn.body
        for m in call_re.finditer(body):
            if m.group(0).startswith("latch") and \
                    declares(outer_text(src, fn), "latch"):
                continue  # a local named `latch`, not a node's member
            report(fn.body_start + m.start(),
                   "raw latch call '.latch.%s()' outside the instrumented "
                   "LatchShared/LatchExclusive/Unlatch* wrappers" % m.group(1))
        for m in adapter_re.finditer(body):
            if re.search(r"\blatch\b", ",".join(call_args(body, m.end() - 1))):
                report(fn.body_start + m.start(),
                       "std::%s over a node latch bypasses the instrumented "
                       "wrappers (and the latch_check validator)" % m.group(1))


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


def check_obs_compile_out(src, report):
    norm = src.path.replace(os.sep, "/")
    in_obs = "/obs/" in norm or norm.startswith("obs/")
    code = src.code
    internal_msg = ("obs::internal is private to src/obs/; go through the "
                    "compile-out-safe Counter/Gauge/Timer handles")
    define_re = r"#\s*define\s+CBTREE_OBS_ENABLED\b"
    default_known = (in_obs or _reaches_obs_header(src.path) or
                     re.search(define_re, code) is not None)

    for m in re.finditer(r"#\s*(ifdef|ifndef)\s+CBTREE_OBS_ENABLED\b", code):
        # The one legal shape: `#ifndef CBTREE_OBS_ENABLED` immediately
        # followed by `#define CBTREE_OBS_ENABLED <0|1>` (the default-define
        # idiom in the obs headers).
        follow = [ln for ln in code[m.end():].split("\n", 3)[1:3]
                  if ln.strip()]
        if m.group(1) == "ifndef" and follow and \
                re.match(r"\s*" + define_re, follow[0]):
            continue
        report(m.start(), "CBTREE_OBS_ENABLED is always defined (0 or 1); "
               "#%s is always-%s — use '#if CBTREE_OBS_ENABLED'"
               % (m.group(1), "true" if m.group(1) == "ifdef" else "false"))
    # `defined(X)` and `defined X` alike.
    for m in re.finditer(r"\bdefined\b\s*\(?\s*CBTREE_OBS_ENABLED\b", code):
        report(m.start(), "CBTREE_OBS_ENABLED is always defined (0 or 1); "
               "defined() is always true — test its value instead")
    if not default_known:
        for m in re.finditer(r"#\s*(?:el)?if\b[^\n]*\bCBTREE_OBS_ENABLED\b",
                             code):
            report(m.start(), "CBTREE_OBS_ENABLED tested without including "
                   "an obs header that establishes its default; '#if' on an "
                   "undefined macro silently compiles the layer out")
    if in_obs:
        return

    # A qualified reference, or a using-directive / namespace alias that
    # opens obs::internal to unqualified use.
    for m in re.finditer(r"\bobs\s*::\s*internal\s*::|"
                         r"\b(?:using\s+namespace|namespace\s+\w+\s*=)\s*"
                         r"(?:::\s*)?(?:\w+\s*::\s*)*obs\s*::\s*internal\b",
                         code):
        report(m.start(), internal_msg)

    # Code that reopens namespace obs outside src/obs/ reaches internal::
    # unqualified, or reopens obs::internal itself.
    def namespaces_at(offset):
        return [part for keyword, name in src.containers_at(offset)
                if keyword == "namespace" for part in name.split("::")]

    for m in re.finditer(r"\binternal\s*::", code):
        if not code[:m.start()].rstrip().endswith("::") and \
                "obs" in namespaces_at(m.start()):
            report(m.start(), internal_msg)
    for keyword, _, head_start, body_start, _ in src.container_spans:
        if keyword == "namespace" and \
                namespaces_at(body_start)[-2:] == ["obs", "internal"]:
            report(code.index("namespace", head_start), internal_msg)


# ---------------------------------------------------------------------------
# cbtree-node-alloc
# ---------------------------------------------------------------------------

def check_node_alloc(src, report):
    types = "|".join(NODE_TYPES)
    # Plain, qualified (`new cbtree::OlcNode`) and placement new.
    new_re = re.compile(r"\bnew\s*(?:\([^()]*\)\s*)?(?:::\s*)?(?:\w+\s*::\s*)*"
                        r"(%s)\b" % types)
    cast_re = re.compile(r"(?:_cast\s*<|\()\s*(?:const\s+)?(?:\w+\s*::\s*)*"
                         r"(?:%s)\s*\*\s*[>)]" % types)
    node_fns, _ = node_vocabulary(src.path, NODE_TYPES)
    call_re = re.compile(
        r"(?:[\w:]+\s*(?:->|\.)\s*)*(?:\w+\s*::\s*)*(?:%s)\s*\("
        % "|".join(sorted(node_fns))) if node_fns else None
    markers = harvest_markers(src.path)

    for fn in src.functions:
        body = fn.body
        if fn.name not in NODE_ALLOCATORS and fn.name not in NODE_TYPES:
            # A constructor's init list allocates too; a lambda's head is
            # its enclosing function's text.
            start = fn.body_start if fn.is_lambda else fn.head_start
            for m in new_re.finditer(src.code[start:fn.body_start] + body):
                report(start + m.start(),
                       "naked 'new %s' outside the arena/AllocateNode paths; "
                       "nodes must come from their allocator" % m.group(1))

        if fn.name.startswith("~") or \
                "CBTREE_EPOCH_QUIESCENT" in markers.get(fn.name, ()):
            continue  # quiescent teardown owns its nodes

        # Naked delete of an expression of node-pointer type: a pointer
        # declared with a node type (param or local), a cast to one, a
        # call to a function returning one, or an `auto` variable
        # initialised from any of these.
        scope = outer_text(src, fn)
        node_ptrs = set(re.findall(
            r"\b(?:const\s+)?(?:%s)\s*\*\s*(?:const\s+)?(\w+)" % types, scope))

        def node_typed(expr):
            expr = expr.strip()
            return (expr in node_ptrs or cast_re.search(expr) is not None or
                    new_re.search(expr) is not None or
                    (call_re is not None and call_re.match(expr) is not None))

        autos = re.findall(r"\bauto\s*\*?\s*(?:const\s+)?(\w+)\s*=\s*([^;]*);",
                           scope)
        grew = True
        while grew:
            grew = False
            for name, init in autos:
                if name not in node_ptrs and node_typed(init):
                    node_ptrs.add(name)
                    grew = True

        for m in re.finditer(r"\bdelete\s*(?:\[\s*\]\s*)?([^;]+);", body):
            if node_typed(m.group(1)):
                report(fn.body_start + m.start(),
                       "naked 'delete %s' outside destructor/epoch-"
                       "reclamation paths; retire nodes to the epoch manager "
                       "instead" % m.group(1).strip())


# ---------------------------------------------------------------------------
# cbtree-wal-append
# ---------------------------------------------------------------------------

def check_wal_append(src, report):
    raw_re = re.compile(r"(::\s*)?\b(%s)\s*\(" % "|".join(WAL_RAW_IO))
    api_re = re.compile(r"\b(?:%s)\s*\(" % "|".join(WAL_APPEND_API))

    for fn in src.functions:
        if fn.name in WAL_WRITER_SIDE:
            continue  # the log's own I/O layer
        body = fn.body
        on_mutation_path = api_re.search(body) is not None
        in_wal_layer = "wal" in fn.scopes() or "ShardLog" in fn.scopes()
        if not on_mutation_path and not in_wal_layer:
            continue
        for m in raw_re.finditer(body):
            # A plain `x.write(...)` / `s->write(...)` is a member call on
            # some other abstraction, not the file syscall; `::write` and
            # bare `write(fd, ...)` are.
            if m.group(1) is None and \
                    body[:m.start()].rstrip().endswith((".", "->")):
                continue
            if on_mutation_path:
                report(fn.body_start + m.start(),
                       "raw '%s' on a logged mutation path; tree writes "
                       "reach the log only through the group-commit API "
                       "(Append*/WaitDurable/WhenDurable)" % m.group(2))
            else:
                report(fn.body_start + m.start(),
                       "raw '%s' in the WAL outside the writer-side I/O "
                       "layer (WriteAll/FlushGroup/OpenSegment/SealSegment/"
                       "SyncFd); appenders go through "
                       "Append*/WaitDurable/WhenDurable" % m.group(2))


CHECK_FNS = {
    "cbtree-epoch-guard": check_epoch_guard,
    "cbtree-version-validate": check_version_validate,
    "cbtree-latch-wrapper": check_latch_wrapper,
    "cbtree-obs-compile-out": check_obs_compile_out,
    "cbtree-node-alloc": check_node_alloc,
    "cbtree-wal-append": check_wal_append,
}
ALL_CHECKS = list(CHECK_FNS)


def run_check(check, src):
    """Runs one check over `src` and returns its diagnostics."""
    found = []

    def report(offset, message):
        line, col = src.line_col(offset)
        found.append(Diagnostic(src.path, line, col, message, check))

    CHECK_FNS[check](src, report)
    return found


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
        print("\n".join(ALL_CHECKS))
        return 0

    if args.checks == "*":
        selected = ALL_CHECKS
    else:
        selected = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in selected if c not in ALL_CHECKS]
        if unknown:
            print("cbtree-tidy: unknown check(s): %s" % ", ".join(unknown),
                  file=sys.stderr)
            return 2

    diags = []
    for path in args.files:
        src = load_source(path)
        if src is None:
            print("cbtree-tidy: cannot read %s" % path, file=sys.stderr)
            return 2
        for check in selected:
            diags += run_check(check, src)

    emitted = 0
    for d in sorted(diags, key=lambda d: (d.path, d.line, d.col, d.check)):
        if nolint_suppressed(load_source(d.path), d.line, d.check):
            continue
        print("%s:%d:%d: warning: %s [%s]" % d)
        emitted += 1

    if not args.quiet:
        print("cbtree-tidy: %d warning(s) across %d file(s)"
              % (emitted, len(args.files)), file=sys.stderr)
    return 1 if emitted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
