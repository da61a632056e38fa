//===--- WalAppendCheck.cpp - cbtree-wal-append ---------------------------===//

#include "WalAppendCheck.h"

#include "clang/AST/ASTContext.h"
#include "clang/AST/DeclCXX.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"

using namespace clang::ast_matchers;

namespace clang::tidy::cbtree {

namespace {

// The WAL's writer-side I/O layer: the only functions allowed to issue raw
// write-side syscalls against the log.
bool isWriterSide(const FunctionDecl *FD) {
  StringRef Name = FD->getName();
  return Name == "WriteAll" || Name == "FlushGroup" ||
         Name == "OpenSegment" || Name == "SealSegment" || Name == "SyncFd" ||
         Name == "WriterLoop" || Name == "Open" || Name == "Close";
}

// True when the function lives inside `namespace wal` or the ShardLog
// class, i.e. inside the WAL layer itself.
bool inWalLayer(const FunctionDecl *FD) {
  for (const DeclContext *DC = FD->getDeclContext(); DC;
       DC = DC->getParent()) {
    if (const auto *NS = dyn_cast<NamespaceDecl>(DC))
      if (NS->getName() == "wal")
        return true;
    if (const auto *RD = dyn_cast<CXXRecordDecl>(DC))
      if (RD->getName() == "ShardLog")
        return true;
  }
  // Out-of-line members (ShardLog::Foo) carry the class as lexical parent
  // of the declaration, not of the definition context walked above.
  if (const auto *MD = dyn_cast<CXXMethodDecl>(FD))
    if (MD->getParent()->getName() == "ShardLog")
      return true;
  return false;
}

} // namespace

void WalAppendCheck::registerMatchers(MatchFinder *Finder) {
  // Raw write-side file syscalls, including those that size the file
  // (preallocation and trimming). Member calls named `write` on some other
  // abstraction are not the syscall and are excluded. Read-side and
  // crash-repair I/O (fread, pread, path-based truncate, unlink) stay
  // unconstrained.
  Finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName(
                   "write", "pwrite", "writev", "pwritev", "fwrite", "fsync",
                   "fdatasync", "sync_file_range", "fallocate",
                   "posix_fallocate", "ftruncate"))),
               unless(callee(cxxMethodDecl())),
               forFunction(functionDecl(hasBody(compoundStmt())).bind("fn")))
          .bind("raw-io"),
      this);
  // Group-commit API calls: these put the enclosing function on a logged
  // mutation path.
  Finder->addMatcher(
      callExpr(callee(functionDecl(hasAnyName(
                   "AppendInsert", "AppendDelete", "WaitDurable",
                   "WhenDurable", "SyncAll", "LogInsert", "LogDelete",
                   "WalLogInsert", "WalLogDelete", "WalWaitDurable"))),
               forFunction(functionDecl(hasBody(compoundStmt())).bind("fn")))
          .bind("api"),
      this);
}

void WalAppendCheck::check(const MatchFinder::MatchResult &Result) {
  const auto *Fn = Result.Nodes.getNodeAs<FunctionDecl>("fn");
  if (!Fn)
    return;
  Fn = Fn->getCanonicalDecl();
  if (Result.Nodes.getNodeAs<CallExpr>("api")) {
    ApiCallers.insert(Fn);
    return;
  }
  if (const auto *CE = Result.Nodes.getNodeAs<CallExpr>("raw-io")) {
    if (isWriterSide(Fn))
      return; // the log's own I/O layer
    const auto *Callee = CE->getDirectCallee();
    RawCalls[Fn].push_back(
        {CE->getBeginLoc(), Callee ? Callee->getName().str() : "write"});
  }
}

void WalAppendCheck::onEndOfTranslationUnit() {
  for (auto &[Fn, Calls] : RawCalls) {
    const bool OnMutationPath = ApiCallers.count(Fn) != 0;
    const bool InWal = inWalLayer(Fn);
    for (const RawCall &Call : Calls) {
      if (OnMutationPath)
        diag(Call.Loc,
             "raw '%0' on a logged mutation path; tree writes reach the log "
             "only through the group-commit API "
             "(Append*/WaitDurable/WhenDurable)")
            << Call.Callee;
      else if (InWal)
        diag(Call.Loc,
             "raw '%0' in the WAL outside the writer-side I/O layer "
             "(WriteAll/FlushGroup/OpenSegment/SealSegment/SyncFd); appenders "
             "go through Append*/WaitDurable/WhenDurable")
            << Call.Callee;
    }
  }
  RawCalls.clear();
  ApiCallers.clear();
}

} // namespace clang::tidy::cbtree
