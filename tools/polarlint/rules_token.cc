// The v1 token-level rules, ported onto the v2 pass interface. These are
// single-file checks; the cross-TU passes live in pass_*.cc. Rule rationale
// is documented in rules.h and DESIGN.md §7. (unchecked-fabric-status was
// the ninth rule here through v2; the flow tier's status-defuse pass in
// pass_flow.cc subsumed it.)

#include <algorithm>
#include <cctype>

#include "lexer.h"
#include "rules.h"

namespace polarlint {

void Report(const SourceFile& f, size_t pos, const std::string& rule,
            const std::string& message, std::vector<Finding>* out) {
  const int line = LineOf(f.scrubbed.text, pos);
  if (LineAllows(f.scrubbed, line, rule)) return;
  out->push_back(Finding{f.display, line, rule, message});
}

namespace {

bool HasToken(const std::string& stmt, const std::string& token) {
  return !TokenHits(stmt, token).empty();
}

void CheckRawMutex(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel == "src/common/lock_rank.h") return;
  static const char* kBanned[] = {
      "std::mutex",          "std::shared_mutex",
      "std::recursive_mutex", "std::timed_mutex",
      "std::condition_variable", "std::condition_variable_any",
  };
  for (const char* token : kBanned) {
    for (size_t pos : TokenHits(f.scrubbed.text, token)) {
      Report(f, pos, "raw-mutex",
             std::string(token) +
                 " is banned: use RankedMutex/RankedSharedMutex/CondVar "
                 "from common/lock_rank.h with a declared LockRank",
             out);
    }
  }
}

void CheckUnrankedMutex(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel == "src/common/lock_rank.h") return;
  const std::string& text = f.scrubbed.text;
  for (const char* token : {"RankedMutex", "RankedSharedMutex"}) {
    for (size_t pos : TokenHits(text, token)) {
      const size_t after = SkipSpaces(text, pos + std::string(token).size());
      if (after >= text.size()) continue;
      const char c = text[after];
      // Only declarations introduce a new lock: `RankedMutex name{...};`.
      // References, pointers, template arguments and parameter lists
      // (`&`, `*`, `>`, `(`, `)`, `,`, `;`) do not.
      if (!(std::isalpha(static_cast<unsigned char>(c)) || c == '_')) {
        continue;
      }
      const size_t stmt_end = text.find(';', after);
      const std::string stmt =
          text.substr(after, stmt_end == std::string::npos
                                 ? std::string::npos
                                 : stmt_end - after);
      if (stmt.find("LockRank::") == std::string::npos) {
        Report(f, pos, "unranked-mutex",
               std::string(token) +
                   " declaration must name its LockRank:: rank in the "
                   "initializer",
               out);
      }
    }
  }
}

void CheckRawAtomic(const SourceFile& f, std::vector<Finding>* out) {
  if (StartsWith(f.rel, "src/obs/") || StartsWith(f.rel, "src/rdma/") ||
      StartsWith(f.rel, "src/dsm/")) {
    return;
  }
  for (size_t pos : TokenHits(f.scrubbed.text, "std::atomic<uint64_t>")) {
    Report(f, pos, "raw-atomic",
           "hand-rolled std::atomic<uint64_t>: counters belong in "
           "obs::Counter; non-counter cells need "
           "`// polarlint: allow(raw-atomic) <reason>`",
           out);
  }
}

void CheckHostPtrMemcpy(const SourceFile& f, std::vector<Finding>* out) {
  if (StartsWith(f.rel, "src/dsm/") || StartsWith(f.rel, "src/rdma/")) return;
  const std::string& text = f.scrubbed.text;
  for (size_t pos : TokenHits(text, "memcpy")) {
    size_t open = SkipSpaces(text, pos + 6);
    if (open >= text.size() || text[open] != '(') continue;
    // First argument: up to the top-level comma.
    int depth = 1;
    size_t j = open + 1;
    const size_t arg_begin = j;
    while (j < text.size() && depth > 0) {
      const char c = text[j];
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (c == ',' && depth == 1) break;
      ++j;
    }
    const std::string arg = text.substr(arg_begin, j - arg_begin);
    if (arg.find("HostPtr") != std::string::npos) {
      Report(f, pos, "no-hostptr-memcpy",
             "raw memcpy into fabric-registered memory: use "
             "Dsm::HostWrite / Dsm::HostWriteSeqlocked",
             out);
    }
  }
}

void CheckNondeterminism(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel == "src/common/random.h") return;
  const std::string& text = f.scrubbed.text;
  auto call_of = [&](const char* name) {
    std::vector<size_t> calls;
    for (size_t pos : TokenHits(text, name)) {
      const size_t open = SkipSpaces(text, pos + std::string(name).size());
      if (open < text.size() && text[open] == '(') calls.push_back(pos);
    }
    return calls;
  };
  for (size_t pos : call_of("rand")) {
    Report(f, pos, "nondeterminism",
           "rand(): draw from polarmp::Random (common/random.h) so runs "
           "are seedable",
           out);
  }
  for (size_t pos : call_of("srand")) {
    Report(f, pos, "nondeterminism",
           "srand(): seed a polarmp::Random instance instead", out);
  }
  for (const char* token :
       {"std::random_device", "std::mt19937", "std::mt19937_64"}) {
    for (size_t pos : TokenHits(text, token)) {
      Report(f, pos, "nondeterminism",
             std::string(token) +
                 ": use polarmp::Random (common/random.h) so runs are "
                 "seedable",
             out);
    }
  }
  for (size_t pos : call_of("time")) {
    const size_t open = SkipSpaces(text, pos + 4);
    const size_t close = text.find(')', open);
    if (close == std::string::npos) continue;
    std::string arg = text.substr(open + 1, close - open - 1);
    arg.erase(std::remove_if(arg.begin(), arg.end(),
                             [](unsigned char c) { return std::isspace(c); }),
              arg.end());
    if (arg == "nullptr" || arg == "NULL" || arg == "0") {
      Report(f, pos, "nondeterminism",
             "time(nullptr): wall-clock seeding breaks reproducibility; "
             "use polarmp::Random",
             out);
    }
  }
}

void CheckFusionBypass(const SourceFile& f, std::vector<Finding>* out) {
  if (!StartsWith(f.rel, "src/engine/")) return;
  // The LBP and the undo log own the engine's fusion/DSM plumbing; every
  // other engine file goes through them or through the IndexCache.
  if (StartsWith(f.rel, "src/engine/buffer_pool.") ||
      StartsWith(f.rel, "src/engine/undo.")) {
    return;
  }
  for (const char* token :
       {"Dsm", "ReadSeqlocked", "WriteSeqlocked", "FetchPage",
        "FetchPageVersioned", "PushPage", "RegisterCopy", "UnregisterCopy",
        "NotifyPush", "ChargeRpc"}) {
    for (size_t pos : TokenHits(f.scrubbed.text, token)) {
      Report(f, pos, "fusion-bypass",
             std::string(token) +
                 ": engine traversal code must not touch Dsm or the "
                 "fusion RPC surface directly; go through Mtr/BufferPool "
                 "or the compute-side IndexCache (src/cache/)",
             out);
    }
  }
}

void CheckUnguardedFields(const SourceFile& f, std::vector<Finding>* out) {
  // lock_rank.h wraps the raw std primitives; the annotation macros are
  // defined in thread_annotations.h. Neither can be stated in terms of
  // itself.
  if (f.rel == "src/common/lock_rank.h" ||
      f.rel == "src/common/thread_annotations.h") {
    return;
  }
  const Scrubbed& s = f.scrubbed;
  const bool atomics_exempt = StartsWith(f.rel, "src/obs/") ||
                              StartsWith(f.rel, "src/rdma/") ||
                              StartsWith(f.rel, "src/dsm/");

  const std::vector<ClassSpan> spans = FindClassSpans(s.text);
  std::map<size_t, ClassSpan> span_by_kw;
  for (const ClassSpan& span : spans) span_by_kw[span.kw] = span;

  for (const ClassSpan& span : spans) {
    const std::vector<MemberStmt> stmts =
        MemberStatements(s.text, span, span_by_kw);
    bool owns_mutex = false;
    for (const MemberStmt& stmt : stmts) {
      if (DeclaresOwnedMutex(stmt.text)) owns_mutex = true;
    }
    if (!owns_mutex) continue;

    for (const MemberStmt& stmt : stmts) {
      // Non-field member-level statements.
      bool skip = false;
      for (const char* token :
           {"using", "typedef", "friend", "enum", "static_assert",
            "operator"}) {
        if (HasToken(stmt.text, token)) skip = true;
      }
      if (skip) continue;
      // Annotated: part of the capability analysis. (Checked before the
      // function test — the annotation macros take parentheses.)
      if (stmt.text.find("GUARDED_BY(") != std::string::npos) continue;
      // A '(' outside template arguments marks a method declaration.
      if (StripAngles(stmt.text).find('(') != std::string::npos) continue;
      // Immutable members need no lock.
      if (HasToken(stmt.text, "const") || HasToken(stmt.text, "constexpr") ||
          HasToken(stmt.text, "static")) {
        continue;
      }
      // Synchronization and telemetry objects are internally consistent.
      bool whitelisted = false;
      for (const char* token :
           {"RankedMutex", "RankedSharedMutex", "CondVar", "obs::Counter",
            "obs::Gauge", "obs::LatencyHistogram"}) {
        if (HasToken(stmt.text, token)) whitelisted = true;
      }
      if (whitelisted) continue;
      // Atomics in the dirs that implement remote-atomic targets are the
      // raw-atomic rule's domain, not this one's.
      if (atomics_exempt &&
          stmt.text.find("std::atomic") != std::string::npos) {
        continue;
      }
      // Documented escape on the member's own lines or in the contiguous
      // comment block immediately above.
      const int first = LineOf(s.text, stmt.begin);
      const int last = LineOf(s.text, stmt.end);
      bool escaped = false;
      for (int l = first; l <= last && !escaped; ++l) {
        escaped = LineHasMarker(s, l, "unguarded", "");
      }
      if (escaped) continue;
      Report(f, stmt.begin, "unguarded-field",
             "mutable member of a RankedMutex-owning class: annotate with "
             "GUARDED_BY(<mu>), make it const, or document why not with "
             "`// polarlint: unguarded(<reason>)`",
             out);
    }
  }
}

}  // namespace

void RunTokenRules(const Corpus& corpus, std::vector<Finding>* out) {
  for (const SourceFile& f : corpus.files) {
    if (!StartsWith(f.rel, "src/")) continue;
    CheckRawMutex(f, out);
    CheckUnrankedMutex(f, out);
    CheckRawAtomic(f, out);
    CheckHostPtrMemcpy(f, out);
    CheckNondeterminism(f, out);
    CheckFusionBypass(f, out);
    CheckUnguardedFields(f, out);
  }
}

}  // namespace polarlint
