#ifndef POLARLINT_RULES_H_
#define POLARLINT_RULES_H_

// The analysis passes. Each pass is a free function over a Corpus (all
// files linted together plus the cross-TU symbol table) that appends
// findings. The driver owns ordering, timing and output.
//
// Rule ids (as used in `// polarlint: allow(<rule>) <reason>` escapes and
// `polarlint-fixture-expect:` tags):
//
//   token pass (v1 rules, one file at a time):
//     raw-mutex, unranked-mutex, raw-atomic, no-hostptr-memcpy,
//     nondeterminism, fusion-bypass, unguarded-field
//     (unchecked-fabric-status was a token rule through v2; the flow tier's
//     status-defuse pass subsumed it.)
//
//   flow tier (pass_flow.cc over cfg.h + dataflow.h, cross-TU):
//     capability — an access to a GUARDED_BY(m) field from a method of the
//     declaring class on a CFG path where m is not in the must-hold
//     lockset (neither REQUIRES(m), a live scoped guard, a manual .lock()
//     span, nor AssertHeld covers it). The id predates the flow tier; only
//     the engine behind it changed.
//     flow-lockset — access-after-release, double-lock of a mutex already
//     (maybe-)held, and a manual lock span still held at one return path
//     but released before another.
//     blocking-under-lock — a blocking callee (round-trip fusion RPC verbs,
//     sleeps, future/handle Wait (log forces), thread join, cv waits
//     beyond their own-mutex idiom) issued while the inbound must-hold
//     lockset is non-empty; one callee level is inlined.
//     status-defuse — a Status defined from a fabric verb that is
//     discarded at statement position, overwritten unchecked, or not used
//     on every CFG path out of the function.
//
//   lock-order pass (cross-TU):
//     lock-order — a static acquired-while-held edge that violates the
//     declared LockRank order (rank must strictly decrease), a same-rank
//     edge without SameRank::kAllow on both ends, or membership in a cycle
//     of the global acquisition graph.
//
//   fabric pass:
//     fabric-retry — an idempotent fabric verb called on a fabric endpoint
//     outside a RetryTransient/RetryTransientOr wrapper.
//     fabric-request-id — a non-idempotent fusion RPC inside RetryTransient
//     without a stable request id, or an id minted INSIDE the retry lambda
//     (a fresh id per attempt defeats the dedup cache).
//     seqlock-payload — an open-coded seqlock payload access (HostPtr +
//     explicit memory_order discipline) outside src/dsm without a
//     `// polarlint: seqlock-payload(<reason>)` marker.
//
//   tsan.supp audit (runs only with --tsan-supp):
//     tsan-supp — a suppression entry that does not resolve to a function
//     in the corpus recognized as a by-design seqlock payload site.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "symtab.h"

namespace polarlint {

struct Finding {
  std::string file;  // path as reported (relative to root when possible)
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
};

// One acquired-while-held edge of the static lock-order graph, emitted to
// the JSON sidecar regardless of whether it violates anything.
struct LockEdge {
  std::string held;      // "Class::mutex"
  std::string held_rank;
  std::string acquired;  // "Class::mutex"
  std::string acquired_rank;
  std::string site;      // "file:line" of the inner acquisition
};

struct Corpus {
  std::vector<SourceFile> files;
  SymbolTable symtab;

  // Scrubs, builds the symbol table. Call once after files are loaded.
  void Build() { symtab.Build(&files); }
};

// Appends the finding unless the line carries an allow(<rule>) escape.
void Report(const SourceFile& f, size_t pos, const std::string& rule,
            const std::string& message, std::vector<Finding>* out);

// The v1 token-level rules, one file at a time.
void RunTokenRules(const Corpus& corpus, std::vector<Finding>* out);

// ---- flow tier (pass_flow.cc) ----
//
// BuildFlowAnalysis lowers every src/ function body to a CFG and extracts
// the shared event stream; the three passes then solve and report over it.
// The driver runs them in this order — blocking-under-lock reads the
// locksets flow-lockset solved.

struct FlowStats {
  size_t functions = 0;            // bodies lowered to CFGs
  size_t blocks = 0;
  size_t edges = 0;
  size_t lockset_iterations = 0;   // transfer executions, lockset solve
  size_t status_iterations = 0;    // transfer executions, status solve
};

struct FlowAnalysis;  // opaque; defined in pass_flow.cc
struct FlowAnalysisDeleter {
  void operator()(FlowAnalysis* p) const;
};
using FlowAnalysisPtr = std::unique_ptr<FlowAnalysis, FlowAnalysisDeleter>;

FlowAnalysisPtr BuildFlowAnalysis(const Corpus& corpus, FlowStats* stats);
void RunFlowLocksetPass(const Corpus& corpus, FlowAnalysis* fa,
                        FlowStats* stats, std::vector<Finding>* out);
void RunBlockingUnderLockPass(const Corpus& corpus, FlowAnalysis* fa,
                              std::vector<Finding>* out);
void RunStatusDefusePass(const Corpus& corpus, FlowAnalysis* fa,
                         FlowStats* stats, std::vector<Finding>* out);

// Cross-TU static lock-order graph. `edges` receives the full edge list
// (for the JSON sidecar) whether or not violations are found.
void RunLockOrderPass(const Corpus& corpus, std::vector<Finding>* out,
                      std::vector<LockEdge>* edges);

// Fabric-protocol rules: fabric-retry, fabric-request-id, seqlock-payload.
void RunFabricPass(const Corpus& corpus, std::vector<Finding>* out);

// tsan.supp audit. `supp_display` is the path findings print; `supp_content`
// the file's bytes.
void RunTsanSuppAudit(const Corpus& corpus, const std::string& supp_display,
                      const std::string& supp_content,
                      std::vector<Finding>* out);

}  // namespace polarlint

#endif  // POLARLINT_RULES_H_
