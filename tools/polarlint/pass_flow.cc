// The flow-sensitive tier: three passes over per-function CFGs (cfg.h) and
// the forward worklist solver (dataflow.h). DESIGN.md §7 documents the
// lattices and what stays clang-only.
//
//   flow-lockset    Per-block MUST-hold locksets replace pass_capability's
//                   "acquired earlier in the body" prefix heuristic for
//                   GUARDED_BY access checking (rule id stays `capability`),
//                   and three defects the flow-insensitive pass could not
//                   see get their own rule id `flow-lockset`:
//                   access-after-release (the guarded access sits on a path
//                   where the mutex was already dropped), double-lock (the
//                   same non-recursive mutex acquired while MAY-held on
//                   some path), and return-path lock leaks (a manual
//                   .lock() span provably still held at one return but
//                   released at another).
//
//   blocking-under-lock
//                   No blocking callee — round-trip fusion RPC verbs,
//                   sleeps, future/handle Wait()s (log-force waits among
//                   them), thread joins, cv waits outside their own-mutex
//                   idiom — may run while the inbound MUST-hold lockset is
//                   non-empty. One call level is inlined the same way the
//                   lock-order pass resolves callees, so a helper that
//                   blocks is caught at the locked call site. Audited legit
//                   sites carry `// polarlint: allow(blocking-under-lock)
//                   <reason>`. One-sided fabric ops (Read/Write/Load64/...)
//                   are bounded-latency by design and deliberately NOT in
//                   the set — they are what page latches legitimately cover.
//
//   status-defuse   Replaces the token-level unchecked-fabric-status rule
//                   with genuine def-use over the CFG: a Status defined
//                   from a fabric verb must reach a use (any later mention:
//                   ok(), return, RETURN_IF_ERROR, logging) on EVERY path;
//                   a statement-position discard and an unchecked overwrite
//                   are reported at the offending site, a one-branch-only
//                   check at the definition.
//
// Event extraction is shared: each function body is lowered once, each
// block gets an ordered event list (acquire/release/scope-exit/assert/
// wait/call/guarded-access/status def-use), and the three passes interpret
// the same stream under their own lattices.
//
// Deliberate subset (beyond cfg.h's notes): try_lock is treated as a no-op
// (path-splitting on its result needs real SSA), lock expressions are keyed
// by their normalized receiver text so double-lock/leak checks restrict
// themselves to bare-identifier mutexes (crabbing chains like `cur->latch`
// alias after pointer reassignment), and guards constructed inside a lambda
// literal acquire and release within the lambda's brace region.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cfg.h"
#include "dataflow.h"
#include "lexer.h"
#include "rules.h"

namespace polarlint {

namespace {

// ---- shared event stream ---------------------------------------------------

struct Event {
  enum Kind {
    kAcquire,        // guard ctor or manual .lock()/.lock_shared()
    kAssert,         // AssertHeld/AssertAnyHeld or a REQUIRES-lambda open
    kRelease,        // .unlock()/.unlock_shared() or a synthetic pair close
    kScopeExit,      // destructors of `scope` run: guards of it release
    kWait,           // cv/future wait; key = the mutex the wait releases
    kCall,           // any other call: name + normalized receiver in key
    kAccess,         // guarded-field access: name = field, key = its mutex
    kStatusDef,      // name = variable, pos = the defining fabric verb
    kStatusUse,      // name = variable
    kStatusDiscard,  // statement-position discard; name = the verb
  };
  Kind kind = kCall;
  size_t pos = 0;     // body-relative
  std::string key;
  std::string name;
  int scope = -1;     // kAcquire: releasing scope (-1 = paired release
                      // emitted instead); kScopeExit: the scope id
  bool guard = false;         // kAcquire via scoped guard
  bool scoped_assert = false; // kAssert from a REQUIRES lambda (kLambdaHold)
  bool unmark = false;        // kRelease closing a REQUIRES lambda: removes
                              // only the lambda's own hold, never records a
                              // release
};

// ---- lockset lattice -------------------------------------------------------

enum HoldKind { kEntryHold = 0, kGuardHold = 1, kManualHold = 2,
                kLambdaHold = 3 };

struct LockHold {
  int kind = kEntryHold;
  int scope = -1;
  size_t pos = 0;
  bool operator==(const LockHold& o) const {
    return kind == o.kind && scope == o.scope && pos == o.pos;
  }
};

struct LockState {
  bool reached = false;
  std::map<std::string, LockHold> held;      // MUST-hold
  std::map<std::string, size_t> released;    // MAY-released (pos of release)
  std::map<std::string, size_t> may_held;    // MAY-hold (pos of acquire)
  bool operator==(const LockState& o) const {
    return reached == o.reached && held == o.held && released == o.released &&
           may_held == o.may_held;
  }
};

LockState MeetLock(const LockState& a, const LockState& b) {
  if (!a.reached) return b;
  if (!b.reached) return a;
  LockState out;
  out.reached = true;
  for (const auto& [k, ha] : a.held) {
    const auto it = b.held.find(k);
    if (it == b.held.end()) continue;
    const LockHold& hb = it->second;
    out.held[k] = std::tie(ha.kind, ha.scope, ha.pos) <=
                          std::tie(hb.kind, hb.scope, hb.pos)
                      ? ha
                      : hb;
  }
  out.released = a.released;
  for (const auto& [k, p] : b.released) {
    auto [it, fresh] = out.released.emplace(k, p);
    if (!fresh) it->second = std::max(it->second, p);
  }
  out.may_held = a.may_held;
  for (const auto& [k, p] : b.may_held) {
    auto [it, fresh] = out.may_held.emplace(k, p);
    if (!fresh) it->second = std::min(it->second, p);
  }
  return out;
}

void ApplyLockEvent(const Event& e, LockState* s) {
  switch (e.kind) {
    case Event::kScopeExit: {
      std::vector<std::string> dead;
      for (const auto& [k, h] : s->held) {
        if (h.kind == kGuardHold && h.scope == e.scope) dead.push_back(k);
      }
      for (const std::string& k : dead) {
        s->held.erase(k);
        s->may_held.erase(k);
        s->released[k] = e.pos;
      }
      break;
    }
    case Event::kAcquire: {
      LockHold h;
      h.kind = e.guard ? kGuardHold : kManualHold;
      h.scope = e.scope;
      h.pos = e.pos;
      s->held[e.key] = h;
      s->may_held[e.key] = e.pos;
      s->released.erase(e.key);
      break;
    }
    case Event::kAssert: {
      if (!s->held.count(e.key)) {
        LockHold h;
        h.kind = e.scoped_assert ? kLambdaHold : kEntryHold;
        h.pos = e.pos;
        s->held[e.key] = h;
      }
      s->released.erase(e.key);
      break;
    }
    case Event::kRelease: {
      const auto it = s->held.find(e.key);
      if (e.unmark) {
        // Closes a REQUIRES lambda: drop only the hold the lambda itself
        // introduced — an outer guard or function-entry REQUIRES on the
        // same mutex survives, and nothing counts as "released".
        if (it != s->held.end() && it->second.kind == kLambdaHold) {
          s->held.erase(it);
        }
        break;
      }
      if (it != s->held.end()) s->held.erase(it);
      s->may_held.erase(e.key);
      s->released[e.key] = e.pos;
      break;
    }
    default:
      break;
  }
}

// ---- status lattice --------------------------------------------------------

struct StatusState {
  bool reached = false;
  // variable -> definition positions whose Status has not been used yet
  std::map<std::string, std::set<size_t>> pending;
  bool operator==(const StatusState& o) const {
    return reached == o.reached && pending == o.pending;
  }
};

StatusState MeetStatus(const StatusState& a, const StatusState& b) {
  if (!a.reached) return b;
  if (!b.reached) return a;
  StatusState out;
  out.reached = true;
  out.pending = a.pending;
  for (const auto& [var, defs] : b.pending) {
    out.pending[var].insert(defs.begin(), defs.end());
  }
  return out;
}

void ApplyStatusEvent(const Event& e, StatusState* s) {
  if (e.kind == Event::kStatusDef) {
    s->pending[e.name] = {e.pos};
  } else if (e.kind == Event::kStatusUse) {
    s->pending.erase(e.name);
  }
}

// ---- tables ----------------------------------------------------------------

const char* kGuardTypes[] = {"MutexLock",   "UniqueLock",  "ReaderLock",
                             "WriterLock",  "lock_guard",  "unique_lock",
                             "scoped_lock", "shared_lock"};

// Verbs whose Status/StatusOr carries the only record of a fault (the
// retired token rule's list, verbatim — the rule id changed, the protocol
// did not).
const char* kStatusVerbs[] = {
    "FetchAdd64",     "CompareSwap64",    "Load64",
    "Store64",        "ReadSeqlocked",    "WriteSeqlocked",
    "RegisterRegion", "DeregisterRegion", "AcquirePLock",
    "ReleasePLock",   "RegisterWait",     "AwaitHolder",
    "FetchPage",      "FetchPageVersioned", "PushPage",
    "RegisterCopy",   "UnregisterCopy",   "NotifyPush",
    "FlushPages",     "FlushAllDirty",    "ReadSlot",
    "SetRefRemote",   "InjectRpcFault"};
const char* kStatusGated[] = {"Read", "Write"};

// Blocking callees and why they block. method_only entries are too generic
// to match as bare calls — only `<recv>.Wait()` / `<recv>.join()` count.
struct BlockingCallee {
  const char* name;
  const char* why;
  bool method_only;
};
const BlockingCallee kBlockingCallees[] = {
    {"AcquirePLock", "a round-trip PLock RPC", false},
    {"ReleasePLock", "a round-trip PLock RPC", false},
    {"AwaitHolder", "a PLock wait RPC", false},
    {"RegisterWait", "a PLock wait-registration RPC", false},
    {"FetchPage", "a round-trip page-fusion RPC", false},
    {"FetchPageVersioned", "a round-trip page-fusion RPC", false},
    {"PushPage", "a round-trip page-fusion RPC", false},
    {"FlushPages", "a bulk page-flush RPC", false},
    {"FlushAllDirty", "a bulk page-flush RPC", false},
    {"RegisterCopy", "a page-registration RPC", false},
    {"UnregisterCopy", "a page-registration RPC", false},
    {"NotifyPush", "an invalidation fan-out RPC", false},
    {"sleep_for", "a sleep", false},
    {"sleep_until", "a sleep", false},
    {"Wait", "a blocking future/handle wait", true},
    {"join", "a thread join", true},
};

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "if",       "else",    "for",      "while",   "switch",  "case",
      "default",  "return",  "sizeof",   "catch",   "assert",  "new",
      "delete",   "co_await", "static_cast", "const_cast",
      "reinterpret_cast", "dynamic_cast", "alignof", "decltype", "noexcept",
      "break",    "continue", "do",      "throw",   "static_assert"};
  return kw;
}

bool IsGuardType(const std::string& s) {
  for (const char* g : kGuardTypes)
    if (s == g) return true;
  return false;
}

const BlockingCallee* FindBlocking(const std::string& name) {
  for (const BlockingCallee& b : kBlockingCallees)
    if (name == b.name) return &b;
  return nullptr;
}

// ---- small helpers ---------------------------------------------------------

std::string NormalizeExpr(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) out += c;
  }
  return out;
}

bool IsBareIdent(const std::string& s) {
  if (s.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  for (const char c : s) {
    if (!IsIdentChar(c)) return false;
  }
  return true;
}

// First top-level comma-separated argument of `args`.
std::string FirstArg(const std::string& args) {
  std::string first;
  int depth = 0;
  for (const char c : args) {
    if (c == '(' || c == '{' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == ']') --depth;
    if (c == ',' && depth == 0) break;
    first += c;
  }
  return Trim(first);
}

// Receiver text of the chain ending just before the method token at `at`
// (empty for a bare call): `state_->cv` for `state_->cv.wait(...)`.
std::string ReceiverOf(const std::string& body, size_t chain, size_t at) {
  if (chain >= at) return "";
  std::string r = Trim(body.substr(chain, at - chain));
  if (r.size() >= 2 && (r.compare(r.size() - 2, 2, "->") == 0 ||
                        r.compare(r.size() - 2, 2, "::") == 0)) {
    r.resize(r.size() - 2);
  } else if (!r.empty() && r.back() == '.') {
    r.resize(r.size() - 1);
  }
  return Trim(r);
}

bool HeldCovers(const std::map<std::string, LockHold>& held,
                const std::string& mu) {
  for (const auto& [k, h] : held) {
    (void)h;
    if (k == mu || TrailingIdent(k) == mu) return true;
  }
  return false;
}

std::string JoinHeldKeys(const std::map<std::string, LockHold>& held) {
  std::string out;
  for (const auto& [k, h] : held) {
    (void)h;
    if (!out.empty()) out += ", ";
    out += "'" + k + "'";
  }
  return out;
}

}  // namespace

// ---- per-function analysis (opaque behind rules.h) -------------------------

struct FnFlow {
  bool analyzed = false;  // src/ file, body lowered and events extracted
  Cfg cfg;
  std::vector<std::vector<Event>> events;    // per block, program order
  std::map<size_t, std::string> def_verb;    // status def pos -> verb name
  std::vector<LockState> lock_in;            // solved by RunFlowLocksetPass
  // Direct blocking operations of this body, for one-level inlining.
  // Computed by the blocking pass from the SOLVED locksets, so the
  // `Locked`-suffix drop-and-reacquire idiom (REQUIRES(mu_) helpers that
  // unlock around their RPC) does not read as blocking under the caller's
  // mutex.
  struct BlockingOp {
    std::string what;      // human description ("issues a ... RPC (Verb)")
    std::string wait_key;  // cv waits: trailing ident of the wait's mutex
    // Trailing idents of locks this body provably dropped (or never
    // re-took after entry) by the time the op runs; a caller's hold on
    // one of these is the callee's to release, not a stall.
    std::set<std::string> not_held;
  };
  std::vector<BlockingOp> blocking;
  bool blocking_summarized = false;
};

struct FlowAnalysis {
  std::vector<FnFlow> fns;  // parallel to corpus.symtab.functions()
  bool lockset_solved = false;
};

void FlowAnalysisDeleter::operator()(FlowAnalysis* p) const { delete p; }

namespace {

// One span item of the CFG, with its block, for pos -> item assignment.
struct ItemRef {
  int block;
  size_t item_index;
  size_t begin;
  size_t end;
  int scope;
};

struct Extractor {
  Extractor(const Corpus& c, const FunctionDef& f, FnFlow* o)
      : corpus(c), fn(f), out(o) {}

  const Corpus& corpus;
  const FunctionDef& fn;
  FnFlow* out;
  std::string body;
  std::vector<ItemRef> spans;  // sorted by begin; disjoint
  std::map<std::pair<int, size_t>, std::vector<Event>> by_item;
  struct Binding {
    std::string key;
    int scope = -1;
    bool lambda_scoped = false;
    size_t lambda_close = 0;
  };
  std::map<std::string, Binding> bindings;

  const ItemRef* SpanAt(size_t pos) const {
    size_t lo = 0, hi = spans.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (spans[mid].begin <= pos) lo = mid + 1;
      else hi = mid;
    }
    if (lo == 0) return nullptr;
    const ItemRef& it = spans[lo - 1];
    return pos < it.end ? &it : nullptr;
  }

  void Emit(Event e) {
    const ItemRef* it = SpanAt(e.pos);
    if (!it) return;  // outside any statement span (case labels etc.)
    by_item[{it->block, it->item_index}].push_back(std::move(e));
  }

  // Innermost '{' still open inside the item span before `pos` (a lambda or
  // init-list literal); returns its matching '}' or 0 when pos sits at the
  // span's statement level.
  size_t LambdaRegionClose(size_t pos) const {
    const ItemRef* it = SpanAt(pos);
    if (!it) return 0;
    std::vector<size_t> open;
    for (size_t i = it->begin; i < pos && i < body.size(); ++i) {
      if (body[i] == '{') open.push_back(i);
      if (body[i] == '}' && !open.empty()) open.pop_back();
    }
    if (open.empty()) return 0;
    return MatchBrace(body, open.back());
  }

  void Run() {
    const std::string& text = corpus.files[fn.file].scrubbed.text;
    body = text.substr(fn.body_open, fn.body_close - fn.body_open + 1);
    out->cfg = BuildCfg(body);
    out->events.resize(out->cfg.blocks.size());

    for (size_t b = 0; b < out->cfg.blocks.size(); ++b) {
      const BasicBlock& bb = out->cfg.blocks[b];
      for (size_t i = 0; i < bb.items.size(); ++i) {
        if (bb.items[i].kind == CfgItem::kScopeExit) continue;
        spans.push_back(ItemRef{static_cast<int>(b), i, bb.items[i].begin,
                                bb.items[i].end, bb.items[i].scope});
      }
    }
    std::sort(spans.begin(), spans.end(),
              [](const ItemRef& a, const ItemRef& b) {
                return a.begin < b.begin;
              });

    ExtractGuards();
    ExtractCalls();
    ExtractRequiresLambdas();
    ExtractAccesses();
    ExtractStatus();

    // Assemble per-block streams: items in block order, span events sorted
    // by position within their item, scope exits interleaved in place.
    for (size_t b = 0; b < out->cfg.blocks.size(); ++b) {
      const BasicBlock& bb = out->cfg.blocks[b];
      for (size_t i = 0; i < bb.items.size(); ++i) {
        const CfgItem& item = bb.items[i];
        if (item.kind == CfgItem::kScopeExit) {
          Event e;
          e.kind = Event::kScopeExit;
          e.pos = item.begin;
          e.scope = item.scope;
          out->events[b].push_back(std::move(e));
          continue;
        }
        auto it = by_item.find({static_cast<int>(b), i});
        if (it == by_item.end()) continue;
        std::stable_sort(it->second.begin(), it->second.end(),
                         [](const Event& x, const Event& y) {
                           return x.pos < y.pos;
                         });
        for (Event& e : it->second) out->events[b].push_back(std::move(e));
      }
    }

    out->analyzed = true;
  }

  // Scoped guard constructions: `MutexLock l(mu_);`, std guards with
  // template args, unnamed temporaries, guards inside lambda literals.
  void ExtractGuards() {
    for (const char* g : kGuardTypes) {
      for (size_t q : TokenHits(body, g)) {
        size_t k = SkipSpaces(body, q + std::strlen(g));
        if (k < body.size() && body[k] == '<') {
          int depth = 0;
          while (k < body.size()) {
            if (body[k] == '<') ++depth;
            if (body[k] == '>' && --depth == 0) {
              ++k;
              break;
            }
            ++k;
          }
          k = SkipSpaces(body, k);
        }
        const size_t vb = k;
        while (k < body.size() && IsIdentChar(body[k])) ++k;
        const std::string var = body.substr(vb, k - vb);
        k = SkipSpaces(body, k);
        if (k >= body.size() || (body[k] != '(' && body[k] != '{')) continue;
        const size_t close =
            body[k] == '(' ? MatchParen(body, k) : MatchBrace(body, k);
        if (close >= body.size()) continue;
        const std::string key =
            NormalizeExpr(FirstArg(body.substr(k + 1, close - k - 1)));
        if (key.empty()) continue;
        const ItemRef* it = SpanAt(q);
        if (!it) continue;
        const size_t region_close = LambdaRegionClose(q);

        Event acq;
        acq.kind = Event::kAcquire;
        acq.pos = q;
        acq.key = key;
        acq.guard = true;
        Binding binding;
        binding.key = key;
        if (region_close != 0 || var.empty()) {
          // Released by a synthetic pair close: at the lambda's '}' (the
          // guard lives inside the literal) or at the ctor's own close
          // paren (an unnamed temporary dies at the full expression).
          acq.scope = -1;
          Event rel;
          rel.kind = Event::kRelease;
          rel.key = key;
          rel.pos = region_close != 0 ? region_close : close;
          binding.lambda_scoped = true;
          binding.lambda_close = rel.pos;
          Emit(std::move(acq));
          Emit(std::move(rel));
        } else {
          acq.scope = it->scope;
          binding.scope = it->scope;
          Emit(std::move(acq));
        }
        if (!var.empty()) bindings[var] = binding;
      }
    }
  }

  // Everything that looks like a call: lock primitives, cv waits, and the
  // generic kCall stream the blocking pass resolves.
  void ExtractCalls() {
    const std::vector<Token> toks = Tokenize(body);
    for (size_t t = 0; t + 1 < toks.size(); ++t) {
      if (toks[t].kind != TokKind::kIdent) continue;
      if (toks[t + 1].text != "(") continue;
      const std::string& name = toks[t].text;
      const size_t at = toks[t].offset;
      if (Keywords().count(name) || IsGuardType(name)) continue;
      if (name == "REQUIRES" || name == "REQUIRES_SHARED") continue;

      const size_t chain = ChainStart(body, at);
      const std::string recv = ReceiverOf(body, chain, at);
      const std::string key = NormalizeExpr(recv);

      if (name == "lock" || name == "lock_shared" || name == "unlock" ||
          name == "unlock_shared") {
        if (key.empty()) continue;
        const bool is_lock = name[0] == 'l';
        const auto bit = bindings.find(key);
        if (bit != bindings.end()) {
          // Guard-variable relock/unlock (UniqueLock's surface).
          Event e;
          e.kind = is_lock ? Event::kAcquire : Event::kRelease;
          e.pos = at;
          e.key = bit->second.key;
          if (is_lock) {
            e.guard = !bit->second.lambda_scoped;
            e.scope = bit->second.scope;
          }
          Emit(std::move(e));
          continue;
        }
        // Direct mutex ops: only receivers the symbol table recognizes as
        // RankedMutex members (weak_ptr::lock and friends stay out).
        std::string owner;
        if (!corpus.symtab.ResolveMutex(fn.class_name, TrailingIdent(key),
                                        &owner)) {
          continue;
        }
        Event e;
        e.kind = is_lock ? Event::kAcquire : Event::kRelease;
        e.pos = at;
        e.key = key;
        Emit(std::move(e));
        continue;
      }
      if (name == "try_lock" || name == "try_lock_shared") {
        continue;  // modeled as a no-op (see header comment)
      }
      if (name == "AssertHeld" || name == "AssertAnyHeld") {
        if (key.empty()) continue;
        Event e;
        e.kind = Event::kAssert;
        e.pos = at;
        e.key = key;
        Emit(std::move(e));
        continue;
      }
      if (name == "wait" || name == "wait_for" || name == "wait_until") {
        const size_t close = MatchParen(body, toks[t + 1].offset);
        std::string arg = NormalizeExpr(FirstArg(body.substr(
            toks[t + 1].offset + 1, close - toks[t + 1].offset - 1)));
        const auto bit = bindings.find(arg);
        Event e;
        e.kind = Event::kWait;
        e.pos = at;
        e.key = bit != bindings.end() ? bit->second.key : arg;
        Emit(std::move(e));
        continue;
      }
      Event e;
      e.kind = Event::kCall;
      e.pos = at;
      e.name = name;
      e.key = key;
      Emit(std::move(e));
    }
  }

  // `[&]() REQUIRES(mu_) { ... }` runs its body with mu_ held (the CondVar
  // wait idiom): the mutex is held from the annotation to the lambda's
  // closing brace, without ever counting as acquired or released here.
  void ExtractRequiresLambdas() {
    for (const char* m : {"REQUIRES", "REQUIRES_SHARED"}) {
      for (size_t q : TokenHits(body, m)) {
        const size_t open = body.find('(', q);
        if (open == std::string::npos) continue;
        const size_t close = MatchParen(body, open);
        const std::string key =
            NormalizeExpr(FirstArg(body.substr(open + 1, close - open - 1)));
        if (key.empty()) continue;
        const ItemRef* it = SpanAt(q);
        if (!it) continue;
        size_t lb = SkipSpaces(body, close + 1);
        size_t region_end = it->end;
        if (lb < body.size() && body[lb] == '{') {
          const size_t rb = MatchBrace(body, lb);
          if (rb < body.size()) region_end = rb;
        }
        Event a;
        a.kind = Event::kAssert;
        a.pos = q;
        a.key = key;
        a.scoped_assert = true;
        Emit(std::move(a));
        Event r;
        r.kind = Event::kRelease;
        r.pos = region_end;
        r.key = key;
        r.unmark = true;
        Emit(std::move(r));
      }
    }
  }

  // GUARDED_BY field accesses through `this`, same filters as the retired
  // flow-insensitive pass (declaring class only, PT_GUARDED_BY skipped).
  void ExtractAccesses() {
    if (fn.class_name.empty() || fn.is_ctor() || fn.is_dtor() ||
        fn.no_analysis || StartsWith(fn.name, "operator")) {
      return;
    }
    const ClassInfo* cls = corpus.symtab.FindClass(fn.class_name);
    if (!cls || !cls->HasGuardedFields()) return;
    for (const GuardedField& gf : cls->guarded_fields) {
      if (gf.pointee || gf.mutex.empty()) continue;
      if (fn.requires_mutexes.count(gf.mutex)) continue;  // entry covers it
      for (size_t hit : TokenHits(body, gf.name)) {
        const size_t chain = ChainStart(body, hit);
        if (chain != hit) {
          const std::string recv = Trim(body.substr(chain, hit - chain));
          if (recv.rfind("this", 0) != 0) continue;
        }
        Event e;
        e.kind = Event::kAccess;
        e.pos = hit;
        e.name = gf.name;
        e.key = gf.mutex;
        Emit(std::move(e));
      }
    }
  }

  // Status def-use sites: defs (`<type> var = <fabric verb>(...)`),
  // statement-position discards, and uses (any later mention of a tracked
  // variable).
  void ExtractStatus() {
    struct Def {
      std::string var;
      size_t pos;      // the verb token
      size_t lhs_pos;  // the variable mention on the LHS (not a use)
    };
    std::vector<Def> defs;

    auto scan_verb = [&](const char* verb, bool gated) {
      for (size_t pos : TokenHits(body, verb)) {
        const size_t open = SkipSpaces(body, pos + std::strlen(verb));
        if (open >= body.size() || body[open] != '(') continue;
        const size_t chain = ChainStart(body, pos);
        if (gated) {
          std::string recv = body.substr(chain, pos - chain);
          std::transform(recv.begin(), recv.end(), recv.begin(),
                         [](unsigned char c) { return std::tolower(c); });
          if (recv.find("fabric") == std::string::npos &&
              recv.find("dsm") == std::string::npos) {
            continue;
          }
        }
        size_t k = chain;
        while (k > 0 &&
               std::isspace(static_cast<unsigned char>(body[k - 1]))) {
          --k;
        }
        const char prev = k == 0 ? ';' : body[k - 1];
        if (prev == ';' || prev == '{' || prev == '}' || prev == ')') {
          Event e;
          e.kind = Event::kStatusDiscard;
          e.pos = pos;
          e.name = verb;
          Emit(std::move(e));
          continue;
        }
        if (prev != '=') continue;
        // `=` only: `==`, `!=`, `<=`, `+=` ... are uses, not definitions.
        const char prev2 = k >= 2 ? body[k - 2] : ' ';
        if (std::strchr("=!<>+-*/%&|^", prev2)) continue;
        size_t e2 = k - 1;
        while (e2 > 0 &&
               std::isspace(static_cast<unsigned char>(body[e2 - 1]))) {
          --e2;
        }
        size_t b2 = e2;
        while (b2 > 0 && IsIdentChar(body[b2 - 1])) --b2;
        const std::string var = body.substr(b2, e2 - b2);
        if (!IsBareIdent(var) || Keywords().count(var)) continue;
        defs.push_back(Def{var, pos, b2});
        out->def_verb[pos] = verb;
        Event e;
        e.kind = Event::kStatusDef;
        e.pos = pos;
        e.name = var;
        Emit(std::move(e));
      }
    };
    for (const char* verb : kStatusVerbs) scan_verb(verb, /*gated=*/false);
    for (const char* verb : kStatusGated) scan_verb(verb, /*gated=*/true);

    std::map<std::string, std::set<size_t>> lhs_by_var;
    for (const Def& d : defs) lhs_by_var[d.var].insert(d.lhs_pos);
    for (const auto& [var, lhs] : lhs_by_var) {
      for (size_t hit : TokenHits(body, var)) {
        if (lhs.count(hit)) continue;
        Event e;
        e.kind = Event::kStatusUse;
        e.pos = hit;
        e.name = var;
        Emit(std::move(e));
      }
    }
  }
};

bool FlowEligible(const Corpus& corpus, const FunctionDef& fn) {
  const SourceFile& file = corpus.files[fn.file];
  if (!StartsWith(file.rel, "src/")) return false;
  // The lock wrappers themselves cannot be stated in their own terms.
  if (file.rel == "src/common/lock_rank.h") return false;
  return true;
}

// Locks-and-blocking reporting applies the analysis-exempt filters the
// capability pass always had; status def-use runs everywhere in src/.
bool LockReportable(const FunctionDef& fn) {
  return !fn.is_ctor() && !fn.is_dtor() && !fn.no_analysis &&
         !StartsWith(fn.name, "operator");
}

LockState LockEntryState(const FunctionDef& fn) {
  LockState s;
  s.reached = true;
  for (const std::string& req : fn.requires_mutexes) {
    LockHold h;
    h.kind = kEntryHold;
    s.held[req] = h;
  }
  return s;
}

std::string FnLabel(const FunctionDef& fn) {
  return fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
}

}  // namespace

// ---- build -----------------------------------------------------------------

FlowAnalysisPtr BuildFlowAnalysis(const Corpus& corpus, FlowStats* stats) {
  FlowAnalysisPtr fa(new FlowAnalysis);
  const auto& fns = corpus.symtab.functions();
  fa->fns.resize(fns.size());
  for (size_t i = 0; i < fns.size(); ++i) {
    if (!FlowEligible(corpus, fns[i])) continue;
    Extractor ex(corpus, fns[i], &fa->fns[i]);
    ex.Run();
    if (stats) {
      ++stats->functions;
      stats->blocks += fa->fns[i].cfg.blocks.size();
      stats->edges += fa->fns[i].cfg.EdgeCount();
    }
  }
  return fa;
}

// ---- pass 1: flow-lockset (and the ported capability check) ----------------

void RunFlowLocksetPass(const Corpus& corpus, FlowAnalysis* fa,
                        FlowStats* stats, std::vector<Finding>* out) {
  const auto& fns = corpus.symtab.functions();
  for (size_t fi = 0; fi < fns.size(); ++fi) {
    const FunctionDef& fn = fns[fi];
    FnFlow& ff = fa->fns[fi];
    if (!ff.analyzed) continue;
    const SourceFile& file = corpus.files[fn.file];

    const size_t iters = SolveForward(
        ff.cfg, LockEntryState(fn),
        [&](int b, LockState* s) {
          for (const Event& e : ff.events[b]) ApplyLockEvent(e, s);
        },
        MeetLock, &ff.lock_in);
    if (stats) stats->lockset_iterations += iters;

    if (!LockReportable(fn)) continue;

    // Reporting walk: replay each reachable block once from its solved
    // entry state.
    for (size_t b = 0; b < ff.cfg.blocks.size(); ++b) {
      if (!ff.lock_in[b].reached) continue;
      LockState s = ff.lock_in[b];
      for (const Event& e : ff.events[b]) {
        if (e.kind == Event::kAccess) {
          if (!HeldCovers(s.held, e.key)) {
            std::string released_at;
            for (const auto& [k, p] : s.released) {
              if (k == e.key || TrailingIdent(k) == e.key) {
                released_at = "line " +
                              std::to_string(LineOf(file.scrubbed.text,
                                                    fn.body_open + p));
                break;
              }
            }
            if (!released_at.empty()) {
              Report(file, fn.body_open + e.pos, "flow-lockset",
                     FnLabel(fn) + " accesses '" + e.name + "' GUARDED_BY(" +
                         e.key + ") after " + e.key + " was released (" +
                         released_at +
                         "): move the access before the release or re-take "
                         "the guard",
                     out);
            } else {
              Report(file, fn.body_open + e.pos, "capability",
                     FnLabel(fn) + " accesses '" + e.name + "' GUARDED_BY(" +
                         e.key + ") without holding it on every path: add "
                         "REQUIRES(" + e.key + ") to the declaration, take "
                         "a scoped guard first, or AssertHeld() on a "
                         "caller-locked path",
                     out);
            }
          }
        } else if (e.kind == Event::kAcquire && IsBareIdent(e.key)) {
          const auto mh = s.may_held.find(e.key);
          const bool already =
              mh != s.may_held.end() || s.held.count(e.key) != 0;
          if (already && !(mh != s.may_held.end() && mh->second == e.pos &&
                           s.held.count(e.key) == 0)) {
            size_t prior =
                mh != s.may_held.end() ? mh->second
                                       : s.held.find(e.key)->second.pos;
            Report(file, fn.body_open + e.pos, "flow-lockset",
                   FnLabel(fn) + " locks '" + e.key + "' while it may "
                       "already be held (acquired at line " +
                       std::to_string(
                           LineOf(file.scrubbed.text, fn.body_open + prior)) +
                       "): RankedMutex is non-recursive, a double lock "
                       "aborts at runtime",
                   out);
          }
        }
        ApplyLockEvent(e, &s);
      }
    }

    // Return-path lock-leak divergence: a bare-name manual lock held at
    // some returns but released before others.
    struct ExitState {
      int block;
      LockState out_state;
    };
    std::vector<ExitState> exits;
    for (size_t b = 0; b < ff.cfg.blocks.size(); ++b) {
      const BasicBlock& bb = ff.cfg.blocks[b];
      bool to_exit = false;
      for (int succ : bb.succ) to_exit |= (succ == Cfg::kExit);
      if (!to_exit || bb.exits_by_abort || !ff.lock_in[b].reached) continue;
      LockState s = ff.lock_in[b];
      for (const Event& e : ff.events[b]) ApplyLockEvent(e, &s);
      exits.push_back(ExitState{static_cast<int>(b), std::move(s)});
    }
    std::set<std::string> manual_keys;
    for (const ExitState& ex : exits) {
      for (const auto& [k, h] : ex.out_state.held) {
        if (h.kind == kManualHold && IsBareIdent(k)) manual_keys.insert(k);
      }
    }
    for (const std::string& k : manual_keys) {
      // An exit that holds k by any means (a REQUIRES entry hold included —
      // the drop-and-reacquire `Locked` idiom returns early with the
      // caller's hold intact) is not a leak; only exits where k is absent
      // outright diverge from the manually-held ones.
      std::vector<const ExitState*> holding, clean;
      for (const ExitState& ex : exits) {
        const auto it = ex.out_state.held.find(k);
        if (it != ex.out_state.held.end() && it->second.kind == kManualHold) {
          holding.push_back(&ex);
        } else if (it == ex.out_state.held.end()) {
          clean.push_back(&ex);
        }
      }
      if (holding.empty() || clean.empty()) continue;
      for (const ExitState* ex : holding) {
        const BasicBlock& bb = ff.cfg.blocks[ex->block];
        const size_t lock_pos = ex->out_state.held.find(k)->second.pos;
        Report(file, fn.body_open + bb.exit_pos, "flow-lockset",
               FnLabel(fn) + (bb.exits_by_return
                                  ? " returns here still holding '"
                                  : " falls off the end still holding '") +
                   k + "' (locked at line " +
                   std::to_string(
                       LineOf(file.scrubbed.text, fn.body_open + lock_pos)) +
                   ") while other paths release it first: unlock on every "
                   "path or use a scoped guard",
               out);
      }
    }
  }
  fa->lockset_solved = true;
}

// ---- pass 2: blocking-under-lock -------------------------------------------

void RunBlockingUnderLockPass(const Corpus& corpus, FlowAnalysis* fa,
                              std::vector<Finding>* out) {
  if (!fa->lockset_solved) return;  // driver runs flow-lockset first
  const auto& fns = corpus.symtab.functions();

  // Phase 1: summarize every analyzed body's direct blocking operations
  // against its SOLVED locksets, so inlining knows which caller-held locks
  // the callee provably drops before it blocks (the `Locked` drop-and-
  // reacquire idiom) and which it keeps.
  for (size_t fi = 0; fi < fns.size(); ++fi) {
    FnFlow& ff = fa->fns[fi];
    if (!ff.analyzed || ff.blocking_summarized) continue;
    ff.blocking_summarized = true;
    for (size_t b = 0; b < ff.cfg.blocks.size(); ++b) {
      if (ff.lock_in.size() <= b || !ff.lock_in[b].reached) continue;
      LockState s = ff.lock_in[b];
      for (const Event& e : ff.events[b]) {
        const BlockingCallee* bc =
            e.kind == Event::kCall ? FindBlocking(e.name) : nullptr;
        const bool blocks =
            e.kind == Event::kWait ||
            (bc && (!bc->method_only || !e.key.empty()));
        if (blocks) {
          FnFlow::BlockingOp op;
          op.what = e.kind == Event::kWait
                        ? "waits on a condition variable"
                        : std::string("issues ") + bc->why + " (" + e.name +
                              ")";
          if (e.kind == Event::kWait) op.wait_key = TrailingIdent(e.key);
          for (const auto& [k, p] : s.released) {
            (void)p;
            op.not_held.insert(TrailingIdent(k));
          }
          for (const std::string& req : fns[fi].requires_mutexes) {
            if (!HeldCovers(s.held, TrailingIdent(req))) {
              op.not_held.insert(TrailingIdent(req));
            }
          }
          ff.blocking.push_back(std::move(op));
        }
        ApplyLockEvent(e, &s);
      }
    }
  }

  // Caller-held locks that survive a callee's blocking op: minus the cv
  // wait's own mutex, minus everything the callee drops first.
  auto held_minus = [](const std::map<std::string, LockHold>& held,
                       const std::string& wait_key,
                       const std::set<std::string>& not_held) {
    std::map<std::string, LockHold> rest;
    for (const auto& [k, h] : held) {
      const std::string trail = TrailingIdent(k);
      if (!wait_key.empty() && (k == wait_key || trail == wait_key)) continue;
      if (not_held.count(trail) || not_held.count(k)) continue;
      rest.emplace(k, h);
    }
    return rest;
  };
  const std::set<std::string> kNothing;

  // Phase 2: the reporting walk.
  for (size_t fi = 0; fi < fns.size(); ++fi) {
    const FunctionDef& fn = fns[fi];
    const FnFlow& ff = fa->fns[fi];
    if (!ff.analyzed || !LockReportable(fn)) continue;
    const SourceFile& file = corpus.files[fn.file];

    for (size_t b = 0; b < ff.cfg.blocks.size(); ++b) {
      if (ff.lock_in.size() <= b || !ff.lock_in[b].reached) continue;
      LockState s = ff.lock_in[b];
      for (const Event& e : ff.events[b]) {
        if (e.kind == Event::kWait) {
          // The cv idiom releases its own mutex for the duration of the
          // wait; every OTHER held lock stays held and starves its waiters.
          const auto rest = held_minus(s.held, TrailingIdent(e.key),
                                       kNothing);
          if (!rest.empty()) {
            Report(file, fn.body_open + e.pos, "blocking-under-lock",
                   FnLabel(fn) + " waits on a condition variable while "
                       "holding " + JoinHeldKeys(rest) +
                       ": the wait parks the thread with those locks held; "
                       "restructure, or document with `// polarlint: "
                       "allow(blocking-under-lock) <reason>`",
                   out);
          }
        } else if (e.kind == Event::kCall && !s.held.empty()) {
          const BlockingCallee* bc = FindBlocking(e.name);
          if (bc && (!bc->method_only || !e.key.empty())) {
            Report(file, fn.body_open + e.pos, "blocking-under-lock",
                   FnLabel(fn) + " issues " + std::string(bc->why) + " (" +
                       e.name + ") while holding " + JoinHeldKeys(s.held) +
                       ": blocking under a lock stalls every waiter; move "
                       "it outside the critical section or document with "
                       "`// polarlint: allow(blocking-under-lock) <reason>`",
                   out);
          } else if (!bc) {
            // One-level inlining, resolved like the lock-order pass: a
            // bare call binds to the same class, otherwise a corpus-unique
            // name.
            const FunctionDef* callee = nullptr;
            if (e.key.empty()) {
              callee = corpus.symtab.FindMethod(fn.class_name, e.name);
            }
            if (!callee) {
              const auto cands = corpus.symtab.FindFunctions(e.name);
              if (cands.size() == 1) callee = cands[0];
            }
            if (callee && callee != &fn) {
              const int ci = corpus.symtab.IndexOf(callee);
              if (ci >= 0 && fa->fns[ci].analyzed) {
                for (const FnFlow::BlockingOp& op : fa->fns[ci].blocking) {
                  const auto rest =
                      held_minus(s.held, op.wait_key, op.not_held);
                  if (rest.empty()) continue;
                  Report(file, fn.body_open + e.pos, "blocking-under-lock",
                         FnLabel(fn) + " calls " + FnLabel(*callee) +
                             " which " + op.what + ", while holding " +
                             JoinHeldKeys(rest) +
                             ": blocking under a lock stalls every waiter; "
                             "move the call outside the critical section or "
                             "document with `// polarlint: "
                             "allow(blocking-under-lock) <reason>`",
                         out);
                  break;  // one report per call site
                }
              }
            }
          }
        }
        ApplyLockEvent(e, &s);
      }
    }
  }
}

// ---- pass 3: status-defuse -------------------------------------------------

void RunStatusDefusePass(const Corpus& corpus, FlowAnalysis* fa,
                         FlowStats* stats, std::vector<Finding>* out) {
  const auto& fns = corpus.symtab.functions();
  for (size_t fi = 0; fi < fns.size(); ++fi) {
    const FunctionDef& fn = fns[fi];
    const FnFlow& ff = fa->fns[fi];
    if (!ff.analyzed) continue;
    const SourceFile& file = corpus.files[fn.file];

    bool any_status = false;
    for (const auto& blk : ff.events) {
      for (const Event& e : blk) {
        any_status |= e.kind == Event::kStatusDef ||
                      e.kind == Event::kStatusDiscard;
      }
    }
    if (!any_status) continue;

    std::vector<StatusState> in;
    StatusState entry;
    entry.reached = true;
    const size_t iters = SolveForward(
        ff.cfg, entry,
        [&](int b, StatusState* s) {
          for (const Event& e : ff.events[b]) ApplyStatusEvent(e, s);
        },
        MeetStatus, &in);
    if (stats) stats->status_iterations += iters;

    auto verb_of = [&](size_t def_pos) {
      const auto it = ff.def_verb.find(def_pos);
      return it != ff.def_verb.end() ? it->second : std::string("fabric verb");
    };

    for (size_t b = 0; b < ff.cfg.blocks.size(); ++b) {
      if (!in[b].reached) continue;
      StatusState s = in[b];
      for (const Event& e : ff.events[b]) {
        if (e.kind == Event::kStatusDiscard) {
          Report(file, fn.body_open + e.pos, "status-defuse",
                 e.name + ": fabric-verb Status discarded; handle it, wrap "
                     "it in POLARMP_RETURN_IF_ERROR, or document the "
                     "deliberate discard with `// polarlint: "
                     "allow(status-defuse) <reason>`",
                 out);
        } else if (e.kind == Event::kStatusDef) {
          const auto it = s.pending.find(e.name);
          if (it != s.pending.end()) {
            for (size_t p : it->second) {
              Report(file, fn.body_open + e.pos, "status-defuse",
                     "overwrites '" + e.name + "' whose Status from " +
                         verb_of(p) + " (line " +
                         std::to_string(
                             LineOf(file.scrubbed.text, fn.body_open + p)) +
                         ") was never checked",
                     out);
            }
          }
        }
        ApplyStatusEvent(e, &s);
      }
    }

    // Whatever is still pending when the function exits was checked on no
    // path — or, because the merge unions the branches, on SOME paths only.
    const StatusState& at_exit = in[Cfg::kExit];
    if (at_exit.reached) {
      for (const auto& [var, defs] : at_exit.pending) {
        for (size_t p : defs) {
          Report(file, fn.body_open + p, "status-defuse",
                 verb_of(p) + ": Status assigned to '" + var + "' is not "
                     "checked on every path out of " + FnLabel(fn) +
                     "; test it on all branches or document with "
                     "`// polarlint: allow(status-defuse) <reason>`",
                 out);
        }
      }
    }
  }
}

}  // namespace polarlint
