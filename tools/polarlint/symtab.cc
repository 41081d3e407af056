#include "symtab.h"

#include <algorithm>

namespace polarlint {

std::vector<ClassSpan> FindClassSpans(const std::string& text) {
  std::vector<ClassSpan> spans;
  for (const std::string kw : {"class", "struct"}) {
    for (size_t pos : TokenHits(text, kw)) {
      // `enum class` / `enum struct` define enumerators, not members.
      size_t b = pos;
      while (b > 0 && std::isspace(static_cast<unsigned char>(text[b - 1]))) {
        --b;
      }
      size_t e = b;
      while (b > 0 && IsIdentChar(text[b - 1])) --b;
      if (text.substr(b, e - b) == "enum") continue;
      // Walk to the body's '{'. Anything that closes an enclosing construct
      // first means this is not a definition: a template parameter
      // (`template <class T>`), a function parameter (`void f(class X*)`),
      // a forward declaration.
      int paren = 0;
      int angle = 0;
      size_t open = std::string::npos;
      for (size_t j = pos + kw.size(); j < text.size(); ++j) {
        const char c = text[j];
        if (c == '(' || c == '[') {
          ++paren;
        } else if (c == ')' || c == ']') {
          if (paren == 0) break;
          --paren;
        } else if (c == '<') {
          ++angle;
        } else if (c == '>') {
          if (angle == 0) break;
          --angle;
        } else if ((c == '=' || c == ';') && paren == 0 && angle == 0) {
          break;
        } else if (c == '{' && paren == 0) {
          open = j;
          break;
        }
      }
      if (open == std::string::npos) continue;
      spans.push_back(ClassSpan{pos, open, MatchBrace(text, open)});
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const ClassSpan& a, const ClassSpan& b) { return a.kw < b.kw; });
  return spans;
}

// The class's name: the last plain identifier between the keyword and the
// body '{' (or the base-clause ':'), skipping attribute-macro calls like
// CAPABILITY("mutex") and `final`/`alignas(...)`.
std::string ClassNameOf(const std::string& text, const ClassSpan& span) {
  std::string head =
      text.substr(span.kw, span.open - span.kw);
  // Strip the first word (class/struct).
  size_t p = 0;
  while (p < head.size() && IsIdentChar(head[p])) ++p;
  std::string name;
  int paren = 0;
  for (size_t i = p; i < head.size(); ++i) {
    const char c = head[i];
    if (c == '(') ++paren;
    if (c == ')') {
      if (paren > 0) --paren;
      // A ')' at depth 0 means the previous identifier was a macro call —
      // its "name" was the macro; drop it.
      if (paren == 0) name.clear();
      continue;
    }
    if (paren > 0) continue;
    if (c == ':' && (i + 1 >= head.size() || head[i + 1] != ':')) break;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < head.size() && IsIdentChar(head[j])) ++j;
      const std::string word = head.substr(i, j - i);
      if (word != "final" && word != "alignas") name = word;
      i = j - 1;
    }
  }
  return name;
}

std::vector<MemberStmt> MemberStatements(
    const std::string& text, const ClassSpan& span,
    const std::map<size_t, ClassSpan>& span_by_kw) {
  std::vector<MemberStmt> stmts;
  size_t pos = span.open + 1;
  size_t begin = std::string::npos;
  std::string stmt;
  int paren = 0;
  auto reset = [&] {
    begin = std::string::npos;
    stmt.clear();
    paren = 0;
  };
  while (pos < span.close) {
    // Nested class/struct definition: its members belong to its own scan.
    // Skip the definition plus any declarators up to the trailing ';'.
    const auto nested = span_by_kw.find(pos);
    if (nested != span_by_kw.end() && nested->second.close < span.close) {
      pos = nested->second.close + 1;
      while (pos < span.close && text[pos] != ';') {
        if (text[pos] == '{') pos = MatchBrace(text, pos);
        ++pos;
      }
      ++pos;
      reset();
      continue;
    }
    const char c = text[pos];
    if (c == '(' || c == '[') {
      ++paren;
    } else if ((c == ')' || c == ']') && paren > 0) {
      --paren;
    } else if (c == '{' && paren == 0) {
      // Function body vs a field's brace initializer: a '(' outside
      // template argument lists means a parameter list.
      const bool is_function =
          StripAngles(stmt).find('(') != std::string::npos;
      pos = MatchBrace(text, pos) + 1;
      if (is_function) reset();
      continue;
    } else if (c == ';' && paren == 0) {
      if (begin != std::string::npos) {
        stmts.push_back(MemberStmt{begin, pos, stmt});
      }
      reset();
      ++pos;
      continue;
    } else if (c == ':' && paren == 0) {
      const std::string t = Trim(stmt);
      if (t == "public" || t == "private" || t == "protected") {
        reset();
        ++pos;
        continue;
      }
    }
    if (begin == std::string::npos &&
        !std::isspace(static_cast<unsigned char>(c))) {
      begin = pos;
    }
    stmt += c;
    ++pos;
  }
  return stmts;
}

bool DeclaresOwnedMutex(const std::string& stmt) {
  for (const std::string token : {"RankedMutex", "RankedSharedMutex"}) {
    for (size_t pos : TokenHits(stmt, token)) {
      const size_t after = SkipSpaces(stmt, pos + token.size());
      if (after < stmt.size() &&
          (std::isalpha(static_cast<unsigned char>(stmt[after])) ||
           stmt[after] == '_')) {
        return true;
      }
    }
  }
  return false;
}

namespace {

bool IsAnnotationMacro(const std::string& word) {
  static const char* kMacros[] = {
      "REQUIRES",          "REQUIRES_SHARED",  "EXCLUDES",
      "ACQUIRE",           "ACQUIRE_SHARED",   "RELEASE",
      "RELEASE_SHARED",    "RELEASE_GENERIC",  "TRY_ACQUIRE",
      "TRY_ACQUIRE_SHARED", "ASSERT_CAPABILITY", "ASSERT_SHARED_CAPABILITY",
      "RETURN_CAPABILITY", "GUARDED_BY",       "PT_GUARDED_BY",
      "ACQUIRED_BEFORE",   "ACQUIRED_AFTER",   "CAPABILITY",
      "noexcept"};
  for (const char* m : kMacros) {
    if (word == m) return true;
  }
  return false;
}

bool IsQualifierWord(const std::string& word) {
  return word == "const" || word == "noexcept" || word == "override" ||
         word == "final" || word == "mutable" ||
         word == "NO_THREAD_SAFETY_ANALYSIS";
}

// Walking BACK from `pos` (an annotation token or a body '{'), returns the
// name of the function whose declarator precedes it: skips qualifier words
// and annotation-macro groups, matches the parameter list's parens, and
// returns the identifier before them ("" if the shape is not a function).
std::string FunctionNameBefore(const std::string& text, size_t pos) {
  size_t k = pos;
  for (int guard = 0; guard < 16; ++guard) {
    while (k > 0 && std::isspace(static_cast<unsigned char>(text[k - 1]))) --k;
    if (k == 0) return "";
    if (text[k - 1] == ')') {
      // Either an annotation group or the parameter list.
      int depth = 0;
      size_t m = k;
      while (m > 0) {
        --m;
        if (text[m] == ')') ++depth;
        if (text[m] == '(' && --depth == 0) break;
      }
      if (depth != 0) return "";
      size_t e = m;
      while (e > 0 && std::isspace(static_cast<unsigned char>(text[e - 1]))) {
        --e;
      }
      size_t b = e;
      while (b > 0 && IsIdentChar(text[b - 1])) --b;
      const std::string word = text.substr(b, e - b);
      if (word.empty()) return "";
      if (IsAnnotationMacro(word)) {
        k = b;  // an annotation group; keep walking
        continue;
      }
      if (b > 0 && text[b - 1] == '~') return "~" + word;
      return word;
    }
    // Qualifier words between the parens and the annotation.
    size_t e = k;
    size_t b = e;
    while (b > 0 && IsIdentChar(text[b - 1])) --b;
    const std::string word = text.substr(b, e - b);
    if (word.empty() || !IsQualifierWord(word)) return "";
    k = b;
  }
  return "";
}

// Mutex names listed inside REQUIRES(...) / REQUIRES_SHARED(...) starting
// at `pos` (the macro token). Each comma-separated argument contributes its
// trailing identifier.
void CollectRequires(const std::string& text, size_t pos,
                     std::set<std::string>* out) {
  const size_t open = text.find('(', pos);
  if (open == std::string::npos) return;
  const size_t close = MatchParen(text, open);
  std::string arg;
  int depth = 0;
  for (size_t i = open + 1; i < close; ++i) {
    const char c = text[i];
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      const std::string name = TrailingIdent(arg);
      if (!name.empty()) out->insert(name);
      arg.clear();
      continue;
    }
    arg += c;
  }
  const std::string name = TrailingIdent(arg);
  if (!name.empty()) out->insert(name);
}

// Parses one constructor member-init list: for every `member(args)` /
// `member{args}` whose args name LockRank::, binds rank (and SameRank) to
// the class's mutex member.
void BindRanksFromInitList(const std::string& init, ClassInfo* cls) {
  size_t i = 0;
  while (i < init.size()) {
    if (!(std::isalpha(static_cast<unsigned char>(init[i])) ||
          init[i] == '_')) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < init.size() && IsIdentChar(init[j])) ++j;
    const std::string member = init.substr(i, j - i);
    size_t open = SkipSpaces(init, j);
    if (open >= init.size() || (init[open] != '(' && init[open] != '{')) {
      i = j;
      continue;
    }
    size_t close;
    if (init[open] == '(') {
      close = MatchParen(init, open);
    } else {
      close = MatchBrace(init, open);
    }
    const std::string args =
        init.substr(open + 1, close > open ? close - open - 1 : 0);
    const size_t rank_pos = args.find("LockRank::");
    if (rank_pos != std::string::npos) {
      for (MutexMember& mu : cls->mutexes) {
        if (mu.name != member) continue;
        size_t b = rank_pos + 10;
        size_t e = b;
        while (e < args.size() && IsIdentChar(args[e])) ++e;
        mu.rank = args.substr(b, e - b);
        if (args.find("SameRank::kAllow") != std::string::npos) {
          mu.same_allow = true;
        }
      }
    }
    i = close == std::string::npos ? init.size() : close + 1;
  }
}

}  // namespace

const MutexMember* ClassInfo::FindMutex(const std::string& mu_name) const {
  for (const MutexMember& mu : mutexes) {
    if (mu.name == mu_name) return &mu;
  }
  return nullptr;
}

int RankValue(const std::string& rank_name) {
  // Mirror of src/common/lock_rank.h. When linting the real tree the
  // corpus copy (parsed from the enum) overrides this; the fallback keeps
  // fixture corpora — which do not carry lock_rank.h — rank-aware.
  static const std::map<std::string, int> kRanks = {
      {"kObsHistogram", 10}, {"kObsRegistry", 20},  {"kFabric", 30},
      {"kRpc", 35},          {"kDsm", 40},          {"kStorage", 50},
      {"kUndoSegment", 60},  {"kUndoTable", 65},    {"kPmfsService", 70},
      {"kPmfsFlusher", 75},  {"kTit", 80},          {"kCacheSlot", 82},
      {"kIndexCache", 85},   {"kPlock", 90},        {"kBufferPool", 100},
      {"kFutureState", 105}, {"kLogWriter", 110},   {"kLogFlusher", 115},
      {"kLlsnOrder", 120},   {"kCommitGate", 130},  {"kPageLatch", 140},
      {"kTrxManager", 150},  {"kCatalog", 160},
      {"kNodeTrees", 165},   {"kNodeBackground", 170}, {"kStandby", 175},
      {"kStandbyStop", 178}, {"kSimLockTable", 183}, {"kSimLogDevice", 184},
      {"kSimStore", 185},    {"kBaselineNode", 190}, {"kTestLow", 200},
      {"kTestMid", 210},     {"kTestHigh", 220},
  };
  const auto it = kRanks.find(rank_name);
  return it == kRanks.end() ? -1 : it->second;
}

void SymbolTable::Build(std::vector<SourceFile>* files) {
  for (size_t i = 0; i < files->size(); ++i) {
    SourceFile& f = (*files)[i];
    if (f.scrubbed.text.empty()) f.scrubbed = Scrub(f.content);
  }
  for (size_t i = 0; i < files->size(); ++i) {
    ParseFile(static_cast<int>(i), &(*files)[i]);
  }
  // Merge declaration annotations into definitions AFTER every file is
  // parsed: the .cc that defines a method is routinely read before the
  // header that declares its REQUIRES set (cross-TU resolution).
  for (FunctionDef& fn : functions_) {
    const auto cit = classes_.find(fn.class_name);
    if (cit == classes_.end()) continue;
    const auto mit = cit->second.methods.find(fn.name);
    if (mit == cit->second.methods.end()) continue;
    fn.requires_mutexes.insert(mit->second.requires_mutexes.begin(),
                               mit->second.requires_mutexes.end());
    fn.no_analysis = fn.no_analysis || mit->second.no_analysis;
  }
  // Resolve ranks declared in out-of-class constructor init lists
  // (`RpcDedupCache::RpcDedupCache(...) : mu_(LockRank::kRpc, ...)`).
  for (const FunctionDef& fn : functions_) {
    if (!fn.is_ctor() || fn.init_list.empty()) continue;
    auto it = classes_.find(fn.class_name);
    if (it != classes_.end()) BindRanksFromInitList(fn.init_list, &it->second);
  }
  for (auto& [name, cls] : classes_) {
    for (const MutexMember& mu : cls.mutexes) {
      mutex_owners_[mu.name].insert(name);
    }
  }
  for (size_t i = 0; i < functions_.size(); ++i) {
    functions_by_name_[functions_[i].name].push_back(static_cast<int>(i));
  }
}

void SymbolTable::ParseFile(int file_index, SourceFile* file) {
  const std::string& text = file->scrubbed.text;
  const std::vector<ClassSpan> spans = FindClassSpans(text);

  // Innermost class span containing a position (members of nested classes
  // belong to the nested class).
  auto innermost = [&](size_t pos) -> const ClassSpan* {
    const ClassSpan* best = nullptr;
    for (const ClassSpan& s : spans) {
      if (s.open < pos && pos < s.close &&
          (!best || s.open > best->open)) {
        best = &s;
      }
    }
    return best;
  };

  std::vector<std::string> span_names(spans.size());
  for (size_t si = 0; si < spans.size(); ++si) {
    span_names[si] = ClassNameOf(text, spans[si]);
  }
  auto class_of = [&](size_t pos) -> std::string {
    const ClassSpan* s = innermost(pos);
    if (!s) return "";
    for (size_t si = 0; si < spans.size(); ++si) {
      if (&spans[si] == s) return span_names[si];
    }
    return "";
  };

  // ---- per-class members (fields, mutexes, annotated declarations) ----
  for (size_t si = 0; si < spans.size(); ++si) {
    const ClassSpan& span = spans[si];
    const std::string& cname = span_names[si];
    if (cname.empty()) continue;
    ClassInfo& cls = classes_[cname];
    cls.name = cname;

    auto in_this_class = [&](size_t pos) {
      return innermost(pos) == &span;
    };

    // GUARDED_BY / PT_GUARDED_BY fields.
    for (const char* macro : {"GUARDED_BY", "PT_GUARDED_BY"}) {
      for (size_t pos : TokenHits(text, macro)) {
        if (pos <= span.open || pos >= span.close || !in_this_class(pos)) {
          continue;
        }
        const size_t open = SkipSpaces(text, pos + std::string(macro).size());
        if (open >= text.size() || text[open] != '(') continue;
        const size_t close = MatchParen(text, open);
        const std::string mu_expr = text.substr(open + 1, close - open - 1);
        // Field name: the identifier immediately before the macro.
        size_t e = pos;
        while (e > 0 && std::isspace(static_cast<unsigned char>(text[e - 1]))) {
          --e;
        }
        size_t b = e;
        while (b > 0 && IsIdentChar(text[b - 1])) --b;
        const std::string field = text.substr(b, e - b);
        if (field.empty()) continue;
        GuardedField gf;
        gf.name = field;
        gf.mutex = TrailingIdent(mu_expr);
        gf.pointee = std::string(macro) == "PT_GUARDED_BY";
        gf.line = LineOf(text, b);
        gf.file = file_index;
        // Overloaded across TUs: the same header parsed once per corpus, so
        // duplicates only come from same-named classes — merge by name.
        bool dup = false;
        for (const GuardedField& g : cls.guarded_fields) {
          if (g.name == gf.name) dup = true;
        }
        if (!dup) cls.guarded_fields.push_back(std::move(gf));
      }
    }

    // Owned RankedMutex / RankedSharedMutex members with inline rank.
    for (const char* token : {"RankedMutex", "RankedSharedMutex"}) {
      for (size_t pos : TokenHits(text, token)) {
        if (pos <= span.open || pos >= span.close || !in_this_class(pos)) {
          continue;
        }
        const size_t after = SkipSpaces(text, pos + std::string(token).size());
        if (after >= text.size() ||
            !(std::isalpha(static_cast<unsigned char>(text[after])) ||
              text[after] == '_')) {
          continue;  // reference, pointer, template argument...
        }
        size_t e = after;
        while (e < text.size() && IsIdentChar(text[e])) ++e;
        const std::string mu_name = text.substr(after, e - after);
        const size_t stmt_end = text.find(';', e);
        const std::string init = text.substr(
            e, stmt_end == std::string::npos ? std::string::npos
                                             : stmt_end - e);
        MutexMember mu;
        mu.name = mu_name;
        mu.shared = std::string(token) == "RankedSharedMutex";
        mu.line = LineOf(text, pos);
        mu.file = file_index;
        const size_t rank_pos = init.find("LockRank::");
        if (rank_pos != std::string::npos) {
          size_t rb = rank_pos + 10;
          size_t re = rb;
          while (re < init.size() && IsIdentChar(init[re])) ++re;
          mu.rank = init.substr(rb, re - rb);
        }
        if (init.find("SameRank::kAllow") != std::string::npos) {
          mu.same_allow = true;
        }
        bool dup = false;
        for (MutexMember& m : cls.mutexes) {
          if (m.name == mu.name) {
            dup = true;
            // Prefer the resolved copy.
            if (m.rank.empty() && !mu.rank.empty()) m = mu;
          }
        }
        if (!dup) cls.mutexes.push_back(std::move(mu));
      }
    }

    // Method declarations carrying REQUIRES / REQUIRES_SHARED /
    // NO_THREAD_SAFETY_ANALYSIS. Lambda annotations inside inline bodies
    // also match here; their FunctionNameBefore shape differs (no
    // declarator), so they resolve to "" and are skipped.
    for (const char* macro :
         {"REQUIRES", "REQUIRES_SHARED", "NO_THREAD_SAFETY_ANALYSIS"}) {
      for (size_t pos : TokenHits(text, macro)) {
        if (pos <= span.open || pos >= span.close || !in_this_class(pos)) {
          continue;
        }
        const std::string fn = FunctionNameBefore(text, pos);
        if (fn.empty() || fn == "operator") continue;
        MethodDecl& decl = cls.methods[fn];
        if (std::string(macro) == "NO_THREAD_SAFETY_ANALYSIS") {
          decl.no_analysis = true;
        } else {
          CollectRequires(text, pos, &decl.requires_mutexes);
        }
      }
    }
  }

  // ---- function definitions (bodies) ----
  // In-class inline bodies and namespace-level definitions are found with
  // one walk: every '{' is classified by the statement text before it.
  std::vector<std::pair<size_t, size_t>> body_spans;
  size_t boundary = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    const char c = text[pos];
    if (c == '#') {
      // Preprocessor directive: its own statement boundary (else `#include`
      // lines merge into the next header and `namespace X {` misclassifies).
      size_t eol = text.find('\n', pos);
      while (eol != std::string::npos && eol > 0 && text[eol - 1] == '\\') {
        eol = text.find('\n', eol + 1);  // continuation lines
      }
      pos = eol == std::string::npos ? text.size() : eol + 1;
      boundary = pos;
      continue;
    }
    if (c == ';' || c == '}') {
      boundary = pos + 1;
      ++pos;
      continue;
    }
    if (c == ':' && pos + 1 < text.size() && text[pos + 1] == ':') {
      pos += 2;
      continue;
    }
    if (c == ':') {
      // Access specifier or a ctor init list. Only reset the boundary for
      // access specifiers (`public:` etc.) — a bare label-looking word.
      const std::string t = Trim(text.substr(boundary, pos - boundary));
      if (t == "public" || t == "private" || t == "protected") {
        boundary = pos + 1;
      }
      ++pos;
      continue;
    }
    if (c == '(') {
      pos = MatchParen(text, pos) + 1;
      continue;
    }
    if (c != '{') {
      ++pos;
      continue;
    }

    // A '{'. Classify by its header.
    const std::string header = text.substr(boundary, pos - boundary);
    const std::string trimmed = Trim(header);
    const std::string first_word = [&] {
      size_t b = 0;
      while (b < trimmed.size() && !IsIdentChar(trimmed[b])) ++b;
      size_t e = b;
      while (e < trimmed.size() && IsIdentChar(trimmed[e])) ++e;
      return trimmed.substr(b, e - b);
    }();
    if (first_word == "namespace" || first_word == "extern") {
      boundary = pos + 1;
      ++pos;
      continue;  // transparent scope: keep scanning inside
    }
    if (first_word == "enum" || first_word == "class" ||
        first_word == "struct" || first_word == "union") {
      // Class bodies are scanned by this same loop (members may be inline
      // functions); enums and unions are opaque.
      const ClassSpan* s = innermost(pos + 1);
      const bool is_class_body =
          (first_word == "class" || first_word == "struct") && s &&
          s->open == pos;
      if (is_class_body) {
        boundary = pos + 1;
        ++pos;
        continue;
      }
      pos = MatchBrace(text, pos) + 1;
      boundary = pos;
      continue;
    }

    // Function definition? The header must contain a parameter list.
    const size_t close = MatchBrace(text, pos);
    std::string name;
    std::string init_list;
    std::set<std::string> requires_set;
    bool no_analysis = false;
    if (StripAngles(header).find('(') != std::string::npos &&
        trimmed.find('=') != 0) {
      // Name: the identifier before the parameter list. Walk back from the
      // '{' across qualifiers, annotation groups and a ctor init list.
      size_t probe = pos;
      // Ctor init list: a top-level ':' after the parameter list. Find the
      // parameter list as the FIRST top-level paren group in the header.
      int depth = 0;
      size_t params_close = std::string::npos;
      bool seen_params = false;
      for (size_t i = boundary; i < pos; ++i) {
        if (text[i] == '(') {
          ++depth;
          seen_params = true;
        } else if (text[i] == ')') {
          if (--depth == 0 && params_close == std::string::npos) {
            params_close = i;
          }
        } else if (text[i] == ':' && depth == 0 && seen_params &&
                   params_close != std::string::npos &&
                   (i + 1 >= text.size() || text[i + 1] != ':') &&
                   (i == 0 || text[i - 1] != ':')) {
          init_list = text.substr(i + 1, pos - i - 1);
          probe = i;
          break;
        }
      }
      name = FunctionNameBefore(text, probe);
      for (const char* macro : {"REQUIRES", "REQUIRES_SHARED"}) {
        for (size_t rp : TokenHits(header, macro)) {
          CollectRequires(header, rp, &requires_set);
        }
      }
      if (!TokenHits(header, "NO_THREAD_SAFETY_ANALYSIS").empty()) {
        no_analysis = true;
      }
    }

    static const std::set<std::string> kControl = {
        "if", "for", "while", "switch", "catch", "do", "else", "return"};
    if (!name.empty() && !kControl.count(name)) {
      FunctionDef def;
      def.name = name;
      def.file = file_index;
      def.header_begin = boundary;
      def.body_open = pos;
      def.body_close = close;
      def.requires_mutexes = std::move(requires_set);
      def.no_analysis = no_analysis;
      def.init_list = std::move(init_list);
      // Owning class: explicit qualifier wins; otherwise the enclosing
      // class span (in-class inline definition).
      size_t name_pos = header.rfind(name == "operator" ? "operator" : name);
      std::string cls;
      if (name_pos != std::string::npos) {
        size_t k = boundary + name_pos;
        if (!def.name.empty() && def.name[0] == '~' && k > 0 &&
            text[k - 1] == '~') {
          --k;
        }
        while (k > 0 && std::isspace(static_cast<unsigned char>(text[k - 1]))) {
          --k;
        }
        if (k >= 2 && text[k - 2] == ':' && text[k - 1] == ':') {
          k -= 2;
          // Skip a template argument list on the class qualifier.
          if (k > 0 && text[k - 1] == '>') {
            int adepth = 0;
            while (k > 0) {
              --k;
              if (text[k] == '>') ++adepth;
              if (text[k] == '<' && --adepth == 0) break;
            }
          }
          size_t e = k;
          while (e > 0 && std::isspace(static_cast<unsigned char>(text[e - 1]))) {
            --e;
          }
          size_t b = e;
          while (b > 0 && IsIdentChar(text[b - 1])) --b;
          cls = text.substr(b, e - b);
        }
      }
      if (cls.empty()) cls = class_of(pos);
      def.class_name = cls;
      functions_.push_back(std::move(def));
      pos = close + 1;
      boundary = pos;
      continue;
    }

    // Not a function body we analyze (aggregate initializer, lambda default
    // member init, ...): step INTO class bodies, step OVER everything else.
    const ClassSpan* s = innermost(pos + 1);
    if (s && s->open == pos) {
      boundary = pos + 1;
      ++pos;
    } else {
      pos = MatchBrace(text, pos) + 1;
      boundary = pos;
    }
  }
}

const ClassInfo* SymbolTable::FindClass(const std::string& name) const {
  const auto it = classes_.find(name);
  return it == classes_.end() ? nullptr : &it->second;
}

std::vector<const FunctionDef*> SymbolTable::FindFunctions(
    const std::string& name) const {
  std::vector<const FunctionDef*> out;
  const auto it = functions_by_name_.find(name);
  if (it == functions_by_name_.end()) return out;
  for (int i : it->second) out.push_back(&functions_[i]);
  return out;
}

const FunctionDef* SymbolTable::FindMethod(const std::string& cls,
                                           const std::string& name) const {
  const FunctionDef* found = nullptr;
  const auto it = functions_by_name_.find(name);
  if (it == functions_by_name_.end()) return nullptr;
  for (int i : it->second) {
    if (functions_[i].class_name != cls) continue;
    if (found) return nullptr;  // ambiguous overload set
    found = &functions_[i];
  }
  return found;
}

const MutexMember* SymbolTable::ResolveMutex(const std::string& cls,
                                             const std::string& trailing,
                                             std::string* owner_out) const {
  if (trailing.empty()) return nullptr;
  const ClassInfo* ci = FindClass(cls);
  if (ci) {
    const MutexMember* mu = ci->FindMutex(trailing);
    if (mu) {
      if (owner_out) *owner_out = cls;
      return mu;
    }
  }
  const auto it = mutex_owners_.find(trailing);
  if (it == mutex_owners_.end() || it->second.size() != 1) return nullptr;
  const std::string& owner = *it->second.begin();
  const ClassInfo* oc = FindClass(owner);
  if (!oc) return nullptr;
  if (owner_out) *owner_out = owner;
  return oc->FindMutex(trailing);
}

}  // namespace polarlint
