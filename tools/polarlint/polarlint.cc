// polarlint: project-specific semantic analysis for the polardb-mp tree.
//
// The toolchain has no libclang, so this is a purpose-built analyzer: a
// comment/literal scrubber and C++ tokenizer (lexer.*), a cross-TU symbol
// table of per-class member/annotation/mutex tables and every function
// definition (symtab.*), an intraprocedural CFG builder + forward dataflow
// solver (cfg.*, dataflow.h), and the analysis passes:
//
//   token        the v1 single-file rules (rules_token.cc): raw-mutex,
//                unranked-mutex, raw-atomic, no-hostptr-memcpy,
//                nondeterminism, fusion-bypass, unguarded-field.
//   cfg          lowers every src/ function body to basic blocks and
//                extracts the shared lock/call/status event stream the
//                flow passes interpret (pass_flow.cc); reports CFG sizes
//                and fixpoint iteration counts to the sidecar.
//   flow-lockset the gcc-host subset of clang's thread-safety analysis,
//                now flow-sensitive: GUARDED_BY accesses are checked
//                against per-block MUST-hold locksets (rule id stays
//                `capability`), plus access-after-release, double-lock,
//                and return-path lock-leak divergence (`flow-lockset`).
//   blocking-under-lock
//                no blocking callee (fusion RPC verbs, log forces, sleeps,
//                waits, joins) while any lock is held, one callee level
//                inlined.
//   status-defuse
//                def-use for fabric-verb Status values over the CFG —
//                discarded, overwritten unchecked, or unchecked on some
//                path. Subsumes v2's token-level unchecked-fabric-status.
//   lock-order   the static acquired-while-held graph (pass_lock_order.cc):
//                declared-rank violations and SCC deadlock cycles the
//                runtime checker only catches if a test interleaves them.
//                The full edge list goes to the JSON sidecar.
//   fabric       PR 8's retry/dedup protocol rules (pass_fabric.cc):
//                fabric-retry, fabric-request-id, seqlock-payload — plus
//                the --tsan-supp suppression audit (tsan-supp).
//
// Rule ids double as escape names: `// polarlint: allow(<rule>) <reason>`
// on the finding's line, the line above, or a contiguous comment block
// above. unguarded-field and seqlock-payload have dedicated markers
// (`polarlint: unguarded(<reason>)`, `polarlint: seqlock-payload(<reason>)`)
// that the rules and the tsan.supp audit share. DESIGN.md §7 documents
// rationale, semantics, and what the capability subset deliberately does
// not prove.
//
// Usage:
//   polarlint [--root <repo-root>] [--json <sidecar>] [--tsan-supp <file>]
//             [--max-wall-ms <n>] <file-or-dir>...
//   polarlint --self-test <fixtures-dir>
//
// Exit status: 0 clean, 1 findings / self-test mismatch / wall-clock bound
// exceeded, 2 usage or IO error. Rules key off paths relative to --root
// (default: cwd); only paths under src/ are checked, so tests and benches
// stay unconstrained.
//
// Self-test mode lints each fixture under the path it declares with
//   // polarlint-fixture-path: src/engine/whatever.h
// and requires the produced findings to exactly match the lines marked
//   <violating code>  // polarlint-fixture-expect: <rule>
// A SUBDIRECTORY of the fixtures dir is one multi-file corpus linted
// together (this is what proves cross-TU resolution); a corpus file named
// tsan.supp exercises the suppression audit instead of being linted.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rules.h"

namespace {

namespace fs = std::filesystem;

using polarlint::Corpus;
using polarlint::Finding;
using polarlint::LockEdge;
using polarlint::SourceFile;

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string RelativeTo(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path rel =
      fs::relative(fs::absolute(file), fs::absolute(root), ec);
  if (ec || rel.empty()) return file.generic_string();
  return rel.generic_string();
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- analysis over one corpus ----------------------------------------------

struct PassTiming {
  std::string name;
  double ms = 0;
  size_t findings = 0;
};

struct AnalysisResult {
  std::vector<Finding> findings;
  std::vector<LockEdge> edges;
  std::vector<PassTiming> timings;
  polarlint::FlowStats flow;
  double total_ms = 0;
};

AnalysisResult Analyze(Corpus* corpus, const std::string& supp_display,
                       const std::string& supp_content, bool run_supp) {
  AnalysisResult r;
  const auto t0 = std::chrono::steady_clock::now();

  auto timed = [&](const char* name, auto&& pass) {
    const auto p0 = std::chrono::steady_clock::now();
    const size_t before = r.findings.size();
    pass();
    r.timings.push_back(
        PassTiming{name, MsSince(p0), r.findings.size() - before});
  };

  timed("symtab", [&] { corpus->Build(); });
  timed("token", [&] { polarlint::RunTokenRules(*corpus, &r.findings); });
  polarlint::FlowAnalysisPtr fa;
  timed("cfg", [&] { fa = polarlint::BuildFlowAnalysis(*corpus, &r.flow); });
  timed("flow-lockset", [&] {
    polarlint::RunFlowLocksetPass(*corpus, fa.get(), &r.flow, &r.findings);
  });
  timed("blocking", [&] {
    polarlint::RunBlockingUnderLockPass(*corpus, fa.get(), &r.findings);
  });
  timed("status-defuse", [&] {
    polarlint::RunStatusDefusePass(*corpus, fa.get(), &r.flow, &r.findings);
  });
  timed("lock-order",
        [&] { polarlint::RunLockOrderPass(*corpus, &r.findings, &r.edges); });
  timed("fabric", [&] { polarlint::RunFabricPass(*corpus, &r.findings); });
  if (run_supp) {
    timed("tsan-supp", [&] {
      polarlint::RunTsanSuppAudit(*corpus, supp_display, supp_content,
                                  &r.findings);
    });
  }

  std::stable_sort(r.findings.begin(), r.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  r.total_ms = MsSince(t0);
  return r;
}

// Every rule id, in report order, so the summary table shows explicit
// zeroes (CI diffs a disappearing rule as loudly as a new finding).
const char* kAllRules[] = {
    "raw-mutex",      "unranked-mutex",    "raw-atomic",
    "no-hostptr-memcpy", "nondeterminism", "fusion-bypass",
    "unguarded-field",
    "capability",     "flow-lockset",      "blocking-under-lock",
    "status-defuse",  "lock-order",        "fabric-retry",
    "fabric-request-id", "seqlock-payload", "tsan-supp"};

// ---- JSON sidecar ----------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool WriteJsonSidecar(const fs::path& path, const AnalysisResult& r,
                      size_t files_scanned) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\n  \"schema\": \"polarlint.findings.v1\",\n";
  out << "  \"files_scanned\": " << files_scanned << ",\n";
  char ms[32];
  std::snprintf(ms, sizeof ms, "%.1f", r.total_ms);
  out << "  \"total_ms\": " << ms << ",\n";
  out << "  \"passes\": [";
  for (size_t i = 0; i < r.timings.size(); ++i) {
    const PassTiming& t = r.timings[i];
    std::snprintf(ms, sizeof ms, "%.1f", t.ms);
    out << (i ? ", " : "") << "{\"name\": \"" << t.name << "\", \"ms\": " << ms
        << ", \"findings\": " << t.findings << "}";
  }
  out << "],\n";
  std::map<std::string, size_t> by_rule;
  for (const char* rule : kAllRules) by_rule[rule] = 0;
  for (const Finding& f : r.findings) ++by_rule[f.rule];
  out << "  \"rules\": {";
  bool first = true;
  for (const auto& [rule, count] : by_rule) {
    out << (first ? "" : ", ") << "\"" << rule << "\": " << count;
    first = false;
  }
  out << "},\n";
  // blocking-under-lock reuses flow-lockset's fixpoint (it replays the
  // solved locksets), so it contributes no iteration count of its own.
  out << "  \"cfg\": {\"functions\": " << r.flow.functions
      << ", \"blocks\": " << r.flow.blocks << ", \"edges\": " << r.flow.edges
      << ", \"fixpoint_iterations\": {\"flow-lockset\": "
      << r.flow.lockset_iterations
      << ", \"status-defuse\": " << r.flow.status_iterations << "}},\n";
  out << "  \"findings\": [";
  for (size_t i = 0; i < r.findings.size(); ++i) {
    const Finding& f = r.findings[i];
    out << (i ? ",\n    " : "\n    ") << "{\"file\": \"" << JsonEscape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \"" << f.rule
        << "\", \"message\": \"" << JsonEscape(f.message) << "\"}";
  }
  out << (r.findings.empty() ? "" : "\n  ") << "],\n";
  out << "  \"lock_order\": {\n    \"nodes\": [";
  std::set<std::string> nodes;
  for (const LockEdge& e : r.edges) {
    nodes.insert(e.held);
    nodes.insert(e.acquired);
  }
  first = true;
  for (const std::string& n : nodes) {
    out << (first ? "" : ", ") << "\"" << JsonEscape(n) << "\"";
    first = false;
  }
  out << "],\n    \"edges\": [";
  for (size_t i = 0; i < r.edges.size(); ++i) {
    const LockEdge& e = r.edges[i];
    out << (i ? ",\n      " : "\n      ") << "{\"held\": \""
        << JsonEscape(e.held) << "\", \"held_rank\": \"" << e.held_rank
        << "\", \"acquired\": \"" << JsonEscape(e.acquired)
        << "\", \"acquired_rank\": \"" << e.acquired_rank
        << "\", \"site\": \"" << JsonEscape(e.site) << "\"}";
  }
  out << (r.edges.empty() ? "" : "\n    ") << "]\n  }\n}\n";
  return static_cast<bool>(out);
}

// ---- lint mode -------------------------------------------------------------

int RunLint(const fs::path& root, const std::vector<fs::path>& inputs,
            const fs::path& json_path, const fs::path& supp_path,
            double max_wall_ms) {
  std::vector<fs::path> paths;
  for (const fs::path& p : inputs) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
        if (entry.is_regular_file() && IsSourceFile(entry.path())) {
          paths.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      paths.push_back(p);
    } else {
      std::fprintf(stderr, "polarlint: no such file or directory: %s\n",
                   p.string().c_str());
      return 2;
    }
  }
  std::sort(paths.begin(), paths.end());

  Corpus corpus;
  for (const fs::path& f : paths) {
    SourceFile sf;
    if (!ReadFile(f, &sf.content)) {
      std::fprintf(stderr, "polarlint: cannot read %s\n", f.string().c_str());
      return 2;
    }
    sf.rel = RelativeTo(f, root);
    sf.display = sf.rel;
    corpus.files.push_back(std::move(sf));
  }

  std::string supp_content;
  std::string supp_display;
  if (!supp_path.empty()) {
    if (!ReadFile(supp_path, &supp_content)) {
      std::fprintf(stderr, "polarlint: cannot read %s\n",
                   supp_path.string().c_str());
      return 2;
    }
    supp_display = RelativeTo(supp_path, root);
  }

  const AnalysisResult r =
      Analyze(&corpus, supp_display, supp_content, !supp_path.empty());

  for (const Finding& f : r.findings) {
    std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }

  // Per-pass timing and per-rule counts — check.sh surfaces this table.
  std::printf("pass         ms  findings\n");
  for (const PassTiming& t : r.timings) {
    std::printf("%-10s %6.1f  %zu\n", t.name.c_str(), t.ms, t.findings);
  }
  std::map<std::string, size_t> by_rule;
  for (const Finding& f : r.findings) ++by_rule[f.rule];
  std::printf("rule                      findings\n");
  for (const char* rule : kAllRules) {
    std::printf("%-25s %zu\n", rule, by_rule.count(rule) ? by_rule[rule] : 0);
  }
  std::printf(
      "cfg: %zu function(s), %zu block(s), %zu edge(s), fixpoint "
      "iterations lockset=%zu status=%zu\n",
      r.flow.functions, r.flow.blocks, r.flow.edges,
      r.flow.lockset_iterations, r.flow.status_iterations);
  std::printf(
      "polarlint: %zu finding(s), %zu lock-order edge(s) over %zu file(s) "
      "in %.1f ms\n",
      r.findings.size(), r.edges.size(), corpus.files.size(), r.total_ms);

  if (!json_path.empty() && !WriteJsonSidecar(json_path, r,
                                              corpus.files.size())) {
    std::fprintf(stderr, "polarlint: cannot write %s\n",
                 json_path.string().c_str());
    return 2;
  }
  if (max_wall_ms > 0 && r.total_ms > max_wall_ms) {
    std::fprintf(stderr,
                 "polarlint: wall-clock bound exceeded: %.1f ms > %.0f ms "
                 "(the analyzer must never become the slowest CI stage "
                 "unnoticed)\n",
                 r.total_ms, max_wall_ms);
    return 1;
  }
  return r.findings.empty() ? 0 : 1;
}

// ---- self-test -------------------------------------------------------------

std::string FixtureDecl(const std::string& content, const std::string& key) {
  const size_t pos = content.find(key);
  if (pos == std::string::npos) return "";
  size_t begin = pos + key.size();
  while (begin < content.size() && content[begin] == ' ') ++begin;
  size_t end = begin;
  while (end < content.size() &&
         !std::isspace(static_cast<unsigned char>(content[end]))) {
    ++end;
  }
  return content.substr(begin, end - begin);
}

// Expected findings: (file display, line, rule) for every line tagged
// `polarlint-fixture-expect: rule` (works in any comment syntax — the raw
// lines are scanned, so .supp `#` comments tag entries the same way).
using Expectation = std::tuple<std::string, int, std::string>;

void CollectExpectations(const std::string& display,
                         const std::string& content,
                         std::multiset<Expectation>* out) {
  std::istringstream lines(content);
  std::string line_text;
  int line_no = 0;
  while (std::getline(lines, line_text)) {
    ++line_no;
    size_t pos = 0;
    const std::string key = "polarlint-fixture-expect:";
    while ((pos = line_text.find(key, pos)) != std::string::npos) {
      const std::string rule = FixtureDecl(line_text.substr(pos), key);
      if (!rule.empty()) out->emplace(display, line_no, rule);
      pos += key.size();
    }
  }
}

// One fixture corpus: a single file, or every file of a subdirectory linted
// together (cross-TU). Returns true when findings matched expectations.
bool RunFixtureCorpus(const std::string& label,
                      const std::vector<fs::path>& files) {
  Corpus corpus;
  std::string supp_content;
  std::string supp_display;
  std::multiset<Expectation> expected;
  for (const fs::path& f : files) {
    std::string content;
    if (!ReadFile(f, &content)) {
      std::fprintf(stderr, "polarlint: cannot read %s\n", f.string().c_str());
      return false;
    }
    const std::string display = f.filename().string();
    CollectExpectations(display, content, &expected);
    if (f.filename() == "tsan.supp") {
      supp_content = std::move(content);
      supp_display = display;
      continue;
    }
    SourceFile sf;
    sf.rel = FixtureDecl(content, "polarlint-fixture-path:");
    if (sf.rel.empty()) sf.rel = "src/fixtures/" + display;
    sf.display = display;
    sf.content = std::move(content);
    corpus.files.push_back(std::move(sf));
  }

  const AnalysisResult r =
      Analyze(&corpus, supp_display, supp_content, !supp_display.empty());
  std::multiset<Expectation> got;
  for (const Finding& f : r.findings) got.emplace(f.file, f.line, f.rule);

  if (got != expected) {
    std::printf("FAIL %s\n", label.c_str());
    for (const auto& e : expected) {
      if (!got.count(e)) {
        std::printf("  missing expected finding: %s:%d [%s]\n",
                    std::get<0>(e).c_str(), std::get<1>(e),
                    std::get<2>(e).c_str());
      }
    }
    for (const auto& g : got) {
      if (!expected.count(g)) {
        std::printf("  unexpected finding: %s:%d [%s]\n",
                    std::get<0>(g).c_str(), std::get<1>(g),
                    std::get<2>(g).c_str());
        for (const Finding& f : r.findings) {
          if (f.file == std::get<0>(g) && f.line == std::get<1>(g) &&
              f.rule == std::get<2>(g)) {
            std::printf("    %s\n", f.message.c_str());
          }
        }
      }
    }
    return false;
  }
  std::printf("OK   %s (%zu expectation(s))\n", label.c_str(),
              expected.size());
  return true;
}

int RunSelfTest(const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::fprintf(stderr, "polarlint: fixtures dir not found: %s\n",
                 dir.string().c_str());
    return 2;
  }
  std::vector<fs::path> singles;
  std::vector<fs::path> corpora;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && IsSourceFile(entry.path())) {
      singles.push_back(entry.path());
    } else if (entry.is_directory()) {
      corpora.push_back(entry.path());
    }
  }
  std::sort(singles.begin(), singles.end());
  std::sort(corpora.begin(), corpora.end());
  if (singles.empty() && corpora.empty()) {
    std::fprintf(stderr, "polarlint: no fixtures in %s\n",
                 dir.string().c_str());
    return 2;
  }

  bool ok = true;
  for (const fs::path& f : singles) {
    ok = RunFixtureCorpus(f.filename().string(), {f}) && ok;
  }
  for (const fs::path& d : corpora) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(d)) {
      if (!entry.is_regular_file()) continue;
      if (IsSourceFile(entry.path()) ||
          entry.path().filename() == "tsan.supp") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) continue;
    ok = RunFixtureCorpus(d.filename().string() + "/", files) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  fs::path selftest_dir;
  fs::path json_path;
  fs::path supp_path;
  double max_wall_ms = 0;
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      selftest_dir = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--tsan-supp" && i + 1 < argc) {
      supp_path = argv[++i];
    } else if (arg == "--max-wall-ms" && i + 1 < argc) {
      max_wall_ms = std::atof(argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: polarlint [--root <repo-root>] [--json <sidecar>]\n"
          "                 [--tsan-supp <file>] [--max-wall-ms <n>]\n"
          "                 <file-or-dir>...\n"
          "       polarlint --self-test <fixtures-dir>\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "polarlint: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }

  if (!selftest_dir.empty()) return RunSelfTest(selftest_dir);
  if (inputs.empty()) {
    std::fprintf(stderr, "polarlint: no inputs (try --help)\n");
    return 2;
  }
  return RunLint(root, inputs, json_path, supp_path, max_wall_ms);
}
