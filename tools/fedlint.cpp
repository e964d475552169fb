// fedlint: repo-specific determinism & resource-discipline checker.
//
// The reproduction's headline guarantee is a bit-identical TrainHistory
// across transports, shard counts, and thread counts — which only holds
// if no code path reads a nondeterministic source. TSan and the chaos
// tests catch interleaving bugs at runtime when they happen to fire;
// fedlint makes the underlying *rules* static properties of the tree,
// in the same spirit as tools/trace_lint for run artifacts:
//
//   fedlint --root . --allowlist tools/fedlint_allow.txt   # whole repo
//   fedlint --root some/dir                                # any subtree
//   fedlint --self-test                                    # rule engine
//   fedlint --list-rules
//
// Rules (token sequences over comment- and string-stripped source):
//   randomness            std::random_device, rand()/srand(), *rand48,
//                         getentropy/getrandom — every draw must come
//                         from a counter-keyed, seeded stream
//                         (support/rng.h) or reruns stop reproducing.
//   wall-clock            system_clock/steady_clock/high_resolution_-
//                         clock, gettimeofday, clock_gettime, time(0),
//                         localtime/gmtime/strftime — simulation logic
//                         runs on the simulated clock; wall time may
//                         only feed measurement (bench timing, phase
//                         stopwatches), which is what the allowlist is
//                         for.
//   unordered-container   std::unordered_{map,set,multimap,multiset} —
//                         iteration order is unspecified and varies
//                         across libstdc++/libc++ and seeds, so any
//                         iteration feeding traces, wire encodings, or
//                         aggregation breaks bit-identity. Use std::map
//                         or sorted vectors.
//   float-accumulation    `float` inside tensor/ or sim/ — reduce paths
//                         accumulate in double or tensor/exact_sum;
//                         f32 belongs only in explicit wire codecs.
//   raw-new               raw new/delete — ownership goes through
//                         make_unique/containers so sanitizer and
//                         fault-injection paths can't leak.
//   libm-in-model         std::exp/log/log1p/expm1/tanh/pow/sin/cos
//                         inside nn/, tensor/, optim/, sim/, core/ or
//                         comm/ — libm's last bit varies by host and
//                         glibc code path, so the model path uses
//                         tensor/vmath.h and the simulator, trainer
//                         and channel call no transcendental. Data
//                         generation (data/, support/rng) may call
//                         libm; its outputs are pinned by digest
//                         (tests/golden_test.cpp).
//   isa-target            a target(...)/target_clones attribute or
//                         #pragma GCC target outside src/tensor/, or
//                         one whose string names fma or avx512 anywhere
//                         — instruction-set variants live in
//                         tensor/kernels.h, where each is checked bit
//                         for bit against SSE2; an FMA contracts a
//                         multiply and an add into one rounding, and no
//                         test holds an AVX-512 variant to SSE2's bits.
//
// Allowlist file: one `path-prefix rule-id` pair per line (# comments),
// paths relative to --root with forward slashes. An entry that matches
// no finding is itself an error — the allowlist can only shrink. Policy:
// keep it under 10 entries; a new entry needs a justifying comment.
//
// Exit status: 0 clean, 1 findings (or unused allowlist entries), 2
// usage/configuration errors. Wired into ctest (fedlint_repo,
// fedlint_self_test, fedlint fixture pair) and the default CI job.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/cli.h"

namespace {

namespace fs = std::filesystem;

struct Token {
  std::string text;
  std::size_t pos = 0;  // offset in the line
};

// Splits a line into identifier/number runs and single punctuation
// characters, dropping whitespace. A word token is a whole identifier,
// so `rand` never matches inside `my_rand` or `operand`.
std::vector<Token> tokenize(const std::string& line) {
  const auto word = [&](std::size_t i) {
    return i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) ||
            line[i] == '_');
  };
  std::vector<Token> tokens;
  for (std::size_t i = 0; i < line.size();) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    if (word(i)) {
      while (word(end)) ++end;
    }
    tokens.push_back({line.substr(i, end - i), i});
    i = end;
  }
  return tokens;
}

struct Rule {
  std::string id;
  // Token sequences that trigger the rule, each split by tokenize() the
  // way a source line is ("srand (" is `srand` followed by `(`).
  std::vector<std::vector<Token>> patterns;
  // When non-empty, the rule only applies to files whose repo-relative
  // path contains one of these directory segments.
  std::vector<std::string> dir_filter;
  std::string message;
};

struct Finding {
  std::string path;  // relative, forward slashes
  std::size_t line = 0;
  std::string rule;
  std::string excerpt;
};

std::vector<std::vector<Token>> patterns(
    std::initializer_list<const char*> sources) {
  std::vector<std::vector<Token>> out;
  for (const char* source : sources) out.push_back(tokenize(source));
  return out;
}

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"randomness",
       patterns({"random_device", "srand (", "rand (", "drand48", "lrand48",
                 "mrand48", "getentropy", "getrandom"}),
       {},
       "nondeterministic randomness source; draw from a seeded, "
       "counter-keyed stream (support/rng.h) instead"},
      {"wall-clock",
       patterns({"system_clock", "steady_clock", "high_resolution_clock",
                 "gettimeofday", "clock_gettime", "localtime", "gmtime",
                 "strftime", "asctime", "time ( nullptr )", "time ( NULL )",
                 "time ( 0 )"}),
       {},
       "wall-clock read; simulation logic must use the simulated "
       "clock — wall time is allowlisted only for measurement "
       "(bench timing, phase stopwatches)"},
      {"unordered-container",
       patterns({"unordered_map", "unordered_set", "unordered_multimap",
                 "unordered_multiset"}),
       {},
       "unspecified iteration order can leak into traces, wire "
       "bytes, or aggregation and break bit-identity; use "
       "std::map or a sorted vector"},
      {"float-accumulation",
       patterns({"float"}),
       {"tensor", "sim"},
       "single-precision in a reduce path; accumulate in double "
       "or tensor/exact_sum (f32 belongs only in wire codecs)"},
      {"raw-new",
       patterns({"new", "delete"}),
       {},
       "raw new/delete; use std::make_unique / containers so "
       "ownership survives exceptions and fault injection"},
      {"libm-in-model",
       patterns({"std :: exp", "std :: log", "std :: log1p", "std :: expm1",
                 "std :: tanh", "std :: pow", "std :: sin", "std :: cos"}),
       {"nn", "tensor", "optim", "sim", "core", "comm"},
       "libm transcendental on the model or simulation path; its last bit "
       "depends on the host, so use tensor/vmath.h (exp, log, tanh, "
       "sigmoid)"},
      // Matched by isa_target_finding(), not by token patterns.
      {"isa-target",
       {},
       {},
       "instruction-set target outside src/tensor/, or one naming fma or "
       "avx512; ISA variants belong in tensor/kernels.h, which checks each "
       "against SSE2 bit for bit, and neither FMA nor AVX-512 is one"},
  };
  return kRules;
}

// Replaces comments and, unless `keep_strings`, string/char literal
// *contents* with spaces, preserving line structure so findings report
// real line numbers. Handles //, /* */, "..." with escapes, '...', and
// R"delim(...)delim".
std::string strip_comments_and_strings(const std::string& src,
                                       bool keep_strings = false) {
  std::string out = src;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  // The active raw string's delimiter: it ends at `)delim"`.
  std::string_view raw_delim;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   src[i - 1])) &&
                               src[i - 1] != '_'))) {
          // Raw string: R"delim( ... )delim"
          std::size_t open = src.find('(', i + 2);
          if (open == std::string::npos) break;  // malformed; give up
          raw_delim = std::string_view(src).substr(i + 2, open - (i + 2));
          for (std::size_t j = i; j <= open && !keep_strings; ++j) {
            out[j] = ' ';
          }
          i = open;
          state = State::kRawString;
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          state = State::kChar;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next != '\0') {
          if (!keep_strings) {
            out[i] = ' ';
            if (next != '\n') out[i + 1] = ' ';
          }
          ++i;
        } else if (c == (state == State::kString ? '"' : '\'')) {
          state = State::kCode;
        } else if (c != '\n' && !keep_strings) {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (const std::size_t end = i + 1 + raw_delim.size();
            c == ')' && end < src.size() && src[end] == '"' &&
            std::string_view(src).substr(i + 1, raw_delim.size()) ==
                raw_delim) {
          for (std::size_t j = i; j <= end && !keep_strings; ++j) {
            out[j] = ' ';
          }
          i = end;
          state = State::kCode;
        } else if (c != '\n' && !keep_strings) {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

bool path_has_dir(const std::string& rel_path,
                  const std::vector<std::string>& dirs) {
  if (dirs.empty()) return true;
  for (const std::string& d : dirs) {
    if (rel_path.rfind(d + "/", 0) == 0 ||
        rel_path.find("/" + d + "/") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Length of the match of `pattern` at tokens[k], or 0 for none.
std::size_t match_at(const std::vector<Token>& tokens, std::size_t k,
                     const std::vector<Token>& pattern) {
  if (k + pattern.size() > tokens.size()) return 0;
  for (std::size_t j = 0; j < pattern.size(); ++j) {
    if (tokens[k + j].text != pattern[j].text) return 0;
  }
  return pattern.size();
}

// Whether a line's code tokens name an instruction-set target: a
// target(...) inside a GNU __attribute__ or as [[gnu::target(...)]],
// target_clones, or #pragma GCC target. A call such as f(target(x)) is
// none of these.
bool names_isa_target(const std::vector<Token>& tokens) {
  bool in_attribute = false;
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    const std::string& t = tokens[k].text;
    if (t == "__attribute__") in_attribute = true;
    if (t == "target_clones" || t == "__target_clones__" ||
        t == "__target__") {
      return true;
    }
    const bool gnu_scoped = k >= 3 && tokens[k - 1].text == ":" &&
                            tokens[k - 2].text == ":" &&
                            tokens[k - 3].text == "gnu";
    if (t == "target" && k + 1 < tokens.size() &&
        tokens[k + 1].text == "(" && (in_attribute || gnu_scoped)) {
      return true;
    }
    if (t == "pragma" && k + 2 < tokens.size() &&
        tokens[k + 1].text == "GCC" && tokens[k + 2].text == "target") {
      return true;
    }
  }
  return false;
}

// isa-target on one line: `code` has comments and strings blanked,
// `with_strings` only comments. The target strings are the characters the
// two differ in.
std::optional<Finding> isa_target_finding(const std::string& rel_path,
                                          std::size_t line_no,
                                          const std::string& code,
                                          const std::string& with_strings) {
  if (!names_isa_target(tokenize(code))) return std::nullopt;
  std::string strings;
  for (std::size_t i = 0; i < code.size() && i < with_strings.size(); ++i) {
    if (code[i] != with_strings[i]) {
      strings += static_cast<char>(
          std::tolower(static_cast<unsigned char>(with_strings[i])));
    }
  }
  const bool banned = strings.find("fma") != std::string::npos ||
                      strings.find("avx512") != std::string::npos;
  if (!banned && path_has_dir(rel_path, {"tensor"})) return std::nullopt;
  const std::size_t first = with_strings.find_first_not_of(" \t");
  const std::size_t last = with_strings.find_last_not_of(" \t");
  return Finding{rel_path, line_no, "isa-target",
                 with_strings.substr(first, last - first + 1)};
}

void scan_content(const std::string& rel_path, const std::string& content,
                  std::vector<Finding>& findings) {
  const std::string stripped = strip_comments_and_strings(content);
  std::istringstream lines(stripped);
  std::istringstream lines_with_strings(
      strip_comments_and_strings(content, /*keep_strings=*/true));
  std::string line, line_with_strings;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    std::getline(lines_with_strings, line_with_strings);
    ++line_no;
    if (auto finding =
            isa_target_finding(rel_path, line_no, line, line_with_strings)) {
      findings.push_back(std::move(*finding));
    }
    const std::vector<Token> tokens = tokenize(line);
    for (const Rule& rule : rules()) {
      if (!path_has_dir(rel_path, rule.dir_filter)) continue;
      bool found = false;  // one finding per rule per line is enough
      for (std::size_t k = 0; k < tokens.size() && !found; ++k) {
        // `delete` has one legitimate use: deleted special members.
        if (tokens[k].text == "delete" && k > 0 &&
            tokens[k - 1].text == "=") {
          continue;
        }
        for (const std::vector<Token>& pattern : rule.patterns) {
          const std::size_t n = match_at(tokens, k, pattern);
          if (n == 0) continue;
          const Token& last = tokens[k + n - 1];
          findings.push_back(
              {rel_path, line_no, rule.id,
               line.substr(tokens[k].pos,
                           last.pos + last.text.size() - tokens[k].pos)});
          found = true;
          break;
        }
      }
    }
  }
}

bool scannable_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool skip_dir(const std::string& name) {
  return name.rfind("build", 0) == 0 || name == ".git" || name == "tests" ||
         name == "fedlint_fixtures" || name == "bench_out" ||
         name == ".github";
}

std::string to_rel(const fs::path& p, const fs::path& root) {
  return fs::relative(p, root).generic_string();
}

// Scans every source file under `start`; findings report paths relative
// to `rel_root` (the repo root), so allowlist prefixes like
// "src/support/stopwatch.h" match regardless of which subtree the file
// was reached through.
void scan_tree(const fs::path& start, const fs::path& rel_root,
               std::vector<Finding>& findings) {
  std::vector<fs::path> files;
  auto it = fs::recursive_directory_iterator(start);
  for (auto end = fs::recursive_directory_iterator(); it != end; ++it) {
    if (it->is_directory()) {
      if (skip_dir(it->path().filename().string())) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (it->is_regular_file() && scannable_file(it->path())) {
      files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::cerr << "fedlint: cannot read " << file << "\n";
      std::exit(2);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    scan_content(to_rel(file, rel_root), buffer.str(), findings);
  }
}

struct AllowEntry {
  std::string prefix;
  std::string rule;
  bool used = false;
};

std::vector<AllowEntry> load_allowlist(const std::string& path) {
  std::vector<AllowEntry> entries;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "fedlint: cannot open allowlist " << path << "\n";
    std::exit(2);
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream fields(line);
    std::string prefix, rule, extra;
    if (!(fields >> prefix)) continue;  // blank/comment line
    if (!(fields >> rule) || (fields >> extra)) {
      std::cerr << "fedlint: " << path << ":" << line_no
                << ": expected `path-prefix rule-id`\n";
      std::exit(2);
    }
    entries.push_back({prefix, rule, false});
  }
  return entries;
}

bool allowed(const Finding& f, std::vector<AllowEntry>& allowlist) {
  bool hit = false;
  for (AllowEntry& entry : allowlist) {
    if (entry.rule == f.rule && f.path.rfind(entry.prefix, 0) == 0) {
      entry.used = true;
      hit = true;  // keep scanning so every matching entry is marked used
    }
  }
  return hit;
}

// ---------------------------------------------------------------------
// Self-test: seeded snippets, each annotated with the rules it must (or
// must not) trigger. Runs the real scanner on in-memory content, so the
// fixture pair in tools/fedlint_fixtures and this check exercise the
// same engine.

struct SelfCase {
  std::string path;
  std::string content;
  std::set<std::string> expect;  // rule ids that must fire, exactly
};

int run_self_test() {
  const std::vector<SelfCase> cases = {
      {"src/a.cpp", "#include <random>\nstd::random_device rd;\n",
       {"randomness"}},
      {"src/b.cpp", "int x = rand();\nvoid f() { srand(7); }\n",
       {"randomness"}},
      {"src/c.cpp",
       "auto t = std::chrono::system_clock::now();\n", {"wall-clock"}},
      {"src/c2.cpp", "auto t = time(nullptr);\n", {"wall-clock"}},
      {"src/d.cpp", "#include <unordered_map>\nstd::unordered_map<int,int> m;\n",
       {"unordered-container"}},
      {"tensor/e.cpp", "float acc = 0.f;\n", {"float-accumulation"}},
      {"sim/e2.cpp", "float acc = 0.f;\n", {"float-accumulation"}},
      // float outside tensor//sim/ is somebody else's policy problem.
      {"src/e3.cpp", "float ok = 1.0f;\n", {}},
      {"src/f.cpp", "int* p = new int(3);\ndelete p;\n", {"raw-new"}},
      // Deleted special members are not raw delete.
      {"src/g.cpp", "struct S { S(const S&) = delete; };\n", {}},
      // Comments and strings never trigger.
      {"src/h.cpp",
       "// rand() and new and steady_clock in a comment\n"
       "const char* s = \"std::random_device\";\n",
       {}},
      // A raw string holding banned tokens stays inert, whatever its
      // delimiter, even with a `)"` inside.
      {"src/i.cpp", "const char* r = R\"(rand() new delete)\";\n", {}},
      {"src/i2.cpp", "auto r = R\"d(rand() )\" new)d\"; int n = 0;\n", {}},
      // Tokens are whole identifiers; spacing inside a call is free.
      {"src/j.cpp", "my_rand(); operand(); randomize();\n", {}},
      {"src/k.cpp", "auto t = time ( 0 );\n", {"wall-clock"}},
      {"src/nn/l.cpp", "double y = std::tanh(x) + std::exp(-x);\n",
       {"libm-in-model"}},
      {"src/optim/l2.cpp", "auto p = std :: pow(b, 2.0);\n",
       {"libm-in-model"}},
      {"src/tensor/l3.cpp", "double a = std::log1p(x), b = std::cos(x);\n",
       {"libm-in-model"}},
      {"src/sim/l3b.cpp", "double s = std::exp(rng.normal());\n",
       {"libm-in-model"}},
      // Data generation may call libm; sqrt is exact, so it is not flagged;
      // the in-repo kernel's names are not libm's.
      {"src/data/l4.cpp", "double y = std::exp(x);\n", {}},
      {"src/nn/l5.cpp",
       "double r = std::sqrt(x); double e = vmath::exp(x);\n"
       "std::exponential_distribution<> d; auto l = std::logic_error(\"\");\n",
       {}},
      // Instruction-set targets: only in tensor/, and never FMA/AVX-512.
      {"src/sim/t1.cpp", "__attribute__((target(\"avx2\"))) void f();\n",
       {"isa-target"}},
      {"src/nn/t2.cpp", "#pragma GCC target(\"avx2\")\n", {"isa-target"}},
      {"src/tensor/t3.cpp", "[[gnu::target(\"avx2\")]] void f();\n", {}},
      {"src/tensor/t4.cpp",
       "__attribute__((target(\"avx2,FMA\"))) void f();\n", {"isa-target"}},
      {"src/tensor/t5.cpp",
       "__attribute__((target_clones(\"avx512f\", \"default\"))) void f();\n",
       {"isa-target"}},
      {"src/core/t6.cpp",
       "__attribute__((noinline, target(\"sse4.2\"))) void f();\n",
       {"isa-target"}},
      // Calls named target, and fma in a comment, are no target.
      {"src/nn/t7.cpp", "auto t = target(x);  // fma\n", {}},
      {"src/nn/t8.cpp", "g(target(x), target(\"avx512f\"));\n", {}},
      // The seeded-good snippet: deterministic idioms pass everything.
      {"src/good.cpp",
       "#include <map>\n#include <memory>\n"
       "std::map<int, int> ordered;\n"
       "auto owned = std::make_unique<int>(4);\n"
       "// simulated clock, counter-keyed rng only\n",
       {}},
  };

  int failures = 0;
  for (const SelfCase& c : cases) {
    std::vector<Finding> findings;
    scan_content(c.path, c.content, findings);
    std::set<std::string> fired;
    for (const Finding& f : findings) fired.insert(f.rule);
    if (fired != c.expect) {
      ++failures;
      std::cerr << "fedlint self-test FAIL: " << c.path << " fired {";
      for (const auto& r : fired) std::cerr << r << ",";
      std::cerr << "} expected {";
      for (const auto& r : c.expect) std::cerr << r << ",";
      std::cerr << "}\n";
    }
  }
  if (failures) {
    std::cerr << "fedlint --self-test: " << failures << " case(s) failed\n";
    return 1;
  }
  std::cout << "fedlint --self-test: " << cases.size() << " cases ok\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const fed::CliFlags flags(argc, argv);

  if (flags.get_bool("list-rules", false)) {
    for (const Rule& rule : rules()) {
      std::cout << rule.id << ": " << rule.message << "\n";
    }
    return 0;
  }
  if (flags.get_bool("self-test", false)) return run_self_test();

  const fs::path root = flags.get_string("root", ".");
  if (!fs::is_directory(root)) {
    std::cerr << "fedlint: --root " << root << " is not a directory\n";
    return 2;
  }

  std::vector<AllowEntry> allowlist;
  if (const auto path = flags.get_optional_string("allowlist")) {
    allowlist = load_allowlist(*path);
  }

  std::vector<Finding> findings;
  // Repo layout: scan the source dirs (tests/ and build*/ stay out by
  // construction). Arbitrary --root (fixtures): scan everything under it.
  if (fs::is_directory(root / "src")) {
    for (const char* dir : {"src", "bench", "tools", "examples"}) {
      if (fs::is_directory(root / dir)) scan_tree(root / dir, root, findings);
    }
  } else {
    scan_tree(root, root, findings);
  }

  int status = 0;
  std::size_t reported = 0;
  for (const Finding& f : findings) {
    if (allowed(f, allowlist)) continue;
    std::cerr << f.path << ":" << f.line << ": [" << f.rule << "] `"
              << f.excerpt << "` — ";
    for (const Rule& rule : rules()) {
      if (rule.id == f.rule) std::cerr << rule.message;
    }
    std::cerr << "\n";
    ++reported;
    status = 1;
  }
  for (const AllowEntry& entry : allowlist) {
    if (!entry.used) {
      std::cerr << "fedlint: unused allowlist entry `" << entry.prefix << " "
                << entry.rule << "` — remove it (the allowlist only shrinks)\n";
      status = 1;
    }
  }
  if (status == 0) {
    std::cout << "fedlint: clean\n";
  } else {
    std::cerr << "fedlint: " << reported << " finding(s)\n";
  }
  return status;
}
