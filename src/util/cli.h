// One command-line table per program, shared by the examples and the
// benches. Each row declares an option or an operand once: how usage
// spells it, its kind (text, whole number, decimal, switch or one of a
// list), its range or accepted values, the variable it sets — whose value
// before parsing is its default — and its help. util::parse checks argv
// against the rows before any work starts and prints --help from them;
// util::dispatch gives each subcommand of a tool its own table. Every
// error exits 2.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <system_error>
#include <vector>

namespace pbecc::util {

// One row. `usage` spells it as usage shows it: "--csv FILE" is an option
// that takes a value, "--conv-pdcch" a switch, "FILE" an operand, "[algo]"
// an operand that may be left out and "IN..." one or more operands.
struct Arg {
  std::string usage;
  std::string help;
  std::string range;     // accepted values as help shows them, or ""
  std::string fallback;  // the default as help shows it, or ""
  // Checks and stores one value (nullptr for a switch); `name` is the
  // row's name, for the error message.
  std::function<void(const char* name, const char* value)> set;

  bool option() const { return usage.starts_with("--"); }
  bool required() const { return !option() && !usage.starts_with("["); }
  bool repeats() const { return usage.ends_with("..."); }
  // "--csv", "algo", "IN": the name errors use.
  std::string name() const {
    std::string n = usage.substr(0, usage.find(' '));
    if (n.front() == '[') n = n.substr(1, n.size() - 2);
    if (repeats()) n.resize(n.size() - 3);
    return n;
  }
};

namespace cli_detail {

[[noreturn]] inline void fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(2);
}

inline std::string shown(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// All of `text` as a finite T in [lo, hi]; anything else — empty, a sign
// or digits followed by other characters, inf or nan, out of range —
// fails with "<name> needs <what> in <range> (got '<text>')".
template <class T>
T number(const char* name, const char* text, T lo, T hi, const char* what,
         const std::string& range) {
  const char* end = text + std::strlen(text);
  T v{};
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc{} || ptr != end ||
      !std::isfinite(static_cast<double>(v)) || v < lo || v > hi) {
    fail(std::string(name) + " needs " + what + " in " + range + " (got '" +
         text + "')");
  }
  return v;
}

// argv[0]'s file name.
inline std::string program(const char* argv0) {
  const char* slash = std::strrchr(argv0, '/');
  return slash ? slash + 1 : argv0;
}

// " [options] FILE [algo]": what follows the program in a usage line.
inline std::string synopsis(const std::vector<Arg>& args) {
  std::string options, operands;
  for (const auto& a : args) {
    if (a.option()) options = " [options]";
    else operands += " " + a.usage;
  }
  return options + operands;
}

// `left`, then `text` word-wrapped at 79 columns from column 26 (on the
// next line when `left` reaches that column).
inline void print_row(std::FILE* out, std::string left,
                      const std::string& text) {
  constexpr std::size_t kHelpColumn = 26;
  constexpr std::size_t kWidth = 79;
  std::size_t begin = 0;
  while (begin < text.size()) {
    const std::size_t end = std::min(text.find(' ', begin), text.size());
    if (left.size() + 1 >= kHelpColumn &&
        (begin == 0 || left.size() + end - begin >= kWidth)) {
      std::fprintf(out, "%s\n", left.c_str());
      left.clear();
    }
    left.resize(std::max(left.size() + 1, kHelpColumn), ' ');
    left.append(text, begin, end - begin);
    begin = end + 1;
  }
  std::fprintf(out, "%s\n", left.c_str());
}

inline void print_usage(std::FILE* out, const std::string& prog,
                        const std::vector<Arg>& args) {
  std::fprintf(out, "usage: %s%s\n", prog.c_str(), synopsis(args).c_str());
  for (const auto& a : args) {
    std::string note = a.range;
    if (!a.fallback.empty() && !a.required()) {
      note += (note.empty() ? "default " : "; default ") + a.fallback;
    }
    print_row(out, "  " + a.usage,
              note.empty() ? a.help : a.help + " (" + note + ")");
  }
  print_row(out, "  -h, --help", "print this help and exit");
}

}  // namespace cli_detail

// Text, stored as given.
inline Arg text(std::string usage, std::string& to, std::string help) {
  return {std::move(usage), std::move(help), "", to,
          [&to](const char*, const char* v) { to = v; }};
}

// Every word of a repeating operand ("IN..."), in order.
inline Arg texts(std::string usage, std::vector<std::string>& to,
                 std::string help) {
  return {std::move(usage), std::move(help), "", "",
          [&to](const char*, const char* v) { to.emplace_back(v); }};
}

// A switch: given, it sets `to`.
inline Arg flag(std::string usage, bool& to, std::string help) {
  return {std::move(usage), std::move(help), "", "",
          [&to](const char*, const char*) { to = true; }};
}

// A whole number in [lo, hi], into an integer or a std::optional of one
// (unset: no default). The range fits the target, so the store is exact.
template <class T>
Arg whole(std::string usage, T& to, long long lo, long long hi,
          std::string help) {
  std::string fallback;
  if constexpr (requires { to.has_value(); }) {
    if (to) fallback = std::to_string(*to);
  } else {
    fallback = std::to_string(to);
  }
  const std::string range = std::to_string(lo) + ".." + std::to_string(hi);
  return {std::move(usage), std::move(help), range, fallback,
          [&to, lo, hi, range](const char* name, const char* v) {
            to = cli_detail::number(name, v, lo, hi, "a whole number", range);
          }};
}

// A decimal ("0.05", "-85", "1e-3") in [lo, hi].
inline Arg decimal(std::string usage, double& to, double lo, double hi,
                   std::string help) {
  const std::string range =
      cli_detail::shown(lo) + ".." + cli_detail::shown(hi);
  return {std::move(usage), std::move(help), range, cli_detail::shown(to),
          [&to, lo, hi, range](const char* name, const char* v) {
            to = cli_detail::number(name, v, lo, hi, "a number", range);
          }};
}

// One of the values in `lists`; anything else fails with "<name> needs one
// of a|b|c (got '<value>')".
inline Arg choice(std::string usage, std::string& to,
                  std::initializer_list<std::vector<std::string>> lists,
                  std::string help) {
  std::vector<std::string> values;
  std::string range;
  for (const auto& list : lists) {
    values.insert(values.end(), list.begin(), list.end());
  }
  for (const auto& v : values) range += (range.empty() ? "" : "|") + v;
  return {std::move(usage), std::move(help), range, to,
          [&to, values = std::move(values), range](const char* name,
                                                   const char* v) {
            if (std::find(values.begin(), values.end(), v) == values.end()) {
              cli_detail::fail(std::string(name) + " needs one of " + range +
                               " (got '" + v + "')");
            }
            to = v;
          }};
}

// Sets the rows' variables from argv[1..argc) and returns the options
// given, in argv order. An option's value is the word after it, whatever
// it starts with; a word starting with '-' is an operand only when it
// reads as a negative number and an operand is open. --help or -h prints
// the usage generated from the rows and exits 0. An unknown option, a
// missing value ("missing value for X"), a value out of its row's range, a
// missing operand or one too many exits 2.
inline std::vector<std::string> parse(int argc, char** argv,
                                      const std::vector<Arg>& args,
                                      const std::string& prog = "") {
  std::vector<std::string> given;
  std::vector<const Arg*> operands;
  for (const auto& a : args) {
    if (!a.option()) operands.push_back(&a);
  }
  std::size_t next = 0;   // the operand the next plain word fills
  bool repeated = false;  // operands[next] repeats and has a word
  for (int i = 1; i < argc; ++i) {
    const std::string word = argv[i];
    if (word == "--help" || word == "-h") {
      cli_detail::print_usage(
          stdout, prog.empty() ? cli_detail::program(argv[0]) : prog, args);
      std::exit(0);
    }
    const bool negative_number =
        word.size() > 1 &&
        ((word[1] >= '0' && word[1] <= '9') || word[1] == '.');
    if (word.starts_with("-") &&
        !(negative_number && next < operands.size())) {
      const Arg* row = nullptr;
      for (const auto& a : args) {
        if (a.option() && a.name() == word) row = &a;
      }
      if (!row) cli_detail::fail("unknown option " + word + " (try --help)");
      given.push_back(word);
      if (row->usage.find(' ') == std::string::npos) {
        row->set(argv[i], nullptr);
      } else if (i + 1 < argc) {
        row->set(argv[i], argv[i + 1]);
        ++i;
      } else {
        cli_detail::fail("missing value for " + word);
      }
      continue;
    }
    if (next == operands.size()) {
      cli_detail::fail("unexpected operand '" + word + "' (try --help)");
    }
    operands[next]->set(operands[next]->name().c_str(), argv[i]);
    repeated = operands[next]->repeats();
    if (!repeated) ++next;
  }
  for (std::size_t k = next + (repeated ? 1 : 0); k < operands.size(); ++k) {
    if (operands[k]->required()) {
      cli_detail::fail("missing operand " + operands[k]->name() +
                       " (try --help)");
    }
  }
  return given;
}

// One subcommand of a tool: its name, a line of help, its table, and what
// it runs once parse has set the table's variables.
struct Command {
  std::string name;
  std::string help;
  std::vector<Arg> args;
  std::function<int()> run;
};

// Runs the command argv[1] names on the rest of argv, parsed against its
// table, and returns its exit code. No command or an unknown one prints
// the command list and exits 2; --help or -h prints it and exits 0.
inline int dispatch(int argc, char** argv,
                    const std::vector<Command>& commands) {
  const std::string prog = cli_detail::program(argv[0]);
  const auto list = [&](std::FILE* out) {
    std::fprintf(out, "usage: %s COMMAND ... (COMMAND -h for its options)\n",
                 prog.c_str());
    for (const auto& c : commands) {
      cli_detail::print_row(out, "  " + c.name + cli_detail::synopsis(c.args),
                            c.help);
    }
  };
  const std::string word = argc > 1 ? argv[1] : "";
  if (word == "--help" || word == "-h") {
    list(stdout);
    return 0;
  }
  if (word.starts_with("-")) {
    cli_detail::fail("unknown option " + word + " (try --help)");
  }
  for (const auto& c : commands) {
    if (c.name == word) {
      parse(argc - 1, argv + 1, c.args, prog + " " + c.name);
      return c.run();
    }
  }
  if (!word.empty()) std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
  list(stderr);
  return 2;
}

}  // namespace pbecc::util
