#include "common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <type_traits>

namespace qc {

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself an option;
    // otherwise a bare boolean flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "";
    }
  }
}

bool Cli::has(const std::string& name) const { return options_.contains(name); }

std::optional<std::string> Cli::get(const std::string& name) const {
  if (const auto it = options_.find(name); it != options_.end()) return it->second;
  return std::nullopt;
}

namespace {

/// Parses all of `text` with strtol/strtod; trailing garbage, an empty
/// number, overflow or a non-finite double throw std::invalid_argument
/// naming the option.
template <typename T, typename Parse>
T parse_number(const std::string& name, const std::string& text, const char* kind, Parse parse) {
  errno = 0;
  char* end = nullptr;
  const T value = parse(text.c_str(), &end);
  bool ok = end != text.c_str() && *end == '\0' && errno != ERANGE;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) throw std::invalid_argument("--" + name + ": expected " + kind + ", got '" + text + "'");
  return value;
}

}  // namespace

long Cli::get_int(const std::string& name, long fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return parse_number<long>(name, *v, "an integer",
                            [](const char* s, char** end) { return std::strtol(s, end, 10); });
}

qubit_t Cli::get_qubits(const std::string& name, long fallback) const {
  const long value = get_int(name, fallback);
  if (value < 1 || value > 63)
    throw std::invalid_argument("--" + name + ": expected a qubit count in [1, 63], got " +
                                std::to_string(value));
  return static_cast<qubit_t>(value);
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return parse_number<double>(name, *v, "a number",
                              [](const char* s, char** end) { return std::strtod(s, end); });
}

std::string Cli::get_string(const std::string& name, std::string fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  return *v;
}

int run_main(int argc, char** argv, int (*body)(int argc, char** argv)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", argc > 0 ? argv[0] : "qc", e.what());
    return 2;
  }
}

}  // namespace qc
