// Minimal command-line option parser for the bench and example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--flag`. Every
// bench accepts sizing options (e.g. --max-qubits, --full) so the paper's
// sweeps can be reproduced at laptop scale by default and scaled up on
// bigger machines.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace qc {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  /// True if `--name` was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value of `--name` or nullopt.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  /// Numeric value of `--name`, or `fallback` when absent or bare. A
  /// value that is not entirely a number in range (e.g. "abc", "12x",
  /// "1e999") throws std::invalid_argument naming the option.
  [[nodiscard]] long get_int(const std::string& name, long fallback) const;
  /// Qubit count `--name`, or `fallback` when absent or bare: an integer
  /// in [1, 63] (the widest state an index_t addresses). Anything else,
  /// a negative count included, throws std::invalid_argument naming the
  /// option instead of wrapping around in the cast to qubit_t.
  [[nodiscard]] qubit_t get_qubits(const std::string& name, long fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] std::string get_string(const std::string& name, std::string fallback) const;

  /// Positional (non-option) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Runs a program's body and turns an escaping std::exception (a
/// malformed option, a bad backend name, an invalid size) into a
/// "<program>: error: <what>" line on stderr and exit code 2, instead of
/// std::terminate. Every example, bench and tool main is
/// `return qc::run_main(argc, argv, cli_main);`.
int run_main(int argc, char** argv, int (*body)(int argc, char** argv));

}  // namespace qc
