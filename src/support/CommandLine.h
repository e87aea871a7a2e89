//===- support/CommandLine.h - Small declarative option parser -----------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line parsing for the tlc/tlrun/gprof/prof tools.  Options are
/// declared up front; parsing reports unknown or malformed options as
/// recoverable errors and collects positional arguments in order.  Both
/// "--name value", "--name=value" and short "-n value" spellings are
/// accepted, and value options may repeat (gprof's -k and -f/-e do).
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SUPPORT_COMMANDLINE_H
#define GPROF_SUPPORT_COMMANDLINE_H

#include "support/Error.h"

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace gprof {

/// Declares and parses the options of one tool invocation.
class OptionParser {
public:
  /// Creates a parser for a tool named \p ToolName with a one-line
  /// \p Overview used in help text.
  OptionParser(std::string ToolName, std::string Overview);

  /// Declares a boolean flag, e.g. addFlag("brief", 'b', "...").  Pass 0 for
  /// \p Short if there is no short spelling.
  void addFlag(const std::string &Name, char Short, const std::string &Help);

  /// Declares an option taking a value; \p Meta names the value in help
  /// text (e.g. "FILE").  Value options may be given multiple times.
  void addOption(const std::string &Name, char Short, const std::string &Meta,
                 const std::string &Help);

  /// Declares an option whose value is optional: "--name" records an empty
  /// value, "--name=V" records V.  Unlike addOption, a bare spelling never
  /// consumes the next argument (gprof's --stats[=FILE]).  No short
  /// spelling — "-s V" would be ambiguous.
  void addOptionalValueOption(const std::string &Name, const std::string &Meta,
                              const std::string &Help);

  /// Describes the positional arguments in help text, e.g. "image gmon...".
  void setPositionalHelp(const std::string &Help) { PositionalHelp = Help; }

  /// Parses argv[1..argc).  On failure nothing should be queried.
  Error parse(int Argc, const char *const *Argv);

  /// The front of every tool's main(): parses argv[1..argc) and returns
  /// the exit code when the tool must stop there — 1 after printing the
  /// error as "<program>: <message>" on stderr (the program is ToolName
  /// up to its first space), 0 after printing --help — or nothing when
  /// it should go on.
  std::optional<int> parseOrStop(int Argc, const char *const *Argv);

  /// Returns true if the flag \p Name was given.
  bool hasFlag(const std::string &Name) const;

  /// Returns the last value given for \p Name, if any.
  std::optional<std::string> getValue(const std::string &Name) const;

  /// Returns every value given for \p Name, in order.
  std::vector<std::string> getValues(const std::string &Name) const;

  /// Positional (non-option) arguments, in order.
  const std::vector<std::string> &positional() const { return Positional; }

  /// Renders the --help text.
  std::string helpText() const;

private:
  struct OptionSpec {
    std::string Name;
    char Short;
    bool TakesValue;
    std::string Meta;
    std::string Help;
    bool ValueOptional = false; ///< --name alone is legal (empty value).
  };

  const OptionSpec *findLong(const std::string &Name) const;
  const OptionSpec *findShort(char C) const;

  std::string ToolName;
  std::string Overview;
  std::string PositionalHelp;
  std::vector<OptionSpec> Specs;
  std::map<std::string, std::vector<std::string>> Values;
  std::map<std::string, unsigned> FlagCounts;
  std::vector<std::string> Positional;
};

} // namespace gprof

#endif // GPROF_SUPPORT_COMMANDLINE_H
