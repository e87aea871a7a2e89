//===- support/CommandLine.cpp --------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/Format.h"

#include <cassert>
#include <cstdio>

using namespace gprof;

OptionParser::OptionParser(std::string ToolName, std::string Overview)
    : ToolName(std::move(ToolName)), Overview(std::move(Overview)) {
  addFlag("help", 'h', "print this help text and exit");
}

void OptionParser::addFlag(const std::string &Name, char Short,
                           const std::string &Help) {
  assert(!findLong(Name) && "duplicate option name");
  Specs.push_back({Name, Short, /*TakesValue=*/false, "", Help});
}

void OptionParser::addOption(const std::string &Name, char Short,
                             const std::string &Meta,
                             const std::string &Help) {
  assert(!findLong(Name) && "duplicate option name");
  Specs.push_back({Name, Short, /*TakesValue=*/true, Meta, Help});
}

void OptionParser::addOptionalValueOption(const std::string &Name,
                                          const std::string &Meta,
                                          const std::string &Help) {
  assert(!findLong(Name) && "duplicate option name");
  Specs.push_back({Name, /*Short=*/0, /*TakesValue=*/true, Meta, Help,
                   /*ValueOptional=*/true});
}

const OptionParser::OptionSpec *
OptionParser::findLong(const std::string &Name) const {
  for (const OptionSpec &S : Specs)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

const OptionParser::OptionSpec *OptionParser::findShort(char C) const {
  for (const OptionSpec &S : Specs)
    if (S.Short == C && C != 0)
      return &S;
  return nullptr;
}

Error OptionParser::parse(int Argc, const char *const *Argv) {
  bool OnlyPositional = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (OnlyPositional || Arg == "-" || Arg.empty() || Arg[0] != '-') {
      Positional.push_back(Arg);
      continue;
    }
    if (Arg == "--") {
      OnlyPositional = true;
      continue;
    }

    const OptionSpec *Spec = nullptr;
    std::optional<std::string> Inline;
    if (Arg.size() >= 2 && Arg[1] == '-') {
      // Long option, possibly --name=value.
      std::string Body = Arg.substr(2);
      size_t Eq = Body.find('=');
      if (Eq != std::string::npos) {
        Inline = Body.substr(Eq + 1);
        Body = Body.substr(0, Eq);
      }
      Spec = findLong(Body);
      if (!Spec)
        return Error::failure(format("unknown option '--%s'", Body.c_str()));
    } else {
      // Short option; support "-xvalue" for value options.
      Spec = findShort(Arg[1]);
      if (!Spec)
        return Error::failure(format("unknown option '-%c'", Arg[1]));
      if (Arg.size() > 2) {
        if (!Spec->TakesValue)
          return Error::failure(
              format("flag '-%c' does not take a value", Arg[1]));
        Inline = Arg.substr(2);
      }
    }

    if (!Spec->TakesValue) {
      if (Inline)
        return Error::failure(
            format("flag '--%s' does not take a value", Spec->Name.c_str()));
      ++FlagCounts[Spec->Name];
      continue;
    }

    std::string Value;
    if (Inline) {
      Value = *Inline;
    } else if (Spec->ValueOptional) {
      // A bare optional-value option records an empty value and leaves
      // the next argument alone.
    } else {
      if (I + 1 >= Argc)
        return Error::failure(
            format("option '--%s' requires a value", Spec->Name.c_str()));
      Value = Argv[++I];
    }
    Values[Spec->Name].push_back(Value);
  }
  return Error::success();
}

std::optional<int> OptionParser::parseOrStop(int Argc,
                                             const char *const *Argv) {
  if (Error E = parse(Argc, Argv)) {
    std::fprintf(stderr, "%s: %s\n",
                 ToolName.substr(0, ToolName.find(' ')).c_str(),
                 E.message().c_str());
    return 1;
  }
  if (hasFlag("help")) {
    std::printf("%s", helpText().c_str());
    return 0;
  }
  return std::nullopt;
}

bool OptionParser::hasFlag(const std::string &Name) const {
  assert(findLong(Name) && "querying undeclared flag");
  auto It = FlagCounts.find(Name);
  return It != FlagCounts.end() && It->second > 0;
}

std::optional<std::string>
OptionParser::getValue(const std::string &Name) const {
  assert(findLong(Name) && "querying undeclared option");
  auto It = Values.find(Name);
  if (It == Values.end() || It->second.empty())
    return std::nullopt;
  return It->second.back();
}

std::vector<std::string>
OptionParser::getValues(const std::string &Name) const {
  assert(findLong(Name) && "querying undeclared option");
  auto It = Values.find(Name);
  if (It == Values.end())
    return {};
  return It->second;
}

std::string OptionParser::helpText() const {
  std::string Out = format("OVERVIEW: %s\n\nUSAGE: %s [options] %s\n\n"
                           "OPTIONS:\n",
                           Overview.c_str(), ToolName.c_str(),
                           PositionalHelp.c_str());
  for (const OptionSpec &S : Specs) {
    std::string Left = "  ";
    if (S.Short != 0)
      Left += format("-%c, ", S.Short);
    else
      Left += "    ";
    Left += "--" + S.Name;
    if (S.TakesValue)
      Left += S.ValueOptional ? "[=" + S.Meta + "]" : " <" + S.Meta + ">";
    Out += padRight(Left, 34) + S.Help + "\n";
  }
  return Out;
}
