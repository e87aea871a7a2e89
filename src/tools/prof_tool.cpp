//===- tools/prof_tool.cpp - The prof(1) baseline CLI ----------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "gmon/GmonFile.h"
#include "prof/ProfBaseline.h"
#include "support/CommandLine.h"

#include <cstdio>

using namespace gprof;

int main(int Argc, char **Argv) {
  OptionParser Opts("prof",
                    "display a flat execution profile (the pre-gprof tool)");
  Opts.setPositionalHelp("image.tlx [gmon.out ...]");

  if (auto Rc = Opts.parseOrStop(Argc, Argv))
    return *Rc;
  if (Opts.positional().empty()) {
    std::fprintf(stderr, "prof: expected an image path\n");
    return 1;
  }

  auto Img = Image::loadFromFile(Opts.positional().front());
  if (!Img) {
    std::fprintf(stderr, "prof: %s\n", Img.message().c_str());
    return 1;
  }
  std::vector<std::string> GmonPaths(Opts.positional().begin() + 1,
                                     Opts.positional().end());
  if (GmonPaths.empty())
    GmonPaths.push_back("gmon.out");
  auto Data = readAndSumGmonFiles(GmonPaths);
  if (!Data) {
    std::fprintf(stderr, "prof: %s\n", Data.message().c_str());
    return 1;
  }

  ProfReport Report = analyzeProf(SymbolTable::fromImage(*Img), *Data);
  std::printf("%s", printProf(Report).c_str());
  return 0;
}
