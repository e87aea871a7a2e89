//===- tools/tlc.cpp - The TL compiler driver ------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles TL source to an executable image.  The --pg flag requests
/// profiling prologues, exactly as the paper's compilers did on request.
///
//===----------------------------------------------------------------------===//

#include "lang/ASTPrinter.h"
#include "lang/Diagnostics.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "support/CommandLine.h"
#include "support/FileUtils.h"
#include "vm/CodeGen.h"
#include "vm/Disassembler.h"

#include <cstdio>

using namespace gprof;

int main(int Argc, char **Argv) {
  OptionParser Opts("tlc", "compile TL source to a TLX executable image");
  Opts.setPositionalHelp("input.tl");
  Opts.addOption("output", 'o', "FILE", "output image path (default a.tlx)");
  Opts.addFlag("pg", 'p', "insert profiling prologues (mcount calls)");
  Opts.addOption("no-profile", 'n', "NAME",
                 "compile NAME without a profiling prologue (repeatable)");
  Opts.addOption("inline", 'i', "NAME",
                 "inline-expand calls to NAME (repeatable)");
  Opts.addFlag("disasm", 'd', "print a disassembly of the image");
  Opts.addFlag("dump-ast", 'a', "print the resolved AST and exit");

  if (auto Rc = Opts.parseOrStop(Argc, Argv))
    return *Rc;
  if (Opts.positional().size() != 1) {
    std::fprintf(stderr, "tlc: expected exactly one input file\n");
    return 1;
  }

  const std::string &InputPath = Opts.positional().front();
  auto Source = readFileText(InputPath);
  if (!Source) {
    std::fprintf(stderr, "tlc: %s\n", Source.message().c_str());
    return 1;
  }

  CodeGenOptions CG;
  CG.EnableProfiling = Opts.hasFlag("pg");
  CG.UnprofiledFunctions = Opts.getValues("no-profile");
  CG.InlineFunctions = Opts.getValues("inline");

  if (Opts.hasFlag("dump-ast")) {
    DiagnosticEngine Diags;
    Program P = parseTL(*Source, Diags);
    if (!Diags.hasErrors())
      analyze(P, Diags);
    std::fprintf(stderr, "%s", Diags.renderAll(InputPath).c_str());
    if (Diags.hasErrors())
      return 1;
    std::printf("%s", printAST(P).c_str());
    return 0;
  }

  DiagnosticEngine Diags;
  auto Img = compileTL(*Source, CG, Diags);
  std::fprintf(stderr, "%s", Diags.renderAll(InputPath).c_str());
  if (!Img)
    return 1;

  if (Opts.hasFlag("disasm"))
    std::printf("%s", disassemble(*Img).c_str());

  std::string OutputPath = Opts.getValue("output").value_or("a.tlx");
  if (Error E = Img->saveToFile(OutputPath)) {
    std::fprintf(stderr, "tlc: %s\n", E.message().c_str());
    return 1;
  }
  return 0;
}
