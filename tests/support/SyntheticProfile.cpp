//===- tests/support/SyntheticProfile.cpp ---------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "tests/support/SyntheticProfile.h"

#include <cmath>

using namespace gprof;

SyntheticProfileBuilder::SyntheticProfileBuilder(uint64_t TicksPerSecond,
                                                 Address Base,
                                                 uint64_t FuncSize)
    : TicksPerSecond(TicksPerSecond), Base(Base), FuncSize(FuncSize) {}

uint32_t SyntheticProfileBuilder::addFunction(const std::string &Name) {
  Names.push_back(Name);
  return static_cast<uint32_t>(Names.size() - 1);
}

void SyntheticProfileBuilder::addCall(uint32_t From, uint32_t To,
                                      uint64_t Count, uint32_t Site) {
  Data.addArc(siteOf(From, Site), entryOf(To), Count);
}

void SyntheticProfileBuilder::addSpontaneous(uint32_t Fn, uint64_t Count) {
  Data.addArc(0, entryOf(Fn), Count);
}

void SyntheticProfileBuilder::addStaticArc(uint32_t From, uint32_t To,
                                           uint32_t Site) {
  StaticArcs.push_back({siteOf(From, Site), entryOf(To)});
}

void SyntheticProfileBuilder::setSelfSeconds(uint32_t Fn, double Seconds) {
  SelfSeconds[Fn] = Seconds;
}

SyntheticProfileBuilder::Result SyntheticProfileBuilder::build() const {
  Result R;
  for (uint32_t I = 0; I != Names.size(); ++I)
    R.Syms.addSymbol(Names[I], entryOf(I), FuncSize);
  cantFail(R.Syms.finalize());

  R.Data = Data;
  R.Data.TicksPerSecond = TicksPerSecond;
  Histogram H(Base, Base + Names.size() * FuncSize, 1);
  for (const auto &[Fn, Seconds] : SelfSeconds) {
    auto Samples = static_cast<uint64_t>(
        std::llround(Seconds * static_cast<double>(TicksPerSecond)));
    for (uint64_t S = 0; S != Samples; ++S)
      H.recordPc(entryOf(Fn) + FuncSize / 2);
  }
  R.Data.Hist = std::move(H);
  R.StaticArcs = StaticArcs;
  return R;
}

Expected<ProfileReport>
SyntheticProfileBuilder::analyze(AnalyzerOptions Opts) const {
  Result In = build();
  Analyzer A(std::move(In.Syms), std::move(Opts));
  A.setStaticArcs(std::move(In.StaticArcs));
  return A.analyze(In.Data);
}
